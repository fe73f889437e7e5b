"""Exception taxonomy shared by every module.

The split mirrors how failures actually arise: malformed inputs (structural),
out-of-range parameters, hard size caps, and rejection-sampling loops that ran
out of attempts even though success has positive probability.
"""


class MetriqError(Exception):
    """Base class for all library errors."""


class StructuralError(MetriqError):
    """The input object violates a structural invariant (shape, symmetry, overlap...)."""


class UndefinedInputError(MetriqError):
    """The requested quantity is undefined for this input (e.g. empty set distance)."""


class ParameterError(MetriqError):
    """A numeric parameter is outside its admissible range."""


class CapacityError(ParameterError):
    """The request exceeds a hard enumeration cap (exact modes, bucket counts)."""


class ProbabilisticFailureError(MetriqError):
    """A rejection-sampling loop made constructions.RESAMPLE_CAP draws and
    accepted none; the message gives the draw count and the acceptance test.
    """


class InsufficientBandError(MetriqError):
    """A construction needs more points in a distance band than the input has."""


class NoMCenterError(MetriqError):
    """The space has no point satisfying the required center property."""


class ConstructionFailureError(MetriqError):
    """A construction ran to completion but missed its guaranteed output size.

    Carries a diagnostics dict describing what was achieved.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
