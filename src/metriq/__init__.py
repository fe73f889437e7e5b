"""metriq: constructive quotients and embeddings of finite metric spaces."""

from .core import (
    TOL,
    Equilateral,
    Lacunary,
    MetricSpace,
    Star,
    ValidationReport,
    aspect_ratio,
    block_reduce,
    decode_array,
    dumps,
    encode_array,
    metric_from_csv,
    metric_from_json,
    metric_to_csv,
    metric_to_json,
    nearest_radii,
    realize_special,
    validate_metric,
)
from .errors import (
    CapacityError,
    ConstructionFailureError,
    InsufficientBandError,
    MetriqError,
    NoMCenterError,
    ParameterError,
    ProbabilisticFailureError,
    StructuralError,
    UndefinedInputError,
)
from .hst import (
    HstTree,
    hst_from_json,
    hst_from_ultrametric,
    hst_to_json,
    hst_to_metric,
    is_ultrametric,
    join,
    leaf,
    ultrametric_to_l2,
    validate_khst,
)
from .quotient import (
    DistortionReport,
    Partition,
    QuotientSpace,
    distortion_between,
    quotient_by_subset,
    quotient_from_json,
    quotient_metric,
    quotient_to_json,
    sq_space,
)
from .seeds import RngSeed, as_seed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
