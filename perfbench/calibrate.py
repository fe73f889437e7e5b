"""Machine-speed calibration of measured times.

The shared 2-vCPU hosts this benchmark was built on change speed by up to a
factor of two within seconds, across Python, numpy and JSON work alike,
while no steal time shows.  Raw times of one run therefore differ from the
next by 20-30% whatever the program does.  Every timed interval is instead
bracketed by a short fixed reference task of the workload's kind, and the
interval is reported at reference speed:

    calibrated = measured * REFERENCE_S / median(references around it)

On those hosts the ratio of a metriq trial's time to the adjacent reference
time stayed within a few percent while both swung by 2x.  REFERENCE_S is a
fixed unit (about the task's time on that host at its fast state), so
calibrated figures compare across commits.  The reference code lives here,
not in the program, and a change to it changes every figure: leave it alone.
Raw times are kept in the per-run record next to the calibrated ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.008
WINDOW = 3  # references on either side of an interval that set its factor

_MATRIX = np.random.default_rng(12345).random((96, 96))
_DOC = {"dist": _MATRIX.tolist()}
_BITS = np.random.default_rng(12345).integers(0, 2**12, size=(64, 4096))


def _mixed_work() -> float:
    """A mix like a quotient or HST trial's: small numpy calls in a Python
    loop, vectorised numpy over an n x n matrix, and a JSON round trip."""
    d = _MATRIX
    acc = 0.0
    for i in range(0, 96, 3):
        acc += float(d[np.ix_(range(i, i + 3), range(48))].min())
    acc += float(np.sort(d, axis=1)[:, 3].sum())
    acc += float(np.minimum(d[:, None, :24], d[None, :, :24]).sum())
    acc += len(json.loads(json.dumps(_DOC))["dist"])
    return acc


def _vector_work() -> float:
    """Integer numpy streaming over a few MB, like the cube certificate scan."""
    acc = 0
    for row in _BITS[:16]:
        acc += int(np.minimum(np.bitwise_count(_BITS ^ row), 6).max())
    return float(acc)


# Which work the reference does must match the trials': JSON round trips
# slow down more than the rest in some phases, so a JSON-free workload is
# calibrated by a JSON-free reference.  Both take about REFERENCE_S when fast.
REFERENCES = {"mixed": _mixed_work, "vector": _vector_work}


def reference_s(kind: str) -> float:
    work = REFERENCES[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class SpeedProbe:
    """Reference timings taken between consecutive timed intervals."""

    def __init__(self, kind: str):
        self.kind = kind
        self.refs = [reference_s(kind)]

    def mark(self):
        """Close the current interval; call right after it ends."""
        self.refs.append(reference_s(self.kind))

    def factors(self) -> list[float]:
        """Calibration factor of each interval so far, in order.

        A single reference timing is noisy, so interval i uses the median of
        the WINDOW references on either side of it.
        """
        return [REFERENCE_S / statistics.median(self.refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
                for i in range(len(self.refs) - 1)]


def settled_reference_s(kind: str, samples: int = 5) -> float:
    return statistics.median(reference_s(kind) for _ in range(samples))


def settled_factor(kind: str) -> float:
    """Calibration factor from a few back-to-back reference timings."""
    return REFERENCE_S / settled_reference_s(kind)
