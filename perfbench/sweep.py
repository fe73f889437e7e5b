"""Layer size sweep: single-layer timings at named sizes, outside the trials.

It reproduces, at sizes that keep the traced run short, the layer rows of the
ROADMAP baseline table: the block-min quotient on all singletons, the metric
validator, `hst_from_ultrametric` (no pipeline calls it), the colouring check
on the random colourings of `test_coloring_partition_bulk`, and the cube
certificate stream over d.  The costs grow as n^2 to n^3 and 4^d, so each
layer is timed at two or three sizes instead of one point.  Each figure is
one timing in seconds, calibrated as in calibrate.py; inputs are fixed, so
the same code does the same work at every seed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import pdist, squareform

from calibrate import REFERENCE_S, settled_reference_s

from metriq.constructions import check_coloring_result, coloring_partition
from metriq.core import MetricSpace, validate_metric
from metriq.cube import cube_qs_construct
from metriq.generators import gen_euclidean_cloud
from metriq.hst import hst_from_ultrametric, hst_to_metric
from metriq.quotient import quotient_metric
from metriq.seeds import RngSeed

QUOTIENT_N = (200, 400)
VALIDATE_N = (200, 400)
ULTRAMETRIC_N = (50, 100)
COLORING_TRIALS = 30
CUBE_D = (10, 12, 13)


def _timed(fn, *args, kind: str = "mixed"):
    """Calibrated seconds of fn(*args), and its result."""
    before = settled_reference_s(kind)
    start = time.perf_counter()
    result = fn(*args)
    secs = time.perf_counter() - start
    return secs * REFERENCE_S / ((before + settled_reference_s(kind)) / 2.0), result


def _ultrametric(n: int) -> MetricSpace:
    """Single-linkage (cophenetic) ultrametric of a fixed random cloud."""
    pts = np.random.default_rng(n).uniform(size=(n, 3))
    return MetricSpace(squareform(cophenet(linkage(pdist(pts), "single"))))


def _bulk_colorings(trials: int):
    """The first `trials` random colourings of test_coloring_partition_bulk."""
    rng = np.random.default_rng(10)
    for trial in range(trials):
        n = int(rng.integers(4, 257))
        k = int(rng.integers(1, 4))
        chi = rng.integers(1, k + 1, size=(n, n))
        chi = np.minimum(chi, chi.T)
        np.fill_diagonal(chi, 0)
        yield chi, coloring_partition(n, chi, seed=RngSeed(trial, 3))


class SweepError(Exception):
    """A swept layer returned a wrong result."""


def run_sweep() -> dict[str, float]:
    out: dict[str, float] = {}
    for n in QUOTIENT_N:
        m = gen_euclidean_cloud(n, RngSeed(n))
        secs, q = _timed(quotient_metric, m, [(i,) for i in range(n)])
        if not np.array_equal(q.metric.dist, m.dist):
            raise SweepError(f"singleton quotient of n={n} is not the identity")
        out[f"sweep.quotient_metric.singletons_n{n}_s"] = secs
    for n in VALIDATE_N:
        secs, report = _timed(validate_metric, gen_euclidean_cloud(n, RngSeed(n)))
        if not report.ok:
            raise SweepError(f"cloud n={n} reported as not a metric")
        out[f"sweep.validate_metric.n{n}_s"] = secs
    for n in ULTRAMETRIC_N:
        um = _ultrametric(n)
        secs, tree = _timed(hst_from_ultrametric, um)
        if not np.array_equal(hst_to_metric(tree).dist, um.dist):
            raise SweepError(f"ultrametric n={n} does not round-trip")
        out[f"sweep.hst_from_ultrametric.n{n}_s"] = secs
    total = 0.0
    for chi, res in _bulk_colorings(COLORING_TRIALS):
        secs, ok = _timed(check_coloring_result, chi, res)
        if not ok:
            raise SweepError("bulk colouring failed its check")
        total += secs
    out[f"sweep.check_coloring_result.bulk{COLORING_TRIALS}_s"] = total
    for d in CUBE_D:
        secs, res = _timed(cube_qs_construct, d, 0.2, 2.0, kind="vector")
        if res.report.distortion > res.certified_bound:
            raise SweepError(f"cube d={d} exceeds its certified bound")
        out[f"sweep.cube_qs_construct.d{d}_s"] = secs
    return out

