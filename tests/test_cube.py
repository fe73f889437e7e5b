import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_pair_counts,
    check_sandwich,
    cube_quotient,
    cube_singletons,
    cube_udist,
    cube_udist_to_block,
    greedy_net_by_centers,
    greedy_net_loop,
    stream_distortion_loop,
)
from metriq import cube
from metriq.core import validate_metric
from metriq.cube import (
    MAX_D,
    DistortionSummary,
    _bound_summary,
    _cell_ratio,
    _certify,
    _class_bound,
    _class_distortion,
    _class_kernel,
    _class_pair_counts,
    _embedding_lookup,
    _find_witnesses,
    _greedy_net,
    _krawtchouk,
    _net_radius,
    _shell_sums,
    _wht,
    cube_qs_construct,
)
from metriq.errors import CapacityError, ConstructionFailureError, ParameterError


def popcount(x):
    return bin(int(x)).count("1")


def test_net_is_separated_and_maximal():
    res = cube_qs_construct(10, 0.2)
    A = res.A
    r = res.r
    for i in range(A.size):
        for j in range(i + 1, A.size):
            assert popcount(A[i] ^ A[j]) >= 2 * r + 1
    # maximality: every cube point is within 2r of some center
    pts = np.arange(2**10)
    mind = np.full(2**10, 99)
    for a in A:
        np.minimum(mind, np.vectorize(popcount)(pts ^ a), out=mind)
    assert mind.max() <= 2 * r


@pytest.mark.parametrize("d", [6, 8, 10, 12])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_greedy_net_matches_loop(d, r):
    A, mind = _greedy_net(d, r)
    assert np.array_equal(A, greedy_net_loop(d, r))
    pts = np.arange(2**d)
    want = np.min(np.bitwise_count(pts[:, None] ^ A[None, :]), axis=1)
    assert np.array_equal(mind, want)


#: every eps the cube tests build at, over every d whose cube takes it
NET_EPS = (0.01, 0.05, 0.1, 0.15, 0.18, 0.2, 0.22, 0.24)


@pytest.mark.parametrize("d", [*range(1, 20), 20, 22])
def test_greedy_net_is_the_net_of_a_pass_per_center(d):
    # the doubling net, values and dtypes, against the loop it replaced
    for eps in NET_EPS if d < 20 else (0.2,):
        if eps < 2.0**-d:
            continue
        r = _net_radius(d, eps)
        (A, mind), (A_ref, mind_ref) = _greedy_net(d, r), greedy_net_by_centers(d, r)
        assert A.dtype == mind.dtype == np.int64
        assert np.array_equal(A, A_ref) and np.array_equal(mind, mind_ref), (d, eps)


def test_greedy_net_peak_memory_at_d22():
    # three int64 vectors over the 2^22 points: the distances, the XOR of the
    # points with a new generator, and the distances gathered there
    r = _net_radius(22, 0.2)
    tracemalloc.start()
    try:
        _greedy_net(22, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 2**22 + 2**20


@pytest.mark.parametrize("d", range(11))
def test_wht_is_the_sylvester_hadamard_product(d):
    H = np.ones((1, 1), dtype=np.int64)
    for _ in range(d):
        H = np.block([[H, H], [H, -H]])
    v = np.random.default_rng(d).integers(-5, 6, size=2**d)
    x, y = v.copy(), np.empty_like(v)
    out = _wht(x, y)
    assert out is x or out is y
    assert out.tolist() == (H @ v).tolist()


def test_block_count_and_survivor_rule():
    res = cube_qs_construct(10, 0.2)
    assert res.block_count >= (1 - 0.2) * 2**10
    # survivors are exactly the centers and the points outside every punctured ball
    for x, da in zip(res.S[:200], res.dA[:200]):
        assert da == 0 or da > res.r // 2


def test_materialized_quotient_consistent_with_closed_form():
    res = cube_qs_construct(10, 0.2)
    q = cube_quotient(res)
    assert q.metric.n == res.block_count
    assert validate_metric(q.metric).ok
    sing = cube_singletons(res)
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = rng.integers(0, sing.size, 2)
        if i == j:
            continue
        assert q.metric.d(int(i), int(j)) == cube_udist(res, int(sing[i]), int(sing[j]))
    # last block is the collapsed net
    assert q.blocks[-1] == tuple(int(a) for a in res.A)
    assert q.metric.d(0, q.metric.n - 1) == cube_udist_to_block(res, int(sing[0]))


def test_sandwich_on_sampled_pairs():
    res = cube_qs_construct(10, 0.2)
    assert check_sandwich(res, samples=5000, seed=1)


def test_certificate_below_traced_bound():
    res = cube_qs_construct(10, 0.2)
    assert res.certified_bound == pytest.approx(8.0 * math.sqrt(math.e * res.r / (math.e - 1)))
    assert res.report.distortion <= res.certified_bound + 1e-9


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.9])
def test_p_below_two_bound(p):
    res = cube_qs_construct(10, 0.2, p=p)
    assert res.report.distortion <= res.certified_bound + 1e-9
    assert check_sandwich(res, samples=2000, seed=3)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        cube_qs_construct(10, 0.3)
    with pytest.raises(ParameterError):
        cube_qs_construct(10, 2.0**-11)
    with pytest.raises(CapacityError):
        cube_qs_construct(23, 0.2)
    with pytest.raises(ParameterError):
        cube_qs_construct(10, 0.2, p=2.5)


# the ten (d, eps, p) cells of the benchmark's cube workload
CUBE_CELLS = [
    (8, 0.22, 1.5), (8, 0.24, 2.0),
    (10, 0.18, 2.0), (10, 0.2, 1.5), (10, 0.24, 2.0),
    (11, 0.2, 2.0), (11, 0.22, 1.5),
    (12, 0.15, 2.0), (12, 0.2, 1.5), (12, 0.24, 2.0),
]


def test_cube_cells_are_the_benchmark_cells(monkeypatch):
    # read perfbench's cube workload from its file, so CUBE_CELLS keeps
    # covering what the benchmark runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    cells = [(c.params["d"], c.params["eps"], c.params["p"]) for c in module.WORKLOADS["cube"]]
    assert sorted(cells) == sorted(CUBE_CELLS)


@pytest.mark.parametrize("d, eps, p", CUBE_CELLS)
def test_class_distortion_matches_stream(d, eps, p):
    res = cube_qs_construct(d, eps, p)
    lookup, block_norm = _embedding_lookup(d, res.r, p)
    assert res.report == stream_distortion_loop(res.S, res.dA, lookup, block_norm)


@st.composite
def labelled_subsets(draw):
    """A random cube subset with dA labels: 0 (net points) and 1 to d classes."""
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = np.flatnonzero(rng.random(2**d) < draw(st.floats(0.0, 1.0)))
    classes = rng.permutation(np.arange(1, d + 1))[: draw(st.integers(1, d))]
    dA = rng.choice(np.concatenate(([0], classes)), size=S.size).astype(np.float64)
    lookup = np.concatenate(([0.0], rng.uniform(0.1, 3.0, size=d)))
    return d, S, dA, lookup, draw(st.floats(0.1, 10.0))


@settings(max_examples=200, deadline=None)
@given(case=labelled_subsets())
def test_class_distortion_matches_stream_on_random_classes(case):
    d, S, dA, lookup, block_norm = case
    got = _class_distortion(d, S, dA, lookup, block_norm)
    assert got == stream_distortion_loop(S, dA, lookup, block_norm)


def test_the_bound_path_certifies_the_benchmark_cells_without_the_kernel(monkeypatch):
    def kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(cube, "_class_distortion", kernel)
    for d, eps, p in CUBE_CELLS:
        assert 1 <= len(cube_qs_construct(d, eps, p).witnesses) <= 2


def test_bound_path_matches_the_kernel():
    built = 0
    grid = itertools.product(range(4, 15), (0.01, 0.05, 0.1, 0.15, 0.18, 0.2, 0.22, 0.24), (2.0, 1.5, 1.0))
    for d, eps, p in grid:
        try:
            res = cube_qs_construct(d, eps, p)
        except (ParameterError, ConstructionFailureError):
            continue
        built += 1
        lookup, block_norm = _embedding_lookup(d, res.r, p)
        exact = _class_distortion(d, res.S, res.dA, lookup, block_norm)
        assert (res.report.expansion, res.report.contraction, res.report.pairs) == (
            exact.expansion, exact.contraction, exact.pairs), (d, eps, p)
    assert built == 102  # of the 264 cells; none below d = 7


def test_an_unattained_bound_falls_back_to_the_kernel():
    # the one region of the d = 4..22 sweep where no witness attains the bound
    d, eps = 19, 0.15
    r = _net_radius(d, eps)
    _, dA = _greedy_net(d, r)
    lookup, block_norm = _embedding_lookup(d, r, 2.0)
    bound = _class_bound(d, dA, r // 2, lookup, block_norm)
    assert bound.hi / bound.lo == pytest.approx(5.898, abs=1e-3)
    assert _find_witnesses(d, dA, r // 2, lookup, bound) is None
    res = cube_qs_construct(d, eps, 2.0)
    assert res.witnesses == []
    assert res.report == _class_distortion(d, res.S, res.dA, lookup, block_norm)
    assert res.report.distortion == pytest.approx(5.588, abs=1e-3)


@st.composite
def net_classes(draw):
    """Every point's class in {0,1}^d, d <= 9: its Hamming distance to a random
    nonempty set, kept on a random subset of the points and 0 elsewhere, so
    that classes are 1-Lipschitz as distances to a net are; and a random
    positive embedding lookup and block norm."""
    d = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.choice(2**d, size=draw(st.integers(1, min(8, 2**d))), replace=False)
    dist = np.bitwise_count(np.arange(2**d)[:, None] ^ centers[None, :]).min(axis=1).astype(np.int64)
    lab = np.where(rng.random(2**d) < draw(st.floats(0.0, 1.0)), dist, 0)
    lookup = np.concatenate(([0.0], rng.uniform(0.1, 3.0, size=d)))
    return d, lab, lookup, draw(st.floats(0.1, 10.0))


@settings(max_examples=200, deadline=None)
@given(case=net_classes())
def test_bound_is_above_the_kernel_and_equal_where_witnessed(case):
    # class 0 is no singleton, so the cut is 0
    d, lab, lookup, block_norm = case
    exact = _class_kernel(d, lab, 0, lookup, block_norm)
    bound = _class_bound(d, lab, 0, lookup, block_norm)
    assert _certify(d, lab, 0, lookup, block_norm)[0] == exact
    if bound is None:
        assert exact == DistortionSummary(0.0, 0.0, 0)
        return
    assert bound.hi >= exact.expansion and 1.0 / bound.lo >= exact.contraction
    witnesses = _find_witnesses(d, lab, 0, lookup, bound)
    if witnesses is not None:
        assert _bound_summary(bound) == exact
        for x, y in witnesses:
            assert lab[x] and lab[y]
            assert _cell_ratio(lookup, lab[x] + lab[y], (x ^ y).bit_count()) in (bound.hi, bound.lo)


def test_class_pair_counts_exact_beyond_int64():
    # one class holding all of {0,1}^22: the Krawtchouk contraction passes
    # 4^d * C(22, 11) ~ 2^63.4, past int64, before the division by 2^d
    d = 22
    counts = _class_pair_counts(d, [np.arange(2**d, dtype=np.int64)])
    assert counts.dtype == object  # the overflow guard chose Python ints
    assert counts[0].tolist() == [0] + [2 ** (d - 1) * math.comb(d, h) for h in range(1, d + 1)]


@st.composite
def disjoint_classes(draw):
    """1 to 7 disjoint nonempty classes of {0,1}^d, d <= 8; many are one point."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.permutation(2**d)[: draw(st.integers(1, 2**d))].astype(np.int64)
    k = draw(st.integers(1, min(7, pts.size)))
    ones = draw(st.integers(0, k - 1))  # leading one-point classes
    cuts = np.sort(rng.choice(np.arange(ones + 1, pts.size), k - 1 - ones, replace=False))
    return d, np.split(pts, np.concatenate((np.arange(1, ones + 1), cuts)).astype(int))


@settings(max_examples=150, deadline=None)
@given(case=disjoint_classes())
def test_class_pair_counts_match_brute_force(case):
    d, classes = case
    counts = _class_pair_counts(d, classes)
    assert counts.dtype == np.int64
    assert counts.tolist() == brute_pair_counts(d, classes)


def test_int64_contraction_matches_python_ints_near_the_bound():
    # the lower half of {0,1}^20 without 0, the point 0, and the upper half:
    # max|K| = C(20, 10) and sum|shell| = 2^39 put the partial-sum bound
    # within a factor 2^7 of 2^63, and the guard keeps int64
    d = 20
    half = 2 ** (d - 1)
    classes = [np.arange(1, half), np.array([0]), np.arange(half, 2 * half)]
    shell, kraw = _shell_sums(d, classes), _krawtchouk(d)
    assert 2**56 < int(np.abs(kraw).max()) * int(np.abs(shell).sum(axis=1).max()) < 2**63
    assert (shell @ kraw.T == shell.astype(object) @ kraw.T.astype(object)).all()
    counts = _class_pair_counts(d, classes)
    assert counts.dtype == np.int64
    low = [math.comb(d - 1, h) for h in range(d + 1)]  # weight-h points of a half
    cross = [0] + low[:-1]  # pairs across the halves differ in the top bit
    assert counts.tolist() == [
        [0] + [(half // 2 - 1) * k for k in low[1:]],  # (0, 0): inside the half, none with 0
        [0] + low[1:],  # (0, 1)
        [(half - 1) * k for k in cross],  # (0, 2)
        [0] * (d + 1),  # (1, 1)
        cross,  # (1, 2)
        [0] + [half // 2 * k for k in low[1:]],  # (2, 2)
    ]


@pytest.mark.parametrize("d", range(1, MAX_D + 1))
def test_krawtchouk_table_is_the_defining_sum(d):
    K = _krawtchouk(d)
    assert K.dtype == np.int64
    assert K.tolist() == [
        [sum((-1) ** j * math.comb(w, j) * math.comb(d - w, h - j) for j in range(h + 1))
         for w in range(d + 1)]
        for h in range(d + 1)
    ]


# tracemalloc peak of `_class_distortion` at d = 16, eps = 0.2 before the
# certificate kernel was batched (one transform and Python-int sums per class)
PEAK_BEFORE_BATCHING = 6_436_832


def test_class_distortion_memory_stays_at_the_per_class_peak():
    res = cube_qs_construct(16, 0.2)
    lookup, block_norm = _embedding_lookup(16, res.r, 2.0)
    tracemalloc.start()
    try:
        _class_distortion(16, res.S, res.dA, lookup, block_norm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * PEAK_BEFORE_BATCHING


def test_certificate_covers_every_pair_at_d16():
    res = cube_qs_construct(16, 0.2)
    n = cube_singletons(res).size
    assert res.report.pairs == n * (n - 1) // 2 + n
