import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriq import constructions
from metriq.constructions import (
    ColoringResult,
    aspect_quotient,
    check_coloring_result,
    coloring_partition,
    composition_qs,
    find_m_center,
    find_star_quotient,
    hst_from_m_centered,
    m_center_quotient,
    q2_lacunary,
    q_dichotomy,
    ts_sets,
    weighted_coloring_partition,
)
from metriq.core import (
    Equilateral,
    MetricSpace,
    Star,
    nearest_radii,
    realize_special,
    validate_metric,
)
from metriq.errors import (
    ConstructionFailureError,
    MetriqError,
    ParameterError,
    ProbabilisticFailureError,
    StructuralError,
    UndefinedInputError,
)
from metriq.generators import (
    gen_euclidean_cloud,
    gen_padded_copies,
    gen_random_graph_metric,
    random_composition_tree,
)
from metriq.hst import hst_from_splits, hst_to_metric, validate_khst
from metriq.quotient import claim_slack, distortion_between, lip_colip, quotient_metric
from metriq.seeds import RngSeed

from conftest import (
    check_coloring_loop,
    coloring_partition_loop,
    distance_buckets_loop,
    euclidean_cloud_broadcast,
    hausdorff,
    hst_from_m_centered_dense,
    is_m_center,
    random_metric,
    random_partition,
)


# --- m-centers -------------------------------------------------------------


def brute_is_m_center(m, x, mparam):
    """Definition scan: x lies in every ball (any center, any realized radius)
    of cardinality >= mparam."""
    for y in range(m.n):
        for rad in sorted(set(m.dist[y])):
            ball = set(np.flatnonzero(m.dist[y] <= rad))
            if len(ball) >= mparam and x not in ball:
                return False
    return True


def test_is_m_center_matches_definition_scan():
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = random_metric(int(rng.integers(3, 9)), 50 + trial)
        for mparam in (1.0, 2.0, 3.5, float(m.n), float(m.n + 1)):
            for x in range(m.n):
                assert is_m_center(m, x, mparam) == brute_is_m_center(m, x, mparam)


def test_every_point_centers_equilateral():
    m = realize_special(Equilateral(6, 1.0))
    for x in range(6):
        assert is_m_center(m, x, 3.0)


def test_find_m_center_lowest_index():
    m = realize_special(Equilateral(4, 1.0))
    assert find_m_center(m, 2.0) == 0


def test_mparam_above_n_is_vacuous():
    m = random_metric(5, 1)
    assert is_m_center(m, 0, 6.0)
    assert find_m_center(m, 6.0) == 0


def test_m_center_quotient_invariants():
    for s in range(10):
        m = random_metric(80, 300 + s)
        eps = 0.25
        T, q, attempts = m_center_quotient(m, eps, seed=s)
        assert len(T) <= eps * m.n + 1e-12
        assert q.metric.n == m.n - len(T) + 1
        assert q.blocks[-1] == tuple(T)
        mparam = 2.0 * math.log(2.0 / eps) / eps
        assert is_m_center(q.metric, q.metric.n - 1, mparam)


def test_m_center_quotient_stops_after_resample_cap_draws(monkeypatch):
    # |T| <= eps * n = 0.3 needs an empty T, which is never accepted
    draws = []
    rng = np.random.default_rng(0)

    class CountingSeed:
        def rng(self):
            return self

        def random(self, n):
            draws.append(n)
            return rng.random(n)

    monkeypatch.setattr(constructions, "RESAMPLE_CAP", 3)
    monkeypatch.setattr(constructions, "as_seed", lambda seed: CountingSeed())
    with pytest.raises(ProbabilisticFailureError, match=r"\|T\| <= 0\.3 in 3 attempts"):
        m_center_quotient(random_metric(3, 0), 0.1)
    assert draws == [3, 3, 3]


def test_hst_from_m_centered_certificate():
    m = realize_special(Equilateral(7, 2.0))
    t, rep = hst_from_m_centered(m, 3)
    assert t.delta[0] == m.diameter()
    assert rep.contraction <= 1.0 + 1e-12
    assert rep.distortion <= 6.0 + 1e-9
    assert validate_metric(hst_to_metric(t)).ok


def test_hst_from_m_centered_rejects_bad_mparam():
    m = random_metric(5, 2)
    with pytest.raises(ParameterError):
        hst_from_m_centered(m, 1)


@pytest.mark.parametrize("d", [[[0, 0], [0, 0]], [[0, 0, 1], [0, 0, 1], [1, 1, 0]]])
def test_hst_from_m_centered_refuses_points_at_distance_zero(d):
    with pytest.raises(StructuralError, match="distance 0"):
        hst_from_m_centered(MetricSpace(np.array(d, dtype=float)), 2)


# an eps whose m_center_quotient block is an m-center: 2 ln(2/eps)/eps <= mparam
EPS_FOR_MPARAM = {2: 0.9, 3: 0.75, 5: 0.55, 17: 0.25}


@st.composite
def centered_cases(draw):
    """(metric, mparam): clouds (dim 1-3) and two-valued gnp metrics, raw or
    through m_center_quotient, and equilateral and star metrics (all ties);
    a quarter get one entry raised by 1e-12 relative, so they are asymmetric."""
    kind = draw(st.sampled_from(["cloud", "gnp", "equilateral", "star"]))
    n = draw(st.integers(1, 70))
    mparam = draw(st.sampled_from(sorted(EPS_FOR_MPARAM)))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "equilateral":
        m = realize_special(Equilateral(n, draw(st.sampled_from([0.5, 1.0, 3.0]))))
    elif kind == "star":
        m = realize_special(Star(n, draw(st.sampled_from([1.0, 1.5, 2.0]))))
    else:
        if kind == "cloud":
            m = gen_euclidean_cloud(n, RngSeed(seed), draw(st.integers(1, 3)))
        else:
            m = gen_random_graph_metric(n, draw(st.sampled_from([0.05, 0.3, 0.8])), RngSeed(seed))[0]
        if m.n >= 2 and draw(st.booleans()):
            try:
                m = m_center_quotient(m, EPS_FOR_MPARAM[mparam], RngSeed(seed, 1))[1].metric
            except ProbabilisticFailureError:
                pass
    if m.n >= 2 and draw(st.integers(0, 3)) == 0:
        d = m.dist.copy()
        d[0, 1] *= 1.0 + 1e-12
        m = MetricSpace(d)
    return m, mparam


def _build_outcome(build, m, mparam):
    try:
        t, rep = build(m, mparam)
    except MetriqError as exc:
        return type(exc).__name__
    return t.order.tobytes(), t.parent.tobytes(), t.delta.tobytes(), rep.distortion


# the batch's center is 2; peeling 0 makes 1 a center, and the next cut,
# taken with 2 held fixed, peels 1: center() is 2 again after the batch, and
# only viol[1] = 0 shows that the center moved
PEELED_CENTER_CASE = (
    MetricSpace(np.array([
        [0, 2, 1, 1, 1],
        [2, 0, 1, 1, 1],
        [1, 1, 0, 1, 1],
        [1, 1, 1, 0, 1],
        [1, 1, 1, 1, 0],
    ], dtype=float)),
    2,
)


# d(0, 2) = 2 and all else 1, mparam 2: the first batch (center 1) peels 0
# and then 2; viol[0] is 1 after the first peel and 0 after the second, so
# the batch is rejected at its last peel, and the bisection keeps both steps
LAST_PEEL_REJECTED_CASE = (
    MetricSpace(np.array([
        [0, 1, 2, 1],
        [1, 0, 1, 1],
        [2, 1, 0, 1],
        [1, 1, 1, 0],
    ], dtype=float)),
    2,
)
# the same with d(2, 0) raised by 1e-12 relative: the farthest pair is the
# lower entry (2, 0), which makes a = 0 where (0, 2) would make a = 2
_lower = LAST_PEEL_REJECTED_CASE[0].dist.copy()
_lower[2, 0] *= 1.0 + 1e-12
LOWER_FARTHEST_CASE = (MetricSpace(_lower), 2)


@settings(max_examples=300, deadline=None)
@given(centered_cases())
@example(PEELED_CENTER_CASE)
@example(LAST_PEEL_REJECTED_CASE)
@example(LOWER_FARTHEST_CASE)
def test_hst_from_m_centered_matches_dense_splitter(case):
    m, mparam = case
    assert _build_outcome(hst_from_m_centered, m, mparam) == _build_outcome(hst_from_m_centered_dense, m, mparam)


@pytest.mark.parametrize("kind, n, mparam", [
    ("cloud", 300, 17), ("cloud", 120, 5), ("cloud", 80, 2), ("gnp", 200, 17), ("gnp", 90, 3),
])
def test_only_the_peeling_chain_has_mparam_points(monkeypatch, kind, n, mparam):
    if kind == "cloud":
        m = gen_euclidean_cloud(n, RngSeed(n))
    else:
        m = gen_random_graph_metric(n, 0.05, RngSeed(n))[0]
    q = m_center_quotient(m, EPS_FOR_MPARAM[mparam], RngSeed(n, 1))[1].metric
    items = []

    def recording(root, split):
        return hst_from_splits(root, lambda item: items.append(item) or split(item))

    monkeypatch.setattr(constructions, "hst_from_splits", recording)
    hst_from_m_centered(q, mparam)
    # an item is the chain (standing for its next set) or a set's index array
    chains = [item for item in items if isinstance(item, constructions._PeelChain)]
    assert len({id(chain) for chain in chains}) == 1  # one chain, started at the root
    large = [item.size for item in items if isinstance(item, np.ndarray) and item.size >= mparam]
    assert large == [q.n]  # the root is the only large set off the chain
    assert len(chains) >= q.n - 2 * mparam  # it peels a point or so per split


def test_peel_batches_take_the_bisection_and_the_peeled_center_clause(monkeypatch):
    # a batch is rejected iff it calls forward(), which finds the steps to
    # keep; the clause fires when the batch's one recount leaves center() == x
    # but a peeled y < x at viol[y] = 0
    seen = []
    forward = constructions._PeelChain.forward

    def spy_forward(self, x, saved, peels):
        R = np.concatenate(peels)
        clause = self.center() == x and not np.all(self.viol[R[R < x]] > 0)
        kept = forward(self, x, saved, peels)
        seen.append((clause, kept, len(peels)))
        return kept

    monkeypatch.setattr(constructions._PeelChain, "forward", spy_forward)
    hst_from_m_centered(*PEELED_CENTER_CASE)
    assert seen == [(True, 0, 3)]
    seen.clear()
    hst_from_m_centered(*LAST_PEEL_REJECTED_CASE)
    assert seen == [(True, 1, 2)]
    seen.clear()
    q = m_center_quotient(gen_euclidean_cloud(300, RngSeed(300)), 0.25, RngSeed(300, 1))[1].metric
    hst_from_m_centered(q, 17)
    assert len(seen) > 1 and any(kept > 0 for _, kept, _ in seen)


@pytest.mark.parametrize("n, seed, most", [(300, 300, 35), (700, 0, 32)])
def test_peel_chain_recounts_per_build(monkeypatch, n, seed, most):
    # one recount per accepted batch and about log2(32) per rejected one
    calls = []
    recount = constructions._PeelChain.recount
    monkeypatch.setattr(constructions._PeelChain, "recount", lambda self, R: calls.append(R.size) or recount(self, R))
    q = m_center_quotient(gen_euclidean_cloud(n, RngSeed(seed)), 0.25, RngSeed(seed, 1))[1].metric
    hst_from_m_centered(q, 17)
    assert len(calls) <= most


def test_hst_from_m_centered_golden_n700():
    # tree arrays of the n = 700 cloud's m-center quotient, as the dense
    # splitter built them; later changes must keep these bytes
    m = gen_euclidean_cloud(700, RngSeed(0))
    q = m_center_quotient(m, 0.25, RngSeed(0, 1))[1].metric
    t, rep = hst_from_m_centered(q, 17)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (t.order, t.parent, t.delta))).hexdigest()
    assert (q.n, t.parent.size, rep.distortion) == (538, 1075, 12.48881700012949)
    assert digest == "525bb5d9eccb80c65dde27b1f8a8508ad28b74fb152b8c184bab3a56f1551a03"


def test_hst_from_m_centered_peak_memory_stays_below_its_input_cloud():
    # the build, with the cloud and its quotient still alive, must stay below
    # the peak of generating its input cloud by the n x n x 3 broadcast
    # (conftest's oracle; golden input, N = 538), so its sort temporaries stay
    # small; the generator itself sums one coordinate at a time and may peak
    # at three n x n matrices
    tracemalloc.start()
    try:
        euclidean_cloud_broadcast(700, RngSeed(0))
        broadcast_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        m = gen_euclidean_cloud(700, RngSeed(0))
        cloud_peak = tracemalloc.get_traced_memory()[1] - base
        q = m_center_quotient(m, 0.25, RngSeed(0, 1))[1].metric
        tracemalloc.reset_peak()
        hst_from_m_centered(q, 17)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.n == 538 and build_peak < broadcast_peak
    assert cloud_peak <= 3 * 8 * 700**2


@st.composite
def tied_matrices(draw):
    """Square matrices over an alphabet of at most six values: heavy ties,
    +-0.0 and negative entries, optionally symmetrized, and sometimes one
    entry raised by 1e-12 relative so that the matrix is asymmetric."""
    n = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-4.0, 4.0))
    alphabet = np.array(draw(st.lists(value, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = alphabet[rng.integers(alphabet.size, size=(n, n))]
    if draw(st.booleans()):
        d = np.maximum(d, d.T)
    if draw(st.booleans()):
        d[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] *= 1.0 + 1e-12
    if draw(st.booleans()):
        np.fill_diagonal(d, draw(st.sampled_from([alphabet.max(), 5.0, -0.0])))
    return d


@settings(max_examples=300, deadline=None)
@given(tied_matrices())
def test_pair_order_is_the_stable_argsort_once_per_pair(d):
    # the full stable argsort, keeping the first of each pair's two entries
    full = np.argsort(-d, axis=None, kind="stable")
    i, j = np.divmod(full, d.shape[0])
    _, first = np.unique(np.minimum(i, j) * d.shape[0] + np.maximum(i, j), return_index=True)
    assert np.array_equal(constructions._pair_order(d), full[np.sort(first)])


@st.composite
def lone_peel_cases(draw):
    """(dist, alive, x, ai, bi, mparam) with entries on and beside the band
    edges width, 2 * width and 3 * width, a diagonal that is 0 or one of
    those, and sometimes a diameter <= 0."""
    n = draw(st.integers(2, 12))
    mparam = draw(st.integers(2, 6))
    delta = draw(st.sampled_from([1.0, 3.0, 0.1, 7.3, 0.0, -1.0]))
    near = np.arange(1.0, 4.0) * (delta / (2.0 * mparam))
    near = np.concatenate([near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.choice(np.concatenate([[0.0, delta, delta / 2.0], near, rng.uniform(0.0, 8.0, 3)]), size=(n, n))
    if draw(st.booleans()):
        d = np.minimum(d, d.T)
    np.fill_diagonal(d, draw(st.sampled_from([0.0] * 3 + near.tolist())))
    alive = rng.random(n) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    live = np.flatnonzero(alive) if alive.any() else np.array([0])
    alive[live] = True
    x, ai, bi = (int(v) for v in rng.choice(live, 3))
    d[ai, bi] = delta
    return d, alive, x, ai, bi, mparam


@settings(max_examples=1000, deadline=None)
@given(lone_peel_cases())
def test_lone_peel_agrees_with_cut(case):
    d, alive, x, ai, bi, mparam = case
    X = np.flatnonzero(alive)
    lone = constructions._lone_peel(d, alive, x, ai, bi, mparam)
    try:
        delta, inside = constructions._cut(d, X, x, ai, bi, mparam)
        peel = X[inside].tolist()
    except (StructuralError, ConstructionFailureError):
        peel = None
    if lone is not None:
        assert peel == lone.tolist() and len(peel) == 1 and delta == d[ai, bi]
    else:
        # _cut peels a alone only where d(a, a) is not below width
        a = ai if d[x, ai] >= d[ai, bi] / 2.0 else bi
        assert peel != [a] or d[a, a] >= d[ai, bi] / (2.0 * mparam)


# --- ts_sets ---------------------------------------------------------------


def test_ts_sets_nearest_neighbor_property():
    m = random_metric(60, 4)
    S, T, attempts = ts_sets(m, seed=5)
    assert len(T) >= m.n / 4
    r = nearest_radii(m)
    Sset = set(S)
    for x in T:
        assert x not in Sset
        assert min(m.d(x, s) for s in S) == r[x]


# --- colorings -------------------------------------------------------------


def random_coloring(rng, n, k):
    chi = rng.integers(1, k + 1, size=(n, n))
    chi = np.minimum(chi, chi.T)
    np.fill_diagonal(chi, 0)
    return chi


def test_coloring_partition_invariants():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(4, 64))
        k = int(rng.integers(1, 4))
        chi = random_coloring(rng, n, k)
        res = coloring_partition(n, chi, seed=trial)
        assert res.s >= 2
        assert check_coloring_result(chi, res)


def test_coloring_single_color_gives_all_singletons():
    n = 8
    chi = np.ones((n, n), dtype=int)
    np.fill_diagonal(chi, 0)
    res = coloring_partition(n, chi, seed=0)
    assert res.s == n and res.ell == 1
    assert check_coloring_result(chi, res)


def test_check_coloring_result_catches_bad_blocks():
    n = 4
    chi = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])
    good = ColoringResult(((0, 1), (2, 3)), 2)
    assert check_coloring_result(chi, good)
    bad = ColoringResult(((0, 2), (1, 3)), 2)  # cross pairs contain color 1
    assert not check_coloring_result(chi, bad)
    # every cross minimum is ell = 1, but point 1 has no color-1 partner in
    # block (2,); the two block orders put the gap on either side of the pair
    chi = np.array([[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    assert check_coloring_result(chi, ColoringResult(((0,), (2,)), 1))
    for blocks in (((0, 1), (2,)), ((2,), (0, 1))):
        assert not check_coloring_result(chi, ColoringResult(blocks, 1))


def test_check_coloring_result_matches_loop():
    rng = np.random.default_rng(11)
    for trial in range(150):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, 4))
        chi = random_coloring(rng, n, k)
        res = coloring_partition(n, chi, seed=trial)
        moved = [list(b) for b in res.blocks]
        if len(moved[0]) > 1:
            moved[-1].append(moved[0].pop())
        cases = [res, ColoringResult(tuple(map(tuple, moved)), res.ell)]
        for ell in range(1, k + 1):
            cases.append(ColoringResult(random_partition(n, rng), ell))
        for case in cases:
            assert check_coloring_result(chi, case) == check_coloring_loop(chi, case), (trial, case)


def coloring_outcome(fn, n, chi, seed, kcolors=None):
    """(blocks and ell, or the error's type and message; the generator state
    after the call) of fn(n, chi, seed, kcolors)."""
    made = []

    class RecordingSeed(RngSeed):
        def rng(self):
            made.append(super().rng())
            return made[-1]

    try:
        res = fn(n, chi, RecordingSeed(seed, 3), kcolors=kcolors)
        out = (res.blocks, res.ell)
    except MetriqError as exc:
        out = (type(exc), str(exc))
    return out, made[0].bit_generator.state if made else None


def assert_coloring_matches_loop(n, chi, seed, kcolors=None):
    got = coloring_outcome(coloring_partition, n, chi, seed, kcolors)
    assert got == coloring_outcome(coloring_partition_loop, n, chi, seed, kcolors)
    (blocks, ell), _ = got
    if isinstance(blocks, tuple):  # plain ints, as the bundles serialise them
        assert type(ell) is int and all(type(v) is int for blk in blocks for v in blk)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 200), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_coloring_partition_matches_loop_reference(n, k, seed, pass_k):
    chi = random_coloring(np.random.default_rng(seed), n, k)
    assert_coloring_matches_loop(n, chi, seed, k if pass_k else None)


def test_coloring_partition_matches_loop_reference_seeded():
    rng = np.random.default_rng(26)
    for trial in range(120):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(1, 7))
        chi = random_coloring(rng, n, k)
        # skew towards the least colour so that levels take the dense branch too
        if trial % 3 == 0:
            chi = np.where(rng.random((n, n)) < 0.6, 1, chi)
            chi = np.minimum(chi, chi.T)
            np.fill_diagonal(chi, 0)
        assert_coloring_matches_loop(n, chi, trial, k if trial % 2 else None)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8])
def test_coloring_partition_matches_loop_reference_at_dtype_extremes(dtype):
    top = np.iinfo(dtype).max
    rng = np.random.default_rng(int(top) % 1000)
    for n in (2, 3, 9, 40):
        # one colour only, the dtype's max, with the diagonal at 0 or at max
        for diag in (0, top):
            chi = np.full((n, n), top, dtype=dtype)
            np.fill_diagonal(chi, diag)
            assert_coloring_matches_loop(n, chi, n)
        # the max as the larger of two colours, and as a colour above ell
        for low in (1, top - 1):
            chi = np.where(rng.random((n, n)) < 0.5, low, top).astype(dtype)
            chi = np.minimum(chi, chi.T)
            np.fill_diagonal(chi, top)
            assert_coloring_matches_loop(n, chi, n)
            assert_coloring_matches_loop(n, chi, n, kcolors=1)


def test_coloring_partition_matches_loop_reference_on_min_colour_pairs():
    # ell realised by a few pairs only: the pair fallback picks the first one
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(2, 60))
        chi = np.full((n, n), 3)
        pairs = rng.integers(0, n, size=(int(rng.integers(1, 4)), 2))
        for i, j in pairs:
            if i != j:
                chi[i, j] = chi[j, i] = 1
        np.fill_diagonal(chi, 0)
        for kcolors in (None, 1, 2, 3):
            assert_coloring_matches_loop(n, chi, trial, kcolors)


@pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0])
def test_distance_buckets_match_loop_reference(alpha):
    spaces = [gen_euclidean_cloud(n, 300 + n) for n in (2, 7, 40, 130)]
    spaces += [gen_random_graph_metric(n, q, 400 + n)[0] for n, q in ((5, 0.5), (60, 0.05), (90, 0.3))]
    spaces.append(MetricSpace(np.full((4, 4), 2.5) - 2.5 * np.eye(4)))  # one distance: k = 1
    # a hub at distance alpha^(j - delta) from its points, which are at the
    # larger of their two radii from each other: the 1e-12 nudge puts
    # delta = 1e-13 in the band of alpha^j and leaves 1e-10 in the band below
    r = np.array([1.0] + [alpha ** (j - delta) for j in (1, 2, 3, 4) for delta in (0.0, 1e-13, 1e-10)])
    hub = np.zeros((r.size + 1, r.size + 1))
    hub[0, 1:] = hub[1:, 0] = r
    hub[1:, 1:] = np.maximum(r[:, None], r[None, :])
    np.fill_diagonal(hub, 0.0)
    spaces.append(MetricSpace(hub))
    for m in spaces:
        chi, k, mind = constructions._distance_buckets(m, alpha)
        ref, kref, mref = distance_buckets_loop(m, alpha)
        assert chi.dtype == ref.dtype and np.array_equal(chi, ref)
        assert (k, mind) == (kref, mref) and type(k) is type(kref) and type(mind) is type(mref)


def test_distance_buckets_keep_the_loop_reference_errors():
    flat = MetricSpace(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    for m in (flat, MetricSpace(np.zeros((1, 1)))):
        with pytest.raises(UndefinedInputError) as ref:
            distance_buckets_loop(m, 2.0)
        with pytest.raises(UndefinedInputError, match=f"^{re.escape(str(ref.value))}$"):
            constructions._distance_buckets(m, 2.0)


def test_weighted_coloring_heavy_pair():
    n = 6
    chi = random_coloring(np.random.default_rng(7), n, 2)
    w = np.array([100.0, 100.0, 0.1, 0.1, 0.1, 0.1])
    res, sigma, ok = weighted_coloring_partition(n, chi, w, seed=8)
    assert ok
    assert sigma == 1.0 / (8.0 * 2 * math.log(3.0))
    total = w.sum()
    ssum = sum(w[list(b)].max() ** sigma for b in res.blocks)
    assert ssum >= total**sigma - 1e-9


# --- aspect quotients ------------------------------------------------------


def test_aspect_quotient_band_and_model():
    for s in range(5):
        m = random_metric(40, 400 + s)
        res = aspect_quotient(m, 2.0, seed=s)
        lo, hi = res.band
        cross = res.quotient.metric.dist[np.triu_indices(res.quotient.metric.n, k=1)]
        assert np.all(cross >= lo - 1e-9) and np.all(cross <= hi + 1e-9)
        assert res.report.distortion <= 2.0 + 1e-9


def test_aspect_quotient_lipschitz_checks_hausdorff():
    m = random_metric(30, 5)
    res = aspect_quotient(m, 2.0, lipschitz=True, seed=9)
    lo, hi = res.band
    for i in range(len(res.quotient.blocks)):
        for j in range(i + 1, len(res.quotient.blocks)):
            h = hausdorff(m, res.quotient.blocks[i], res.quotient.blocks[j])
            assert lo - 1e-9 <= h <= hi + 1e-9


def test_aspect_quotient_lipschitz_refuses_a_far_point_in_a_block(monkeypatch):
    # unit triangle a, b, c plus a far point c' in c's block: every set
    # distance is 1, but H({a}, {c, c'}) = |a c'| ~ 3.5 gives lip * colip > 2
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2], [0.5, 3.5]])
    m = MetricSpace(np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
    blocks = ((0,), (1,), (2, 3))
    monkeypatch.setattr(constructions, "coloring_partition", lambda *a, **kw: ColoringResult(blocks, 1))
    with pytest.raises(ConstructionFailureError) as info:
        aspect_quotient(m, 2.0, lipschitz=True, seed=0)
    diag = info.value.diagnostics
    assert diag["lip"] == pytest.approx(1.0)
    assert diag["colip"] == pytest.approx(hausdorff(m, blocks[0], blocks[2]) / m.dist[0, 2])
    assert diag["alpha"] == 2.0
    assert aspect_quotient(m, 2.0, seed=0).quotient.blocks == blocks


def test_aspect_quotient_lipschitz_holds_verifys_bound_at_small_scale(monkeypatch):
    # set distances s = 1e-4 and H({a}, {c, c'}) = 2s + 5e-10, within 1e-9 of
    # the band [s, 2s]; but lip * colip = 2 + 5e-6 exceeds alpha = 2 by more
    # than the 2e-6 that verify allows, so the construction must refuse it too
    s, far = 1e-4, 2e-4 + 5e-10
    m = MetricSpace(np.array([[0, s, s, far], [s, 0, s, far], [s, s, 0, 2 * s], [far, far, 2 * s, 0]]))
    blocks = ((0,), (1,), (2, 3))
    lip, colip = lip_colip(m, blocks, quotient_metric(m, blocks).metric)
    assert lip * colip - 2.0 > claim_slack(2.0)
    monkeypatch.setattr(constructions, "coloring_partition", lambda *a, **kw: ColoringResult(blocks, 1))
    with pytest.raises(ConstructionFailureError, match="not an alpha-Lipschitz quotient"):
        aspect_quotient(m, 2.0, lipschitz=True, seed=0)


def test_aspect_quotient_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        aspect_quotient(random_metric(5, 1), 2.5)


# --- star quotients --------------------------------------------------------


def padded_pairs(copies=12, beta=5.0):
    base = MetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return gen_padded_copies(base, copies, beta=beta)


def test_find_star_quotient_structure():
    m = padded_pairs()
    res = find_star_quotient(m, 0.8, 1.3, 1.8, seed=9)
    q = res.quotient
    d_root = q.metric.dist[0, 1:]
    assert np.all(d_root >= 0.8 - 1e-9) and np.all(d_root < 1.3 + 1e-9)
    assert 0 < res.tau <= 2.0 + 1e-12
    assert res.report.distortion <= 1.8 + 1e-9


def test_find_star_quotient_rejects_bad_band():
    m = padded_pairs()
    with pytest.raises(ParameterError):
        find_star_quotient(m, 1.0, 2.5, 2.0)  # b >= 2a


# --- dichotomy and q2 ------------------------------------------------------


def test_q_dichotomy_certificate():
    for s in range(5):
        m = random_metric(50, 500 + s)
        res = q_dichotomy(m, 1.0, 1.5, 2.0, seed=s)
        assert res.branch in ("lacunary", "star")
        recomputed = distortion_between(
            res.quotient.metric,
            realize_special(res.model)
            if res.branch == "lacunary"
            else res.quotient.metric,  # star model is scale-checked below
        )
        if res.branch == "lacunary":
            assert abs(recomputed.distortion - res.report.distortion) < 1e-9
            assert res.report.distortion <= 2.0 + 1e-9


def test_q_dichotomy_drop_root_is_sq():
    m = padded_pairs()
    res = q_dichotomy(m, 1.0, 1.5, 2.0, seed=10, drop_root=True)
    if res.branch == "star":
        assert res.quotient.provenance == "SQ"
        assert isinstance(res.model, Equilateral)


def test_q2_lacunary_certificate_and_order():
    for s in range(5):
        m = random_metric(60, 600 + s)
        q, rep, model, attempts = q2_lacunary(m, seed=s)
        assert q.metric.n >= m.n / 4 + 1
        assert rep.distortion <= 2.0 + 1e-9
        recomputed = distortion_between(q.metric, realize_special(model))
        assert abs(recomputed.distortion - rep.distortion) < 1e-12
        # blocks: singletons by decreasing nearest radius, collapsed set last
        r = nearest_radii(m)
        radii = [r[b[0]] for b in q.blocks[:-1]]
        assert radii == sorted(radii, reverse=True)


# --- composition -----------------------------------------------------------


def test_composition_qs_certificates():
    for s in range(6):
        tree = random_composition_tree(2, seed=700 + s, beta=4.0)
        res = composition_qs(tree, 2.0, 1.5, seed=s)
        assert validate_khst(res.hst, 2.0).ok
        assert res.report.distortion <= res.alpha_bound + 1e-9
        assert res.sigma_ok
        recomputed = distortion_between(res.quotient.metric, hst_to_metric(res.hst))
        assert abs(recomputed.distortion - res.report.distortion) < 1e-12


def test_composition_qs_rejects_small_beta():
    tree = random_composition_tree(1, seed=11, beta=2.0)
    with pytest.raises(ParameterError):
        composition_qs(tree, 2.0, 1.5, seed=0)  # alpha*k = 3 > beta = 2
