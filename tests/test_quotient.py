import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriq import quotient
from metriq.core import MetricSpace, validate_metric
from metriq.errors import StructuralError
from metriq.quotient import (
    Partition,
    distortion_between,
    quotient_by_subset,
    quotient_from_json,
    quotient_metric,
    quotient_to_json,
    sq_space,
)

from conftest import (distortion_between_triu, quotient_by_subset_loop, random_metric, random_partition,
                      shortest_path_closure)


def brute_quotient(m, blocks):
    """Independent oracle: set-distance edge weights + pure-Python closure."""
    k = len(blocks)
    w = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                w[i][j] = min(m.d(a, b) for a in blocks[i] for b in blocks[j])
    return np.asarray(shortest_path_closure(w))


def test_partition_validation():
    m = random_metric(5, 0)
    with pytest.raises(StructuralError):
        Partition(m, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(StructuralError):
        Partition(m, ((0,), ()))  # empty block
    with pytest.raises(StructuralError):
        Partition(m, ((0, 9),))  # out of range
    p = Partition(m, ((0, 2), (1,)))
    assert p.support == [0, 1, 2]
    assert not p.covers_base


def test_quotient_matches_oracle_small():
    rng = np.random.default_rng(1)
    for trial in range(50):
        m = random_metric(int(rng.integers(3, 10)), 100 + trial)
        blocks = random_partition(m.n, rng)
        q = quotient_metric(m, blocks)
        assert np.allclose(q.metric.dist, brute_quotient(m, blocks), atol=0, rtol=0)
        assert validate_metric(q.metric).ok


def test_quotient_metric_keeps_an_edge_below_1e8():
    # scipy's dense closure reads an entry within 1e-8 of 0 as "no edge", and
    # gave d(0, 2) = 5.9 here, the path through point 1
    m = MetricSpace(np.array([[0.0, 3.0, 5e-9], [3.0, 0.0, 2.9], [5e-9, 2.9, 0.0]]))
    d = quotient_metric(m, ((0,), (1,), (2,))).metric.dist
    assert d[0, 2] == 5e-9 and d[0, 1] == 2.9 + 5e-9 and d[1, 2] == 2.9
    assert np.array_equal(d, shortest_path_closure(m.dist))


@st.composite
def tiny_weights(draw):
    """Symmetric matrices with a zero diagonal and off-diagonal entries in [1e-12, 1e-8]."""
    k = draw(st.integers(2, 8))
    upper = draw(st.lists(st.floats(1e-12, 1e-8), min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2))
    w = np.zeros((k, k))
    w[np.triu_indices(k, 1)] = upper
    return w + w.T


@settings(max_examples=200, deadline=None)
@given(tiny_weights())
def test_quotient_metric_closes_tiny_weights_as_the_loop_does(w):
    # singleton blocks: the block distances are w itself
    q = quotient_metric(MetricSpace(w), [(i,) for i in range(len(w))])
    assert np.array_equal(q.metric.dist, shortest_path_closure(w))


def test_provenance_q_vs_qs():
    m = random_metric(6, 2)
    assert quotient_metric(m, ((0, 1), (2,), (3,), (4,), (5,))).provenance == "Q"
    assert quotient_metric(m, ((0, 1), (2,))).provenance == "QS"


def test_quotient_by_subset_closed_form():
    rng = np.random.default_rng(3)
    for trial in range(20):
        m = random_metric(int(rng.integers(3, 10)), 200 + trial)
        size = int(rng.integers(1, m.n))
        A = sorted(int(i) for i in rng.choice(m.n, size=size, replace=False))
        q = quotient_by_subset(m, A)
        # same blocks through the generic path must agree exactly
        q2 = quotient_metric(m, q.blocks)
        assert np.array_equal(q.metric.dist, q2.metric.dist)
        # block order: singletons increasing, collapsed set last
        assert q.blocks[-1] == tuple(A)
        rest = [b[0] for b in q.blocks[:-1]]
        assert rest == sorted(rest)


@pytest.mark.parametrize("n", [2, 3, 8, 31])
@pytest.mark.parametrize("A", ["one", "all-but-one", "unsorted-duplicates"])
def test_quotient_by_subset_is_bitwise_the_pair_loop(n, A):
    m = random_metric(n, n)
    A = {"one": [n // 2], "all-but-one": [i for i in range(n) if i != n // 3],
         "unsorted-duplicates": [n - 1, 0, n - 1, n // 2, 0]}[A]
    q = quotient_by_subset(m, A)
    blocks, d = quotient_by_subset_loop(m, A)
    assert q.blocks == blocks and q.metric.dist.tobytes() == d.tobytes()


def test_collapse_whole_space():
    m = random_metric(4, 5)
    q = quotient_by_subset(m, range(4))
    assert q.metric.n == 1 and q.metric.dist[0, 0] == 0.0


def test_sq_space_restricts_in_order():
    m = random_metric(6, 6)
    q = quotient_metric(m, ((0, 1), (2,), (3,), (4, 5)))
    sq = sq_space(q, [3, 1])
    assert sq.provenance == "SQ"
    assert sq.blocks == ((4, 5), (2,))
    assert sq.metric.d(0, 1) == q.metric.d(3, 1)


def test_distortion_identity_and_scaling():
    m = random_metric(8, 7)
    rep = distortion_between(m, m)
    assert rep.distortion == 1.0
    scaled = MetricSpace(m.dist * 3.0)
    rep = distortion_between(m, scaled)
    assert rep.expansion == pytest.approx(3.0, rel=1e-12)
    assert rep.contraction == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.distortion == pytest.approx(1.0, rel=1e-12)


def _report_or_refusal(f, source: MetricSpace, target: MetricSpace):
    try:
        return f(source, target)
    except StructuralError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 3),
       zero=st.sampled_from([None, "source", "target"]))
def test_distortion_between_is_the_triu_indices_scan(n, seed, levels, zero):
    # distances of 1..levels tie many ratios, whose pairs must be the first
    # in np.triu_indices order; a zero distance is the same StructuralError
    rng = np.random.default_rng(seed)
    source, target = (np.triu(rng.integers(1, levels + 1, (n, n)).astype(float), 1) for _ in range(2))
    if zero and n > 1:
        i, j = sorted(rng.choice(n, 2, replace=False))
        (source if zero == "source" else target)[i, j] = 0.0
    source, target = MetricSpace(source + source.T), MetricSpace(target + target.T)
    want = _report_or_refusal(distortion_between_triu, source, target)
    assert _report_or_refusal(distortion_between, source, target) == want
    assert isinstance(want, str) == (zero is not None and n > 1)


def test_distortion_between_refuses_sizes_that_differ_as_the_triu_indices_scan_does():
    source, target = random_metric(4, 1), random_metric(5, 2)
    assert _report_or_refusal(distortion_between, source, target) == _report_or_refusal(
        distortion_between_triu, source, target) == "source has 4 points, target 5"


def test_distortion_matches_brute_force():
    m = random_metric(7, 8)
    t = random_metric(7, 9)
    rep = distortion_between(m, t)
    exp = max(t.d(i, j) / m.d(i, j) for i in range(7) for j in range(i + 1, 7))
    con = max(m.d(i, j) / t.d(i, j) for i in range(7) for j in range(i + 1, 7))
    assert rep.expansion == pytest.approx(exp, rel=1e-14)
    assert rep.contraction == pytest.approx(con, rel=1e-14)
    i, j = rep.expansion_pair
    assert t.d(i, j) / m.d(i, j) == rep.expansion


def test_distortion_with_mapping():
    m = random_metric(5, 10)
    perm = [4, 2, 0, 1, 3]
    t = m.restrict(perm)
    # source i sits at position inv[i] of the permuted target
    inv = [perm.index(i) for i in range(5)]
    rep = distortion_between(m, t.restrict(inv))
    assert rep.distortion == 1.0


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (9, 2), (40, 3)])
def test_distortion_identity_equals_the_explicit_identity_mapping(n, seed):
    # the identity written out: both spaces relabelled by one permutation
    m, t = random_metric(n, seed), random_metric(n, seed + 100)
    perm = np.random.default_rng(seed).permutation(n)
    rep, explicit = distortion_between(m, t), distortion_between(m.restrict(perm), t.restrict(perm))
    assert (rep.expansion, rep.contraction) == (explicit.expansion, explicit.contraction)
    i, j = explicit.expansion_pair
    assert sorted((int(perm[i]), int(perm[j]))) == list(rep.expansion_pair)


@pytest.mark.parametrize("variant, vparams, pipeline, closures", [
    ("gnp", {"n": 150, "q": 0.02}, "q2", 0),
    ("cloud", {"n": 150}, "aspect", 0),
    ("cloud", {"n": 150}, "q2", None),
])
def test_quotient_closure_runs_only_where_the_row_minimum_test_fails(
        monkeypatch, variant, vparams, pipeline, closures):
    from metriq.cli import plan_from_json, run_experiment

    calls = []
    closure = quotient.floyd_warshall

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return closure(*args, **kwargs)

    monkeypatch.setattr(quotient, "floyd_warshall", counted)
    plan = {"instance": {"variant": variant, "params": vparams}, "pipeline": pipeline,
            "params": {}, "trials": 2, "seed": 4}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    assert len(bundle.artifacts) == 2
    if closures is None:
        assert len(calls) >= 1
    else:
        assert len(calls) == closures


@pytest.mark.parametrize("ns,nt", [(5, 6), (6, 5)])
def test_distortion_identity_refuses_unequal_sizes(ns, nt):
    # a larger target would otherwise be compared on a prefix of its points
    with pytest.raises(StructuralError, match=f"source has {ns} points, target {nt}"):
        distortion_between(random_metric(ns, 12), random_metric(nt, 13))


@pytest.mark.parametrize("A,bad", [([0, 9], 9), ([5], 5), ([-1, 2], -1)])
def test_quotient_by_subset_refuses_indices_out_of_range(A, bad):
    # checked before indexing: numpy would raise IndexError on 9 and wrap -1
    with pytest.raises(StructuralError, match=f"point index {bad} out of range"):
        quotient_by_subset(random_metric(5, 14), A)


def test_quotient_json_round_trip():
    m = random_metric(8, 12)
    parent = quotient_metric(m, ((5, 0, 7), (1, 2), (3,), (4, 6)))
    # an SQ is restricted from the parent with one block of every point
    # outside the kept blocks, first, whatever order they are kept in
    for q in (parent, sq_space(parent, [2, 1, 3])):
        q2 = quotient_from_json(quotient_to_json(q))
        assert q2.blocks == q.blocks
        assert q2.provenance == q.provenance
        assert np.array_equal(q2.metric.dist, q.metric.dist)


def test_quotient_from_json_refuses_a_contradicted_label():
    m = random_metric(6, 12)
    qs = quotient_to_json(quotient_metric(m, ((0, 1), (2, 3))))
    q = quotient_to_json(quotient_metric(m, ((0, 1), (2, 3), (4, 5))))
    assert (qs["provenance"], q["provenance"]) == ("QS", "Q") and "dist" not in q
    with pytest.raises(StructuralError, match="provenance Q but the blocks give QS"):
        quotient_from_json({**qs, "provenance": "Q"})
    with pytest.raises(StructuralError, match="provenance QS but the blocks give Q"):
        quotient_from_json({**q, "provenance": "QS"})

