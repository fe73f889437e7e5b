import numpy as np
import pytest

from metriq.core import MetricSpace
from metriq.errors import StructuralError
from metriq.lipschitz import (
    QuotientMap,
    certify_lip_quotient,
    lip_colip,
    quotient_map_from_json,
    quotient_map_to_json,
)
from metriq.quotient import distortion_between, quotient_metric

from conftest import lip_colip_loop, random_metric, random_partition


def test_structural_validation():
    m = random_metric(4, 0)
    t = random_metric(3, 1)
    with pytest.raises(StructuralError):
        QuotientMap(m, t, (0, 1, 2))  # wrong length
    with pytest.raises(StructuralError):
        QuotientMap(m, t, (0, 1, 1, 3))  # out of range
    with pytest.raises(StructuralError):
        QuotientMap(m, t, (0, 1, 1, 1))  # misses target point 2
    qm = QuotientMap(m, t, (0, 1, 2, 1))
    assert qm.preimage(1) == [1, 3]


def test_identity_is_one_one():
    m = random_metric(6, 2)
    qm = QuotientMap(m, m, tuple(range(6)))
    assert lip_colip(qm) == (1.0, 1.0)
    assert certify_lip_quotient(qm, 1.0)


def test_degenerate_target():
    m = random_metric(5, 3)
    point = MetricSpace(np.zeros((1, 1)))
    qm = QuotientMap(m, point, (0,) * 5)
    assert qm.degenerate
    assert lip_colip(qm) == (1.0, 1.0)


def test_singleton_preimages_equal_distortion():
    rng = np.random.default_rng(4)
    for trial in range(20):
        m = random_metric(int(rng.integers(3, 8)), 100 + trial)
        perm = list(rng.permutation(m.n))
        t = m.restrict(perm)
        scale = float(rng.uniform(0.5, 3.0))
        t = MetricSpace(t.dist * scale)
        assign = tuple(perm.index(i) for i in range(m.n))
        qm = QuotientMap(m, t, assign)
        lip, colip = lip_colip(qm)
        rep = distortion_between(m, t, assign)
        assert lip * colip == pytest.approx(rep.distortion, rel=1e-12)


def test_scale_covariance():
    m = random_metric(6, 5)
    q = quotient_metric(m, ((0, 1), (2,), (3,), (4, 5)))
    assign = tuple(
        next(b for b, blk in enumerate(q.blocks) if i in blk) for i in range(m.n)
    )
    qm = QuotientMap(m, q.metric, assign)
    lip, colip = lip_colip(qm)
    scaled = QuotientMap(m, MetricSpace(q.metric.dist * 2.0), assign)
    lip2, colip2 = lip_colip(scaled)
    assert lip2 == pytest.approx(2.0 * lip, rel=1e-12)
    assert colip2 == pytest.approx(colip / 2.0, rel=1e-12)
    assert lip * colip == pytest.approx(lip2 * colip2, rel=1e-12)


def test_certify_true_and_false():
    m = random_metric(8, 6)
    q = quotient_metric(m, ((0, 1, 2), (3,), (4,), (5,), (6, 7)))
    assign = tuple(
        next(b for b, blk in enumerate(q.blocks) if i in blk) for i in range(m.n)
    )
    qm = QuotientMap(m, q.metric, assign)
    lip, colip = lip_colip(qm)
    assert certify_lip_quotient(qm, lip * colip)
    assert not certify_lip_quotient(qm, lip * colip - 0.01)


def test_zero_distance_preimages_rejected():
    # degenerate source with two points at distance 0 split across preimages
    dup = MetricSpace(
        np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
    )
    with pytest.raises(StructuralError):
        lip_colip(QuotientMap(dup, random_metric(2, 8), (0, 1, 1)))


def test_json_round_trip():
    m = random_metric(5, 9)
    t = random_metric(2, 10)
    qm = QuotientMap(m, t, (0, 1, 0, 0, 1))
    back = quotient_map_from_json(quotient_map_to_json(qm))
    assert back.assign == qm.assign
    assert np.array_equal(back.source.dist, m.dist)
    assert np.array_equal(back.target.dist, t.dist)


@pytest.mark.parametrize("bad", [0.9, True], ids=["float", "bool"])
def test_json_refuses_an_assignment_that_is_not_an_integer(bad):
    # read with int(), 0.9 was point 0
    doc = quotient_map_to_json(QuotientMap(random_metric(3, 9), random_metric(2, 10), (0, 1, 1)))
    doc["assign"][0] = bad
    with pytest.raises(StructuralError, match=r"declared assign\[0\] "):
        quotient_map_from_json(doc)


def test_lip_colip_matches_pair_loop():
    rng = np.random.default_rng(13)
    for trial in range(100):
        m = random_metric(int(rng.integers(2, 25)), 90_000 + trial)
        blocks = random_partition(m.n, rng)
        if len(blocks) < 2:
            continue
        assign = [0] * m.n
        for b, blk in enumerate(blocks):
            for i in blk:
                assign[i] = b
        for target in (quotient_metric(m, blocks).metric, random_metric(len(blocks), trial)):
            qm = QuotientMap(m, target, tuple(assign))
            assert lip_colip(qm) == lip_colip_loop(qm), trial
