"""lip_colip, the Lipschitz grading of a block collapse, and the `lipschitz`
bound that verify holds a quotient artifact to."""

import json

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from metriq.cli import PIPELINES
from metriq.core import MetricSpace, dumps
from metriq.errors import MetriqError, StructuralError
from metriq.quotient import distortion_between, lip_colip, quotient_metric, quotient_to_json
from metriq.seeds import RngSeed
from metriq.verify import _standalone_artifact, verify_bundle

from conftest import lip_colip_loop, random_metric, random_partition, widen, widenings


def _verdict(doc: dict):
    return [v[:2] for v in verify_bundle(doc).violations]


def test_identity_is_one_one():
    m = random_metric(6, 2)
    assert lip_colip(m, [(i,) for i in range(6)], m) == (1.0, 1.0)


def test_degenerate_target():
    m = random_metric(5, 3)
    point = MetricSpace(np.zeros((1, 1)))
    assert lip_colip(m, [tuple(range(5))], point) == (1.0, 1.0)


def test_a_target_of_another_size_than_the_block_count_is_refused():
    m = random_metric(5, 3)
    with pytest.raises(StructuralError, match="2 blocks, but the target has 3 points"):
        lip_colip(m, [(0, 1), (2,)], random_metric(3, 4))


def test_singleton_preimages_equal_distortion():
    rng = np.random.default_rng(4)
    for trial in range(20):
        m = random_metric(int(rng.integers(3, 8)), 100 + trial)
        perm = list(rng.permutation(m.n))
        t = m.restrict(perm)
        scale = float(rng.uniform(0.5, 3.0))
        t = MetricSpace(t.dist * scale)
        assign = tuple(perm.index(i) for i in range(m.n))
        lip, colip = lip_colip(m, [(i,) for i in perm], t)
        rep = distortion_between(m, t.restrict(assign))
        assert lip * colip == pytest.approx(rep.distortion, rel=1e-12)


def test_scale_covariance():
    m = random_metric(6, 5)
    q = quotient_metric(m, ((0, 1), (2,), (3,), (4, 5)))
    lip, colip = lip_colip(m, q.blocks, q.metric)
    lip2, colip2 = lip_colip(m, q.blocks, MetricSpace(q.metric.dist * 2.0))
    assert lip2 == pytest.approx(2.0 * lip, rel=1e-12)
    assert colip2 == pytest.approx(colip / 2.0, rel=1e-12)
    assert lip * colip == pytest.approx(lip2 * colip2, rel=1e-12)


def test_verify_holds_a_quotient_to_its_lipschitz_bound():
    m = random_metric(8, 6)
    q = quotient_metric(m, ((0, 1, 2), (3,), (4,), (5,), (6, 7)))
    lip, colip = lip_colip(m, q.blocks, q.metric)
    art = {"kind": "quotient", **quotient_to_json(q), "lipschitz": lip * colip}
    assert verify_bundle(art).ok
    art["lipschitz"] = lip * colip - 0.01
    assert _verdict(art) == [("lipschitz", (0,))]


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4])
def test_a_fresh_lipschitz_artifact_verifies_at_any_scale(scale):
    # the construction checks lip * colip with verify's tolerance, which is
    # relative to alpha, so what it writes verifies whatever the unit
    pipe, fresh = PIPELINES["aspect"], 0
    for seed in range(10):
        m = MetricSpace(random_metric(40, 300 + seed).dist * scale)
        try:
            art = pipe.run(m, RngSeed(seed), pipe.resolve({"alpha": 1.5, "lipschitz": True}))[0]
        except MetriqError:
            continue
        fresh += 1
        assert verify_bundle(json.loads(dumps(_standalone_artifact(art, m)))).ok, seed
    assert fresh


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
        lip_colip(dup, [(0,), (1, 2)], random_metric(2, 8))


def test_lip_colip_matches_pair_loop():
    rng = np.random.default_rng(13)
    for trial in range(100):
        m = random_metric(int(rng.integers(2, 25)), 90_000 + trial)
        blocks = random_partition(m.n, rng)
        if trial % 2:  # a QS quotient: blocks of a subset
            blocks = tuple(b for b in blocks if rng.random() < 0.7) or blocks[:1]
        if len(blocks) < 2:
            continue
        for target in (quotient_metric(m, blocks).metric, random_metric(len(blocks), trial)):
            assert lip_colip(m, blocks, target) == lip_colip_loop(m, blocks, target), trial


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(20, 60), st.sampled_from([1.25, 1.5, 2.0]), st.data())
def test_a_fresh_lipschitz_artifact_verifies_and_a_widened_block_is_held_to_its_bound(seed, n, alpha, data):
    # construct aspect --lipschitz, then one point outside the blocks added to
    # a block so that no set distance moves: the quotient and its claim stay,
    # and verify refuses the artifact exactly when the pair loop's lip * colip
    # exceeds alpha by more than the tolerance
    pipe, m = PIPELINES["aspect"], random_metric(n, seed)
    try:
        art = pipe.run(m, RngSeed(seed), pipe.resolve({"alpha": alpha, "lipschitz": True}))[0]
    except MetriqError:
        assume(False)  # this cloud's block collapse is not an alpha-Lipschitz quotient
    art = json.loads(dumps(_standalone_artifact(art, m)))
    assert art["lipschitz"] == alpha
    assert verify_bundle(art).ok
    candidates = widenings(m, art["blocks"])
    assume(candidates)
    b, x = data.draw(st.sampled_from(candidates))
    blocks = widen(art, m, b, x)
    lip, colip = lip_colip_loop(m, blocks, quotient_metric(m, blocks).metric)
    over = lip * colip - alpha > max(1e-9, 1e-6 * alpha)
    event("over the bound" if over else "within it")
    assert _verdict(art) == ([("lipschitz", (0,))] if over else [])
