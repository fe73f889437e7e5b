"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each test exercises one library-level guarantee at bulk scale: oracle
equivalence for quotient metrics, certified distortion bounds for the
randomized constructions, exactness of the closed-form embeddings, and
byte-level determinism of every serialized artifact.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from metriq.constructions import (
    check_coloring_result,
    coloring_partition,
    composition_qs,
    find_m_center,
    hst_from_m_centered,
    m_center_quotient,
    m_center_size,
    q2_lacunary,
)
from metriq.core import MetricSpace, Star, dumps, realize_special
from metriq.cube import cube_qs_construct
from metriq.embeddings import bourgain_embed, embedding_to_json, induced_metric, truncated_gauss_distance
from metriq.generators import gen_euclidean_cloud, random_composition_tree
from metriq.hst import hst_to_json, hst_to_metric
from metriq.quotient import distortion_between, lip_colip, quotient_by_subset, quotient_metric
from metriq.seeds import RngSeed

from conftest import (
    check_sandwich,
    is_m_center,
    random_metric,
    random_partition,
    shortest_path_closure,
    star_poincare_lower,
    star_to_lp,
    truncated_gauss_embed,
    truncation_witness,
    truncation_witness_bound,
    vector_distance,
    vector_norms,
    witness_search_distortion,
)


# 1. quotient metric equals the brute-force shortest-path oracle ------------


def test_quotient_oracle_equivalence_bulk():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for trial in range(500):
        n = int(rng.integers(3, 13))
        m = random_metric(n, 10_000 + trial)
        blocks = random_partition(n, rng)
        q = quotient_metric(m, blocks)
        k = len(blocks)
        w = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if i != j:
                    w[i][j] = min(m.d(a, b) for a in blocks[i] for b in blocks[j])
        oracle = np.asarray(shortest_path_closure(w))
        assert np.array_equal(q.metric.dist, oracle) or np.allclose(
            q.metric.dist, oracle, rtol=0, atol=0
        )
        # collapsing one subset: closed form equals the generic path exactly
        size = int(rng.integers(1, n + 1))
        A = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        qa = quotient_by_subset(m, A)
        qb = quotient_metric(m, qa.blocks)
        assert np.array_equal(qa.metric.dist, qb.metric.dist)
    assert time.perf_counter() - start < 10.0


# 2. two-distortion lacunary quotients keep a quarter of the points ---------


def test_lacunary_quotient_certificates_bulk():
    start = time.perf_counter()
    for trial in range(100):
        m = gen_euclidean_cloud(100, seed=RngSeed(20_000 + trial))
        q, report, model, attempts = q2_lacunary(m, seed=RngSeed(trial))
        assert q.metric.n >= 100 / 4 + 1
        recomputed = distortion_between(q.metric, realize_special(model))
        assert abs(recomputed.distortion - report.distortion) < 1e-12
        assert report.distortion <= 2.0 + 1e-9
    assert time.perf_counter() - start < 30.0


# 3. sampled collapse sets are small and their block is a center ------------


def test_center_quotient_acceptance_rate():
    n, eps = 200, 0.2
    mparam = 2.0 * math.log(2.0 / eps) / eps  # = 2 ln(10) / 0.2
    total_attempts = 0
    for trial in range(100):
        m = gen_euclidean_cloud(n, seed=RngSeed(30_000 + trial))
        T, q, attempts = m_center_quotient(m, eps, seed=RngSeed(trial, 1))
        total_attempts += attempts
        assert len(T) <= eps * n + 1e-12
        assert is_m_center(q.metric, q.metric.n - 1, mparam)
    rejection_rate = (total_attempts - 100) / total_attempts
    assert rejection_rate < 0.5


# 4. tree approximations of centered spaces never contract ------------------


def test_tree_approximation_certificates_bulk():
    mparam = int(math.ceil(2.0 * math.log(2.0 / 0.3) / 0.3))  # 13
    for trial in range(100):
        m = gen_euclidean_cloud(60, seed=RngSeed(40_000 + trial))
        T, q, _ = m_center_quotient(m, 0.3, seed=RngSeed(trial, 2))
        tree, report = hst_from_m_centered(q.metric, mparam)
        assert tree.delta[0] == q.metric.diameter()  # root label exact
        assert report.contraction <= 1.0 + 1e-12  # never contracts
        recomputed = distortion_between(q.metric, hst_to_metric(tree))
        assert abs(recomputed.distortion - report.distortion) < 1e-12
        assert report.distortion <= 2.0 * mparam + 1e-9


# 5. subset-distance embeddings: non-expansion and the 96q cap --------------


def test_subset_embedding_non_expansion_bulk():
    rng = np.random.default_rng(5)
    measured = []
    for trial in range(20):
        n = int(rng.integers(4, 13))
        m = random_metric(n, 50_000 + trial)
        mparam = next(
            mp for mp in range(2, n + 2) if find_m_center(m, float(mp)) is not None
        )
        for p in (1.0, 2.0):
            emb, report, _ = bourgain_embed(m, float(mparam), p, "exact")
            ind = induced_metric(emb)
            assert np.all(ind.dist <= m.dist + 1e-9)  # every pair
            q = max(1, int(math.ceil(math.log(mparam) / p - 1e-12)))
            assert report.distortion <= 96 * q
            measured.append(report.distortion)
    # typical measured values are far below the cap; record the spread
    assert np.median(measured) < 96


# 6. exact star embeddings across the admissible grid -----------------------


def test_star_isometry_grid():
    start = time.perf_counter()
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        theta = min(1.0 / p, 1.0 - 1.0 / p)
        tau_max = 2.0 ** (1.0 - theta)
        for tau in (0.5, 1.0, tau_max):
            for n in (2, 3, 4, 6, 8, 10, 12):
                emb = star_to_lp(n, tau, p)
                model = realize_special(Star(n, tau))
                got = induced_metric(emb)
                assert np.abs(got.dist - model.dist).max() <= 1e-9, (n, tau, p)
    assert time.perf_counter() - start < 60.0


# 7. truncated Gaussian transform: constants, Monte Carlo, witness ----------


def test_gauss_transform_constants_grid():
    # 10^4 (d, D) grid; the closed form sits between sqrt((e-1)/e) and 1
    # times min{d, sqrt(2) D} (both ends tight)
    ds = np.linspace(0.01, 20.0, 100)
    Ds = np.linspace(0.1, 10.0, 100)
    lo_c = math.sqrt((math.e - 1.0) / math.e)
    for D in Ds:
        f = truncated_gauss_distance(ds, float(D))
        trunc = np.minimum(ds, math.sqrt(2.0) * D)
        assert np.all(f <= trunc + 1e-12)
        assert np.all(f >= lo_c * trunc - 1e-12)
        # which implies the lower envelope against min{d, D} as well
        assert np.all(f >= lo_c * np.minimum(ds, D) - 1e-12)


def test_gauss_monte_carlo_matches_closed_form():
    rng = np.random.default_rng(7)
    D = 2.0
    pts = rng.uniform(0.0, 2.0 * D, size=(15, 3))
    emb = truncated_gauss_embed(pts, D, 100_000, seed=8)
    assert np.allclose(vector_norms(emb), D, atol=1e-9)  # image norms exact
    iu, ju = np.triu_indices(15, k=1)
    checked = 0
    for i, j in zip(iu, ju):
        if checked >= 100:
            break
        d = float(np.linalg.norm(pts[i] - pts[j]))
        assert vector_distance(emb, int(i), int(j)) == pytest.approx(
            truncated_gauss_distance(d, D), rel=0.01
        )
        checked += 1
    assert checked == 100


def test_truncation_witness_value_and_search():
    v = truncation_witness_bound()
    assert v == 2.0 * math.sqrt(5.0 - math.sqrt(7.0)) / 3.0
    w = truncation_witness(1.0)
    best = witness_search_distortion(w, dim=3, restarts=12, seed=9)
    assert best >= 1.02


# 8. desk-scale cube quotients: block counts and certificates ----------------

CUBE_CELLS = [(d, eps) for d in (10, 12, 14) for eps in (0.05, 0.1, 0.2)]


@pytest.mark.parametrize("d,eps", CUBE_CELLS, ids=[f"d{d}-eps{e}" for d, e in CUBE_CELLS])
def test_cube_quotient_grid(d, eps):
    start = time.perf_counter()
    # small-cell infeasibility is surfaced, never masked: when the punctured
    # balls around even a single net center exceed eps * 2^d, the construction
    # raises and this cell is red by design
    res = cube_qs_construct(d, eps, 2.0)
    assert res.block_count >= (1.0 - eps) * 2**d
    assert res.report.distortion <= 8.0 * math.sqrt(math.e * res.r / (math.e - 1.0)) + 1e-9
    assert check_sandwich(res, samples=20_000, seed=RngSeed(d, 999))
    assert time.perf_counter() - start < 300.0


# 9. star inequality on random vectors and its exact two-point value --------


def test_star_inequality_bulk():
    rng = np.random.default_rng(9)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(250):
            n = int(rng.integers(2, 8))
            xs = rng.normal(size=(n, 3))
            ys = rng.normal(size=(n, 3))
            ok, _ = star_poincare_lower(n, p, xs, ys)
            assert ok


def test_star_inequality_two_point_value_exact():
    _, bound = star_poincare_lower(2, 2.0, np.zeros((2, 1)), np.zeros((2, 1)))
    assert bound == 1.0


# 10. coloring partitions pass the exhaustive cross-pair checks -------------


def test_coloring_partition_bulk():
    rng = np.random.default_rng(10)
    for trial in range(200):
        n = int(rng.integers(4, 257))
        k = int(rng.integers(1, 4))
        chi = rng.integers(1, k + 1, size=(n, n))
        chi = np.minimum(chi, chi.T)
        np.fill_diagonal(chi, 0)
        res = coloring_partition(n, chi, seed=RngSeed(trial, 3))
        assert check_coloring_result(chi, res), (trial, n, k)


# 11. composed quotients stay within the glued-tree bound -------------------


def test_composition_certificates_bulk():
    for trial in range(50):
        depth = 1 + trial % 3
        tree = random_composition_tree(depth, seed=RngSeed(60_000 + trial), beta=4.0)
        res = composition_qs(tree, 2.0, 1.5, seed=RngSeed(trial, 4))
        assert res.report.distortion <= res.alpha_bound + 1e-9
        assert res.sigma_ok
        recomputed = distortion_between(res.quotient.metric, hst_to_metric(res.hst))
        assert abs(recomputed.distortion - res.report.distortion) < 1e-12


# 12. Lipschitz grading equals distortion for singleton preimages -----------


def test_lip_colip_equals_distortion_bulk():
    rng = np.random.default_rng(12)
    for trial in range(200):
        n = int(rng.integers(3, 10))
        m = random_metric(n, 70_000 + trial)
        perm = list(rng.permutation(n))
        scale = float(rng.uniform(0.25, 4.0))
        t = MetricSpace(m.restrict(perm).dist * scale)
        assign = tuple(perm.index(i) for i in range(n))
        blocks = [(i,) for i in perm]  # the preimage of target point y
        lip, colip = lip_colip(m, blocks, t)
        rep = distortion_between(m, t.restrict(assign))
        assert lip * colip == pytest.approx(rep.distortion, rel=1e-12)
        # scale covariance: doubling the target doubles lip, halves colip
        lip2, colip2 = lip_colip(m, blocks, MetricSpace(t.dist * 2.0))
        assert lip2 == pytest.approx(2.0 * lip, rel=1e-12)
        assert colip2 == pytest.approx(colip / 2.0, rel=1e-12)
        assert lip2 * colip2 == pytest.approx(lip * colip, rel=1e-12)


# 13. byte-identical artifacts under a fixed seed ---------------------------


def _q2_artifact(seed):
    m = gen_euclidean_cloud(50, seed=RngSeed(seed, 0))
    q, report, model, attempts = q2_lacunary(m, seed=RngSeed(seed, 1))
    from metriq.quotient import quotient_to_json

    doc = quotient_to_json(q)
    doc["certified_distortion"] = report.distortion
    return dumps(doc)


def _hst_artifact(seed):
    m = gen_euclidean_cloud(40, seed=RngSeed(seed, 0))
    T, q, _ = m_center_quotient(m, 0.3, seed=RngSeed(seed, 1))
    tree, report = hst_from_m_centered(q.metric, 13)
    return dumps({"tree": hst_to_json(tree), "certified": report.distortion})


def _embedding_artifact(seed):
    m = gen_euclidean_cloud(12, seed=RngSeed(seed, 0))
    T, q, _ = m_center_quotient(m, 0.25, seed=RngSeed(seed, 1))
    emb, report, mask = bourgain_embed(q.metric, m_center_size(0.25), 2.0, "exact")
    return dumps(embedding_to_json(T, emb, mask, report.distortion))


def _cube_artifact(seed):
    res = cube_qs_construct(10, 0.2, 2.0)
    return dumps(
        {
            "net": [int(x) for x in res.A],
            "survivors": [int(x) for x in res.S],
            "distortion": res.report.distortion,
        }
    )


@pytest.mark.parametrize(
    "make",
    [_q2_artifact, _hst_artifact, _embedding_artifact, _cube_artifact],
    ids=["q2", "hst", "embedding", "cube"],
)
def test_artifacts_are_byte_deterministic(make):
    assert make(123) == make(123)


#: sha256 of dumps of a one-trial `run --artifacts` bundle (seed 0) with
#: summary.millis, its wall-clock field, blanked: instance, pipeline and params,
#: the artifact kind and provenance they give, and the digest.
GOLDEN_BUNDLES = {
    "quotient": ("cloud", {"n": 40}, "q2", {}, ("quotient", "Q"),
                 "7d6c8c55478c02f6739577dab6a86a85a3e10da65a4e04679c388980e38e9366"),
    "sq": ("cloud", {"n": 40}, "dichotomy", {"drop_root": True}, ("quotient", "SQ"),
           "3f75998d1cb1da33c8e095e6970e8af4cdfd6d49590bd4695d3d19067c85f82e"),
    "aspect": ("cloud", {"n": 40}, "aspect", {}, ("quotient", "QS"),
               "cc356dbf5d713a21b29ec490663163b1b392cb1f3cd34677c4eca59b5e09a943"),
    "aspect-gnp": ("gnp", {"n": 60, "q": 0.05}, "aspect", {}, ("quotient", "QS"),
                   "cd3d81fbd32bbfba712897656e5edaecfd36bbef763db7fdba83f0095bcb4df4"),
    "aspect-lipschitz": ("cloud", {"n": 40}, "aspect", {"lipschitz": True}, ("quotient", "QS"),
                         "f8c2955ad4324a0b32b7d2371ae9cf674905e913ac3d1a3bca9d5b48a24fdb34"),
    "hst": ("cloud", {"n": 40}, "hst", {}, ("hst", None),
            "b5ae7e30468429171ea9ff05fae1c0ad697f1be6f1638dbb8dbf2069a6cafafe"),
    "embedding": ("cloud", {"n": 40}, "bourgain", {}, ("embedding", None),
                  "3a5adddb7e25f283506318f596437c1894853a61ed3435bfbce5e0ddaa70f306"),
    "cube-qs": ("cube", {"d": 8}, "cube-qs", {"d": 8, "eps": 0.24}, ("cube-qs", None),
                "e8e6ff1b7794bd408b5356b6681fe54f6de56b9814ebcb0c1f395ebba8649f28"),
    "composition": ("composition", {}, "composition", {}, ("hst", "QS"),
                    "8f53be7fd468f257985500108620bc8791f190886cc4012f9f3ff5714ea58006"),
}


@pytest.mark.parametrize("name", list(GOLDEN_BUNDLES))
def test_bundle_bytes_are_golden(name):
    from metriq.cli import plan_from_json, run_experiment

    variant, instance, pipeline, params, kind, digest = GOLDEN_BUNDLES[name]
    plan = {"instance": {"variant": variant, "params": instance}, "pipeline": pipeline,
            "params": params, "trials": 1, "seed": 0}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    art = bundle.artifacts[0]
    assert (art["kind"], art.get("provenance")) == kind
    bundle.summary["millis"] = []
    text = dumps({"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary,
                  "artifacts": bundle.artifacts})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_cube_bundle_stores_no_array_of_cube_size():
    # the d = 12 bundle was 42.9 kB while it stored the survivors
    from metriq.cli import plan_from_json, run_experiment

    plan = {"instance": {"variant": "cube", "params": {"d": 12}}, "pipeline": "cube-qs",
            "params": {"d": 12, "eps": 0.2}, "trials": 1, "seed": 0}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    text = dumps({"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary,
                  "artifacts": bundle.artifacts})
    assert len(text.encode()) < 2048


def test_experiment_csv_is_byte_deterministic():
    from metriq.cli import plan_from_json, run_experiment

    doc = {
        "instance": {"variant": "cloud", "params": {"n": 40}},
        "pipeline": "q2",
        "params": {},
        "trials": 4,
        "seed": 77,
    }
    a = run_experiment(plan_from_json(doc), keep_artifacts=True)
    b = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert a.csv_text() == b.csv_text()
    assert dumps({"rows": a.rows, "artifacts": a.artifacts}) == dumps(
        {"rows": b.rows, "artifacts": b.artifacts}
    )
