import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from metriq import embeddings

from metriq.cli import PIPELINES, main, plan_from_json, run_experiment
from metriq.constructions import m_center_quotient, m_center_size
from metriq.core import (Equilateral, MetricSpace, Star, decode_array, dumps, encode_array, metric_from_json,
                         realize_special, validate_metric)
from metriq.embeddings import (
    VectorEmbedding,
    bourgain_embed,
    embedding_distortion,
    embedding_to_json,
    induced_metric,
    pstable_distance,
    pstable_expectation,
    truncated_gauss_distance,
)
from metriq.errors import CapacityError, MetriqError, NoMCenterError, ParameterError, StructuralError
from metriq.quotient import claim_slack, distortion_between, quotient_by_subset
from metriq.seeds import RngSeed
from metriq.verify import verify_bundle

from conftest import (
    bourgain_embed_loop,
    cauchy_expectation_quad,
    cms_sample,
    pnorm_table_full,
    pstable_embed,
    pstable_expectation_monte_carlo,
    random_metric,
    refusal,
    run_bundle,
    standalone,
    star_poincare_lower,
    star_to_lp,
    subset_distances_loop,
    truncated_gauss_embed,
    truncation_witness,
    truncation_witness_bound,
    vector_distance,
    vector_norms,
    witness_search_distortion,
)


# --- random-subset embedding -----------------------------------------------


def test_bourgain_exact_non_expanding_and_weighted():
    m = realize_special(Equilateral(6, 1.0))
    emb, rep, mask = bourgain_embed(m, 3.0, 2.0, "exact")
    assert emb.weights.sum() <= 1.0 + 1e-12
    assert mask.shape == (2**6 - 1, 6) and np.array_equal(emb.vectors, embeddings._subset_distances(m.dist, mask))
    assert np.all(induced_metric(emb).dist <= m.dist + 1e-9)
    # coordinate weight depends only on subset size
    sizes = {}
    masks = np.arange(1, 2**6)
    for col, mk in enumerate(masks):
        sizes.setdefault(bin(mk).count("1"), set()).add(round(float(emb.weights[col]), 15))
    assert all(len(v) == 1 for v in sizes.values())


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 60),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 10_000),
    st.sampled_from([1, 5000, embeddings.TABLE_ELEMENTS]),
)
def test_subset_distances_are_bitwise_the_per_subset_loop(n, subsets, density, all_empty, seed, budget):
    rng = np.random.default_rng(seed)
    dist = random_metric(n, seed).dist
    mask = rng.random((subsets, n)) < density
    mask[rng.random(subsets) < 0.25] = False  # some empty subsets
    if all_empty:
        mask[:] = False
    with mock.patch.object(embeddings, "TABLE_ELEMENTS", budget):
        got = embeddings._subset_distances(dist, mask)
    assert got.flags.c_contiguous
    assert same_bytes(got, subset_distances_loop(dist, mask))


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [20, 50, 80])
def test_bourgain_monte_carlo_is_bitwise_the_per_subset_loop(n, seed, p):
    _, q, _ = m_center_quotient(random_metric(n, seed), 0.5, seed)
    mparam = m_center_size(0.5)
    emb, _, mask = bourgain_embed(q.metric, mparam, p, "monte-carlo", seed)
    vectors, weights, table = bourgain_embed_loop(q.metric, mparam, p, "monte-carlo", seed)
    assert same_bytes(emb.vectors, vectors)
    assert same_bytes(subset_distances_loop(q.metric.dist, mask), vectors)
    assert same_bytes(emb.weights, weights)
    assert same_bytes(induced_metric(emb).dist, table)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 7, 12, 15])
def test_bourgain_exact_is_bitwise_the_per_subset_loop(n, p):
    m = random_metric(n, n)
    emb, _, mask = bourgain_embed(m, float(n + 1), p, "exact")
    vectors, weights, table = bourgain_embed_loop(m, float(n + 1), p, "exact")
    assert same_bytes(emb.vectors, vectors)
    assert same_bytes(subset_distances_loop(m.dist, mask), vectors)
    assert same_bytes(emb.weights, weights)
    assert same_bytes(induced_metric(emb).dist, table)


def test_bourgain_monte_carlo_memory_stays_under_the_per_subset_loop():
    # 2304 coordinates on 300 points; the per-subset loop this replaced
    # peaked at 28_667_899 B (27.3 MiB) of traced memory on this input (numpy 2.4)
    m = random_metric(300, 0)
    tracemalloc.start()
    try:
        bourgain_embed(m, 300.0, 2.0, "monte-carlo", seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28_667_899


def test_bourgain_requires_center():
    m = random_metric(8, 0)
    if __import__("metriq.constructions", fromlist=["find_m_center"]).find_m_center(m, 3.0) is None:
        with pytest.raises(NoMCenterError):
            bourgain_embed(m, 3.0)


def test_bourgain_capacity():
    m = realize_special(Equilateral(16, 1.0))
    with pytest.raises(CapacityError):
        bourgain_embed(m, 2.0, 2.0, "exact")


def test_bourgain_monte_carlo_close_to_exact():
    m = realize_special(Equilateral(8, 1.0))
    _, rep_e, _ = bourgain_embed(m, 3.0, 2.0, "exact")
    _, rep_mc, _ = bourgain_embed(m, 3.0, 2.0, "monte-carlo", seed=1)
    assert rep_mc.distortion < 3 * rep_e.distortion + 1.0


def test_pipeline_both_targets():
    m = random_metric(40, 2)
    lp, um = PIPELINES["bourgain"], PIPELINES["hst"]
    row, art = lp.run(m, RngSeed(3), lp.resolve({"eps": 0.3}))
    assert row["target_class"] == "lp" and art["kind"] == "embedding"
    row, art = um.run(m, RngSeed(3), um.resolve({"eps": 0.3}))
    mparam = 2.0 * math.log(2.0 / 0.3) / 0.3
    assert row["certified_distortion"] <= 2 * math.ceil(mparam) + 1e-9


# --- stars into L_p --------------------------------------------------------


def test_star_to_lp_unit_vectors_at_tau_sqrt2():
    emb = star_to_lp(4, math.sqrt(2.0), 2.0)
    assert emb.vectors.shape == (5, 4)
    assert np.array_equal(emb.vectors[1:], np.eye(4))


def test_star_to_lp_exact_p1():
    emb = star_to_lp(4, 1.0, 1.0)
    m = induced_metric(emb)
    model = realize_special(Star(4, 1.0))
    assert np.abs(m.dist - model.dist).max() < 1e-9


def test_star_to_lp_exact_p4():
    tau = 2.0 ** (3.0 / 4.0)
    emb = star_to_lp(4, tau, 4.0)
    m = induced_metric(emb)
    model = realize_special(Star(4, tau))
    assert np.abs(m.dist - model.dist).max() < 1e-9


def test_star_to_lp_rejects_out_of_range_tau():
    with pytest.raises(ParameterError):
        star_to_lp(3, 2.5, 1.0)  # max for p=1 is 2
    with pytest.raises(CapacityError):
        star_to_lp(16, 1.0, 1.0)


# --- truncated Gaussian ----------------------------------------------------


def test_gauss_closed_form_values():
    assert truncated_gauss_distance(0.0, 2.0) == 0.0
    assert truncated_gauss_distance(1e9, 2.0) == pytest.approx(math.sqrt(2.0) * 2.0)
    v = truncated_gauss_distance(2.0, 2.0)
    assert v == pytest.approx(math.sqrt(2.0) * 2.0 * math.sqrt(1 - math.exp(-0.5)))
    assert v / 2.0 == pytest.approx(0.8871, abs=1e-4)


def test_gauss_sandwich_monotone_concave():
    D = 3.0
    d = np.linspace(1e-6, 30, 2000)
    f = truncated_gauss_distance(d, D)
    trunc = np.minimum(d, math.sqrt(2.0) * D)
    assert np.all(f <= trunc + 1e-12)
    assert np.all(f >= math.sqrt((math.e - 1) / math.e) * trunc - 1e-12)
    # the lower end is tight at d = sqrt(2)*D
    tight = truncated_gauss_distance(math.sqrt(2.0) * D, D)
    assert tight == pytest.approx(math.sqrt((math.e - 1) / math.e) * math.sqrt(2.0) * D)
    assert np.all(np.diff(f) >= 0)
    assert np.all(np.diff(f[d <= 3 * D]) > 0)  # strict until float saturation
    assert np.all(np.diff(np.diff(f)) < 1e-12)
    assert np.all(f <= math.sqrt(2.0) * D)


def test_gauss_embed_norms_exact():
    pts = np.random.default_rng(0).uniform(0, 4, size=(10, 3))
    emb = truncated_gauss_embed(pts, 2.0, 500, seed=1)
    assert np.allclose(vector_norms(emb), 2.0, atol=1e-12)


# --- p-stable --------------------------------------------------------------


def test_cms_p1_is_cauchy():
    g = cms_sample(1.0, 200000, seed=0)
    # median of |Cauchy| is tan(pi/4) = 1
    assert np.median(np.abs(g)) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_pstable_expectation_vs_monte_carlo(p):
    for a in (0.1, 1.0, 10.0):
        q = pstable_expectation(a, p)
        mc = pstable_expectation_monte_carlo(a, p, samples=400000, seed=2)
        assert q == pytest.approx(mc, rel=0.02)


@pytest.mark.parametrize("a", [0.05, 0.5, 2.0, 10.0, 1e-4, 1e-5])
def test_pstable_expectation_matches_the_cauchy_quadrature(a):
    assert pstable_expectation(a, 1.0) == pytest.approx(cauchy_expectation_quad(a), rel=1e-9, abs=0)


@pytest.mark.parametrize("p", [1.0, 1.5, 1.9])
def test_pstable_expectation_tends_to_the_period_average(p):
    mean = integrate.quad(lambda x: (1.0 - math.cos(x)) ** (p / 2.0), 0.0, 2.0 * math.pi,
                          epsabs=0.0, epsrel=1e-13)[0] / (2.0 * math.pi)
    c0 = 2.0 * math.gamma(p + 1.0) / (2.0**p * math.gamma(p / 2.0 + 1.0) ** 2)
    assert 2.0 ** (p / 2.0) * c0 / 2.0 == pytest.approx(mean, rel=1e-12)
    far = pstable_expectation(np.array([60.0, 1e3, 1e8, np.inf]), p)
    assert far == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.9])
def test_pstable_series_is_converged_at_its_length(p):
    a = np.geomspace(1e-3, 1e2, 60)
    K = math.ceil(embeddings.PSTABLE_DECAY ** (1 / p) / a.min())
    once, twice = embeddings._pstable_series(a, p, K), embeddings._pstable_series(a, p, 2 * K)
    assert np.abs(twice / once - 1.0).max() <= 1e-14


@pytest.mark.parametrize("p", [1.0, 1.5, 1.9])
def test_pstable_expectation_goes_to_zero_with_a(p):
    a = np.geomspace(1e-5, 1.0, 30)
    e = pstable_expectation(a, p)
    assert np.all(e > 0) and np.all(np.diff(e) > 0)
    assert e[0] < 1e-4 and pstable_expectation(0.0, p) == 0.0
    assert e == pytest.approx([pstable_expectation(x, p) for x in a], rel=1e-13)


def test_pstable_below_the_floor_is_refused_before_any_table():
    floor = embeddings.PSTABLE_DECAY ** (1 / 1.5) / embeddings.PSTABLE_MAX_TERMS
    tracemalloc.start()
    try:
        result = CliRunner().invoke(main, ["transform", "--kind", "pstable", "--d", str(floor / 10),
                                           "--level", "1", "--p", "1.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{floor:.3g}" in refusal(result, ParameterError)
    assert peak < 1 << 20
    assert pstable_distance(floor * 2, 1.0, 1.5) > 0


def test_pstable_distance_zero_and_monotone():
    assert pstable_distance(0.0, 2.0, 1.5) == 0.0
    vals = [pstable_distance(x, 4.0, 1.5) for x in (0.5, 1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pstable_rejects_p_out_of_range():
    with pytest.raises(ParameterError):
        pstable_distance(1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        pstable_distance(1.0, 1.0, 0.9)


def test_pstable_embed_norms_and_convergence():
    pts = np.random.default_rng(1).uniform(0, 8, size=(8, 3))
    emb = pstable_embed(pts, 4.0, 1.5, 100000, seed=3)
    assert np.allclose(vector_norms(emb), 4.0, atol=1e-9)
    dlp = (np.abs(pts[0] - pts[5]) ** 1.5).sum() ** (1 / 1.5)
    assert vector_distance(emb, 0, 5) == pytest.approx(pstable_distance(dlp, 4.0, 1.5), rel=0.02)


# --- Poincare and the witness ----------------------------------------------


def test_star_poincare_on_random_vectors():
    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(10):
            ok, _ = star_poincare_lower(6, p, rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
            assert ok


def test_star_poincare_bound_values():
    _, bound = star_poincare_lower(2, 2.0, np.zeros((2, 2)), np.zeros((2, 2)))
    assert bound == 1.0  # exact, not approximate
    _, bound = star_poincare_lower(4, 1.0, np.zeros((4, 2)), np.zeros((4, 2)))
    assert bound == pytest.approx(0.75)


def test_witness_bound_and_metric():
    v = truncation_witness_bound()
    assert v == pytest.approx(2.0 * math.sqrt(5.0 - math.sqrt(7.0)) / 3.0)
    assert v > 1.02
    w = truncation_witness(1.0)
    assert w.n == 4
    assert validate_metric(w).ok
    assert w.diameter() == 1.0  # truncation level reached


def test_witness_search_corroborates():
    best = witness_search_distortion(truncation_witness(1.0), dim=3, restarts=6, seed=4)
    assert best >= 1.02
    # the searched optimum cannot beat the certified bound
    assert best >= truncation_witness_bound() - 1e-6


# --- serialization ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
def test_embedding_json_round_trips_the_subsets(mode):
    # `subsets`, the flat <i8 indices of the membership mask, gives the mask
    # back with J = the size of `weights` rows; the <c16 encoding of complex
    # arrays is covered in test_core
    m = realize_special(Equilateral(6, 1.0))
    emb, rep, mask = bourgain_embed(m, 3.0, 1.5, mode, seed=2)
    doc = json.loads(dumps(embedding_to_json([6], emb, mask, rep.distortion)))
    flat, weights = decode_array(doc["subsets"]), decode_array(doc["weights"])
    assert flat.dtype == np.int64 and (np.diff(flat) > 0).all()
    assert np.array_equal(np.isin(np.arange(weights.size * m.n), flat).reshape(weights.size, m.n), mask)
    assert same_bytes(weights, emb.weights)
    # the mode picks the subsets; the artifact stores them, not how they were drawn
    assert (doc["kind"], doc["subset"], doc["p"], "mode" in doc) == ("embedding", [6], 1.5, False)
    assert doc["certified_distortion"] == rep.distortion


# --- chunked p-norm tables -------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("complex_vectors", [False, True])
@pytest.mark.parametrize("budget", [1, 5000, embeddings.TABLE_ELEMENTS])
def test_induced_metric_is_bitwise_the_full_broadcast(monkeypatch, p, weighted, complex_vectors, budget):
    rng = np.random.default_rng(int(p * 10) + 2 * weighted + complex_vectors)
    n, dim = 37, 300
    v = rng.normal(size=(n, dim))
    if complex_vectors:
        v = v + 1j * rng.normal(size=(n, dim))
    w = rng.uniform(0.0, 1.0, size=dim) if weighted else None
    monkeypatch.setattr(embeddings, "TABLE_ELEMENTS", budget)
    got = induced_metric(VectorEmbedding(v, p, w)).dist
    assert got.tobytes() == pnorm_table_full(v, p, w).tobytes()


@pytest.mark.parametrize("n, dim", [(1, 300), (2, 300), (37, 0), (1, 0)])
@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("budget", [1, 5000, embeddings.TABLE_ELEMENTS])
def test_induced_metric_on_degenerate_shapes_is_bitwise_the_full_broadcast(monkeypatch, n, dim, p, budget):
    rng = np.random.default_rng(n + dim)
    v = rng.normal(size=(n, dim))
    w = rng.uniform(0.0, 1.0, size=dim)
    monkeypatch.setattr(embeddings, "TABLE_ELEMENTS", budget)
    got = induced_metric(VectorEmbedding(v, p, w)).dist
    assert got.tobytes() == pnorm_table_full(v, p, w).tobytes()


def test_induced_metric_of_integer_vectors_is_bitwise_the_full_broadcast():
    v = np.random.default_rng(4).integers(-50, 50, size=(30, 40))
    for p in (1.0, 1.5, 2.0):
        assert induced_metric(VectorEmbedding(v, p)).dist.tobytes() == pnorm_table_full(v, p).tobytes()


def test_induced_metric_memory_stays_under_the_table_budget():
    # the full broadcast would hold 200 x 200 x 1024 float64 = 328 MB at once
    v = np.random.default_rng(0).uniform(size=(200, 1024))
    emb = VectorEmbedding(v, 1.5, np.full(1024, 1.0 / 1024))
    tracemalloc.start()
    try:
        induced_metric(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# --- the embedding claim: a Gram screen, then the table on the kept pairs ---


def _outcome(fn):
    """fn()'s value, or the type and message of the MetriqError it raises."""
    try:
        return fn()
    except MetriqError as exc:
        return type(exc), str(exc)


def _assert_one_claim(source, emb):
    want = _outcome(lambda: distortion_between(source, induced_metric(emb)))
    assert _outcome(lambda: embedding_distortion(source, emb)) == want


@st.composite
def _embedding_cases(draw):
    """A source metric and an embedding of its points: near-duplicate or
    identical rows, zero or equal weights, or a simplex with every distance
    tied, at p in {1, 1.5, 2}, complex at p = 2."""
    n, J = draw(st.integers(0, 40)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "near", "same", "simplex"]))
    v = rng.normal(size=(n, J)) * 10.0 ** draw(st.integers(-6, 6))
    source = random_metric(n, int(rng.integers(2**32))) if n else MetricSpace(np.zeros((0, 0)))
    if shape == "simplex":
        J = max(J, n)
        v = np.eye(n, J) * 10.0 ** draw(st.integers(-6, 6))
        source = MetricSpace(np.ones((n, n)) - np.eye(n))
    elif shape in ("near", "same") and n >= 2:
        k = draw(st.integers(1, n - 1))
        rel = 0.0 if shape == "same" else 10.0 ** -draw(st.integers(1, 16))
        v[k] = v[0] * (1.0 + rel * rng.normal(size=J))
    weights = draw(st.sampled_from(["none", "equal"] if shape == "simplex" else ["none", "equal", "random", "zeros"]))
    w = {"none": None, "equal": np.full(J, 1.0 / J), "random": rng.uniform(size=J),
         "zeros": rng.uniform(size=J) * (rng.uniform(size=J) < 0.3)}[weights]
    p = draw(st.sampled_from([1.0, 1.5, 2.0, "complex"]))
    if p == "complex":
        p, v = 2.0, v + 1j * rng.normal(size=v.shape) * np.abs(v).max(initial=1.0)
    event(f"{shape}, {weights} weights, p = {p}, {v.dtype}")
    return source, VectorEmbedding(v, p, w)


@settings(max_examples=300, deadline=None)
@given(case=_embedding_cases())
def test_embedding_distortion_is_bitwise_the_tables(case):
    # the same expansion, contraction and pairs, or the same error
    _assert_one_claim(*case)


def _edited(v, i, value):
    v = v.copy()
    v.flat[i] = value
    return v


_V = np.random.default_rng(5).normal(size=(9, 7))
_SOURCE = random_metric(9, 5)


@pytest.mark.parametrize("source, emb", [
    (_SOURCE, VectorEmbedding(_V * 1e155, 2.0)),  # squares overflow in the table
    (_SOURCE, VectorEmbedding(_V * 1e100, 2.0, np.full(7, 1e110))),
    (_SOURCE, VectorEmbedding(_edited(_V, 3, math.nan), 2.0)),
    (_SOURCE, VectorEmbedding(_edited(_V, 3, math.inf), 2.0)),
    (_SOURCE, VectorEmbedding(_V.astype(np.float32), 2.0)),
    (_SOURCE, VectorEmbedding((_V * 100).astype(np.int64), 2)),
    (random_metric(8, 5), VectorEmbedding(_V, 2.0)),
    (random_metric(1, 5), VectorEmbedding(_V[:1], 2.0)),
    (MetricSpace(_SOURCE.dist * (1 - np.eye(9)[::-1])), VectorEmbedding(_V, 2.0)),  # source pair (0, 8) at 0
    (_SOURCE, VectorEmbedding(_V * 1e-160, 2.0)),  # squares underflow
], ids=["overflow", "weighted-overflow", "nan", "inf", "float32", "int64", "sizes-differ", "one-point",
        "source-zero", "underflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_embedding_distortion_outside_the_screen_is_the_tables(source, emb):
    _assert_one_claim(source, emb)


@pytest.mark.parametrize("weights", [(2.0, -0.1), (1.0, -math.inf), (1.0, math.inf), (1.0, math.nan)],
                         ids=["negative", "minus-inf", "inf", "nan"])
def test_an_embedding_refuses_weights_that_are_negative_or_not_finite(weights):
    # with weights (2, -0.1) induced_metric gave these points 1.049, 2.811 and
    # 1.265: an indefinite form, which breaks the triangle inequality
    with pytest.raises(StructuralError, match="weights must be finite and >= 0"):
        VectorEmbedding(np.array([[0.0, 0.0], [1.0, 3.0], [2.0, 1.0]]), 2.0, np.array(weights))
    assert VectorEmbedding(np.zeros((3, 2)), 2.0, np.array([0.0, 1e300])).weights[0] == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("n", [6, 12, 15])
def test_embedding_distortion_of_an_exact_mode_embedding_is_bitwise_the_tables(n, p):
    m = random_metric(n, n)
    emb, rep, _ = bourgain_embed(m, float(n), p, "exact")
    _assert_one_claim(m, emb)
    assert rep == distortion_between(m, induced_metric(emb))


@pytest.mark.parametrize("seed", range(12))
def test_bourgain_claims_on_clouds_are_the_tables(seed):
    n = 40 + 30 * seed // 11
    q = m_center_quotient(random_metric(n, seed), 0.25, RngSeed(seed).child(0))[1]
    mode = "exact" if q.metric.n <= embeddings.EXACT_MAX_POINTS else "monte-carlo"
    emb, rep, _ = bourgain_embed(q.metric, m_center_size(0.25), 2.0, mode, RngSeed(seed).child(1))
    assert rep == distortion_between(q.metric, induced_metric(emb))


def test_a_bourgain_claim_recomputes_under_1_percent_of_its_pairs(monkeypatch):
    # run and verify each build the table only on the endpoints of the pairs the screen keeps
    table, decide, seen = embeddings.induced_metric, embeddings.embedding_distortion, []
    monkeypatch.setattr(embeddings, "induced_metric", lambda emb: seen.append(emb.vectors.shape[0]) or table(emb))
    monkeypatch.setattr(embeddings, "embedding_distortion",
                        lambda source, emb: seen.append(source.n) or decide(source, emb))
    assert verify_bundle(run_bundle("cloud", {"n": 200}, "bourgain", {}, seed=0)).ok
    (n, k), (n_again, k_again) = seen[:2], seen[2:]
    assert n == n_again > embeddings.EXACT_MAX_POINTS and k == k_again
    assert k * (k - 1) < 0.01 * n * (n - 1)


def test_embedding_distortion_peaks_no_higher_than_the_table():
    # N = 800 points and J = 1024 coordinates, as bourgain at cloud n = 1000
    source = random_metric(800, 3)
    probs = np.repeat(np.exp(-2.0 * np.arange(1, 5)), 256)
    mask = np.random.default_rng(3).random((1024, 800)) < probs[:, None]
    emb = VectorEmbedding(embeddings._subset_distances(source.dist, mask), 2.0, np.full(1024, 1.0 / 1024))
    reports, peaks = [], []
    for claim in (lambda: distortion_between(source, induced_metric(emb)), lambda: embedding_distortion(source, emb)):
        tracemalloc.start()
        try:
            reports.append(claim())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0] == reports[1] and peaks[1] <= peaks[0]


@pytest.mark.parametrize("n", [12, 40], ids=["exact", "monte-carlo"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), move=st.integers(0, 2**32 - 1))
@example(seed=0, move=0)
def test_a_fresh_bourgain_artifact_verifies_and_a_moved_subsets_entry_is_refused(n, seed, move):
    # one membership moved: verify refuses the artifact unless the per-subset
    # loop gives the moved subsets the claimed distortion too; at n = 12 every
    # subset of the quotient is a coordinate (exact mode, 4095 at seed 0)
    plan = {"instance": {"variant": "cloud", "params": {"n": n}}, "pipeline": "bourgain",
            "params": {}, "trials": 1, "seed": seed}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    assume(not bundle.summary["errors"])  # no m-centre quotient of this cloud
    doc = json.loads(dumps({"plan": bundle.plan, "rows": bundle.rows, "artifacts": bundle.artifacts}))
    art = standalone(doc)
    assert verify_bundle(doc).ok and verify_bundle(art).ok
    source = quotient_by_subset(metric_from_json(art["base"]), art["subset"]).metric
    flat, weights = decode_array(art["subsets"]), decode_array(art["weights"])
    mode = "exact" if n == 12 else "monte-carlo"
    assert (weights.size == 2**source.n - 1) == (mode == "exact")
    rng = np.random.default_rng(move)
    free = np.setdiff1d(np.arange(weights.size * source.n), flat)
    moved = np.sort(np.r_[np.delete(flat, rng.integers(flat.size)), rng.choice(free)])
    art["subsets"] = doc["artifacts"][0]["subsets"] = encode_array(moved)
    mask = np.isin(np.arange(weights.size * source.n), moved).reshape(weights.size, source.n)
    _, _, table = bourgain_embed_loop(source, 1.0, art["p"], mode, given=(mask, weights))
    iu, ju = np.triu_indices(source.n, 1)
    ratio = table[iu, ju] / source.dist[iu, ju]
    claim = art["certified_distortion"]
    holds = ratio.min() > 0 and abs(ratio.max() / ratio.min() - claim) <= claim_slack(claim)
    event(f"holds: {holds}")
    for moved_doc in (doc, art):
        assert verify_bundle(moved_doc).ok == holds
