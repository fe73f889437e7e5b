import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriq.core import MetricSpace, aspect_ratio, validate_metric
from metriq.errors import ParameterError
from metriq.generators import (
    CompositionTree,
    _block_matrix,
    InstanceSpec,
    gen_composition,
    gen_euclidean_cloud,
    gen_lipcomp_product,
    gen_padded_copies,
    gen_random_graph_metric,
    hypercube_metric,
    random_composition_tree,
    realize_composition,
    realize_instance,
)
from metriq.seeds import RngSeed

from conftest import (
    block_matrix_loop,
    euclidean_cloud_broadcast,
    gen_random_graph_metric_loop,
    random_metric,
)


def test_padded_copies_structure():
    X = random_metric(3, 0)
    m = gen_padded_copies(X, 4)
    assert m.n == 12
    beta = X.diameter()
    for i in range(3):
        for j in range(3):
            assert m.d(i, j) == X.d(i, j)
            assert m.d(i, 3 + j) == beta
    assert validate_metric(m).ok


def test_padded_copies_rejects_small_beta():
    X = random_metric(3, 1)
    with pytest.raises(ParameterError):
        gen_padded_copies(X, 2, beta=X.diameter() / 2)


def test_random_graph_metric_two_valued():
    m, edges = gen_random_graph_metric(20, 0.3, seed=2)
    off = m.dist[~np.eye(20, dtype=bool)]
    assert set(np.unique(off)) <= {1.0, 2.0}
    assert validate_metric(m).ok
    for i, j in edges:
        assert m.d(i, j) == 1.0


@pytest.mark.parametrize("n", [0, 1, 2, 7, 60, 280])
@pytest.mark.parametrize("q", [0.02, 0.3, 0.97])
@pytest.mark.parametrize("seed", [0, 5, RngSeed(3, 1)])
def test_random_graph_metric_matches_the_pair_loop(n, q, seed):
    m, edges = gen_random_graph_metric(n, q, seed)
    ref, ref_edges = gen_random_graph_metric_loop(n, q, seed)
    assert m.dist.tobytes() == ref.dist.tobytes()
    assert edges == ref_edges and all(type(i) is int for e in edges for i in e)


def test_composition_cross_distances():
    outer = MetricSpace([[0, 1.0, 2.0], [1.0, 0, 1.5], [2.0, 1.5, 0]])
    child = MetricSpace([[0, 0.5], [0.5, 0]])
    tree = CompositionTree(outer, (child, child, child), beta=4.0)
    real = realize_composition(tree)
    gamma = 0.5 / 1.0  # max child diameter / min outer distance
    assert real.gamma == gamma
    assert real.cross_multiplier == 4.0 * gamma
    m = real.metric
    # inside a child: its own metric; across: beta * gamma * d_outer
    assert m.d(0, 1) == 0.5
    assert m.d(0, 2) == 4.0 * gamma * 1.0
    assert m.d(0, 4) == 4.0 * gamma * 2.0
    assert validate_metric(m).ok


def test_composition_all_singletons_copies_outer():
    outer = random_metric(4, 3)
    one = MetricSpace(np.zeros((1, 1)))
    real = realize_composition(CompositionTree(outer, (one,) * 4, beta=2.0))
    assert np.array_equal(real.metric.dist, outer.dist)
    assert real.cross_multiplier == 1.0


def test_random_composition_tree_is_metric():
    for depth in (1, 2, 3):
        m = gen_composition(random_composition_tree(depth, seed=depth))
        assert validate_metric(m).ok


def test_lipcomp_product_structure():
    X = random_metric(3, 4)
    Y = random_metric(3, 5)
    alpha = 1.5
    mu = alpha * aspect_ratio(Y) * 1.1
    theta = alpha * mu**3 * Y.diameter() / X.min_distance()
    m = gen_lipcomp_product(X, Y, mu, theta, alpha)
    assert m.n == 9
    assert np.allclose(m.dist[:3, :3], mu * Y.dist)
    assert np.allclose(m.dist[3:6, 3:6], mu**2 * Y.dist)
    assert np.all(m.dist[:3, 3:6] == theta * X.d(0, 1))
    assert validate_metric(m).ok


@pytest.mark.parametrize("seed", range(12))
def test_block_matrices_match_the_pair_loop(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    cross = rng.uniform(0.5, 3.0, (k, k))  # not symmetric: only its upper triangle is read
    diagonal = [random_metric(int(rng.integers(1, 5)), 10 * seed + i).dist for i in range(k)]
    assert _block_matrix(cross, diagonal).tobytes() == block_matrix_loop(cross, diagonal).tobytes()

    X, Y = random_metric(k, seed), random_metric(3, seed + 50)
    ref = block_matrix_loop(np.full((k, k), 2.0 * X.diameter()), [X.dist] * k)
    assert gen_padded_copies(X, k, 2.0 * X.diameter()).dist.tobytes() == ref.tobytes()
    mu = 1.5 * aspect_ratio(Y) * 1.1
    theta = 1.5 * mu**k * Y.diameter() / (X.min_distance() if k > 1 else 1.0)
    ref = block_matrix_loop(theta * X.dist, [mu ** (i + 1) * Y.dist for i in range(k)])
    assert gen_lipcomp_product(X, Y, mu, theta, 1.5).dist.tobytes() == ref.tobytes()
    real = realize_composition(random_composition_tree(2, seed=seed))
    ref = block_matrix_loop(real.cross_multiplier * real.tree.outer.dist,
                            [c.metric.dist for c in real.children])
    assert real.metric.dist.tobytes() == ref.tobytes()


def test_lipcomp_rejects_small_mu():
    X = random_metric(3, 4)
    Y = random_metric(3, 5)
    with pytest.raises(ParameterError):
        gen_lipcomp_product(X, Y, 1.0, 1e9, 1.5)


def test_hypercube_metric_matches_bit_count():
    m = hypercube_metric(5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.integers(0, 32, 2)
        assert m.d(int(x), int(y)) == bin(int(x) ^ int(y)).count("1")


def test_hypercube_capacity():
    with pytest.raises(ParameterError):
        hypercube_metric(13)


def test_realize_instance_variants():
    for variant, params in [
        ("star", {"n": 4, "tau": 1.5}),
        ("lacunary", {"a": [4.0, 2.0, 1.0], "k": 2.0}),
        ("equilateral", {"n": 5}),
        ("cube", {"d": 4}),
        ("gnp", {"n": 12, "q": 0.4}),
        ("cloud", {"n": 10}),
        ("padded", {"copies": 3}),
        ("composition", {"depth": 2}),
        ("lipcomp", {"k": 3, "yn": 3}),
    ]:
        m = realize_instance(InstanceSpec(variant, params, RngSeed(1)))
        assert validate_metric(m).ok, variant


@pytest.mark.parametrize("variant, params, key", [
    ("cloud", {"n": "abc"}, "n"),
    ("cloud", {"n": 10, "dim": [3]}, "dim"),
    ("gnp", {"n": 12, "q": "often"}, "q"),
    ("lacunary", {"a": 5}, "a"),
    ("lacunary", {"a": [1.0, "x"]}, "a"),
    ("star", {"n": None}, "n"),
    ("cloud", {"n": float("inf")}, "n"),
    ("cloud", {"n": 40.9}, "n"),  # click would truncate it to 40
    ("cloud", {"n": 40.0}, "n"),
    ("cloud", {"n": True}, "n"),  # and read it as 1
    ("cloud", {"n": "40"}, "n"),
    ("cube", {"d": 3.5}, "d"),
])
def test_realize_instance_refuses_a_non_numeric_param(variant, params, key):
    with pytest.raises(ParameterError) as err:
        realize_instance(InstanceSpec(variant, params, RngSeed(1)))
    assert repr(variant) in str(err.value) and repr(key) in str(err.value)
    assert repr(params[key]) in str(err.value)


def test_realize_instance_null_optional_param_takes_its_default():
    base = {"base_n": 4, "copies": 3}
    with_null = realize_instance(InstanceSpec("padded", {**base, "beta": None}, RngSeed(2)))
    without = realize_instance(InstanceSpec("padded", base, RngSeed(2)))
    assert np.array_equal(with_null.dist, without.dist)


def test_realize_instance_is_deterministic():
    spec = InstanceSpec("cloud", {"n": 10}, RngSeed(9))
    assert np.array_equal(realize_instance(spec).dist, realize_instance(spec).dist)


def test_euclidean_cloud_is_metric():
    assert validate_metric(gen_euclidean_cloud(30, seed=1)).ok


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.one_of(st.integers(1, 20), st.sampled_from([129, 200])), st.integers(0, 2**31 - 1))
def test_euclidean_cloud_matches_the_broadcast_bitwise(n, dim, seed):
    # below 8, from 8 to 128 and above 128 coordinates numpy sums in three
    # different orders; the column loop below 8 and the row-chunked broadcast
    # from 8 on must follow each of them
    got = gen_euclidean_cloud(n, RngSeed(seed), dim).dist
    assert got.tobytes() == euclidean_cloud_broadcast(n, RngSeed(seed), dim).dist.tobytes()


def test_euclidean_cloud_peaks_at_two_matrices_from_eight_coordinates():
    # a 2000-point matrix is 30.5 MiB; the n x n x 8 broadcast alone would be 8 of them
    tracemalloc.start()
    try:
        gen_euclidean_cloud(2000, RngSeed(1), dim=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
