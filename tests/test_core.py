import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriq.core import (
    Equilateral,
    Lacunary,
    MetricSpace,
    Star,
    aspect_ratio,
    band,
    block_reduce,
    dumps,
    hausdorff,
    metric_from_csv,
    metric_from_json,
    metric_to_csv,
    metric_to_json,
    nearest_radii,
    nearest_radius,
    realize_special,
    set_distance,
    validate_metric,
)
from metriq.errors import StructuralError, UndefinedInputError

from conftest import block_reduce_loop, random_metric


def test_metric_space_basics():
    m = MetricSpace([[0.0, 1.0], [1.0, 0.0]])
    assert m.n == 2
    assert m.d(0, 1) == 1.0
    assert m.diameter() == 1.0
    assert m.min_distance() == 1.0


def test_metric_space_rejects_non_square():
    with pytest.raises(StructuralError):
        MetricSpace(np.zeros((2, 3)))


def test_metric_space_is_immutable():
    m = MetricSpace([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        m.dist[0, 1] = 5.0


def test_restrict_orders_points():
    m = random_metric(6, 0)
    sub = m.restrict([4, 1])
    assert sub.n == 2
    assert sub.d(0, 1) == m.d(4, 1)


def test_validate_metric_flags_each_violation():
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
    rep = validate_metric(d)
    kinds = {v[0] for v in rep.violations}
    assert kinds == {"triangle"}
    assert not rep.ok

    d = np.array([[0.5, 1.0], [1.0, 0.0]])
    assert {v[0] for v in validate_metric(d).violations} == {"diagonal"}

    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert "symmetry" in {v[0] for v in validate_metric(d).violations}

    d = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert {v[0] for v in validate_metric(d).violations} == {"positivity"}


def test_validate_metric_accepts_clouds():
    for s in range(5):
        assert validate_metric(random_metric(10, s)).ok


def test_star_realization():
    m = realize_special(Star(3, 1.5))
    assert m.n == 4
    assert np.all(m.dist[0, 1:] == 1.0)
    off = m.dist[1:, 1:][~np.eye(3, dtype=bool)]
    assert np.all(off == 1.5)
    with pytest.raises(StructuralError):
        realize_special(Star(3, 2.5))  # violates the triangle through the root


def test_lacunary_realization():
    m = realize_special(Lacunary((4.0, 2.0, 1.0), 2.0))
    assert m.n == 4
    assert m.d(0, 3) == 4.0 and m.d(1, 2) == 2.0 and m.d(2, 3) == 1.0
    assert validate_metric(m).ok
    with pytest.raises(StructuralError):
        realize_special(Lacunary((4.0, 3.0), 2.0))  # ratio only 4/3


def test_equilateral_realization():
    m = realize_special(Equilateral(5, 2.5))
    off = m.dist[~np.eye(5, dtype=bool)]
    assert np.all(off == 2.5)


def test_aspect_ratio_and_radii():
    m = MetricSpace([[0, 1, 4], [1, 0, 4], [4, 4, 0]])
    assert aspect_ratio(m) == 4.0
    assert nearest_radius(m, 2) == 4.0
    assert np.array_equal(nearest_radii(m), [1.0, 1.0, 4.0])
    assert band(m, 0.5, 2.0) == [0, 1]
    assert band(m, 1.0, 4.0) == [0, 1]  # half-open: 4.0 excluded


def test_set_distance_and_hausdorff():
    m = MetricSpace([[0, 1, 4], [1, 0, 4], [4, 4, 0]])
    assert set_distance(m, [0], [1, 2]) == 1.0
    assert hausdorff(m, [0, 1], [2]) == 4.0
    with pytest.raises(UndefinedInputError):
        set_distance(m, [], [0])


@st.composite
def blocked_matrices(draw):
    """A square matrix with ties, and disjoint blocks in a random order.

    Shapes: a random partition, all singletons, one block, or one big block
    beside singletons; blocks may leave points uncovered.
    """
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dist = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    else:
        dist = rng.uniform(-1e3, 1e3, size=(n, n))
    perm = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["random", "singletons", "one", "unequal"]))
    if shape == "random":
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [tuple(p for p, lab in zip(perm, labels) if lab == u) for u in dict.fromkeys(labels)]
    elif shape == "singletons":
        blocks = [(p,) for p in perm]
    elif shape == "one":
        blocks = [tuple(perm)]
    else:
        big = draw(st.integers(1, n))
        blocks = [tuple(perm[:big])] + [(p,) for p in perm[big:]]
    keep = draw(st.integers(1, len(blocks)))
    return dist, blocks[:keep]


@pytest.mark.parametrize(
    "inner, outer",
    [(np.minimum, np.minimum), (np.minimum, np.maximum), (np.logical_or, np.logical_and)],
)
@settings(max_examples=200, deadline=None)
@given(case=blocked_matrices())
def test_block_reduce_matches_pair_loop(inner, outer, case):
    dist, blocks = case
    if inner is np.logical_or:
        dist = dist > 0
    got = block_reduce(dist, blocks, inner, outer)
    want = block_reduce_loop(dist, blocks, inner, outer)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_block_reduce_rejects_empty_block():
    d = random_metric(4, 0).dist
    with pytest.raises(StructuralError):
        block_reduce(d, [(0, 1), ()])
    with pytest.raises(StructuralError):
        block_reduce(d, [(), (2,)], np.minimum, np.maximum)


def test_json_round_trip():
    m = random_metric(7, 3)
    m2 = metric_from_json(metric_to_json(m))
    assert np.array_equal(m.dist, m2.dist)


def test_csv_round_trip_is_exact():
    m = random_metric(5, 4)
    m2 = metric_from_csv(metric_to_csv(m))
    assert np.array_equal(m.dist, m2.dist)


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [1.5, 2]})
    b = dumps({"a": [1.5, 2], "b": 1})
    assert a == b == '{"a":[1.5,2],"b":1}'


def test_single_point_undefined_functionals():
    m = MetricSpace(np.zeros((1, 1)))
    with pytest.raises(UndefinedInputError):
        m.min_distance()
    with pytest.raises(UndefinedInputError):
        aspect_ratio(m)
