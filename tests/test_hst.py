import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from metriq.cli import plan_from_json, verify_bundle
from metriq.generators import realize_instance
from metriq.core import TOL, MetricSpace, decode_array, dumps, metric_to_json
from metriq.errors import StructuralError
from metriq.hst import (
    HstTree,
    hst_from_json,
    hst_from_splits,
    hst_from_ultrametric,
    hst_to_json,
    hst_to_metric,
    is_ultrametric,
    join,
    leaf,
    ultrametric_to_l2,
    validate_khst,
)
from metriq.quotient import distortion_between, quotient_by_subset

from conftest import (
    edit_array,
    flat_tree,
    hst_from_ultrametric_ref,
    hst_leaves,
    hst_scale,
    hst_to_metric_ref,
    is_ultrametric_ref,
    nested_tree,
    random_metric,
    run_bundle,
    standalone,
    ultrametric_to_l2_ref,
)


def two_level_tree():
    return join(4.0, (join(1.0, (leaf(0), leaf(1))), join(2.0, (leaf(2), leaf(3)))))


def random_hst(rng, n_leaves, k=1.0):
    """Random tree over leaf ids 0..n-1 with labels decreasing by factor >= k."""
    ids = list(rng.permutation(n_leaves))

    def build(ids, delta):
        if len(ids) == 1:
            return leaf(ids[0])
        cut = int(rng.integers(1, len(ids)))
        child_delta = delta / (k * float(rng.uniform(1.0, 2.0)))
        parts = [ids[:cut], ids[cut:]]
        children = tuple(
            leaf(p[0]) if len(p) == 1 else build(p, child_delta) for p in parts
        )
        return join(delta, children)

    return build(ids, 8.0)


def caterpillar(n):
    """n leaves; chain vertex i (label n - i) holds leaf i and the rest of the chain."""

    def split(item):
        kind, i = item
        if kind == "leaf" or i == n - 1:
            return i
        return float(n - i), (("leaf", i), ("chain", i + 1))

    return hst_from_splits(("chain", 0), split)


def test_leaf_invariants():
    with pytest.raises(StructuralError):
        HstTree([0], [-1], [1.0])  # leaf with nonzero label
    with pytest.raises(StructuralError):
        join(0.0, ())  # internal with no children
    with pytest.raises(StructuralError):
        join(-1.0, (leaf(0),))


def test_tree_arrays_must_be_in_preorder():
    HstTree([0, 1, 2], [-1, 0, 1, 1, 0], [2.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(StructuralError):
        # vertex 3 hangs under vertex 1, but vertex 2, a sibling of 1, came in between
        HstTree([0, 1, 2], [-1, 0, 0, 1, 1], [2.0, 1.0, 0.0, 0.0, 0.0])


def test_leaves_in_order():
    assert hst_leaves(two_level_tree()) == [0, 1, 2, 3]


def test_validate_khst():
    t = two_level_tree()
    assert validate_khst(t, 2.0).ok
    assert not validate_khst(t, 3.0).ok  # 2.0 > 4.0/3
    assert [v[:2] for v in validate_khst(t, 3.0).violations] == [("label-ratio", (4,))]
    dup = join(2.0, (leaf(0), leaf(0)))
    assert any(v[0] == "duplicate-leaf" for v in validate_khst(dup, 1.0).violations)


def test_hst_to_metric_hand_example():
    m = hst_to_metric(two_level_tree())
    assert m.d(0, 1) == 1.0
    assert m.d(2, 3) == 2.0
    assert m.d(0, 2) == m.d(1, 3) == 4.0
    assert is_ultrametric(m)


def test_hst_to_metric_requires_id_permutation():
    with pytest.raises(StructuralError):
        hst_to_metric(join(1.0, (leaf(0), leaf(2))))


def test_is_ultrametric_rejects_generic_metrics():
    assert not is_ultrametric(random_metric(6, 0))


def test_ultrametric_round_trip_random_trees():
    rng = np.random.default_rng(5)
    for _ in range(25):
        t = random_hst(rng, int(rng.integers(2, 10)))
        m = hst_to_metric(t)
        t2 = hst_from_ultrametric(m)
        assert np.array_equal(hst_to_metric(t2).dist, m.dist)


def test_hst_from_ultrametric_rejects_non_ultrametric():
    with pytest.raises(StructuralError):
        hst_from_ultrametric(random_metric(5, 1))


def test_ultrametric_to_l2_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = random_hst(rng, int(rng.integers(2, 9)))
        m = hst_to_metric(t)
        v = ultrametric_to_l2(t)
        assert v.shape[0] == m.n
        assert v.shape[1] <= 2 * m.n - 1
        d = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
        assert np.abs(d - m.dist).max() < 1e-9


def test_ultrametric_to_l2_single_point():
    v = ultrametric_to_l2(leaf(0))
    assert v.shape[0] == 1


def test_scale():
    t = hst_scale(two_level_tree(), 2.0)
    assert t.delta[0] == 8.0
    assert hst_to_metric(t).d(0, 1) == 2.0


def test_json_round_trip():
    t = two_level_tree()
    t2 = hst_from_json(hst_to_json(t))
    assert np.array_equal(hst_to_metric(t2).dist, hst_to_metric(t).dist)


# --- the flat functions against their recursive references -----------------


def _nested(rng, ids, label, chain, drop):
    """Nested tree over `ids` under a root labelled `label`; labels fall by drop() per edge."""
    if len(ids) == 1:
        return int(ids[0])
    if chain:
        parts = [ids[:1], ids[1:]]
    else:
        k = int(rng.integers(2, min(4, len(ids)) + 1))
        parts = np.split(ids, np.sort(rng.choice(np.arange(1, len(ids)), k - 1, replace=False)))
    return (label, tuple(_nested(rng, p, label - drop(), chain, drop) for p in parts))


@st.composite
def nested_trees(draw):
    """Random or deep-chain trees whose labels fall along every edge: on a grid
    (equal labels in separate subtrees), by tol-level steps, or uniformly."""
    chain = draw(st.booleans())
    n = draw(st.integers(1, 120 if chain else 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drop = {
        "grid": lambda: float(rng.integers(1, 3)),
        "near-ties": lambda: float(rng.choice([1.0, 0.3 * TOL, 0.9 * TOL])),
        "uniform": lambda: float(rng.uniform(1e-3, 2.0)),
    }[draw(st.sampled_from(["grid", "near-ties", "uniform"]))]
    return _nested(rng, rng.permutation(n), 2.0 * n + 2.0, chain, drop)


@st.composite
def near_ultrametrics(draw):
    """Leaf metrics of nested_trees, exact or with tol-level (a)symmetric noise, and generic metrics."""
    kind = draw(st.sampled_from(["exact", "noise", "asymmetric-noise", "generic"]))
    if kind == "generic":
        return random_metric(draw(st.integers(2, 30)), draw(st.integers(0, 10**6)))
    d = hst_to_metric_ref(draw(nested_trees()))
    if kind != "exact":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = rng.uniform(-2 * TOL, 2 * TOL, d.shape)
        if kind == "noise":
            noise = np.triu(noise, 1) + np.triu(noise, 1).T
        np.fill_diagonal(noise, 0.0)
        d = d + noise
    return MetricSpace(d)


@settings(max_examples=200, deadline=None)
@given(nested_trees())
def test_hst_to_metric_matches_reference(x):
    t = flat_tree(x)
    assert nested_tree(t) == x
    assert np.array_equal(hst_to_metric(t).dist, hst_to_metric_ref(x))


@settings(max_examples=200, deadline=None)
@given(nested_trees())
def test_ultrametric_to_l2_matches_reference(x):
    assert np.array_equal(ultrametric_to_l2(flat_tree(x)), ultrametric_to_l2_ref(x))


@settings(max_examples=200, deadline=None)
@given(near_ultrametrics())
def test_is_ultrametric_matches_reference(m):
    assert is_ultrametric(m) == is_ultrametric_ref(m)


@settings(max_examples=200, deadline=None)
@given(near_ultrametrics())
def test_hst_from_ultrametric_matches_reference(m):
    try:
        expected = hst_from_ultrametric_ref(m)
    except StructuralError:
        with pytest.raises(StructuralError):
            hst_from_ultrametric(m)
        return
    assert nested_tree(hst_from_ultrametric(m)) == expected


# --- trees far deeper than the interpreter's recursion limit ---------------


def test_deep_caterpillar_through_metric_khst_and_json():
    n = 3000
    t = caterpillar(n)
    m = hst_to_metric(t)
    assert m.d(0, n - 1) == float(n) and m.d(n - 2, n - 1) == 2.0 and m.d(1, 2) == float(n - 1)
    assert validate_khst(t, 1.0).ok
    t2 = hst_from_json(json.loads(dumps(hst_to_json(t))))
    assert hst_to_json(t2) == hst_to_json(t)
    assert np.array_equal(hst_to_metric(t2).dist, m.dist)


def test_deep_caterpillar_artifact_verifies_and_embeds():
    # 1200 leaves: deep past the recursion limit, while the base matrix's JSON stays small
    t = caterpillar(1200)
    m = hst_to_metric(t)
    art = {"kind": "hst", "base": metric_to_json(m), "tree": hst_to_json(t),
           "certified_distortion": 1.0}
    assert verify_bundle(json.loads(dumps(art))).ok
    v = ultrametric_to_l2(t)
    rows = np.random.default_rng(0).choice(m.n, 100, replace=False)
    assert np.abs(cdist(v[rows], v) - m.dist[rows]).max() < 1e-9 * m.diameter()


# --- hst artifacts: fresh ones verify, malformed or tampered ones do not ---


def _hst_bundle(seed: int, n: int) -> dict:
    """A one-trial hst bundle: its artifact holds the m-centre set T of the
    plan's instance as `subset`, and no base."""
    return run_bundle("cloud", {"n": n}, "hst", {"eps": 0.3}, seed=seed)


def _tree_base(doc: dict) -> MetricSpace:
    """The base of the bundle's tree: its plan's instance collapsed on T."""
    art = doc["artifacts"][0]
    m = realize_instance(plan_from_json(doc["plan"]).instance_spec(art["trial"]))
    return quotient_by_subset(m, art["subset"]).metric


bundles = st.builds(_hst_bundle, st.integers(0, 10**6), st.integers(30, 60))


@settings(max_examples=50, deadline=None)
@given(bundles)
def test_fresh_hst_artifact_verifies(doc):
    assert verify_bundle(doc).ok
    assert verify_bundle(standalone(doc)).ok


@settings(max_examples=40, deadline=None)
@given(bundles, st.integers(0, 2**32 - 1))
def test_a_swapped_m_centre_point_is_refused(doc, seed):
    # one point of T traded for a point outside it: the tree's base, rebuilt
    # from the plan's instance and T, changes; unless the distortion does not,
    # the claim is off
    art = doc["artifacts"][0]
    rng = np.random.default_rng(seed)
    T = art["subset"]
    outside = np.setdiff1d(np.arange(doc["plan"]["instance"]["params"]["n"]), T)
    T[int(rng.integers(len(T)))] = int(rng.choice(outside))
    T.sort()
    rep = distortion_between(_tree_base(doc), hst_to_metric(hst_from_json(art["tree"])))
    claimed = art["certified_distortion"]
    assume(abs(rep.distortion - claimed) > max(1e-9, 1e-6 * claimed))
    assert "certificate" in {v[0] for v in verify_bundle(doc).violations}


@settings(max_examples=20, deadline=None)
@given(bundles, st.booleans())
def test_a_dropped_or_added_m_centre_point_is_refused(doc, drop):
    # the base collapsed on T then has one point more, or one fewer, than the tree
    art = doc["artifacts"][0]
    T = art["subset"]
    if drop:
        assume(len(T) > 1)
        T.pop()
    else:
        T.append(int(np.setdiff1d(np.arange(doc["plan"]["instance"]["params"]["n"]), T)[0]))
        T.sort()
    with pytest.raises(StructuralError, match="^artifact 0: source has"):
        verify_bundle(doc)


@settings(max_examples=40, deadline=None)
@given(bundles, st.floats(1.01, 4.0))
def test_a_raised_tree_label_is_refused(doc, factor):
    # the label of the lowest common ancestor of the most expanded pair, raised
    # by factor: that pair expands by factor, so unless the most contracted
    # pair shares the ancestor and the product is unchanged, the claim is off
    art = doc["artifacts"][0]
    base, tree = _tree_base(doc), hst_from_json(art["tree"])
    x, y = distortion_between(base, hst_to_metric(tree)).expansion_pair
    pos = np.argsort(tree.order)
    lo, hi = sorted((pos[x], pos[y]))
    spans = np.where((tree.lo <= lo) & (tree.hi > hi), tree.hi - tree.lo, tree.order.size + 1)
    top = int(np.argmin(spans))

    def raise_label(delta):
        delta[top] *= factor
        return delta

    edit_array(art["tree"], "delta", raise_label)
    rep = distortion_between(base, hst_to_metric(hst_from_json(art["tree"])))
    claimed = art["certified_distortion"]
    assume(abs(rep.distortion - claimed) > max(1e-9, 1e-6 * claimed))
    assert "certificate" in {v[0] for v in verify_bundle(doc).violations}


def _put(tree: dict, key: str, i: int, value) -> None:
    def set_one(a):
        a[i] = value
        return a

    edit_array(tree, key, set_one)


def _malform(tree: dict, case: str, rng) -> None:
    parent = decode_array(tree["parent"]).tolist()
    is_leaf = (decode_array(tree["delta"]) == 0.0).tolist()
    if case == "length":
        edit_array(tree, str(rng.choice(["order", "parent", "delta"])), lambda a: a[:-1])
    elif case == "root":
        i = int(rng.integers(0, len(parent)))
        _put(tree, "parent", i, 0 if i == 0 else -1)
    elif case == "parent":
        i = int(rng.integers(1, len(parent)))
        _put(tree, "parent", i, i + int(rng.integers(0, 3)))
    elif case == "preorder":
        # hang vertex i under an earlier internal vertex off the path to i - 1
        for i in rng.permutation(np.arange(2, len(parent))).tolist():
            path, v = set(), i - 1
            while v >= 0:
                path.add(v)
                v = parent[v]
            off = [j for j in range(i) if not is_leaf[j] and j not in path]
            if off:
                _put(tree, "parent", i, int(rng.choice(off)))
                return
        assume(False)  # every internal vertex before i is an ancestor of i - 1
    elif case == "dtype":
        # integer ids stored as floats, or under a dtype the codec does not read
        key = str(rng.choice(["order", "parent"]))
        if rng.integers(0, 2):
            edit_array(tree, key, lambda a: a.astype(np.float64))
        else:
            tree[key]["dtype"] = str(rng.choice(["<u8", "<i4", ">i8", "int"]))
    elif case == "leaf-delta":
        i = int(rng.choice(np.flatnonzero(is_leaf)))
        _put(tree, "delta", i, float(rng.choice([1.0, -1.0, 1e-300])))
    elif case == "internal-delta":
        i = int(rng.choice(np.flatnonzero(np.logical_not(is_leaf))))
        _put(tree, "delta", i, float(rng.choice([0.0, -1.0])))


@settings(max_examples=100, deadline=None)
@given(bundles,
       st.sampled_from(["length", "root", "parent", "preorder", "dtype", "leaf-delta", "internal-delta"]),
       st.integers(0, 2**32 - 1))
def test_malformed_hst_tree_raises_structural_error(doc, case, seed):
    tree = doc["artifacts"][0]["tree"]
    _malform(tree, case, np.random.default_rng(seed))
    with pytest.raises(StructuralError):
        hst_from_json(tree)
    with pytest.raises(StructuralError):
        verify_bundle(doc)


@settings(max_examples=30, deadline=None)
@given(bundles)
def test_shrunken_hst_tree_fails_contraction(doc):
    edit_array(doc["artifacts"][0]["tree"], "delta", lambda d: 0.99 * d)
    assert "contraction" in {v[0] for v in verify_bundle(doc).violations}


@settings(max_examples=30, deadline=None)
@given(bundles, st.sampled_from([1.01, 0.5, 2.0]))
def test_changed_hst_certificate_fails(doc, factor):
    doc["artifacts"][0]["certified_distortion"] *= factor
    assert "certificate" in {v[0] for v in verify_bundle(doc).violations}
