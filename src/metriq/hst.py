"""Hierarchically well-separated trees (HSTs) and ultrametrics.

An HST is a rooted tree with a nonnegative label on every vertex: zero exactly
at the leaves, and decreasing by a factor >= k along every edge for a k-HST.
The induced leaf metric d(x, y) = label(lca(x, y)) is an ultrametric; 1-HSTs
are exactly the finite ultrametrics.

A tree is stored flat, over its vertices in preorder: `parent` (parent[0] =
-1, parent[i] < i), `delta` (the labels) and `order` (the leaf ids in DFS
order, so every vertex owns a contiguous span of it).  Nothing here recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TOL, Doc, MetricSpace, ValidationReport, array, encode_array, submatrix
from .errors import StructuralError


def _flat(x, name: str, integral: bool) -> np.ndarray:
    a = np.asarray(x)
    kinds, what = ("iu", "integers") if integral else ("iuf", "numbers")
    if a.ndim != 1 or (a.size and a.dtype.kind not in kinds):
        raise StructuralError(f"{name} must be a flat list of {what}")
    return a.astype(np.int64 if integral else np.float64)


@dataclass(frozen=True, eq=False)
class HstTree:
    """An HST in preorder arrays.  Vertex i owns the leaves order[lo[i]:hi[i]]."""

    order: np.ndarray
    parent: np.ndarray
    delta: np.ndarray
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order, parent = _flat(self.order, "order", True), _flat(self.parent, "parent", True)
        delta = _flat(self.delta, "delta", False)
        size = parent.size
        if size == 0 or delta.size != size or parent[0] != -1 or np.any(parent[1:] < 0) \
                or np.any(parent[1:] >= np.arange(1, size)):
            raise StructuralError("need len(parent) = len(delta), parent[0] = -1, 0 <= parent[i] < i")
        is_leaf = np.ones(size, dtype=bool)
        is_leaf[parent[1:]] = False
        if order.size != np.count_nonzero(is_leaf):
            raise StructuralError("order must hold one id per leaf vertex")
        if np.any(delta[is_leaf] != 0.0) or not np.all(delta[~is_leaf] > 0):
            raise StructuralError("leaf vertices need delta = 0, internal vertices delta > 0")
        lo = (np.cumsum(is_leaf) - is_leaf).tolist()  # leaves before vertex i
        hi, path = [order.size] * size, []  # path: root .. current vertex; its spans end last
        for i, p in enumerate(parent.tolist()):
            while path and path[-1] != p:
                hi[path.pop()] = lo[i]
            if i and not path:
                raise StructuralError(f"vertex {i} breaks the preorder")
            path.append(i)
        for name, a in (("order", order), ("parent", parent), ("delta", delta),
                        ("lo", np.array(lo)), ("hi", np.array(hi))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def leaf(point_id: int) -> HstTree:
    return HstTree([int(point_id)], [-1], [0.0])


def join(delta: float, children, renumber: bool = False) -> HstTree:
    """A root labelled delta over `children`, in the given order.

    renumber=True shifts each child's leaf ids by the leaf count of the
    children before it, so children over 0..s_j-1 glue into one 0..n-1 tree.
    """
    orders, parents, deltas = [np.zeros(0, np.int64)], [np.array([-1])], [np.array([delta], float)]
    nodes = shift = 0
    for c in children:
        orders.append(c.order + shift if renumber else c.order)
        parents.append(np.concatenate([[0], c.parent[1:] + nodes + 1]))
        deltas.append(c.delta)
        nodes += c.parent.size
        shift += c.order.size
    return HstTree(np.concatenate(orders), np.concatenate(parents), np.concatenate(deltas))


def hst_from_splits(root, split) -> HstTree:
    """Build an HST top-down, in preorder, from an explicit worklist.

    split(item) returns a leaf id (int) or (delta, child items).  Only the
    pending siblings along the current path stay alive.
    """
    order, parent, delta, work = [], [], [], [(root, -1)]
    while work:
        item, p = work.pop()
        got = split(item)
        parent.append(p)
        if isinstance(got, tuple):
            delta.append(float(got[0]))
            work.extend((c, len(parent) - 1) for c in reversed(got[1]))
        else:
            delta.append(0.0)
            order.append(int(got))
    return HstTree(order, parent, delta)


def validate_khst(t: HstTree, k: float) -> ValidationReport:
    """Report every vertex whose label exceeds its parent's label / k, and repeated leaf ids."""
    if k < 1:
        raise StructuralError("separation parameter k must be >= 1")
    report = ValidationReport()
    delta, parent = t.delta, t.parent
    for i in (np.flatnonzero(delta[1:] > delta[parent[1:]] / k + TOL) + 1).tolist():
        bound = float(delta[parent[i]] / k)
        report.add("label-ratio", (i,), f"child delta {float(delta[i])!r} > parent/{k} = {bound!r}")
    _, first = np.unique(t.order, return_index=True)
    for j in np.setdiff1d(np.arange(t.order.size), first).tolist():
        report.add("duplicate-leaf", (j,), f"leaf id {int(t.order[j])} repeated")
    return report


def _leaf_position(t: HstTree) -> np.ndarray:
    """Position of leaf id i in `order`; leaf ids must be 0..n-1."""
    if not np.array_equal(np.sort(t.order), np.arange(t.order.size)):
        raise StructuralError("leaf ids must be a permutation of 0..n-1")
    return np.argsort(t.order)


def hst_to_metric(t: HstTree) -> MetricSpace:
    """Leaf metric d(x, y) = label of the least common ancestor.

    Point i of the output is the leaf with id i; leaf ids must be 0..n-1.
    Each child's span meets the rest of its parent's span after it, so every
    pair is written once, at its LCA, above the diagonal; adding the
    transpose mirrors it exactly, as the other side still holds 0.  One
    permutation then maps DFS positions to leaf ids.
    """
    pos = _leaf_position(t)
    d = np.zeros((pos.size, pos.size))
    lo, hi, parent, delta = t.lo.tolist(), t.hi.tolist(), t.parent.tolist(), t.delta.tolist()
    for c in range(1, len(parent)):
        p = parent[c]
        d[lo[c] : hi[c], hi[c] : hi[p]] = delta[p]
    d += d.T
    return MetricSpace(submatrix(d, pos))


def _single_linkage(d: np.ndarray) -> np.ndarray:
    """scipy's single-linkage merge table of min(d, d.T); heights are entries of d."""
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    return linkage(squareform(np.minimum(d, d.T), checks=False), method="single")


def is_ultrametric(m: MetricSpace) -> bool:
    """d(x, y) <= max(d(x, z), d(z, y)) + TOL for all triples.

    The single-linkage cophenetic matrix C (Gower & Ross 1969) is an exact
    ultrametric, and C <= d <= C + TOL gives d(x, y) <= max(C(x, z), C(z, y))
    + TOL <= max(d(x, z), d(z, y)) + TOL; triples are enumerated only otherwise.
    """
    d = m.dist
    if m.n > 1:
        from scipy.cluster.hierarchy import cophenet
        from scipy.spatial.distance import squareform

        c = squareform(cophenet(_single_linkage(d)))
        if np.all(c <= d) and np.all(d <= c + TOL):
            return True
    for z in range(m.n):
        if np.any(d > np.maximum(d[:, z][:, None], d[z][None, :]) + TOL):
            return False
    return True


def hst_from_ultrametric(m: MetricSpace) -> HstTree:
    """Canonical 1-HST of an ultrametric matrix.

    The components of "distance <= t + TOL", merged at each distinct distance
    t in turn, read off single linkage: a merge at height h gets the first t
    with h <= t + TOL, equal-label merges form one vertex, and children are
    ordered by smallest point id.  Exact ultrametrics round-trip exactly.
    """
    if not is_ultrametric(m):
        raise StructuralError("matrix is not an ultrametric")
    n = m.n
    if n == 1:
        return leaf(0)
    z = _single_linkage(m.dist)
    values = np.unique(m.dist[np.triu_indices(n, k=1)])
    label = values[np.searchsorted(values + TOL, z[:, 2])].tolist()
    pairs = z[:, :2].astype(np.int64).tolist()
    first = list(range(n))  # smallest point id of cluster c; merge k is cluster n + k
    for a, b in pairs:
        first.append(min(first[a], first[b]))

    def split(c: int):
        """Leaf c, or merge c with every merge of its label below it absorbed."""
        if c < n:
            return c
        kids, below = [], list(pairs[c - n])
        while below:
            x = below.pop()
            if x >= n and label[x - n] == label[c - n]:
                below.extend(pairs[x - n])
            else:
                kids.append(x)
        return label[c - n], sorted(kids, key=first.__getitem__)

    return hst_from_splits(2 * n - 2, split)


def ultrametric_to_l2(t: HstTree) -> np.ndarray:
    """Exact Euclidean realization of an ultrametric tree's leaf metric.

    The children of a vertex with label D sit in pairwise-orthogonal blocks,
    each on a sphere of radius D/sqrt(2), so cross-child distances are exactly
    D; one column per vertex (in post-order), shared by its span, lifts the
    subtree to the sphere its parent prescribes.  Returns an (n, dim) array
    indexed by leaf id, with all-zero columns dropped.
    """
    pos = _leaf_position(t)
    half = t.delta / np.sqrt(2.0)
    radius = half[np.maximum(t.parent, 0)]  # the root keeps its own sphere
    lift = np.sqrt(np.maximum(radius * radius - half * half, 0.0))
    value = np.where(t.delta == 0.0, radius, lift).tolist()
    post = np.lexsort((-np.arange(t.parent.size), t.hi))  # by end of span, deepest first
    out = np.zeros((pos.size, post.size))
    lo, hi = t.lo.tolist(), t.hi.tolist()
    for col, v in enumerate(post.tolist()):
        out[lo[v] : hi[v], col] = value[v]
    out = out[pos]
    keep = np.any(out != 0.0, axis=0)
    if not keep.any():
        keep[:1] = True
    return out[:, keep]


def hst_to_json(t: HstTree) -> dict:
    return {name: encode_array(getattr(t, name)) for name in ("order", "parent", "delta")}


#: an HST tree document, as hst_to_json writes it
TREE = Doc("an HST tree", order=array("i", 1), parent=array("i", 1), delta=array("f", 1))


def hst_from_json(doc: dict) -> HstTree:
    """Rebuild a tree; a malformed document raises StructuralError."""
    return HstTree(**TREE(doc))
