"""Hierarchically well-separated trees (HSTs) and ultrametrics.

An HST is a rooted tree with a nonnegative label on every vertex: zero exactly
at the leaves, and decreasing by a factor >= k along every edge for a k-HST.
The induced leaf metric d(x, y) = label(lca(x, y)) is an ultrametric; 1-HSTs
are exactly the finite ultrametrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import TOL, MetricSpace, ValidationReport, block_reduce
from .errors import StructuralError


@dataclass(frozen=True)
class HstTree:
    """A vertex of an HST.  Leaves carry a point id and have delta == 0."""

    delta: float
    children: tuple["HstTree", ...] = ()
    leaf: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if self.is_leaf:
            if self.children:
                raise StructuralError("leaf vertex cannot have children")
            if self.delta != 0.0:
                raise StructuralError("leaf vertex must have delta = 0")
        else:
            if not self.children:
                raise StructuralError("internal vertex must have children")
            if self.delta <= 0:
                raise StructuralError("internal vertex must have delta > 0")

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def leaves(self) -> list[int]:
        """Leaf point ids in left-to-right order."""
        if self.is_leaf:
            return [self.leaf]
        out: list[int] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def scale(self, factor: float) -> "HstTree":
        """Multiply every label by a positive factor."""
        if factor <= 0:
            raise StructuralError("scale factor must be positive")
        if self.is_leaf:
            return self
        return HstTree(self.delta * factor, tuple(c.scale(factor) for c in self.children))


def leaf(point_id: int) -> HstTree:
    return HstTree(0.0, (), int(point_id))


def validate_khst(t: HstTree, k: float, tol: float = TOL) -> ValidationReport:
    """Report every edge whose label drop is smaller than the factor k."""
    if k < 1:
        raise StructuralError("separation parameter k must be >= 1")
    report = ValidationReport()
    seen: set[int] = set()

    def walk(node: HstTree, path: tuple[int, ...]):
        if node.is_leaf:
            if node.leaf in seen:
                report.add("duplicate-leaf", path, f"leaf id {node.leaf} repeated")
            seen.add(node.leaf)
            return
        for ci, c in enumerate(node.children):
            if not c.is_leaf and c.delta > node.delta / k + tol:
                report.add(
                    "label-ratio",
                    path + (ci,),
                    f"child delta {c.delta!r} > parent/{k} = {node.delta / k!r}",
                )
            walk(c, path + (ci,))

    walk(t, ())
    return report


def hst_to_metric(t: HstTree) -> MetricSpace:
    """Leaf metric d(x, y) = label of the least common ancestor.

    Point i of the output is the leaf with id i; leaf ids must be 0..n-1.
    """
    ids = t.leaves()
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise StructuralError("leaf ids must be a permutation of 0..n-1")
    d = np.zeros((n, n))

    def walk(node: HstTree) -> list[int]:
        if node.is_leaf:
            return [node.leaf]
        groups = [walk(c) for c in node.children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                d[np.ix_(groups[gi], groups[gj])] = node.delta
                d[np.ix_(groups[gj], groups[gi])] = node.delta
        return [x for g in groups for x in g]

    walk(t)
    return MetricSpace(d)


def is_ultrametric(m: MetricSpace, tol: float = TOL) -> bool:
    """d(x, y) <= max(d(x, z), d(z, y)) for all triples."""
    d = m.dist
    for z in range(m.n):
        if np.any(d > np.maximum(d[:, z][:, None], d[z][None, :]) + tol):
            return False
    return True


def hst_from_ultrametric(m: MetricSpace, tol: float = TOL) -> HstTree:
    """Canonical 1-HST of an ultrametric matrix.

    Single-linkage agglomeration at the exact distinct distance values; for an
    ultrametric all linkage notions coincide, ties merge simultaneously, and
    the round trip through hst_to_metric reproduces the matrix exactly.
    """
    if not is_ultrametric(m, tol):
        raise StructuralError("matrix is not an ultrametric")
    n = m.n
    # (points, subtree) per cluster, ordered by smallest point id
    clusters: list[tuple[list[int], HstTree]] = [([i], leaf(i)) for i in range(n)]
    values = np.unique(m.dist[np.triu_indices(n, k=1)]) if n > 1 else np.array([])
    for t in values:
        # Merge the connected components of "cluster set distance <= t".
        near = block_reduce(m.dist, [pts for pts, _ in clusters], np.minimum) <= t + tol
        _, label = connected_components(near, directed=False)
        groups: dict[int, list[tuple[list[int], HstTree]]] = {}
        for lab, cl in zip(label.tolist(), clusters):
            groups.setdefault(lab, []).append(cl)
        clusters = [
            members[0] if len(members) == 1
            else ([p for pts, _ in members for p in pts], HstTree(float(t), tuple(sub for _, sub in members)))
            for members in groups.values()
        ]
        if len(clusters) == 1:
            break
    (_, tree), = clusters
    return tree


def ultrametric_to_l2(t: HstTree) -> np.ndarray:
    """Exact Euclidean realization of an ultrametric tree's leaf metric.

    Recursive construction: the children of a vertex with label D are embedded
    in pairwise-orthogonal coordinate blocks, each on a sphere of radius D/sqrt(2)
    around the block origin, so cross-child distances are exactly D; one shared
    radial coordinate per vertex lifts the whole subtree to any larger
    prescribed sphere.  Returns an (n, dim) array indexed by leaf id, with
    all-zero columns dropped.
    """
    ids = t.leaves()
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise StructuralError("leaf ids must be a permutation of 0..n-1")

    def build(node: HstTree, radius: float) -> tuple[list[int], np.ndarray]:
        """Embed the subtree with every image at norm exactly `radius`."""
        if node.is_leaf:
            return [node.leaf], np.array([[radius]])
        half = node.delta / np.sqrt(2.0)
        parts = [build(c, half) for c in node.children]
        dims = [vec.shape[1] for _, vec in parts]
        total = sum(dims)
        order: list[int] = []
        block = np.zeros((sum(len(p) for p, _ in parts), total))
        row = 0
        col = 0
        for (pts, vec), dim in zip(parts, dims):
            block[row : row + len(pts), col : col + dim] = vec
            order.extend(pts)
            row += len(pts)
            col += dim
        lift = radius * radius - half * half
        lift = np.sqrt(lift) if lift > 0 else 0.0
        shared = np.full((block.shape[0], 1), lift)
        return order, np.hstack([block, shared])

    root_radius = 0.0 if t.is_leaf else t.delta / np.sqrt(2.0)
    order, vec = build(t, root_radius)
    out = np.zeros((n, vec.shape[1]))
    out[order] = vec
    keep = np.any(out != 0.0, axis=0)
    if not keep.any():
        keep[:1] = True
    return out[:, keep]


def line_um_lower_bound(a) -> float:
    """Lower bound on the ultrametric distortion of a strictly increasing line.

    (a_n - a_1) / max consecutive gap.
    """
    a = np.asarray(list(a), dtype=np.float64)
    if a.size < 2:
        raise StructuralError("need at least 2 values")
    gaps = np.diff(a)
    if np.any(gaps <= 0):
        raise StructuralError("sequence must be strictly increasing")
    return float((a[-1] - a[0]) / gaps.max())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def hst_to_json(t: HstTree) -> dict:
    if t.is_leaf:
        return {"leaf": t.leaf}
    return {"delta": t.delta, "children": [hst_to_json(c) for c in t.children]}


def hst_from_json(doc: dict) -> HstTree:
    if "leaf" in doc:
        return leaf(int(doc["leaf"]))
    return HstTree(float(doc["delta"]), tuple(hst_from_json(c) for c in doc["children"]))
