import binascii
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from metriq.constructions import find_m_center
from metriq.core import (
    TOL,
    MetricSpace,
    ValidationReport,
    block_reduce,
    decode_array,
    encode_array,
    hausdorff,
    set_distance,
)
from metriq.cube import DistortionSummary
from metriq.embeddings import bourgain_scales
from metriq.errors import ConstructionFailureError, NoMCenterError, StructuralError
from metriq.generators import gen_euclidean_cloud
from metriq.hst import hst_from_splits, hst_to_metric, join, leaf
from metriq.quotient import distortion_between
from metriq.seeds import as_seed


def random_metric(n: int, seed: int, dim: int = 3) -> MetricSpace:
    """Random Euclidean point cloud: always exactly a metric."""
    return gen_euclidean_cloud(n, seed, dim)


def euclidean_cloud_broadcast(n: int, seed=None, dim: int = 3) -> MetricSpace:
    """Reference for gen_euclidean_cloud: the same points, with the squared
    distances summed over the whole n x n x dim broadcast."""
    pts = as_seed(seed).rng().uniform(size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    return MetricSpace(np.sqrt((diff**2).sum(axis=2)))


def random_partition(n: int, rng: np.random.Generator, max_blocks: int | None = None):
    """Random partition of 0..n-1 into a random number of nonempty blocks."""
    k = int(rng.integers(1, (max_blocks or n) + 1))
    assign = rng.integers(0, k, size=n)
    # make every label 0..k'-1 nonempty by relabelling the used ones
    used = np.unique(assign)
    blocks = [tuple(int(i) for i in np.flatnonzero(assign == u)) for u in used]
    return tuple(blocks)


def shortest_path_closure(w):
    """Pure-Python Floyd-Warshall, the independent oracle for quotient metrics."""
    k = len(w)
    d = [[float(w[i][j]) for j in range(k)] for i in range(k)]
    for mid in range(k):
        for i in range(k):
            dim_ = d[i][mid]
            row = d[mid]
            di = d[i]
            for j in range(k):
                alt = dim_ + row[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def edit_array(doc: dict, key: str, fn) -> None:
    """Replace the encoded array doc[key] by fn(a writable copy of it), re-encoded."""
    doc[key] = encode_array(fn(decode_array(doc[key]).copy()))


def decode_array_reencode(doc) -> np.ndarray:
    """Reference for decode_array: decode the b64 leniently, then require the
    full re-encoding of the bytes to equal the text."""
    if not isinstance(doc, dict):
        raise StructuralError(
            f"expected an encoded array {{dtype, shape, b64}} (artifact format 2), "
            f"got {type(doc).__name__}; format-1 JSON lists are not read"
        )
    missing = sorted({"dtype", "shape", "b64"} - set(doc))
    if missing:
        raise StructuralError(f"encoded array lacks {missing}")
    dtype, shape, text = doc["dtype"], doc["shape"], doc["b64"]
    if dtype not in ("<f8", "<i8", "<c16"):
        raise StructuralError(f"unsupported array dtype {dtype!r}")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise StructuralError(f"array shape must be a list of sizes, got {shape!r}")
    if not isinstance(text, str):
        raise StructuralError("array b64 must be a string")
    try:
        raw = binascii.a2b_base64(text)  # skips characters outside the alphabet
    except ValueError as exc:
        raise StructuralError(f"array b64 is not valid base64 ({exc})") from exc
    # so the exact re-encoding also rejects those, bad padding and stray trailing bits
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != text:
        raise StructuralError("array b64 is not canonical base64")
    need = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != need:
        raise StructuralError(f"array holds {len(raw)} bytes; shape {shape} of {dtype} needs {need}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def validate_metric_loop(d, tol: float = TOL) -> ValidationReport:
    """Reference for validate_metric: every middle point j is scanned."""
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    report = ValidationReport()
    for i in np.flatnonzero(np.abs(np.diag(d)) > tol):
        report.add("diagonal", (int(i),), f"d(i,i) = {d[i, i]!r} != 0")
    for i, j in np.argwhere(np.abs(d - d.T) > tol):
        if i < j:
            report.add("symmetry", (int(i), int(j)), f"{d[i, j]!r} != {d[j, i]!r}")
    for i, j in np.argwhere(d <= tol):
        if i < j:
            report.add("positivity", (int(i), int(j)), f"d = {d[i, j]!r} <= 0 off-diagonal")
    for j in range(n):
        slack = d - (d[:, j][:, None] + d[j][None, :])
        for i, k in np.argwhere(slack > tol):
            if i != j and k != j and i < k:
                report.add(
                    "triangle",
                    (int(i), int(j), int(k)),
                    f"d(i,k) = {d[i, k]!r} > {d[i, j] + d[j, k]!r}",
                )
    return report


# --- pair-loop references for the block_reduce kernel ----------------------


def block_reduce_loop(dist, blocks, inner=np.minimum, outer=None):
    """Reference for core.block_reduce: one np.ix_ cross block per block pair."""
    outer = inner if outer is None else outer
    dist = np.asarray(dist)
    k = len(blocks)
    out = np.empty((k, k), dtype=dist.dtype)
    for i in range(k):
        for j in range(k):
            cross = dist[np.ix_(list(blocks[i]), list(blocks[j]))]
            out[i, j] = outer.reduce(inner.reduce(cross, axis=1))
    return out


def check_coloring_loop(chi, res):
    """Reference for check_coloring_result: both invariants, pair by pair."""
    blocks = [list(b) for b in res.blocks]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            cross = chi[np.ix_(blocks[i], blocks[j])]
            if cross.min() != res.ell:
                return False
            if not np.all(np.any(cross == res.ell, axis=1)):
                return False
            if not np.all(np.any(cross == res.ell, axis=0)):
                return False
    return True


def lip_colip_loop(qm):
    """Reference for lip_colip: set and Hausdorff distance per target pair."""
    if qm.degenerate:
        return 1.0, 1.0
    pre = [qm.preimage(y) for y in range(qm.target.n)]
    lip = 0.0
    colip = 0.0
    for y in range(qm.target.n):
        for z in range(y + 1, qm.target.n):
            dy = qm.target.dist[y, z]
            sd = set_distance(qm.source, pre[y], pre[z])
            hd = hausdorff(qm.source, pre[y], pre[z])
            lip = max(lip, dy / sd)
            colip = max(colip, hd / dy)
    return float(lip), float(colip)


# --- references for the cube certificate and net ----------------------------


def stream_distortion_loop(S, dA, lookup, block_norm, chunk: int = 512):
    """Reference for cube._class_distortion: every singleton pair, row chunk by chunk."""
    a_mask = dA == 0
    sing = S[~a_mask]
    dsing = dA[~a_mask]
    expansion = 0.0
    contraction = 0.0
    pairs = 0
    n = sing.size
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        h = np.bitwise_count(sing[lo:hi, None] ^ sing[None, :])
        du = np.minimum(h, dsing[lo:hi, None] + dsing[None, :])
        de = lookup[h]
        iu, ju = np.nonzero(np.arange(lo, hi)[:, None] < np.arange(n)[None, :])
        ratio = de[iu, ju] / du[iu, ju]
        if ratio.size:
            expansion = max(expansion, float(ratio.max()))
            contraction = max(contraction, float(1.0 / ratio.min()))
            pairs += ratio.size
    # singleton vs the collapsed block
    ratio = block_norm / dsing
    if ratio.size:
        expansion = max(expansion, float(ratio.max()))
        contraction = max(contraction, float(1.0 / ratio.min()))
        pairs += ratio.size
    return DistortionSummary(expansion, contraction, pairs)


def greedy_net_loop(d: int, r: int) -> np.ndarray:
    """Reference for cube._greedy_net: visit all 2^d points in lexicographic order."""
    pts = np.arange(2**d, dtype=np.int64)
    kept: list[int] = []
    mind = np.full(2**d, np.iinfo(np.int64).max, dtype=np.int64)
    for x in pts:
        if mind[x] >= 2 * r + 1:
            kept.append(int(x))
            np.minimum(mind, np.bitwise_count(pts ^ x), out=mind)
    return np.array(kept, dtype=np.int64)


# --- recursive references for the flat HST functions -----------------------
# A nested tree is a leaf id (int) or (delta, (child, ...)).


def nested_tree(t):
    """The flat HstTree t as a nested tree."""
    kids = [[] for _ in range(t.parent.size)]
    for v, p in enumerate(t.parent.tolist()[1:], start=1):
        kids[p].append(v)
    ids = iter(t.order.tolist())  # leaves come in preorder

    def build(v):
        if not kids[v]:
            return next(ids)
        return (float(t.delta[v]), tuple(build(c) for c in kids[v]))

    return build(0)


def flat_tree(x):
    """The nested tree x as an HstTree, built with leaf and join."""
    if isinstance(x, int):
        return leaf(x)
    return join(x[0], [flat_tree(c) for c in x[1]])


def hst_to_metric_ref(x) -> np.ndarray:
    """Reference for hst_to_metric: every pair of child groups gets the vertex label."""

    def leaves(node):
        return [node] if isinstance(node, int) else [i for c in node[1] for i in leaves(c)]

    n = len(leaves(x))
    d = np.zeros((n, n))

    def walk(node):
        if isinstance(node, int):
            return [node]
        groups = [walk(c) for c in node[1]]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                d[np.ix_(groups[gi], groups[gj])] = node[0]
                d[np.ix_(groups[gj], groups[gi])] = node[0]
        return [x for g in groups for x in g]

    walk(x)
    return d


def ultrametric_to_l2_ref(x) -> np.ndarray:
    """Reference for ultrametric_to_l2: children's blocks side by side, then one
    shared lift column per vertex (post-order), all-zero columns dropped."""

    def build(node, radius):
        if isinstance(node, int):
            return [node], np.array([[radius]])
        half = node[0] / np.sqrt(2.0)
        parts = [build(c, half) for c in node[1]]
        block = np.zeros((sum(len(p) for p, _ in parts), sum(v.shape[1] for _, v in parts)))
        order, row, col = [], 0, 0
        for pts, vec in parts:
            block[row : row + len(pts), col : col + vec.shape[1]] = vec
            order.extend(pts)
            row, col = row + len(pts), col + vec.shape[1]
        lift = radius * radius - half * half
        lift = np.sqrt(lift) if lift > 0 else 0.0
        return order, np.hstack([block, np.full((block.shape[0], 1), lift)])

    order, vec = build(x, 0.0 if isinstance(x, int) else x[0] / np.sqrt(2.0))
    out = np.zeros_like(vec)
    out[order] = vec
    keep = np.any(out != 0.0, axis=0)
    if not keep.any():
        keep[:1] = True
    return out[:, keep]


def is_ultrametric_ref(m: MetricSpace, tol: float = TOL) -> bool:
    """Reference for is_ultrametric: the triple condition, one z at a time."""
    d = m.dist
    for z in range(m.n):
        if np.any(d > np.maximum(d[:, z][:, None], d[z][None, :]) + tol):
            return False
    return True


def hst_from_ultrametric_ref(m: MetricSpace, tol: float = TOL):
    """Reference for hst_from_ultrametric, as a nested tree: at each distinct
    distance t, merge the connected components of "cluster distance <= t + tol"."""
    if not is_ultrametric_ref(m, tol):
        raise StructuralError("matrix is not an ultrametric")
    n = m.n
    # (points, subtree) per cluster, ordered by smallest point id
    clusters = [([i], i) for i in range(n)]
    values = np.unique(m.dist[np.triu_indices(n, k=1)]) if n > 1 else np.array([])
    for t in values:
        near = block_reduce(m.dist, [pts for pts, _ in clusters], np.minimum) <= t + tol
        _, label = connected_components(near, directed=False)
        groups = {}
        for lab, cl in zip(label.tolist(), clusters):
            groups.setdefault(lab, []).append(cl)
        clusters = [
            members[0] if len(members) == 1
            else ([p for pts, _ in members for p in pts], (float(t), tuple(sub for _, sub in members)))
            for members in groups.values()
        ]
        if len(clusters) == 1:
            break
    (_, tree), = clusters
    return tree


# --- dense references for the m-centered HST build, graphs and p-norm tables ---


def hst_from_m_centered_dense(m: MetricSpace, mparam: int):
    """Reference for hst_from_m_centered: every split rescans its own submatrix
    with find_m_center, max and argmax (Theta(N^3) over a peeling chain)."""
    if m.n >= 2 and find_m_center(m, mparam) is None:
        raise NoMCenterError(f"no {mparam}-center exists")

    def split(X: np.ndarray):
        if X.size == 1:
            return int(X[0])
        sub = MetricSpace(m.dist[X][:, X])
        x = find_m_center(sub, mparam)
        if x is None:
            raise NoMCenterError(f"splitting lost the center property on {X.tolist()}")
        delta = sub.diameter()
        ai, bi = np.unravel_index(int(np.argmax(sub.dist)), sub.dist.shape)
        a = int(ai) if sub.dist[x, ai] >= delta / 2.0 else int(bi)
        width = delta / (2.0 * mparam)
        da = sub.dist[a]
        empty = (i for i in range(1, mparam) if not np.any((da >= i * width) & (da < (i + 1) * width)))
        cut = next(empty, None)
        if cut is None:
            raise ConstructionFailureError("no empty band found", {"X": X.tolist()})
        inside = da < cut * width
        return delta, (X[inside], X[~inside])

    t = hst_from_splits(np.arange(m.n), split)
    return t, distortion_between(m, hst_to_metric(t))


def gen_random_graph_metric_loop(n: int, q: float, seed=None):
    """Reference for gen_random_graph_metric: one rng.random() call per pair i < j."""
    rng = as_seed(seed).rng()
    d = np.full((n, n), 2.0)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < q:
                d[i, j] = d[j, i] = 1.0
                edges.append((i, j))
    np.fill_diagonal(d, 0.0)
    return MetricSpace(d), edges


def subset_distances_loop(dist: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reference for embeddings._subset_distances: one column per subset row of
    the mask, its min over the members' columns, and 0 for an empty subset."""
    n = dist.shape[0]
    cols = [dist[:, np.flatnonzero(row)].min(axis=1) if row.any() else np.zeros(n) for row in mask]
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0))


def bourgain_embed_loop(m: MetricSpace, mparam: float, p: float, mode: str, seed=None):
    """Reference for bourgain_embed's coordinates: the per-subset loop, with one
    rng.random(n) draw per Monte-Carlo subset.  Returns (vectors, weights,
    table), the table built one row at a time."""
    n = m.n
    q = bourgain_scales(mparam, p)
    probs = [math.exp(-p * i) for i in range(1, q + 1)]
    cols = []
    if mode == "exact":
        masks = np.arange(1, 2**n)
        sizes = np.array([bin(mk).count("1") for mk in masks])
        weights = np.zeros(masks.size)
        for pi in probs:
            weights += pi**sizes * (1 - pi) ** (n - sizes)
        weights /= q
        for mk in masks:
            cols.append(m.dist[:, [i for i in range(n) if mk >> i & 1]].min(axis=1))
    else:
        rng = as_seed(seed).rng()
        for pi in probs:
            for _ in range(256 * q):
                members = np.flatnonzero(rng.random(n) < pi)
                cols.append(m.dist[:, members].min(axis=1) if members.size else np.zeros(n))
        weights = np.full(len(cols), 1.0 / len(cols))
    vectors = np.stack(cols, axis=1)
    table = np.stack([(np.abs(vectors[i] - vectors) ** p * weights).sum(axis=1) for i in range(n)])
    return vectors, weights, table ** (1.0 / p)


def pnorm_table_full(v: np.ndarray, p: float, w=None) -> np.ndarray:
    """Reference for the chunked p-norm tables: the whole n x n x dim broadcast."""
    diff = np.abs(v[:, None, :] - v[None, :, :]) ** p
    if w is not None:
        diff = diff * w[None, None, :]
    return diff.sum(axis=2) ** (1.0 / p)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
