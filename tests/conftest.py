import binascii
import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize
from click.testing import CliRunner
from scipy.sparse.csgraph import connected_components

from metriq.cli import PIPELINES, main, plan_from_json, run_experiment
from metriq.constructions import (
    RESAMPLE_CAP,
    ColoringResult,
    _center_radii,
    check_coloring_result,
    find_m_center,
)
from metriq.core import (
    TOL,
    MetricSpace,
    ValidationReport,
    aspect_ratio,
    block_reduce,
    decode_array,
    dumps,
    encode_array,
)
from metriq.cube import CubeQsResult, DistortionSummary
from metriq.embeddings import EXACT_MAX_POINTS, VectorEmbedding, bourgain_scales
from metriq.errors import (
    CapacityError,
    ConstructionFailureError,
    NoMCenterError,
    ParameterError,
    ProbabilisticFailureError,
    StructuralError,
)
from metriq.generators import gen_euclidean_cloud, hypercube_metric, realize_instance
from metriq.hst import HstTree, hst_from_splits, hst_to_metric, join, leaf
from metriq.quotient import Partition, QuotientSpace, distortion_between
from metriq.seeds import as_seed
from metriq.verify import _standalone_artifact


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


def run_bundle(variant: str, instance: dict, pipeline: str, params: dict, trials: int = 1,
               seed: int = 0) -> dict:
    """The parsed `run --artifacts` bundle of a plan whose every trial succeeds."""
    plan = {"instance": {"variant": variant, "params": instance}, "pipeline": pipeline,
            "params": params, "trials": trials, "seed": seed}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    assert bundle.summary["failures"] == 0
    return json.loads(dumps({"plan": bundle.plan, "rows": bundle.rows,
                             "summary": bundle.summary, "artifacts": bundle.artifacts}))


def standalone(doc: dict) -> dict:
    """The first artifact of a bundle as its pipeline's command writes it:
    without its trial, and with the instance its plan gives embedded."""
    plan = plan_from_json(doc["plan"])
    art = dict(doc["artifacts"][0])
    t = art.pop("trial")
    m = None if PIPELINES[plan.pipeline].own_space else realize_instance(plan.instance_spec(t))
    return json.loads(dumps(_standalone_artifact(art, m)))


#: pipeline -> (instance variant, instance params, pipeline params) of a small plan
SMALL_PLANS = {
    "q2": ("cloud", {"n": 40}, {}),
    "aspect": ("cloud", {"n": 40}, {}),
    "dichotomy": ("cloud", {"n": 40}, {"drop_root": True}),
    "star": ("equilateral", {"n": 12}, {"a": 0.9, "b": 1.1, "alpha": 2.0}),
    "hst": ("cloud", {"n": 40}, {}),
    "bourgain": ("cloud", {"n": 40}, {}),
    "cube-qs": ("cube", {"d": 8}, {"d": 8, "eps": 0.24}),
    "composition": ("composition", {}, {}),
}

#: dichotomy --drop-root on cloud n = 60, seed 0: its one artifact is an SQ space
SQ_PLAN = ("cloud", {"n": 60}, "dichotomy", {"drop_root": True})


#: each command that writes an artifact -> its args; CLOUD and EQUI stand for
#: the files of the `metrics` fixture
ARTIFACT_COMMANDS = {
    "construct q2": ["--in", "CLOUD"],
    "construct aspect": ["--in", "CLOUD", "--alpha", "1.5", "--lipschitz"],
    "construct dichotomy": ["--in", "CLOUD", "--beta", "1.2", "--drop-root"],
    "construct hst": ["--in", "CLOUD"],
    "construct bourgain": ["--in", "CLOUD"],
    "construct star": ["--in", "EQUI", "--a", "0.9", "--b", "1.1", "--alpha", "2.0"],
    "composition": [],
    "cube-qs": ["--d", "8", "--eps", "0.24"],
}


def cli_output(*args: str) -> str:
    """The standard output of a `metriq` command that succeeds."""
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def refusal(result, error: type) -> str:
    """The message of a `metriq` command that the library refused with error:
    exit code 3, nothing on stdout, one line `Error: <class>: <message>` on stderr."""
    assert result.exit_code == 3, result.output
    prefix = f"Error: {error.__name__}: "
    assert result.stdout == "" and result.stderr.startswith(prefix), result.output
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), result.stderr
    return result.stderr[len(prefix):-1]


@pytest.fixture
def metrics(tmp_path):
    """`gen` files: CLOUD a 30-point cloud (seed 3), EQUI a 12-point equilateral space."""
    paths = {"CLOUD": str(tmp_path / "cloud.json"), "EQUI": str(tmp_path / "equi.json")}
    cli_output("--seed", "3", "--out", paths["CLOUD"], "gen", "--variant", "cloud", "--param", "n=30")
    cli_output("--out", paths["EQUI"], "gen", "--variant", "equilateral", "--param", "n=12")
    return paths


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


# --- loop references for the colouring path --------------------------------
# The colouring recursion, its pair fallback and the distance buckets as they
# were before the per-level array passes: one flatnonzero per greedy vertex,
# a pair double loop, and min_distance / aspect_ratio over eye masks.


def pair_fallback_loop(chi: np.ndarray, V: list[int], cmin: int) -> ColoringResult:
    """Two singleton blocks on the lexicographically first min-color pair."""
    for ai in range(len(V)):
        for bi in range(ai + 1, len(V)):
            if chi[V[ai], V[bi]] == cmin:
                return ColoringResult(((V[ai],), (V[bi],)), cmin)
    raise StructuralError("no pair realizes the minimum color")  # unreachable


def coloring_partition_loop(n: int, chi, seed=None, kcolors: int | None = None) -> ColoringResult:
    """Reference for coloring_partition: the same recursion, draws and errors."""
    chi = np.asarray(chi)
    if chi.shape != (n, n):
        raise StructuralError("chi must be an n x n array")
    if n < 2:
        raise ParameterError("need n >= 2")
    if not np.array_equal(chi, chi.T):
        raise StructuralError("chi must be symmetric")
    rng = as_seed(seed).rng()
    iu, ju = np.triu_indices(n, k=1)
    if kcolors is None:
        kcolors = len(np.unique(chi[iu, ju]))

    def solve(V: list[int], krem: int) -> ColoringResult:
        nv = len(V)
        sub = chi[np.ix_(V, V)]
        off = sub[np.triu_indices(nv, k=1)]
        cmin = int(off.min())
        if np.all(off == cmin):
            return ColoringResult(tuple((v,) for v in V), cmin)
        if krem <= 1:
            return pair_fallback_loop(chi, V, cmin)
        is_cmin = sub == cmin
        np.fill_diagonal(is_cmin, False)
        deg = is_cmin.sum(axis=1)
        mcount = int(deg.sum())  # ordered color-cmin pair count
        thresh = nv ** (1.0 / krem)
        if mcount >= nv ** (1.0 + 1.0 / krem) / 2.0:
            C = np.flatnonzero(deg >= thresh / 4.0)
            s = int(thresh / (8.0 * math.log(nv))) if nv > 1 else 0
            s = min(s, C.size)
            if s < 2:
                return pair_fallback_loop(chi, V, cmin)
            off = ~np.eye(s, dtype=bool)
            for _ in range(RESAMPLE_CAP):
                assign = rng.integers(0, s, size=C.size)
                groups = [C[assign == g] for g in range(s)]
                if any(grp.size == 0 for grp in groups):
                    continue
                # every member of every group must hit every other group in cmin
                if np.all(block_reduce(is_cmin, groups, np.logical_or, np.logical_and)[off]):
                    return ColoringResult(tuple(tuple(V[int(c)] for c in grp) for grp in groups), cmin)
            raise ProbabilisticFailureError(f"dense split failed {RESAMPLE_CAP} times (|C|={C.size}, s={s})")
        # sparse branch: low-degree vertices, greedy coloring of the cmin-graph
        D = np.flatnonzero(deg < thresh)
        palette = int(math.ceil(thresh))
        color = -np.ones(nv, dtype=int)
        for v in D:
            used = set(int(color[u]) for u in np.flatnonzero(is_cmin[v]) if color[u] >= 0)
            c = 0
            while c in used:
                c += 1
            if c >= palette:
                c = palette - 1  # cannot happen when degrees < palette; guard anyway
            color[v] = c
        sizes = [int(np.sum(color[D] == c)) for c in range(palette)]
        cbest = int(np.argmax(sizes))
        I = [V[int(v)] for v in D if color[v] == cbest]
        if len(I) < 2:
            return pair_fallback_loop(chi, V, cmin)
        return solve(I, krem - 1)

    res = solve(list(range(n)), max(1, int(kcolors)))
    if not check_coloring_result(chi, res):
        raise ConstructionFailureError("coloring invariants failed post-check", {"result": res})
    return res


def distance_buckets_loop(m: MetricSpace, alpha: float) -> tuple[np.ndarray, int, float]:
    """Reference for constructions._distance_buckets: min_distance, aspect_ratio
    and a fresh array per float operation."""
    mind = m.min_distance()
    phi = aspect_ratio(m)
    k = 1 if phi <= 1.0 + 1e-12 else int(math.log(phi) / math.log(alpha)) + 1
    with np.errstate(divide="ignore"):
        ratio = np.where(m.dist > 0, m.dist / mind, mind)
    chi = np.floor(np.log(ratio) / math.log(alpha) + 1e-12).astype(int) + 1
    chi = np.clip(chi, 1, k)
    np.fill_diagonal(chi, 0)
    return chi, k, mind


def set_distance(m: MetricSpace, U, V) -> float:
    """Least distance between two nonempty point sets, pair by pair."""
    return float(min(m.dist[u, v] for u in U for v in V))


def hausdorff(m: MetricSpace, U, V) -> float:
    """Hausdorff distance between two nonempty point sets, pair by pair."""
    return float(max(max(min(m.dist[u, v] for v in V) for u in U),
                     max(min(m.dist[u, v] for u in U) for v in V)))


def lip_colip_loop(base: MetricSpace, blocks, target: MetricSpace):
    """Reference for lip_colip: set and Hausdorff distance per target pair,
    the preimage of target point y being block y."""
    if target.n == 1:
        return 1.0, 1.0
    lip = 0.0
    colip = 0.0
    for y in range(target.n):
        for z in range(y + 1, target.n):
            dy = target.dist[y, z]
            sd = set_distance(base, blocks[y], blocks[z])
            hd = hausdorff(base, blocks[y], blocks[z])
            lip = max(lip, dy / sd)
            colip = max(colip, hd / dy)
    return float(lip), float(colip)


def widenings(base: MetricSpace, blocks) -> list[tuple[int, int]]:
    """(block b, point x) for each point x outside every block whose addition
    to block b leaves every set distance between blocks as it is: the quotient
    stays bit for bit, while a Hausdorff distance may grow."""
    inside = {i for blk in blocks for i in blk}
    sd = block_reduce(base.dist, blocks, np.minimum)
    out = []
    for x in range(base.n):
        if x not in inside:
            to_blocks = np.array([base.dist[x, list(blk)].min() for blk in blocks])
            out += [(b, x) for b in range(len(blocks))
                    if all(to_blocks[j] >= sd[b, j] for j in range(len(blocks)) if j != b)]
    return out


def widen(art: dict, base: MetricSpace, b: int, x: int) -> tuple:
    """Add point x to block b of a quotient artifact over base, relabelling
    its provenance Q when the blocks then cover the base; the new blocks."""
    art["blocks"][b].append(x)
    if sum(map(len, art["blocks"])) == base.n:
        art["provenance"] = "Q"
    return tuple(map(tuple, art["blocks"]))


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


def brute_pair_counts(d: int, classes) -> list:
    """Reference for cube._class_pair_counts: one row per class pair (i <= j)
    in np.triu_indices order, the unordered pairs per XOR popcount."""
    rows = []
    for i, j in zip(*np.triu_indices(len(classes))):
        h = np.bitwise_count(classes[i][:, None] ^ classes[j][None, :])
        if i == j:
            h = h[np.triu_indices(classes[i].size, 1)]
        rows.append(np.bincount(h.ravel(), minlength=d + 1).tolist())
    return rows


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


def greedy_net_by_centers(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for cube._greedy_net, its net and every point's distance to
    it: one XOR-popcount pass over the 2^d points per center kept."""
    pts = np.arange(2**d, dtype=np.int64)
    kept: list[int] = []
    mind = np.full(2**d, np.iinfo(np.int64).max, dtype=np.int64)
    x = 0
    while True:
        kept.append(x)
        np.minimum(mind, np.bitwise_count(pts ^ x), out=mind)
        far = mind[x + 1:] >= 2 * r + 1
        if not far.any():
            return np.array(kept, dtype=np.int64), mind
        x += 1 + int(far.argmax())


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


def block_matrix_loop(cross: np.ndarray, diagonal: list[np.ndarray]) -> np.ndarray:
    """Reference for generators._block_matrix: the pair loop that gen_padded_copies,
    realize_composition and gen_lipcomp_product each ran, writing cross[i, j]
    for i < j into blocks (i, j) and (j, i) and diagonal[i] into block (i, i)."""
    sizes = [blk.shape[0] for blk in diagonal]
    offsets = np.cumsum([0] + sizes[:-1])
    d = np.zeros((sum(sizes), sum(sizes)))
    for i, lo in enumerate(offsets):
        d[lo : lo + sizes[i], lo : lo + sizes[i]] = diagonal[i]
        for j in range(i + 1, len(sizes)):
            lo2 = offsets[j]
            d[lo : lo + sizes[i], lo2 : lo2 + sizes[j]] = cross[i, j]
            d[lo2 : lo2 + sizes[j], lo : lo + sizes[i]] = cross[i, j]
    return d


def subset_distances_loop(dist: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reference for embeddings._subset_distances: one column per subset row of
    the mask, its min over the members' columns, and 0 for an empty subset."""
    n = dist.shape[0]
    cols = [dist[:, np.flatnonzero(row)].min(axis=1) if row.any() else np.zeros(n) for row in mask]
    return np.stack(cols, axis=1) if cols else np.zeros((n, 0))


def bourgain_embed_loop(m: MetricSpace, mparam: float, p: float, mode: str, seed=None, given=None):
    """Reference for bourgain_embed's coordinates: the per-subset loop, with one
    rng.random(n) draw per Monte-Carlo subset, or over the rows of a given
    (membership mask, weights) pair instead.  Returns (vectors, weights,
    table), the table built one row at a time."""
    n = m.n
    q = bourgain_scales(mparam, p)
    probs = [math.exp(-p * i) for i in range(1, q + 1)]
    cols = []
    if given is not None:
        mask, weights = given
        cols = [m.dist[:, np.flatnonzero(row)].min(axis=1) if row.any() else np.zeros(n) for row in mask]
    elif mode == "exact":
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


# --- paper-lemma checks and Monte-Carlo references for the embeddings ------


def star_to_lp(n: int, tau: float, p: float) -> VectorEmbedding:
    """Exact isometric embedding of the star (root at 1, leaves pairwise tau).

    Realized on the finite product probability space {0,1}^n: leaf i maps to
    an i.i.d.-coordinate random variable, the root to the zero function.
    Point 0 of the output is the root, points 1..n the leaves.
    """
    if n < 1:
        raise ParameterError("need at least one leaf")
    if n > EXACT_MAX_POINTS:
        raise CapacityError(f"n = {n} exceeds the {EXACT_MAX_POINTS}-point cap (2^n atoms)")
    if p < 1:
        raise ParameterError("p must be >= 1")
    theta = min(1.0 / p, 1.0 - 1.0 / p)
    if not (0 < tau <= 2 ** (1 - theta) + 1e-12):
        raise ParameterError(f"tau must be in (0, 2^(1-theta(p))] = (0, {2 ** (1 - theta):.6g}]")

    if p <= 2:
        delta = 1.0 - tau**p / 2.0
        if delta <= 1e-15:
            # tau = 2^(1/p): the standard unit vectors
            vecs = np.vstack([np.zeros(n), np.eye(n)])
            return VectorEmbedding(vecs, p, np.ones(n))
        value = delta ** (-1.0 / p)
        atoms = np.arange(2**n)
        bits = (atoms[:, None] >> np.arange(n)) & 1  # (2^n, n)
        ones = bits.sum(axis=1)
        weights = delta**ones * (1 - delta) ** (n - ones)
        vecs = np.vstack([np.zeros(2**n), (value * bits).T])
        return VectorEmbedding(vecs, p, weights)

    # p > 2: +/-1 valued coordinates, +1 with probability delta
    c = tau**p / 2 ** (p + 1)
    if c > 0.25 + 1e-12:
        raise ParameterError("tau out of range for p > 2")
    delta = (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * c))) / 2.0
    atoms = np.arange(2**n)
    bits = (atoms[:, None] >> np.arange(n)) & 1
    ones = bits.sum(axis=1)
    weights = delta**ones * (1 - delta) ** (n - ones)
    vecs = np.vstack([np.zeros(2**n), (2.0 * bits - 1.0).T])
    return VectorEmbedding(vecs, p, weights)


def truncated_gauss_embed(points, D: float, features: int, seed=None) -> VectorEmbedding:
    """Monte Carlo realization F(x) = D * exp(i <x, g> / D) over sampled g.

    Image norms are D exactly; empirical distances converge to
    truncated_gauss_distance of the Euclidean distance as features grows.
    """
    if D <= 0 or features < 1:
        raise ParameterError("need D > 0 and features >= 1")
    pts = np.asarray(points, dtype=np.float64)
    rng = as_seed(seed).rng()
    g = rng.standard_normal((features, pts.shape[1]))
    phases = pts @ g.T / D
    vectors = D * np.exp(1j * phases)
    weights = np.full(features, 1.0 / features)
    return VectorEmbedding(vectors, 2.0, weights)


def cms_sample(p: float, size: int, seed=None) -> np.ndarray:
    """Symmetric p-stable samples with characteristic function e^(-|t|^p).

    Chambers-Mallows-Stuck transform; p = 1 reduces to tan(V) (Cauchy).
    """
    if not (0 < p <= 2):
        raise ParameterError("p must be in (0, 2]")
    rng = as_seed(seed).rng()
    V = rng.uniform(-math.pi / 2, math.pi / 2, size)
    W = rng.exponential(1.0, size)
    if abs(p - 1.0) < 1e-12:
        return np.tan(V)
    return (
        np.sin(p * V)
        / np.cos(V) ** (1.0 / p)
        * (np.cos(V - p * V) / W) ** ((1.0 - p) / p)
    )


def pstable_expectation_monte_carlo(a: float, p: float, samples: int = 200_000, seed=None) -> float:
    """Monte-Carlo reference for embeddings.pstable_expectation."""
    g = cms_sample(p, samples, seed)
    return float(np.mean((1.0 - np.cos(abs(float(a)) * g)) ** (p / 2.0)))


def cauchy_expectation_quad(a: float, periods: int = 2000) -> float:
    """Quadrature reference for embeddings.pstable_expectation at p = 1.

    E[(1 - cos(a g))^(1/2)] for Cauchy g is twice the integral over u >= 0 of
    sqrt(2) |sin(a u / 2)| / (pi (1 + u^2)) (the same integrand as
    (1 - cos)^(1/2), without its cancellation at small a u).  Adaptive quad
    takes the first period in geometric pieces, then one period at a time up
    to U = periods * 2 pi / a; past U the integrand is its period average
    2 sqrt(2) / pi times the density, whose mass there is arctan(1 / U) / pi.
    """
    a = abs(float(a))
    period = 2.0 * math.pi / a

    def f(u):
        return math.sqrt(2.0) * abs(math.sin(a * u / 2.0)) / (math.pi * (1.0 + u * u))

    edges = [0.0, *(period * 2.0 ** -np.arange(40.0, -1.0, -1.0))]
    edges += [period * j for j in range(2, periods + 1)]
    body = sum(integrate.quad(f, lo, hi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
               for lo, hi in zip(edges, edges[1:]))
    tail = 2.0 * math.sqrt(2.0) / math.pi * math.atan2(1.0, periods * period) / math.pi
    return 2.0 * (body + tail)


def pstable_embed(points, D: float, p: float, features: int, seed=None) -> VectorEmbedding:
    """Monte Carlo p-stable feature map F(x) = D * exp(i <x, g> / D).

    Image p-norms are D exactly; pairwise distances converge to
    pstable_distance of the l_p distance between the points.
    """
    if not (1.0 <= p < 2.0):
        raise ParameterError("p must be in [1, 2)")
    if D <= 0 or features < 1:
        raise ParameterError("need D > 0 and features >= 1")
    pts = np.asarray(points, dtype=np.float64)
    sd = as_seed(seed)
    g = cms_sample(p, features * pts.shape[1], sd).reshape(features, pts.shape[1])
    phases = pts @ g.T / D
    vectors = D * np.exp(1j * phases)
    weights = np.full(features, 1.0 / features)
    return VectorEmbedding(vectors, p, weights)


def star_poincare_lower(n: int, p: float, xs, ys) -> tuple[bool, float]:
    """Check the star Poincare inequality on vectors and return the star bound.

    sum_ij (|x_i - x_j|^p + |y_i - y_j|^p) <= factor * sum_ij |x_i - y_j|^p
    with factor 2 for p <= 2 and 2^(p-1) for p >= 2.  The returned bound is
    the induced lower bound on embedding the n-leaf star into L_p.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.shape[0] != n:
        raise StructuralError("need two equal lists of n vectors")

    def pnorm_p(diff):
        return (np.abs(diff) ** p).sum(axis=-1)

    lhs = pnorm_p(xs[:, None, :] - xs[None, :, :]).sum() + pnorm_p(
        ys[:, None, :] - ys[None, :, :]
    ).sum()
    cross = pnorm_p(xs[:, None, :] - ys[None, :, :]).sum()
    factor = 2.0 if p <= 2 else 2.0 ** (p - 1.0)
    scale = max(lhs, cross, 1.0)
    ok = bool(lhs <= factor * cross + 1e-9 * scale)
    if p <= 2:
        # 2^(1-1/p) (1-1/n)^(1/p), arranged to be float-exact at p=2, n=2
        bound = 2.0 * ((1.0 - 1.0 / n) / 2.0) ** (1.0 / p)
    else:
        bound = (2.0 * (1.0 - 1.0 / n)) ** (1.0 / p)
    return ok, bound


def truncation_witness_bound() -> float:
    """Certified lower bound on Euclidean embedding of truncated Euclidean space."""
    return 2.0 * math.sqrt(5.0 - math.sqrt(7.0)) / 3.0


def truncation_witness(D: float = 1.0) -> MetricSpace:
    """The 4-point witness: a planar configuration under distances capped at D."""
    pts = np.array([[0.0, 0.0], [D, 0.0], [D / 2.0, D], [D / 2.0, 0.0]])
    diff = pts[:, None, :] - pts[None, :, :]
    eu = np.sqrt((diff**2).sum(axis=2))
    return MetricSpace(np.minimum(eu, D))


def witness_search_distortion(m: MetricSpace, dim: int = 3, restarts: int = 12, seed=None) -> float:
    """Best Euclidean distortion found by local search over point placements.

    Corroborates (never certifies) lower bounds: the returned value is an
    upper bound on the optimal distortion that the search could not beat.
    """
    rng = as_seed(seed).rng()
    n = m.n
    iu, ju = np.triu_indices(n, k=1)
    src = m.dist[iu, ju]

    def objective(flat):
        pts = flat.reshape(n, dim)
        diff = pts[iu] - pts[ju]
        tgt = np.sqrt((diff**2).sum(axis=1))
        if tgt.min() < 1e-12:
            return 1e9
        ratio = tgt / src
        return ratio.max() / ratio.min()

    best = np.inf
    for _ in range(restarts):
        x0 = rng.normal(scale=m.diameter(), size=n * dim)
        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, float(res.fun))
    return best


# --- the m-centre definition and the cube's metric sandwich ------------------


def is_m_center(m: MetricSpace, x: int, mparam: float) -> bool:
    """True iff every ball of cardinality >= mparam contains x.

    Balls only change at realized distances, so it suffices to check, for each
    center y, the smallest radius at which y's ball reaches mparam points.
    """
    if mparam < 1:
        raise ParameterError("mparam must be >= 1")
    rho = _center_radii(m.dist, mparam)
    if rho is None:
        return True
    return bool(np.all(m.dist[x] <= rho))


def check_sandwich(result: CubeQsResult, samples: int = 20000, seed=None) -> bool:
    """min{Hamming, r} <= d_U <= min{Hamming, 4r} on sampled singleton pairs."""
    rng = as_seed(seed).rng()
    sing = cube_singletons(result)
    r = result.r
    ds = result.dA[np.searchsorted(result.S, sing)]
    for _ in range(samples):
        i, j = rng.integers(0, sing.size, 2)
        if i == j:
            continue
        h = int(bin(int(sing[i]) ^ int(sing[j])).count("1"))
        du = min(h, ds[i] + ds[j])
        if not (min(h, r) - 1e-9 <= du <= min(h, 4 * r) + 1e-9):
            return False
    return True


# --- views of library results that only the tests read -----------------------


def cube_singletons(res: CubeQsResult) -> np.ndarray:
    """The survivors outside the net, one singleton block each."""
    return np.setdiff1d(res.S, res.A, assume_unique=True)


def _survivor_index(res: CubeQsResult, x: int) -> int:
    ix = int(np.searchsorted(res.S, x))
    if ix >= res.S.size or res.S[ix] != x:
        raise StructuralError("point is not a surviving cube point")
    return ix


def cube_udist(res: CubeQsResult, x: int, y: int) -> float:
    """Quotient distance between two singleton-block cube points."""
    h = int(bin(x ^ y).count("1"))
    return float(min(h, res.dA[_survivor_index(res, x)] + res.dA[_survivor_index(res, y)]))


def cube_udist_to_block(res: CubeQsResult, x: int) -> float:
    return float(res.dA[_survivor_index(res, x)])


def cube_quotient(res: CubeQsResult) -> QuotientSpace:
    """The materialized QuotientSpace of a cube result (d <= 12 only)."""
    if res.d > 12:
        raise CapacityError(f"refusing to materialize 2^{res.d} x 2^{res.d} data")
    sing = cube_singletons(res)
    blocks = tuple((int(x),) for x in sing) + (tuple(int(a) for a in res.A),)
    k = len(blocks)
    dsa = res.dA[np.searchsorted(res.S, sing)].astype(np.float64)
    h = np.bitwise_count(sing[:, None] ^ sing[None, :]).astype(np.float64)
    dmat = np.minimum(h, dsa[:, None] + dsa[None, :])
    np.fill_diagonal(dmat, 0.0)
    full = np.zeros((k, k))
    full[: k - 1, : k - 1] = dmat
    full[: k - 1, k - 1] = dsa
    full[k - 1, : k - 1] = dsa
    return QuotientSpace(Partition(hypercube_metric(res.d), blocks), MetricSpace(full), "QS")


def vector_distance(emb: VectorEmbedding, i: int, j: int) -> float:
    """The (weighted) L_p distance between the images of points i and j."""
    diff = np.abs(emb.vectors[i] - emb.vectors[j]) ** emb.p
    if emb.weights is not None:
        diff = diff * emb.weights
    return float(diff.sum() ** (1.0 / emb.p))


def vector_norms(emb: VectorEmbedding) -> np.ndarray:
    """The (weighted) L_p norm of every point's image."""
    mods = np.abs(emb.vectors) ** emb.p
    if emb.weights is not None:
        mods = mods * emb.weights
    return mods.sum(axis=1) ** (1.0 / emb.p)


def hst_leaves(t: HstTree) -> list[int]:
    """Leaf point ids in left-to-right order."""
    return t.order.tolist()


def hst_scale(t: HstTree, factor: float) -> HstTree:
    """The tree with every label multiplied by a positive factor."""
    if factor <= 0:
        raise StructuralError("scale factor must be positive")
    return HstTree(t.order, t.parent, t.delta * factor)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
