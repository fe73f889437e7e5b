"""Large quotients of the Hamming cube with certified Euclidean distortion.

The construction removes the punctured balls of radius r/2 around a maximal
2r-separated net A, collapses A to a single block, and keeps every surviving
point as a singleton.  Distances in the quotient have the closed form
min{Hamming(x, y), d(x, A) + d(y, A)}, so nothing quadratic in 2^d is ever
materialized.  The distortion certificate is exact over every pair: a pair's
ratio depends only on its Hamming weight and the d(., A) classes of its ends,
and the number of pairs in each such cell comes from one fast Walsh-Hadamard
transform per class plus Krawtchouk-weighted sums, in O(c^2 2^d + c d 2^d)
time for c <= d + 1 classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MetricSpace
from .errors import (
    CapacityError,
    ConstructionFailureError,
    ParameterError,
    StructuralError,
)
from .generators import hypercube_metric
from .quotient import Partition, QuotientSpace
from .seeds import as_seed


@dataclass(frozen=True)
class DistortionSummary:
    """Max expansion/contraction over all certified pairs, and their number."""

    expansion: float
    contraction: float
    pairs: int

    @property
    def distortion(self) -> float:
        return self.expansion * self.contraction


@dataclass
class CubeQsResult:
    d: int
    eps: float
    p: float
    r: int
    A: np.ndarray  # net centers, lexicographically increasing
    S: np.ndarray  # surviving points (A first is NOT guaranteed; sorted)
    dA: np.ndarray  # Hamming distance to nearest center, for every point in S
    report: DistortionSummary
    certified_bound: float

    @property
    def block_count(self) -> int:
        # one collapsed A-block plus one singleton per survivor outside A
        return int(self.S.size - self.A.size + 1)

    @cached_property
    def singletons(self) -> np.ndarray:
        return np.setdiff1d(self.S, self.A, assume_unique=True)

    def udist(self, x: int, y: int) -> float:
        """Quotient distance between two singleton-block cube points."""
        ix = int(np.searchsorted(self.S, x))
        iy = int(np.searchsorted(self.S, y))
        if ix >= self.S.size or iy >= self.S.size or self.S[ix] != x or self.S[iy] != y:
            raise StructuralError("point is not a surviving cube point")
        h = int(bin(x ^ y).count("1"))
        return float(min(h, self.dA[ix] + self.dA[iy]))

    def udist_to_block(self, x: int) -> float:
        ix = int(np.searchsorted(self.S, x))
        if ix >= self.S.size or self.S[ix] != x:
            raise StructuralError("point is not a surviving cube point")
        return float(self.dA[ix])

    def quotient(self, max_dim: int = 12) -> QuotientSpace:
        """Materialize the QuotientSpace (small dimensions only)."""
        if self.d > max_dim:
            raise CapacityError(f"refusing to materialize 2^{self.d} x 2^{self.d} data")
        base = hypercube_metric(self.d)
        sing = self.singletons
        blocks = tuple((int(x),) for x in sing) + (tuple(int(a) for a in self.A),)
        k = len(blocks)
        dsa = self.dA[np.searchsorted(self.S, sing)].astype(np.float64)
        h = np.bitwise_count(sing[:, None] ^ sing[None, :]).astype(np.float64)
        dmat = np.minimum(h, dsa[:, None] + dsa[None, :])
        np.fill_diagonal(dmat, 0.0)
        full = np.zeros((k, k))
        full[: k - 1, : k - 1] = dmat
        full[: k - 1, k - 1] = dsa
        full[k - 1, : k - 1] = dsa
        return QuotientSpace(Partition(base, blocks), MetricSpace(full), "QS")


def _net_radius(d: int, eps: float) -> int:
    lg = math.log(1.0 / eps)
    if d <= lg:
        raise ParameterError("eps too small for this dimension (ln(1/eps) >= d)")
    denom = math.log(d / lg)
    if denom <= 0:
        raise ParameterError("eps too small for this dimension")
    t = 2 * math.ceil(lg / denom)
    r = t + 1
    if r % 2 == 1:
        r += 1
    return r


def _greedy_net(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal 2r-separated subset, scanning points in lexicographic order.

    Returns the net and every point's Hamming distance to its nearest center.
    """
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


def _uptolog_lookup(d: int, r: int, p: float) -> np.ndarray:
    """Analytic p < 2 embedded distance for each Hamming value 0..d."""
    from .embeddings import pstable_distance

    hs = np.arange(d + 1, dtype=np.float64)
    out = np.zeros(d + 1)
    out[1:] = pstable_distance(hs[1:] ** (1.0 / p), float(r) ** (1.0 / p), p)
    return out


def _embedding_lookup(d: int, r: int, p: float) -> tuple[np.ndarray, float]:
    """Embedded distance for each Hamming value 0..d, and the singleton image norm."""
    if p == 2.0:
        lookup = np.zeros(d + 1)
        hs = np.arange(1, d + 1, dtype=np.float64)
        lookup[1:] = math.sqrt(2.0 * r) * np.sqrt(-np.expm1(-hs / (2.0 * r)))
        return lookup, math.sqrt(r)
    return _uptolog_lookup(d, r, p), float(r) ** (1.0 / p)


def cube_qs_construct(d: int, eps: float, p: float = 2.0, seed=None) -> CubeQsResult:
    """Quotient of the d-cube keeping at least a (1 - eps) fraction of blocks.

    p = 2 embeds singletons via the closed-form truncated Gaussian distance of
    the square-root metric at level r (A-block at the origin, image norms
    sqrt(r)); 1 <= p < 2 uses the analytic p-stable distances at level r^(1/p).
    The certificate is the exact distortion of those closed forms against the
    quotient metric over every pair, computed from Walsh-Hadamard class counts
    (see `_class_distortion`), and asserted below the traced constant.
    """
    if not (2.0 ** (-d) <= eps < 0.25):
        raise ParameterError("need 2^-d <= eps < 1/4")
    if d > 22:
        raise CapacityError("d must be at most 22")
    if not (p == 2.0 or 1.0 <= p < 2.0):
        raise ParameterError("p must be 2 or in [1, 2)")
    r = _net_radius(d, eps)
    A, dA_all = _greedy_net(d, r)
    survive = (dA_all == 0) | (dA_all > r // 2)
    S = np.flatnonzero(survive)
    dA = dA_all[survive].astype(np.float64)
    blocks = int(S.size - A.size + 1)
    if blocks < (1.0 - eps) * 2**d:
        raise ConstructionFailureError(
            f"only {blocks} blocks survive; need {(1.0 - eps) * 2 ** d:.1f}",
            {"d": d, "eps": eps, "r": r, "net_size": int(A.size), "survivors": int(S.size)},
        )

    lookup, block_norm = _embedding_lookup(d, r, p)
    summary = _class_distortion(d, S, dA, lookup, block_norm)
    if p == 2.0:
        bound = 8.0 * math.sqrt(math.e * r / (math.e - 1.0))
    else:
        # traced envelope: embedded/min{H, r} ratio spread times the factor-4
        # metric sandwich
        trunc = np.minimum(np.arange(1, d + 1, dtype=np.float64), float(r))
        ratios = lookup[1:] / trunc
        bound = 4.0 * float(ratios.max() / ratios.min())
    if summary.distortion > bound + 1e-9:
        raise ConstructionFailureError(
            f"measured distortion {summary.distortion:.6g} exceeds the traced bound {bound:.6g}",
            {"r": r, "summary": summary},
        )
    return CubeQsResult(d, eps, p, r, A, S, dA, summary, bound)


def _wht(f: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform of an int64 vector of length 2^d."""
    h = 1
    while h < f.size:
        v = f.reshape(-1, 2, h)
        lo = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        np.subtract(lo, v[:, 1, :], out=v[:, 1, :])
        h *= 2
    return f


def _krawtchouk(d: int) -> list[list[int]]:
    """K[h][w] = sum_j (-1)^j C(w, j) C(d - w, h - j), as Python ints."""
    return [
        [sum((-1) ** j * math.comb(w, j) * math.comb(d - w, h - j) for j in range(h + 1))
         for w in range(d + 1)]
        for h in range(d + 1)
    ]


def _class_pair_counts(d: int, classes: list[np.ndarray]) -> dict[tuple[int, int], list[int]]:
    """Exact unordered pair counts per Hamming weight between point classes.

    For disjoint classes (arrays of distinct cube points) and i <= j,
    `counts[i, j][h]` is the number of unordered pairs {x, y}, x in class i and
    y in class j, x != y, with Hamming(x, y) = h.  The ordered count is the XOR
    convolution of the two indicators summed over the weight-h shell, i.e.
    2^-d sum_w K_h(|w|) F_i(w) F_j(w) with F the Walsh-Hadamard transforms.
    The per-weight sums of F_i F_j are at most 4^d by Cauchy-Schwarz, so they
    are exact in int64; the Krawtchouk contraction is done in Python ints,
    which int64 would overflow from d = 22 on.
    """
    n = 1 << d
    weight = np.bitwise_count(np.arange(n, dtype=np.int64))
    order = np.argsort(weight, kind="stable")
    starts = np.concatenate(([0], np.cumsum([math.comb(d, w) for w in range(d)])))
    spectra = []
    for members in classes:
        f = np.zeros(n, dtype=np.int64)
        f[members] = 1
        spectra.append(_wht(f)[order])
    kraw = _krawtchouk(d)
    counts = {}
    for i, fi in enumerate(spectra):
        for j in range(i, len(spectra)):
            shell = [int(g) for g in np.add.reduceat(fi * spectra[j], starts)]
            cnt = [sum(k * g for k, g in zip(row, shell)) // n for row in kraw]
            if i == j:
                cnt[0] -= len(classes[i])
                cnt = [c // 2 for c in cnt]
            counts[i, j] = cnt
    return counts


def _class_distortion(d: int, S, dA, lookup, block_norm) -> DistortionSummary:
    """Distortion of the closed-form embedded distances against the quotient.

    Covers every singleton pair and every singleton-to-A-block pair (embedded
    distance = image norm, quotient distance = dA).  A singleton pair's ratio
    lookup[h] / min(h, dA(x) + dA(y)) depends only on its Hamming weight h and
    on the dA classes of its ends, so the scan runs over the (class pair, h)
    cells that `_class_pair_counts` finds occupied: O(c^2 2^d + c d 2^d) for c
    classes instead of O(4^d), with the same float operations per ratio.
    """
    sing = dA > 0
    labels, inverse = np.unique(dA[sing], return_inverse=True)
    pts = S[sing]
    classes = [pts[inverse == i] for i in range(labels.size)]
    ratios = []
    pairs = 0
    for (i, j), cnt in _class_pair_counts(d, classes).items():
        s = labels[i] + labels[j]
        for h in range(1, d + 1):
            if cnt[h]:
                ratios.append(lookup[h] / np.minimum(h, s))
                pairs += cnt[h]
    # singleton vs the collapsed block
    for label, members in zip(labels, classes):
        ratios.append(block_norm / label)
        pairs += members.size
    if not ratios:
        return DistortionSummary(0.0, 0.0, 0)
    return DistortionSummary(float(max(ratios)), float(1.0 / min(ratios)), pairs)


def check_sandwich(result: CubeQsResult, samples: int = 20000, seed=None) -> bool:
    """min{Hamming, r} <= d_U <= min{Hamming, 4r} on sampled singleton pairs."""
    rng = as_seed(seed).rng()
    sing = result.singletons
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


# ---------------------------------------------------------------------------
# Lower-bound certification via singleton sub-balls
# ---------------------------------------------------------------------------


def _singleton_mask_from_quotient(q: QuotientSpace) -> tuple[int, np.ndarray]:
    n = q.partition.base.n
    d = n.bit_length() - 1
    if 2**d != n:
        raise StructuralError("base space size is not a power of two")
    expected = hypercube_metric(d)
    if not np.array_equal(q.partition.base.dist, expected.dist):
        raise StructuralError("base space is not the Hamming cube")
    mask = np.zeros(n, dtype=bool)
    for blk in q.blocks:
        if len(blk) == 1:
            mask[blk[0]] = True
    return d, mask


def _singleton_mask_from_result(res: CubeQsResult) -> tuple[int, np.ndarray]:
    mask = np.zeros(2**res.d, dtype=bool)
    mask[res.singletons] = True
    return res.d, mask


def cube_qs_certify_lower(q, p: float = 2.0) -> tuple[int, float]:
    """Largest Hamming ball consisting of singleton blocks, and its L_p bound.

    The quotient metric restricted to such a ball is the Hamming metric of a
    radius-r sub-ball, which contains an m-dimensional sub-cube for m = r // 3;
    the cube's exact L_p distortion m^(1 - 1/p) is then a certified lower bound
    for embedding the quotient.  Returns (r, bound), bound 0 when r < 3.
    """
    if not (1.0 <= p <= 2.0):
        raise ParameterError("p must be in [1, 2]")
    if isinstance(q, CubeQsResult):
        d, singleton = _singleton_mask_from_result(q)
    elif isinstance(q, QuotientSpace):
        d, singleton = _singleton_mask_from_quotient(q)
    else:
        raise StructuralError("expected a QuotientSpace over a cube or a CubeQsResult")
    n = 2**d
    bad = ~singleton
    # multi-source BFS over the cube graph from the non-singleton set
    dist = np.full(n, d + 1, dtype=np.int64)
    frontier = np.flatnonzero(bad)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        nxt = np.unique(frontier[:, None] ^ (1 << np.arange(d, dtype=np.int64))[None, :])
        nxt = nxt[dist[nxt] > level]
        dist[nxt] = level
        frontier = nxt
    if not bad.any():
        r = d
    else:
        r = int(dist[singleton].max()) - 1 if singleton.any() else -1
        r = max(r, 0) if singleton.any() else 0
        r = min(r, d)
    m = r // 3
    bound = float(m) ** (1.0 - 1.0 / p) if m >= 1 else 0.0
    if r < 3:
        bound = 0.0
    return r, bound
