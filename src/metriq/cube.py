"""Large quotients of the Hamming cube with certified Euclidean distortion.

The construction removes the punctured balls of radius r/2 around a maximal
2r-separated net A, collapses A to a single block, and keeps every surviving
point as a singleton.  Distances in the quotient have the closed form
min{Hamming(x, y), d(x, A) + d(y, A)}, so nothing quadratic in 2^d is ever
materialized.  The distortion certificate is exact over every pair: a pair's
ratio depends only on its Hamming weight and the d(., A) classes of its ends,
and the number of pairs in each such cell comes from one fast Walsh-Hadamard
transform per class plus Krawtchouk-weighted sums, in O(c^2 2^d + c d 2^d)
time for c <= d + 1 classes.  Singletons map through the closed forms of
`embeddings`: the truncated Gaussian distance at p = 2, and the p-stable one,
by quadrature, for 1 <= p < 2.  Only this upper bound is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConstructionFailureError, ParameterError


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


#: largest cube dimension cube_qs_construct takes
MAX_D = 22


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


def _embedding_lookup(d: int, r: int, p: float) -> tuple[np.ndarray, float]:
    """Embedded distance for each Hamming value 0..d, and the singleton image norm."""
    lookup = np.zeros(d + 1)
    hs = np.arange(1, d + 1, dtype=np.float64)
    if p == 2.0:
        lookup[1:] = math.sqrt(2.0 * r) * np.sqrt(-np.expm1(-hs / (2.0 * r)))
        return lookup, math.sqrt(r)
    from .embeddings import pstable_distance  # p < 2: the p-stable distance at level r^(1/p)
    lookup[1:] = pstable_distance(hs ** (1.0 / p), float(r) ** (1.0 / p), p)
    return lookup, float(r) ** (1.0 / p)


def cube_qs_construct(d: int, eps: float, p: float = 2.0) -> CubeQsResult:
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
    if d > MAX_D:
        raise CapacityError(f"d must be at most {MAX_D}")
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
