"""Large quotients of the Hamming cube with certified Euclidean distortion.

The construction removes the punctured balls of radius r/2 around a maximal
2r-separated net A, collapses A to a single block, and keeps every surviving
point as a singleton.  Distances in the quotient have the closed form
min{Hamming(x, y), d(x, A) + d(y, A)}, so nothing quadratic in 2^d is ever
materialized.  The distortion certificate is exact over every pair: a pair's
ratio depends only on its Hamming distance h and the d(., A) classes a, b of
its ends.  Since d(., A) is 1-Lipschitz, h >= |a - b|, and at h = d the only
pairs are antipodal, so the cells (a, b, h < d) with h >= |a - b|, the
antipodal cells some pair hits and the singleton-to-block ratios contain every
occupied cell: their max / min bounds the distortion in O(2^d).  The bound is
exact when its extreme cells are occupied; a witness pair shows each one that
is neither a block ratio nor an antipodal cell.  Where no witness is found,
the exact kernel (`_class_distortion`: one Walsh-Hadamard transform per class
indicator plus one Krawtchouk contraction count all cells in
O(c^2 2^d + c d 2^d) time for c <= d+1 classes) gives the value.  Singletons
map through the closed forms of `embeddings`: the truncated Gaussian distance
at p = 2, and the p-stable one, an exact series, for 1 <= p < 2.  Only this
upper bound is certified.
"""

from __future__ import annotations

import itertools
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
    witnesses: list  # (x, y) singleton pairs that attain the bound's extremes (_certify)

    @property
    def block_count(self) -> int:
        # one collapsed A-block plus one singleton per survivor outside A
        return int(self.S.size - self.A.size + 1)


#: largest cube dimension cube_qs_construct takes
MAX_D = 22


def _net_radius(d: int, eps: float) -> int:
    """t + 1 made even, for t = 2 ceil(lg / ln(d / lg)) and lg = ln(1/eps); the
    callers' 2^-d <= eps < 1/4 gives 0 < lg <= d ln 2 < d."""
    lg = math.log(1.0 / eps)
    return 2 * math.ceil(lg / math.log(d / lg)) + 2


def _greedy_net(d: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximal 2r-separated subset a lexicographic scan keeps, ascending,
    and every point's Hamming distance to its nearest center.  That net is the
    lexicode of minimum distance 2r + 1, a linear code (Conway and Sloane,
    1986): the first point x far from the code C doubles it to C u (C ^ x),
    and distance to C ^ x at y is distance to C at y ^ x.  That is k + 1
    passes over the 2^d points for 2^k centers."""
    mind = np.bitwise_count(np.arange(2**d, dtype=np.int64)).astype(np.int64)
    code = np.zeros(1, dtype=np.int64)
    while True:
        x = int(np.argmax(mind > 2 * r))  # 0, a codeword, when no point is far
        if mind[x] <= 2 * r:
            return np.sort(code), mind
        code = np.concatenate((code, code ^ x))
        np.minimum(mind, mind[np.arange(2**d, dtype=np.int64) ^ x], out=mind)


def _embedding_lookup(d: int, r: int, p: float) -> tuple[np.ndarray, float]:
    """Embedded distance for each Hamming value 0..d, and the singleton image norm;
    p < 2 takes one series pass of (42 r)^(1/p) terms, r <= 86 for d <= MAX_D."""
    lookup = np.zeros(d + 1)
    hs = np.arange(1, d + 1, dtype=np.float64)
    if p == 2.0:
        lookup[1:] = math.sqrt(2.0 * r) * np.sqrt(-np.expm1(-hs / (2.0 * r)))
        return lookup, math.sqrt(r)
    from .embeddings import pstable_distance  # p < 2: the p-stable distance at level r^(1/p)
    lookup[1:] = pstable_distance(hs ** (1.0 / p), float(r) ** (1.0 / p), p)
    return lookup, float(r) ** (1.0 / p)


def traced_bound(r: int, p: float, lookup: np.ndarray) -> float:
    """The bound of a cube certificate at net radius r: 8 sqrt(e r / (e - 1)) at p = 2; for p < 2 the
    traced envelope, the spread of lookup[h] / min{h, r} times the factor-4 metric sandwich."""
    if p == 2.0:
        return 8.0 * math.sqrt(math.e * r / (math.e - 1.0))
    ratios = [v / (h if h < r else r) for h, v in enumerate(lookup.tolist()[1:], 1)]  # numpy's float64 quotients
    return 4.0 * (max(ratios) / min(ratios))


def _claim(d: int, eps: float, p: float, witnesses=None):
    """The decision of cell (d, eps, p), in run and verify alike: the greedy net at the paper's
    radius, the survivor count, which must reach (1 - eps) 2^d blocks before the certificate runs,
    `_certify` of the closed-form embedding on the given witnesses, or those it finds, and the
    traced bound.  A block is the net's or a singleton, a point beyond r // 2 of it.  Returns r,
    the net, every point's distance to it, what `_certify` returns and the bound."""
    r = _net_radius(d, eps)
    A, dA = _greedy_net(d, r)
    blocks = int(np.count_nonzero(dA > r // 2)) + 1
    if blocks < (1.0 - eps) * 2**d:
        raise ConstructionFailureError(
            f"only {blocks} blocks survive; need {(1.0 - eps) * 2 ** d:.1f}",
            {"d": d, "eps": eps, "r": r, "net_size": int(A.size), "survivors": blocks - 1 + int(A.size)},
        )
    lookup, block_norm = _embedding_lookup(d, r, p)
    return r, A, dA, _certify(d, dA, r // 2, lookup, block_norm, witnesses), traced_bound(r, p, lookup)


def cube_qs_construct(d: int, eps: float, p: float = 2.0) -> CubeQsResult:
    """Quotient of the d-cube keeping at least a (1 - eps) fraction of blocks.

    p = 2 embeds singletons via the closed-form truncated Gaussian distance of
    the square-root metric at level r (A-block at the origin, image norms
    sqrt(r)); 1 <= p < 2 uses the analytic p-stable distances at level r^(1/p).
    The certificate is the exact distortion of those closed forms against the
    quotient metric over every pair, read from the bound and its witnesses
    (`_certify`) or, where a witness is missing, from Walsh-Hadamard class
    counts (`_class_distortion`), and asserted below the traced constant.
    """
    if not (2.0 ** (-d) <= eps < 0.25):
        raise ParameterError("need 2^-d <= eps < 1/4")
    if d > MAX_D:
        raise CapacityError(f"d must be at most {MAX_D}")
    if not (p == 2.0 or 1.0 <= p < 2.0):
        raise ParameterError("p must be 2 or in [1, 2)")
    r, A, dA, (summary, witnesses, bad, _), bound = _claim(d, eps, p)
    if bad is not None:  # a found pair that fails the rule verify reads it by
        raise ConstructionFailureError(f"witness {witnesses[bad]} names no extreme cell", {"r": r})
    if summary.distortion > bound + 1e-9:
        raise ConstructionFailureError(f"measured distortion {summary.distortion:.6g} exceeds the traced bound "
                                       f"{bound:.6g}", {"r": r, "summary": summary})
    S = np.flatnonzero((dA == 0) | (dA > r // 2))
    return CubeQsResult(d, eps, p, r, A, S, dA[S].astype(np.float64), summary, bound, witnesses)


def _cell_ratio(lookup, s, h):
    """Embedded over quotient distance of a pair at Hamming distance h whose
    classes sum to s, the kernel's float expression: lookup[h] / min(h, s)."""
    return lookup[h] / np.minimum(h, s)


@dataclass(frozen=True)
class _Bound:
    """The bound over the singletons, the cube points x with dA[x] > cut, in
    their classes dA[x].  `hi` and `lo` are the max and min ratio over the
    cells (a, b, h) of occupied classes with |a - b| <= h < d, the (a, b, d)
    cells that an antipodal pair hits and the singleton-to-block ratios;
    `unattained` holds the ones of them that no antipodal cell or block ratio
    attains."""

    labels: list  # the occupied classes, ascending
    singletons: int
    hi: float
    lo: float
    unattained: list


def _class_bound(d: int, dA: np.ndarray, cut: int, lookup, block_norm) -> _Bound | None:
    """The bound (see _Bound) for dA <= d, or None when no point is a singleton.

    A ratio falls as the class sum a + b grows, and (a, a, h) is a cell for
    every h, so over h < d the cells peak on the least class's diagonal and
    bottom out on the greatest's, as the block ratios block_norm / a do.
    One bincount of (dA of x, dA of its antipode) gives the classes and the
    antipodal cells; the rest is O(d^2)."""
    pairs = np.bincount(dA * (d + 1) + dA[::-1], minlength=(d + 1) ** 2).reshape(d + 1, d + 1)
    sizes = pairs.sum(axis=1).tolist()
    labels = [a for a in range(cut + 1, d + 1) if sizes[a]]
    if not labels:
        return None
    hi_known, lo_known = block_norm / labels[0], block_norm / labels[-1]
    classes = np.arange(cut + 1, d + 1)
    ends = np.add.outer(classes, classes)[pairs[cut + 1:, cut + 1:] > 0].tolist()  # antipodal class sums
    if ends:
        hi_known = max(hi_known, _cell_ratio(lookup, min(ends), d))
        lo_known = min(lo_known, _cell_ratio(lookup, max(ends), d))
    h = np.arange(1, d)
    hi = float(max(_cell_ratio(lookup, 2 * labels[0], h).tolist() + [hi_known]))
    lo = float(min(_cell_ratio(lookup, 2 * labels[-1], h).tolist() + [lo_known]))
    unattained = [v for v, known in ((hi, hi_known), (lo, lo_known)) if v != known]
    return _Bound(labels, sum(sizes[cut + 1:]), hi, lo, unattained)


def _bound_summary(bound: _Bound) -> DistortionSummary:
    """The exact distortion when the bound is attained: every singleton pair
    and every singleton-to-block pair is certified."""
    n = bound.singletons
    return DistortionSummary(bound.hi, 1.0 / bound.lo, n * (n - 1) // 2 + n)


def _find_witnesses(d: int, dA: np.ndarray, cut: int, lookup, bound: _Bound) -> list | None:
    """For each unattained extreme, a singleton pair (x, y) in a cell
    (a, b, t < d) of its ratio, or None where one is not found.  For each
    distance t of such a cell, ascending, y runs over x XOR the d cyclic
    shifts of t low bits, for every singleton x at once; at most d passes per
    extreme.  A y passes `_certify`'s rule where the ratio at t of the class
    sum is the extreme; a non-singleton's class 2d + 1 gives sums of no ratio."""
    h, labels = np.arange(1, d)[:, None], np.array(bound.labels)
    ratios = np.full((d - 1, 3 * d + 2), np.nan)  # by t - 1 and class sum
    ratios[:, 1:2 * d + 1] = _cell_ratio(lookup, np.arange(1, 2 * d + 1), h)
    sums, cells = np.add.outer(labels, labels), h[:, :, None] >= np.abs(np.subtract.outer(labels, labels))
    sing = np.flatnonzero(dA > cut)
    classes, lab, full = dA[sing], np.where(dA > cut, dA, 2 * d + 1), (1 << d) - 1
    witnesses = []
    for v in bound.unattained:
        extreme = ratios == v
        shifts = ((t, ((1 << t) - 1) << k & full | ((1 << t) - 1) >> (d - k))
                  for t in (np.flatnonzero((extreme[:, sums] & cells).any(axis=(1, 2))) + 1).tolist()
                  for k in range(d))
        for t, mask in itertools.islice(shifts, d):
            y = sing ^ mask
            hit = extreme[t - 1][classes + lab[y]]
            if hit.any():
                x = int(hit.argmax())
                witnesses.append((int(sing[x]), int(y[x])))
                break
        else:
            return None
    return witnesses


def _certify(d: int, dA: np.ndarray, cut: int, lookup, block_norm,
             witnesses=None) -> tuple[DistortionSummary | None, list, int | None, int]:
    """A cube claim's decision, in run and verify alike, over the singletons
    (dA > cut): the bound (`_class_bound`), and the given witnesses or those
    `_find_witnesses` finds, each two distinct in-range singletons whose cell
    ratio is hi or lo; the kernel where an unattained extreme has none.
    Returns the distortion (None after a bad witness; the empty summary where
    no point is a singleton, which no cell that `_claim` accepts has), the
    witnesses, the first bad one's index or None, and the singleton count."""
    bound = _class_bound(d, dA, cut, lookup, block_norm)
    if bound is None:
        return DistortionSummary(0.0, 0.0, 0), [], None, 0
    if witnesses is None:
        witnesses = _find_witnesses(d, dA, cut, lookup, bound) or []
    unattained = set(bound.unattained)
    for i, (x, y) in enumerate(witnesses):
        named = None
        if x != y and 0 <= min(x, y) and max(x, y) < 2**d and dA[x] > cut and dA[y] > cut:
            named = _cell_ratio(lookup, dA[x] + dA[y], (x ^ y).bit_count())
        if named not in (bound.hi, bound.lo):
            return None, witnesses, i, bound.singletons
        unattained.discard(named)
    summary = _class_kernel(d, dA, cut, lookup, block_norm) if unattained else _bound_summary(bound)
    return summary, witnesses, None, bound.singletons


def _class_kernel(d: int, dA: np.ndarray, cut: int, lookup, block_norm) -> DistortionSummary:
    """`_class_distortion` over the singletons, the points with dA > cut."""
    sing = np.flatnonzero(dA > cut)
    return _class_distortion(d, sing, dA[sing].astype(np.float64), lookup, block_norm)


def _wht(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of the int64 vector x, of length 2^d, returned
    in x or y: each pass writes the sums and differences of one buffer's
    halves, interleaved, into the other."""
    for _ in range(x.size.bit_length() - 1):
        halves, pairs = x.reshape(2, -1), y.reshape(-1, 2)
        np.add(halves[0], halves[1], out=pairs[:, 0])
        np.subtract(halves[0], halves[1], out=pairs[:, 1])
        x, y = y, x
    return x


def _krawtchouk(d: int) -> np.ndarray:
    """K[h, w] = sum_j (-1)^j C(w, j) C(d - w, h - j), the coefficient of z^h in
    (1 - z)^w (1 + z)^(d - w); exact in int64, since |K[h, w]| <= C(d, h)."""
    K = np.zeros((d + 1, d + 1), dtype=np.int64)
    K[0] = 1
    for t in range(d):  # column w: w factors (1 - z), then d - w factors (1 + z)
        K[1:] += np.where(np.arange(d + 1) > t, -1, 1) * K[:-1]
    return K


def _shell_sums(d: int, classes: list[np.ndarray]) -> np.ndarray:
    """Row p, column h: sum_{|w| = h} F_i(w) F_j(w) for the p-th pair (i, j) of
    `np.triu_indices(len(classes))`, F_i the transform of class i's indicator;
    at most 4^d by Cauchy-Schwarz, so exact in int64."""
    n = 1 << d
    order = np.argsort(np.bitwise_count(np.arange(n, dtype=np.int64)), kind="stable")
    spectra = np.empty((len(classes), n), dtype=np.int64)
    x, y = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for spectrum, members in zip(spectra, classes):
        x[:] = 0
        x[members] = 1
        np.take(_wht(x, y), order, out=spectrum, mode="clip")  # by |w|; clip: out unbuffered
    starts = np.concatenate(([0], np.cumsum([math.comb(d, w) for w in range(d)])))
    i, j = np.triu_indices(len(classes))
    shell = np.empty((i.size, d + 1), dtype=np.int64)
    for row, a, b in zip(shell, i, j):
        np.add.reduceat(np.multiply(spectra[a], spectra[b], out=x), starts, out=row)
    return shell


def _class_pair_counts(d: int, classes: list[np.ndarray]) -> np.ndarray:
    """Row p, column h: the pairs {x, y}, x in class i and y in class j, x != y,
    at Hamming distance h, for disjoint classes and the p-th pair (i, j) of
    `np.triu_indices(len(classes))`.  Their XOR convolution gives
    2^-d sum_w K_h(|w|) F_i(w) F_j(w) ordered pairs: one int64 product when
    max|K| * max sum|shell| < 2^63 bounds its partial sums, else Python ints."""
    shell, kraw = _shell_sums(d, classes), _krawtchouk(d)
    if int(np.abs(kraw).max()) * int(np.abs(shell).sum(axis=1).max()) >= 2**63:
        shell, kraw = shell.astype(object), kraw.astype(object)
    counts = shell @ kraw.T >> d
    i, j = np.triu_indices(len(classes))
    counts[i == j, 0] -= [members.size for members in classes]
    counts[i == j] //= 2
    return counts


def _class_distortion(d: int, S, dA, lookup, block_norm) -> DistortionSummary:
    """Distortion of the closed-form embedded distances against the quotient,
    over every singleton pair (one ratio lookup[h] / min(h, dA(x) + dA(y)) per
    occupied (class pair, h) cell, the float operation a scan of every pair
    makes) and every singleton-to-A-block pair."""
    sing = dA > 0
    labels, sizes = np.unique(dA[sing], return_counts=True)
    if not labels.size:
        return DistortionSummary(0.0, 0.0, 0)
    classes = np.split(S[sing][np.argsort(dA[sing], kind="stable")], np.cumsum(sizes[:-1]))
    counts = _class_pair_counts(d, classes)[:, 1:]
    i, j = np.triu_indices(labels.size)
    cells = lookup[1:] / np.minimum(np.arange(1, d + 1), (labels[i] + labels[j])[:, None])
    ratios = np.concatenate((cells[counts > 0], block_norm / labels))
    return DistortionSummary(float(ratios.max()), float(1.0 / ratios.min()),
                             int(counts.sum() + sizes.sum()))
