"""Explicit embeddings into weighted L_p coordinate spaces.

Covers the random-subset (Frechet-style) embedding for centered spaces and
the closed-form distances of the truncated Gaussian and p-stable complex
feature maps, which the Hamming-cube quotient certifies against.

Complex vectors are stored as complex arrays; the weighted p-norm is applied
to moduli, which is exactly the complex L_p(Omega) norm on a finite
probability space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MetricSpace, encode_array
from .errors import (
    CapacityError,
    ConstructionFailureError,
    NoMCenterError,
    ParameterError,
    StructuralError,
)
from .quotient import DistortionReport, distortion_between, pair_distortion
from .seeds import as_seed


@dataclass(frozen=True)
class VectorEmbedding:
    """Point images in a (possibly weighted, possibly complex) L_p space: the
    vectors, p and weights alone give its metric (induced_metric), so it keeps
    no record of how the coordinates were drawn."""

    vectors: np.ndarray  # (n, dim), float64 or complex128
    p: float
    weights: np.ndarray | None = None  # per-coordinate weights, finite and >= 0, default all-1

    def __post_init__(self):
        v = np.asarray(self.vectors)
        if v.ndim != 2:
            raise StructuralError("vectors must be a 2-d array")
        object.__setattr__(self, "vectors", v)
        if self.weights is not None:
            if np.iscomplexobj(self.weights):
                raise StructuralError("weights must be real")
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (v.shape[1],):
                raise StructuralError("weights must have one entry per coordinate")
            if not ((0 <= w) & (w < math.inf)).all():  # a negative weight makes induced_metric indefinite
                raise StructuralError("weights must be finite and >= 0")
            object.__setattr__(self, "weights", w)
        if not 1 <= self.p < math.inf:
            raise ParameterError(f"p = {self.p!r} is not a finite number >= 1")


# entries of one rows x n x dim chunk of a p-norm table, or of one block of
# the p-stable series; 512 KB of float64 stays in cache, which made Bourgain
# tables faster than 8 MB chunks
TABLE_ELEMENTS = 1 << 16

#: Most points an exact construction takes: it enumerates 2^n subsets or atoms.
EXACT_MAX_POINTS = 15


def induced_metric(emb: VectorEmbedding) -> MetricSpace:
    """Materialize the finite metric of an embedding.

    Only the upper triangle is computed: rows lo:hi against columns lo:, a few
    rows at a time, under TABLE_ELEMENTS entries of the rows x columns x dim
    difference table (at least one row), so memory is O(n^2 + TABLE_ELEMENTS).
    The lower triangle is its mirror, since |a - b| = |b - a| exactly.  Each
    distance is still one sum over the contiguous last axis, and ** (1/p) is
    elementwise, so the result is bitwise the full broadcast's.  Non-finite
    vectors raise StructuralError (MetricSpace refuses the table).
    """
    v = emb.vectors
    if not np.issubdtype(v.dtype, np.inexact):
        v = v.astype(np.float64)  # the in-place ** needs floats; integers convert exactly
    n, dim = v.shape
    out = np.empty((n, n))
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, TABLE_ELEMENTS // max(1, (n - lo) * dim)))
        diff = v[lo:hi, None, :] - v[None, lo:, :]
        diff = np.abs(diff) if np.iscomplexobj(diff) else np.abs(diff, out=diff)
        diff **= emb.p
        if emb.weights is not None:
            diff *= emb.weights
        out[lo:hi, lo:] = diff.sum(axis=2)
        out[lo:, lo:hi] = out[lo:hi, lo:].T
        lo = hi
    out **= 1.0 / emb.p
    return MetricSpace(out)


def embedding_distortion(source: MetricSpace, emb: VectorEmbedding) -> DistortionReport:
    """distortion_between(source, induced_metric(emb)), bit for bit, errors included.

    Real float64 vectors at p = 2 are screened by one Gram product instead of
    the N^2/2 x J table.  With u the unit roundoff, gamma_m = m u / (1 - m u),
    Y = X sqrt(w) (X where w is None), P_i = ||y_i||^2 and g_i its computed
    Gram diagonal, the table's squared entry S_ij lies within B_ij of
    D_ij = g_i + g_j - 2 (Y Y^T)_ij:

    - a Gram entry errs by gamma_J sum_k |y_ik y_jk| <= gamma_J (P_i + P_j) / 2
      in any summation order, FMA or not, and the diagonal by gamma_J P_i; the
      add and subtract forming D_ij add gamma_2 of their operands, so D_ij is
      within 2 gamma_(J+2) (P_i + P_j) of sum_k (y_ik - y_jk)^2;
    - rounding sqrt(w_k) and x_ik sqrt(w_k) moves that sum by at most
      4u (P_i + P_j) + gamma_2 W_ij from W_ij = sum_k w_k (x_ik - x_jk)^2;
    - induced_metric's own sum (subtract, square, weight, J - 1 adds) is within
      gamma_(J+3) W_ij of W_ij, and W_ij <= 2 (P_i + P_j) up to O(u) terms;

    in all (4J + 18) u (P_i + P_j) and terms of order u^2.  Underflow adds
    below 2^-1075 per rounding.  B_ij = (4J + 20) (2u (g_i + g_j) + 2^-1022)
    doubles the first and covers the second many times over.  The ratio
    interval [sqrt(D - B) / s, sqrt(D + B) / s], widened by 8u for its own
    and the table's roundings of sqrt and /, holds the table's ratio t / s.

    A pair can attain the max ratio only if its upper end reaches the largest
    lower end, and the min only if its lower end reaches the smallest upper
    end; a pair whose distance could be 0 has lower end 0 and is kept by the
    second rule.  The kept pairs are recomputed by induced_metric on the
    sub-embedding of their endpoints: entry (i, j) reads only rows i and j, so
    it is the full table's bit for bit, and pair_distortion breaks ties in
    np.triu_indices order among them as distortion_between does among all.
    Only the kept set can vary with the BLAS build, never the result.

    Any other p, vectors that are not finite float64, entries large enough to
    overflow, sizes that differ, n < 2 or a source distance <= 0 take
    distortion_between(source, induced_metric(emb)) itself.
    """
    v, w = emb.vectors, emb.weights
    n, J = v.shape
    screen = emb.p == 2 and v.dtype == np.float64 and source.n == n >= 2
    if screen:  # 4 J max(w) max|x|^2 bounds every table and Gram entry; it is NaN or inf for non-finite input
        with np.errstate(over="ignore", invalid="ignore"):
            big = 4.0 * max(J, 1) * (1.0 if w is None else w.max(initial=0.0)) * np.abs(v).max(initial=0.0) ** 2
        screen = big < 2.0**1000 and not np.triu(source.dist <= 0, 1).any()
    if not screen:
        return distortion_between(source, induced_metric(emb))

    Y = v if w is None else v * np.sqrt(w)
    G = Y @ Y.T
    del Y
    g = G.diagonal().copy()
    u = np.finfo(np.float64).eps / 2
    lower = np.empty_like(G)  # ratio intervals, strictly upper pairs only: lower ends here, upper ends in G
    rows = max(1, TABLE_ELEMENTS // n)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        D = g[lo:hi, None] + g - 2.0 * G[lo:hi]
        B = (4 * J + 20) * (2.0 * u * (g[lo:hi, None] + g) + np.finfo(np.float64).tiny)
        pairs = np.arange(n) > np.arange(lo, hi)[:, None]
        s = np.where(pairs, source.dist[lo:hi], 1.0)
        lower[lo:hi] = np.where(pairs, np.sqrt(np.maximum(D - B, 0.0)) / s * (1.0 - 8.0 * u), -np.inf)
        G[lo:hi] = np.where(pairs, np.sqrt(D + B) / s * (1.0 + 8.0 * u), np.inf)
    i, j = np.nonzero(np.triu((G >= lower.max()) | (lower <= G.min()), 1))
    idx, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    a, b = ends.reshape(2, -1)
    t = induced_metric(VectorEmbedding(v[idx], emb.p, w)).dist[a, b]
    return pair_distortion(i, j, source.dist[i, j], t)


def embedding_to_json(subset: list[int], emb: VectorEmbedding, mask: np.ndarray, certified: float) -> dict:
    """The embedding artifact of a subset embedding of the pipe's instance
    collapsed on `subset`: its J x n membership mask is stored as `subsets`,
    np.flatnonzero of it, from which _subset_distances rebuilds the coordinates."""
    return {"kind": "embedding", "subset": subset, "p": emb.p, "weights": encode_array(emb.weights),
            "subsets": encode_array(np.flatnonzero(mask)), "certified_distortion": certified}


# ---------------------------------------------------------------------------
# Random-subset embedding for centered spaces
# ---------------------------------------------------------------------------


def bourgain_scales(mparam: float, p: float) -> int:
    """Bourgain's scale count q = ceil(ln(mparam)/p)."""
    return max(1, int(math.ceil(math.log(mparam) / p - 1e-12)))


def bourgain_bound(mparam: float, p: float) -> int:
    """Bourgain's distortion bound 96 q, q = bourgain_scales(mparam, p)."""
    return 96 * bourgain_scales(mparam, p)


def _subset_distances(dist: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """d(u, A_j) for every point u and every row A_j of a J x n boolean mask.

    Returns the C-ordered n x J coordinate array; an empty subset gives a 0
    column.  Consecutive nonempty subsets are taken in groups of at most
    TABLE_ELEMENTS gathered entries (at least one subset): the members' columns
    of dist, as contiguous rows of its transpose, and np.minimum.reduceat
    takes each subset's min.  A min is exact in any order, so every entry is
    bitwise dist[:, A_j].min(axis=1).
    """
    n = dist.shape[0]
    cols = np.ascontiguousarray(dist.T)
    out = np.zeros((mask.shape[0], n))
    sizes = mask.sum(axis=1)
    live = np.flatnonzero(sizes)
    members = np.nonzero(mask[live])[1]  # row-major: subset after subset
    ends = np.cumsum(sizes[live])
    starts = ends - sizes[live]
    budget = TABLE_ELEMENTS // max(1, n)
    lo = 0
    while lo < live.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + budget, side="right")))
        gathered = cols[members[starts[lo] : ends[hi - 1]]]
        out[live[lo:hi]] = np.minimum.reduceat(gathered, starts[lo:hi] - starts[lo], axis=0)
        lo = hi
    return np.ascontiguousarray(out.T)


def bourgain_embed(
    m: MetricSpace, mparam: float, p: float = 2.0, mode: str = "exact", seed=None
) -> tuple[VectorEmbedding, DistortionReport, np.ndarray]:
    """Distance-to-random-subset embedding for spaces with an mparam-center.

    Coordinates are d(u, A) over subsets A, weighted so the map is
    non-expanding (weights sum to <= 1); q = bourgain_scales(mparam, p) scales
    with point inclusion probability e^(-p*i) at scale i.  Exact mode
    enumerates all nonempty subsets (n <= EXACT_MAX_POINTS); monte-carlo
    samples 256*q subsets per scale, an empty one giving a 0 coordinate.
    Exact-mode distortion must stay below 96*q.

    Both modes build one subsets x n boolean membership mask and take every
    coordinate from it at once: exact mode from the bits of 1..2^n - 1,
    monte-carlo from one rng.random draw of 256*q^2 rows, which is the same
    stream as one rng.random(n) per subset.

    Returns the embedding, its distortion report and the mask, which
    embedding_to_json stores and verify rebuilds the coordinates from.
    """
    from .constructions import find_m_center

    if not 1 <= p < math.inf:  # before bourgain_scales divides by it
        raise ParameterError(f"p = {p!r} is not a finite number >= 1")
    if mparam < 1:
        raise ParameterError("mparam must be >= 1")
    if find_m_center(m, mparam) is None:
        raise NoMCenterError(f"space has no {mparam}-center")
    n = m.n
    q = bourgain_scales(mparam, p)
    probs = [math.exp(-p * i) for i in range(1, q + 1)]

    if mode == "exact":
        if n > EXACT_MAX_POINTS:
            raise CapacityError(f"exact mode limited to n <= {EXACT_MAX_POINTS}")
        mask = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
        sizes = mask.sum(axis=1)
        weights = np.zeros(mask.shape[0])
        for pi in probs:
            weights += pi**sizes * (1 - pi) ** (n - sizes)
        weights /= q
    elif mode == "monte-carlo":
        L = 256 * q
        mask = as_seed(seed).rng().random((q * L, n)) < np.repeat(probs, L)[:, None]
        weights = np.full(q * L, 1.0 / (q * L))
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    emb = VectorEmbedding(_subset_distances(m.dist, mask), p, weights)

    report, bound = embedding_distortion(m, emb), bourgain_bound(mparam, p)
    if mode == "exact" and report.distortion > bound + 1e-9:
        raise ConstructionFailureError(f"exact-mode distortion {report.distortion} exceeds 96q = {bound}",
                                       {"q": q, "report": report})
    return emb, report, mask


# ---------------------------------------------------------------------------
# Truncated Gaussian feature maps
# ---------------------------------------------------------------------------


def truncated_gauss_distance(d, D: float):
    """Closed-form L2 distance of the complex Gaussian feature map at level D.

    sqrt(2) * D * sqrt(1 - exp(-d^2 / (2 D^2))).  Monotone increasing and
    concave in d, bounded by sqrt(2)*D, and within [sqrt((e-1)/e), 1] times
    min{d, sqrt(2)*D} (both ends tight: the lower at d = sqrt(2)*D, the
    upper as d -> 0).
    """
    if D <= 0:
        raise ParameterError("D must be positive")
    d = np.asarray(d, dtype=np.float64)
    out = math.sqrt(2.0) * D * np.sqrt(-np.expm1(-(d**2) / (2.0 * D**2)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# p-stable feature maps
# ---------------------------------------------------------------------------


#: terms past K = ceil(PSTABLE_DECAY^(1/p) / a) are taken at their a -> infinity
#: value, which drops less than e^-42 of their sum; a K above PSTABLE_MAX_TERMS,
#: that is, a d/D below PSTABLE_DECAY^(1/p) / PSTABLE_MAX_TERMS, is refused
PSTABLE_DECAY, PSTABLE_MAX_TERMS = 42.0, 1 << 23


def _pstable_series(a: np.ndarray, p: float, K: int) -> np.ndarray:
    """2^(p/2) [sum_{k <= K} |c_k| (1 - e^-(k a)^p) + sum_{k > K} |c_k|] for each a > 0.

    The c_k are the cosine coefficients of |sin(x/2)|^p: c_0 = 2 Gamma(p + 1) /
    (2^p Gamma(p/2 + 1)^2), c_k = c_(k-1) (k - 1 - p/2) / (k + p/2) < 0.  Terms
    are summed TABLE_ELEMENTS entries of the (len(a), k) table at a time (at
    least one column).  |c_k| is proportional to Gamma(k - p/2) / Gamma(k + 1 + p/2),
    which telescopes: the tail sum_{k > K} |c_k| is |c_K| (K - p/2) / p.
    """
    ap = a**p
    total = np.zeros(a.shape)
    c = 2.0 * math.gamma(p + 1.0) / (2.0**p * math.gamma(p / 2.0 + 1.0) ** 2)
    step = max(1, TABLE_ELEMENTS // a.size)
    for lo in range(1, K + 1, step):
        k = np.arange(lo, min(K + 1, lo + step), dtype=np.float64)
        ck = np.cumprod((k - 1.0 - p / 2.0) / (k + p / 2.0)) * c
        c = ck[-1]
        terms = np.multiply.outer(ap, -(k**p))
        np.expm1(terms, out=terms)  # e^-(k a)^p - 1 < 0, and c_k < 0
        terms *= ck
        total += terms.sum(axis=1)
    return 2.0 ** (p / 2.0) * (total - c * (K - p / 2.0) / p)


def pstable_expectation(a, p: float):
    """E[(1 - cos(a g))^(p/2)] for a symmetric p-stable g, 1 <= p < 2, at a
    scalar or an array of a, by an exact series of positive terms.

    (1 - cos x)^(p/2) = 2^(p/2) sum_k |c_k| (1 - cos kx) (see `_pstable_series`)
    and E cos(k a g) = e^-(k a)^p, so E(a) = 2^(p/2) sum_k |c_k| (1 - e^-(k a)^p),
    which goes to 0 with a.  One K = ceil(42^(1/p) / min a) serves every a:
    taking the terms past it at their limit |c_k| errs by at most e^-42 times
    their sum.  A nonzero a below the floor, or a NaN, is a ParameterError,
    raised before any table is built.
    """
    if not (1.0 <= p < 2.0):
        raise ParameterError("p must be in [1, 2)")
    a = np.abs(np.asarray(a, dtype=np.float64))
    out = np.zeros(a.shape)
    live = a != 0
    if live.any():
        a_min, floor = float(a[live].min()), PSTABLE_DECAY ** (1.0 / p) / PSTABLE_MAX_TERMS
        if not a_min >= floor:  # a NaN too
            raise ParameterError(f"d/D = {a_min:.3g}, but the p = {p} series of "
                                 f"{PSTABLE_MAX_TERMS} terms needs d/D >= {floor:.3g}")
        out[live] = _pstable_series(a[live], p, max(1, math.ceil(PSTABLE_DECAY ** (1.0 / p) / a_min)))
    return float(out) if out.ndim == 0 else out


def pstable_distance(d, D: float, p: float):
    """Feature-map distance sqrt(2) * D * E[(1 - cos(g d / D))^(p/2)]^(1/p).

    This is the L_p distance between the images of two points at l_p distance
    d under the feature map x -> D * exp(i <x, g> / D) over i.i.d. symmetric
    p-stable g: images have norm D, and <x - y, g> has the law of d * g.
    Only two-sided envelopes with unspecified constants hold for it, so the
    cube certificate recomputes its distortion from these values exactly.
    All of d goes through one pstable_expectation pass, floor included.
    """
    if D <= 0:
        raise ParameterError("D must be positive")
    return math.sqrt(2.0) * D * pstable_expectation(np.asarray(d, dtype=np.float64) / D, p) ** (1.0 / p)
