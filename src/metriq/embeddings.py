"""Explicit embeddings into weighted L_p coordinate spaces.

Covers the random-subset (Frechet-style) embedding for centered spaces, the
exact star-into-L_p product construction, truncated Gaussian and p-stable
complex feature maps, the snowflake route for truncated metrics, and the star
Poincare inequalities used for lower bounds.

Complex feature maps are stored as complex arrays; the weighted p-norm is
applied to moduli, which is exactly the complex L_p(Omega) norm on a finite
probability space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize

from .core import MetricSpace, encode_array
from .errors import (
    CapacityError,
    ConstructionFailureError,
    NoMCenterError,
    ParameterError,
    StructuralError,
)
from .quotient import DistortionReport, distortion_between
from .seeds import as_seed


@dataclass(frozen=True)
class VectorEmbedding:
    """Point images in a (possibly weighted, possibly complex) L_p space."""

    vectors: np.ndarray  # (n, dim), float64 or complex128
    p: float
    mode: str  # "exact" or "monte-carlo"
    weights: np.ndarray | None = None  # per-coordinate weights, default all-1

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
            object.__setattr__(self, "weights", w)
        if self.p < 1:
            raise ParameterError("p must be >= 1")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def distance(self, i: int, j: int) -> float:
        diff = np.abs(self.vectors[i] - self.vectors[j]) ** self.p
        if self.weights is not None:
            diff = diff * self.weights
        return float(diff.sum() ** (1.0 / self.p))

    def norms(self) -> np.ndarray:
        mods = np.abs(self.vectors) ** self.p
        if self.weights is not None:
            mods = mods * self.weights
        return mods.sum(axis=1) ** (1.0 / self.p)


# entries of one rows x n x dim chunk of a p-norm table; 512 KB of float64
# stays in cache, which made Bourgain tables faster than 8 MB chunks
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


def embedding_to_json(emb: VectorEmbedding) -> dict:
    """Complex vectors are stored as <c16."""
    doc = {"p": emb.p, "mode": emb.mode, "vectors": encode_array(emb.vectors)}
    if emb.weights is not None:
        doc["weights"] = encode_array(emb.weights)
    return doc


# ---------------------------------------------------------------------------
# Random-subset embedding for centered spaces
# ---------------------------------------------------------------------------


def bourgain_scales(mparam: float, p: float) -> int:
    """Bourgain's scale count q = ceil(ln(mparam)/p); the distortion bound is 96q."""
    return max(1, int(math.ceil(math.log(mparam) / p - 1e-12)))


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
) -> tuple[VectorEmbedding, DistortionReport, MetricSpace]:
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

    Returns the embedding, its distortion report and the induced metric the
    report was computed from, so a caller that stores the table reuses it.
    """
    from .constructions import find_m_center

    if p < 1:
        raise ParameterError("p must be >= 1")
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
    emb = VectorEmbedding(_subset_distances(m.dist, mask), p, mode, weights)

    induced = induced_metric(emb)
    report = distortion_between(m, induced)
    if mode == "exact" and report.distortion > 96 * q + 1e-9:
        raise ConstructionFailureError(
            f"exact-mode distortion {report.distortion} exceeds 96q = {96 * q}",
            {"q": q, "report": report},
        )
    return emb, report, induced


# ---------------------------------------------------------------------------
# Stars into L_p, exactly
# ---------------------------------------------------------------------------


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
            return VectorEmbedding(vecs, p, "exact", np.ones(n))
        value = delta ** (-1.0 / p)
        atoms = np.arange(2**n)
        bits = (atoms[:, None] >> np.arange(n)) & 1  # (2^n, n)
        ones = bits.sum(axis=1)
        weights = delta**ones * (1 - delta) ** (n - ones)
        vecs = np.vstack([np.zeros(2**n), (value * bits).T])
        return VectorEmbedding(vecs, p, "exact", weights)

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
    return VectorEmbedding(vecs, p, "exact", weights)


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
    return VectorEmbedding(vectors, 2.0, "monte-carlo", weights)


@dataclass(frozen=True)
class TruncatedMetricSpec:
    """A base metric with distances capped at level D."""

    base: MetricSpace
    D: float

    def __post_init__(self):
        if self.D <= 0:
            raise ParameterError("D must be positive")

    def metric(self) -> MetricSpace:
        return MetricSpace(np.minimum(self.base.dist, self.D))


@dataclass(frozen=True)
class SnowflakeResult:
    metric: MetricSpace  # closed-form embedded distances
    report: DistortionReport  # vs the truncated metric
    bound: float  # sqrt(e * D / (e - 1))
    image_norm: float  # sqrt(D)


def snowflake_sqrt_embed(spec: TruncatedMetricSpec) -> SnowflakeResult:
    """Embed a truncated metric whose square root is Euclidean.

    Composition: take sqrt of distances (isometrically Euclidean for e.g. the
    Hamming cube via 0/1 coordinates), then the Gaussian feature map at level
    sqrt(D).  The closed-form distances approximate min{d, D} within
    sqrt(e*D/(e-1)); images sit on the sphere of radius sqrt(D).
    """
    if spec.base.min_distance() < 1.0 - 1e-12:
        raise ParameterError("base must have minimum distance >= 1")
    if spec.D < 1.0:
        raise ParameterError("need D >= 1")
    embedded = truncated_gauss_distance(np.sqrt(spec.base.dist), math.sqrt(spec.D))
    np.fill_diagonal(embedded, 0.0)
    ms = MetricSpace(embedded)
    report = distortion_between(spec.metric(), ms)
    return SnowflakeResult(ms, report, math.sqrt(math.e * spec.D / (math.e - 1.0)), math.sqrt(spec.D))


# ---------------------------------------------------------------------------
# p-stable feature maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _pstable_density_grid(p: float):
    """Tabulated density of the symmetric p-stable law with char. fn e^(-|t|^p).

    Returns (u grid, density values, tail coefficient A) where the density is
    ~ A / u^(p+1) beyond the grid.
    """
    us = np.concatenate([np.linspace(0.0, 1.0, 201)[1:], np.geomspace(1.0, 1e4, 600)])
    if p == 1.0:
        phi = 1.0 / (math.pi * (1.0 + us**2))
    else:
        phi = np.array(
            [
                integrate.quad(lambda t: math.exp(-(t**p)) / math.pi, 0, np.inf,
                               weight="cos", wvar=u, limit=200)[0]
                for u in us
            ]
        )
        phi = np.maximum(phi, 0.0)
    A = float(phi[-1] * us[-1] ** (p + 1))
    return us, phi, A


@lru_cache(maxsize=8)
def _mean_cos_power(p: float) -> float:
    """Average of (1 - cos x)^(p/2) over a full period."""
    val, _ = integrate.quad(lambda x: (1.0 - math.cos(x)) ** (p / 2.0), 0, 2 * math.pi)
    return val / (2 * math.pi)


def pstable_expectation(a: float, p: float, method: str = "quadrature",
                        samples: int = 200_000, seed=None) -> float:
    """E[(1 - cos(a g))^(p/2)] for a symmetric p-stable g, 1 <= p < 2."""
    if not (1.0 <= p < 2.0):
        raise ParameterError("p must be in [1, 2)")
    if a == 0:
        return 0.0
    a = abs(float(a))
    if method == "quadrature":
        us, phi, A = _pstable_density_grid(p)
        # dense trapezoid up to ~50 oscillation periods (or the grid edge),
        # then replace (1 - cos)^(p/2) by its period average against the
        # tabulated density, and close with the power-law density tail
        period = 2.0 * math.pi / a
        u1 = min(us[-1], max(1.0, 50.0 * period))
        step = min(period / 64.0, 0.05)
        grid = np.linspace(0.0, u1, max(2, int(u1 / step) + 1))
        vals = (1.0 - np.cos(a * grid)) ** (p / 2.0) * np.interp(grid, us, phi)
        body = float(np.trapezoid(vals, grid))
        if u1 < us[-1]:
            sel = us >= u1
            g2 = np.concatenate([[u1], us[sel]])
            v2 = np.concatenate([[float(np.interp(u1, us, phi))], phi[sel]])
            body += _mean_cos_power(p) * float(np.trapezoid(v2, g2))
        tail = _mean_cos_power(p) * A / (p * us[-1] ** p)
        return 2.0 * (body + tail)
    if method == "monte-carlo":
        g = cms_sample(p, samples, seed)
        return float(np.mean((1.0 - np.cos(a * g)) ** (p / 2.0)))
    raise ParameterError(f"unknown method {method!r}")


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


def pstable_distance(d, D: float, p: float, method: str = "quadrature", seed=None):
    """Feature-map distance sqrt(2) * D * E[(1 - cos(g d / D))^(p/2)]^(1/p).

    The constant matches the features->infinity limit of pstable_embed; all
    guarantees about this quantity are two-sided envelopes with unspecified
    constants, reported via fitted values rather than asserted.
    """
    if not (1.0 <= p < 2.0):
        raise ParameterError("p must be in [1, 2)")
    if D <= 0:
        raise ParameterError("D must be positive")
    scalar = np.isscalar(d)
    out = []
    for di in np.atleast_1d(np.asarray(d, dtype=np.float64)):
        e = pstable_expectation(di / D, p, method=method, seed=seed)
        out.append(math.sqrt(2.0) * D * e ** (1.0 / p))
    out = np.array(out)
    return float(out[0]) if scalar else out


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
    return VectorEmbedding(vectors, p, "monte-carlo", weights)


def pstable_envelope_fit(p: float) -> tuple[float, float]:
    """Fitted two-sided constants for E[(1-cos(ag))^(p/2)] vs min{a^p ln(1/a+1), 1}."""
    ratios = []
    for a in np.geomspace(0.01, 100.0, 25):
        model = min(a**p * math.log(1.0 / a + 1.0), 1.0)
        ratios.append(pstable_expectation(a, p) / model)
    return float(min(ratios)), float(max(ratios))


# ---------------------------------------------------------------------------
# L1 -> L_p with a logarithmic loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UptologResult:
    metric: MetricSpace  # analytic psi-distances for the given points
    image_norm: float  # D^(1/p), exact for every point
    c1: float  # fitted lower envelope constant (after D^(1-1/p) normalization)
    c2: float  # fitted upper envelope constant (after (ln D)^(1/p) normalization)


def uptolog_embed(points, D: float, p: float) -> UptologResult:
    """Compose snowflake d -> d^(1/p) with the p-stable map at level D^(1/p).

    Input points are l1 vectors with pairwise distances >= 1; the returned
    metric is the analytic distance table, sandwiched between
    c1/D^(1-1/p) * min{d, D} and c2 * (ln D)^(1/p) * min{d, D} with the fitted
    constants reported.
    """
    if not (1.0 <= p < 2.0):
        raise ParameterError("p must be in [1, 2)")
    if D < 2:
        raise ParameterError("need D >= 2")
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    d1 = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    off = d1[~np.eye(n, dtype=bool)]
    if off.size and off.min() < 1.0 - 1e-12:
        raise ParameterError("points must be 1-separated in l1")
    level = D ** (1.0 / p)
    psi = np.zeros_like(d1)
    iu, ju = np.triu_indices(n, k=1)
    for i, j in zip(iu, ju):
        psi[i, j] = psi[j, i] = pstable_distance(d1[i, j] ** (1.0 / p), level, p)
    truncated = np.minimum(d1, D)
    lo_ratio = psi[iu, ju] * D ** (1.0 - 1.0 / p) / truncated[iu, ju]
    hi_ratio = psi[iu, ju] / (math.log(D) ** (1.0 / p) * truncated[iu, ju])
    c1 = float(lo_ratio.min()) if iu.size else 1.0
    c2 = float(hi_ratio.max()) if iu.size else 1.0
    return UptologResult(MetricSpace(psi), level, c1, c2)


# ---------------------------------------------------------------------------
# Star Poincare inequality and the truncation witness
# ---------------------------------------------------------------------------


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
