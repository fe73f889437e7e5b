"""Randomized and greedy constructions of well-behaved quotient spaces.

Every operation here is deterministic given its RngSeed.  Positive-probability
existence arguments become rejection-sampling loops of at most RESAMPLE_CAP
draws each; every certificate a construction claims is recomputed by the
exact distortion evaluator before being returned.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    Equilateral,
    Lacunary,
    MetricSpace,
    Star,
    aspect_ratio,
    block_reduce,
    nearest_radii,
    realize_special,
    submatrix,
)
from .errors import (
    CapacityError,
    ConstructionFailureError,
    InsufficientBandError,
    NoMCenterError,
    ParameterError,
    ProbabilisticFailureError,
    StructuralError,
)
from .generators import CompositionRealization, CompositionTree, realize_composition
from .hst import HstTree, hst_from_splits, hst_to_metric, join, leaf, validate_khst
from .quotient import (DistortionReport, QuotientSpace, claim_slack, distortion_between, lip_colip, quotient_by_subset,
                       quotient_metric, sq_space)
from .seeds import as_seed

#: Draws each rejection-sampling loop makes before it raises
#: ProbabilisticFailureError; read when the loop starts.
RESAMPLE_CAP = 64


# ---------------------------------------------------------------------------
# m-centers
# ---------------------------------------------------------------------------


def _center_radii(dist: np.ndarray, mparam: float) -> np.ndarray | None:
    """For each point y, the smallest radius whose ball holds >= mparam points.

    None when no ball can reach mparam points (the center condition is vacuous).
    """
    n = dist.shape[0]
    need = int(math.ceil(mparam - 1e-12))
    if need < 1:
        need = 1
    if need > n:
        return None
    return np.partition(dist, need - 1, axis=1)[:, need - 1]


def find_m_center(m: MetricSpace, mparam: float) -> int | None:
    """Lowest-index m-center, or None."""
    rho = _center_radii(m.dist, mparam)
    if rho is None:
        return 0
    ok = np.all(m.dist <= rho[None, :], axis=1)
    idx = np.flatnonzero(ok)
    return int(idx[0]) if idx.size else None


def m_center_size(eps: float) -> float:
    """The m-centre size 2 ln(2/eps)/eps that m_center_quotient targets."""
    return 2.0 * math.log(2.0 / eps) / eps


def hst_mparam(eps: float) -> int:
    """The mparam of the m-centred HST built on an eps m-centre quotient: m_center_size(eps) rounded up, at least 2."""
    return max(2, math.ceil(m_center_size(eps)))


def m_center_quotient(m: MetricSpace, eps: float, seed=None):
    """Sample a small set T whose collapse has the T-block as an m-center.

    Each point joins S with probability eps/2; T is S plus every point whose
    ball of the first ceil(2 ln(2/eps)/eps) neighbors misses S.  Samples are
    rejected until |T| <= eps*n.  Once accepted, the center property of the
    T-block in M/T is deterministic: every point outside T has a T-point
    within its mparam-neighbor radius.

    Returns (T as sorted list, QuotientSpace M/T, attempts).
    """
    if not (0 < eps < 1):
        raise ParameterError("eps must be in (0, 1)")
    n = m.n
    if n < 2:
        raise ParameterError("need n >= 2")
    rng = as_seed(seed).rng()
    rho = _center_radii(m.dist, m_center_size(eps))
    for attempt in range(1, RESAMPLE_CAP + 1):
        S = rng.random(n) < eps / 2.0
        T = S.copy()
        if rho is not None:
            # points whose mparam-ball misses S join T (all of them when S is empty)
            T |= m.dist[:, S].min(axis=1, initial=np.inf) > rho
        size = int(T.sum())
        if 0 < size <= eps * n + 1e-12:
            Tl = [int(i) for i in np.flatnonzero(T)]
            return Tl, quotient_by_subset(m, Tl), attempt
    raise ProbabilisticFailureError(f"no sample with |T| <= {eps * n:.3g} in {RESAMPLE_CAP} attempts")


def _pair_order(dist: np.ndarray) -> np.ndarray:
    """np.argsort(-dist, axis=None, kind="stable") without the second entry of
    each pair {i, j}: a pair keeps its larger entry, d[i, j] (i <= j) on a tie.

    Two sorts of the N(N+1)/2 kept values: numpy's default (SIMD) argsort of
    the negated values, which may shuffle equal values, then one plain int64
    sort of run * N^2 + flat index, where run numbers the runs of equal
    values.  Exact for any finite matrix, ties, +-0.0 and asymmetry included.
    """
    n, size = dist.shape[0], dist.size
    upper = ~np.tri(n, k=-1, dtype=bool)  # i <= j
    flat, vals, lower = np.flatnonzero(upper), dist[upper], dist.T[upper]
    swap = np.flatnonzero(lower > vals)
    flat[swap] = flat[swap] % n * n + flat[swap] // n  # the entry j * n + i
    vals = -np.maximum(vals, lower, out=vals)
    del upper, lower, swap
    order = np.argsort(vals)
    vals = vals[order]
    key = np.empty(vals.size, np.int64)
    key[:1] = 0
    np.cumsum(vals[1:] != vals[:-1], out=key[1:])
    del vals
    key *= size
    key += flat[order]
    del order, flat
    key.sort()
    return np.remainder(key, size, out=key)


_BATCH = 32  # chain steps taken per speculative batch, before one recount


def _cut(dist: np.ndarray, X: np.ndarray, x: int, ai: int, bi: int, mparam: int) -> tuple[float, np.ndarray]:
    """Split X, with center x and farthest pair (ai, bi), at its first empty band.

    Returns (diam, the mask of the inside side).  a is ai unless
    d(x, ai) < diam/2; band k is [(k-1)*width, k*width) around a, with edges
    the products i*width, and an empty band k = i+1 (0 < i < mparam) means a
    clean cut at i*width.  Each cut bins X's distances to a with one binary
    search over those edges.
    """
    delta = float(dist[ai, bi])
    if delta <= 0:
        raise StructuralError(f"points {X.tolist()} are all at distance 0; an HST needs positive distances")
    a = ai if dist[x, ai] >= delta / 2.0 else bi
    edges = np.arange(mparam + 1.0) * (delta / (2.0 * mparam))
    da = dist[a, X]
    bands = np.bincount(np.searchsorted(edges, da, side="right"), minlength=mparam + 2)[2 : mparam + 1]
    i = int(bands.argmin())  # the first empty band, if any is empty
    if bands[i]:
        raise ConstructionFailureError(
            "no empty band found; center property violated numerically",
            {"X": X.tolist(), "mparam": mparam},
        )
    return delta, da < edges[i + 1]


def _lone_peel(dist: np.ndarray, alive: np.ndarray, x: int, ai: int, bi: int, mparam: int) -> np.ndarray | None:
    """[a] when _cut of the alive set would peel a alone, else None: that is when
    d(a, a) < width = edges[1] and every other alive z has d(a, z) >= edges[2]."""
    delta = dist[ai, bi]
    a = ai if dist[x, ai] >= delta / 2.0 else bi
    width = delta / (2.0 * mparam)
    alone = delta > 0 and dist[a, a] < width and np.count_nonzero(alive & (dist[a] < 2.0 * width)) == 1
    return np.array([a]) if alone else None


class _PeelChain:
    """The splits of one chain of outside sides, computed in batches of peels.

    Over the original indices: `alive` marks the chain's current set X;
    rho[y] is the need-th smallest alive distance in row y and cnt[y] the
    number of alive z with d(y, z) <= rho[y]; viol[y] counts the alive z with
    d(y, z) > rho[z], so the m-centers are exactly the alive y with
    viol[y] = 0.  `pairs` lists the pairs by decreasing distance, row-major
    among ties (as np.argmax breaks them; see _pair_order); the farthest
    alive pair is the first with both points alive, at a position that only
    moves forward.  `distT` is the C-contiguous transpose, so the columns of
    the peeled points are read as rows (dead rows are updated, never read).
    step() hands out the splits in order; `queue` holds those computed ahead.
    """

    def __init__(self, dist: np.ndarray, X: np.ndarray, need: int):
        n = dist.shape[0]
        self.dist, self.need, self.pos = dist, need, 0
        self.queue = deque()
        self.alive = np.zeros(n, dtype=bool)
        self.alive[X] = True
        sub = submatrix(dist, X)
        self.rho, self.cnt, self.viol = np.zeros(n), np.zeros(n, np.int64), np.zeros(n, np.int64)
        self.rho[X] = np.partition(sub, need - 1, axis=1)[:, need - 1]
        self.cnt[X] = np.count_nonzero(sub <= self.rho[X][:, None], axis=1)
        self.viol[X] = np.count_nonzero(sub > self.rho[X][None, :], axis=1)
        del sub  # before the sort's temporaries, which set the peak here
        self.pairs = _pair_order(dist)
        self.distT = np.ascontiguousarray(dist.T)

    def center(self) -> int | None:
        """Lowest-index m-center of the alive set (find_m_center's answer), or None."""
        ok = self.alive & (self.viol == 0)
        x = int(ok.argmax())
        return x if ok[x] else None

    def farthest(self) -> tuple[int, int]:
        """The alive pair np.argmax picks on the alive submatrix."""
        alive, n, step = self.alive, self.alive.size, 256
        while True:
            chunk = self.pairs[self.pos : self.pos + step]
            a, b = np.divmod(chunk, n)
            hit = alive[a] & alive[b]
            if hit.any():
                self.pos += int(hit.argmax())
                return divmod(int(self.pairs[self.pos]), n)
            self.pos += chunk.size
            step *= 4

    def recount(self, R: np.ndarray):
        """Mark the points R dead and bring rho, cnt and viol up to date, for
        any R that leaves at least `need` points alive."""
        need, dT, rho = self.need, self.distT, self.rho
        self.alive[R] = False
        self.cnt -= (dT[R] <= rho).sum(axis=0)
        # rho[y] only changes once fewer than need alive points lie within it
        U = np.flatnonzero(self.alive & (self.cnt < need))
        rows = self.dist[U][:, self.alive]
        new = np.partition(rows, need - 1, axis=1)[:, need - 1]
        self.cnt[U] = (rows <= new[:, None]).sum(axis=1)
        # column z stops counting in viol[y] once rho[z] >= d(y, z); a dead z has rho = inf
        C = np.concatenate([R, U])
        dC, old = dT[C], rho[C][:, None]
        rho[R], rho[U] = np.inf, new
        self.viol -= ((dC > old) & (dC <= rho[C][:, None])).sum(axis=0)

    def holds(self, x: int, R: np.ndarray) -> bool:
        """Whether x was the lowest center at every step that peeled R (see batch)."""
        return self.center() == x and bool(np.all(self.viol[R[R < x]] > 0))

    def state(self) -> list:
        return [v.copy() for v in (self.alive, self.rho, self.cnt, self.viol)]

    def step(self) -> tuple[float, np.ndarray, np.ndarray | None]:
        """(diam, inside side, outside side or None for the chain) of the next
        set's split; an error found ahead is raised when its set is reached."""
        if not self.queue:
            self.batch()
        got = self.queue.popleft()
        if isinstance(got, Exception):
            raise got
        return got

    def batch(self):
        """Queue up to _BATCH splits, taken with the current center x held fixed.

        Only `alive` follows the peels; one recount of all of them then
        checks the batch: center() must still be x and every peeled y < x
        must still have viol[y] > 0.  That is exact (for any matrix): a
        center of X stays a center of every subset holding it, so x, alive to
        the end, is the lowest center at every step where no lower y is one;
        viol never increases as points go, so a lower y that is a center at
        some step either survives (then center() < x) or is peeled later (then
        viol[y] = 0).  So the check, once failed, fails for longer prefixes.
        """
        x = self.center()
        if x is None:
            X = np.flatnonzero(self.alive)
            raise NoMCenterError(
                f"no {self.need}-center exists" if X.size == self.alive.size
                else f"splitting lost the center property on {X.tolist()}"
            )
        dist, alive, need = self.dist, self.alive, self.need
        saved, steps, peels, size = self.state(), [], [], np.count_nonzero(self.alive)
        while len(steps) < _BATCH:
            ai, bi = self.farthest()
            delta, peel = float(dist[ai, bi]), _lone_peel(dist, alive, x, ai, bi, need)
            if peel is None:
                X = np.flatnonzero(alive)
                try:
                    peel = X[_cut(dist, X, x, ai, bi, need)[1]]
                except (StructuralError, ConstructionFailureError) as exc:
                    steps.append((self.pos, exc))
                    break
            size -= peel.size
            if size < need:  # the chain ends with this cut
                steps.append((self.pos, (delta, peel, np.setdiff1d(np.flatnonzero(alive), peel))))
                break
            steps.append((self.pos, (delta, peel, None)))
            alive[peel] = False
            peels.append(peel)
        if peels:
            R = np.concatenate(peels)
            self.recount(R)
            if not self.holds(x, R):
                steps = steps[: self.forward(x, saved, peels) + 1]
                self.pos = steps[-1][0]
        self.queue.extend(got for _, got in steps)

    def forward(self, x: int, saved: list, peels: list) -> int:
        """The largest k whose first k peels pass holds(), once all of them fail
        it, by a bisection with one recount per probe from the last state that
        passed (`saved`); leaves the state after the first k + 1 peels."""
        lo, hi, passed = 0, len(peels), False  # holds at lo, fails at hi
        while hi - lo > 1:
            if not passed:
                self.alive, self.rho, self.cnt, self.viol = (v.copy() for v in saved)
            mid = (lo + hi) // 2
            self.recount(np.concatenate(peels[lo:mid]))
            passed = self.holds(x, np.concatenate(peels[:mid]))
            if passed:
                lo, saved = mid, self.state()
            else:
                hi = mid
        if passed:
            self.recount(peels[lo])
        return lo


def hst_from_m_centered(m: MetricSpace, mparam: int) -> tuple[HstTree, DistortionReport]:
    """Non-contracting ultrametric approximation of an m-centered space.

    Top-down splitting: take the lowest-index center x, the first farthest
    pair (a, b) in row-major order, with a swapped for b unless
    d(x, a) >= diam/2, slice the open half-diameter ball around a into
    mparam bands of width diam/(2*mparam), cut at an empty band, and split
    the two sides the same way under a root labelled diam.  Root label = diam
    exactly; the leaf metric dominates d and exceeds it by a factor of at
    most 2*mparam.

    Peeling chain.  Let X have |X| >= need = mparam points and an m-center x.
    The inside side is a ball around a of radius < diam/2 <= d(x, a).  With
    need or more points it would hold the ball of radius rho(a) around a,
    which must contain x; so |inside| < need, and x stays an m-center of the
    outside side.  Hence the sets with >= need points form one chain of
    outside sides from the root, and every other set has < need points, so
    its center condition is vacuous and x = its first point.  The chain's
    centers and farthest pairs come from one _PeelChain, which updates only
    the rows a peeled point touches: O(N^2 log N) in all against Theta(N^3)
    for rescanning every set.  The log factor is the one ordering of the
    N(N+1)/2 pairs (_pair_order: a SIMD argsort, then an exact int64 pass
    that puts ties back in row-major order).  Nearly all peels take one
    point, which _lone_peel tells from one row.

    Batches.  A center of X stays a center of every subset that holds it, so
    along the chain the lowest center x changes only when a lower point
    becomes a center (or x is peeled, if rounding broke the lemma).  The
    chain takes up to 32 peels with x held fixed, then updates its counts
    once for all of them and checks that x is still the lowest center and
    that no lower point became one meanwhile (see _PeelChain.batch; exact,
    as viol never increases); on failure, one batch in three to six on cloud
    quotients, a bisection keeps the longest prefix that passes.  The build
    without the distortion report takes 16 / 27 / 51 ms at N = 244 / 356 /
    542 (2-vCPU host).

    Small sets are split from their own submatrix.  The trees, and the errors
    and their order, are those of the dense splitter; an error found ahead
    in a batch is raised when the build reaches its set.
    """
    if int(mparam) != mparam or mparam < 2:
        raise ParameterError("mparam must be an integer >= 2")
    mparam = int(mparam)

    def split(item):
        # an item is the chain (its next set) or the index array of a set
        if isinstance(item, _PeelChain):
            chain = item
        elif item.size == 1:
            return int(item[0])
        elif item.size >= mparam:  # the root; or a large inside side, if rounding broke the lemma
            chain = _PeelChain(m.dist, item, mparam)
        else:
            X = item
            ai, bi = divmod(int(np.argmax(submatrix(m.dist, X))), X.size)
            delta, inside = _cut(m.dist, X, int(X[0]), int(X[ai]), int(X[bi]), mparam)
            return delta, (X[inside], X[~inside])
        delta, inside, rest = chain.step()
        return delta, (inside, chain if rest is None else rest)

    t = hst_from_splits(np.arange(m.n), split)
    report = distortion_between(m, hst_to_metric(t))
    return t, report


# ---------------------------------------------------------------------------
# Nearest-neighbor-preserving sets
# ---------------------------------------------------------------------------


def ts_sets(m: MetricSpace, seed=None) -> tuple[list[int], list[int], int]:
    """Random S and the set T of outside points whose nearest neighbor is in S.

    Each point joins S with probability 1/2; T = {x not in S : d(x, S) = r(x)}.
    Resampled until |T| >= n/4 (the expectation).  For every x in T and any W
    with S <= W <= M - {x}, d(x, W) = r(x); collapsing any such W therefore
    leaves x's distances in [r(x), 2 r(x)]-controlled form.

    Returns (S, T, attempts).
    """
    n = m.n
    if n < 2:
        raise ParameterError("need n >= 2")
    rng = as_seed(seed).rng()
    r = nearest_radii(m)
    for attempt in range(1, RESAMPLE_CAP + 1):
        mask = rng.random(n) < 0.5
        S = np.flatnonzero(mask)
        if S.size == 0 or S.size == n:
            continue
        dS = m.dist[:, S].min(axis=1)
        T = np.flatnonzero(~mask & (dS == r))
        if T.size >= n / 4.0:
            return [int(i) for i in S], [int(i) for i in T], attempt
    raise ProbabilisticFailureError(f"no sample with |T| >= {n / 4:.3g} in {RESAMPLE_CAP} attempts")


# ---------------------------------------------------------------------------
# Coloring partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoringResult:
    """Blocks whose pairwise minimum cross color is exactly ell, with witnesses."""

    blocks: tuple[tuple[int, ...], ...]
    ell: int

    @property
    def s(self) -> int:
        return len(self.blocks)


def check_coloring_result(chi: np.ndarray, res: ColoringResult) -> bool:
    """Exhaustively verify both invariants of a ColoringResult.

    For every pair of blocks: the minimum color over cross pairs equals ell
    (a (min, min) block_reduce of chi), and every point of either block sees a
    point of the other in color ell (an (or, and) block_reduce of chi == ell).
    """
    chi = np.asarray(chi)
    off = ~np.eye(res.s, dtype=bool)
    cross_min = block_reduce(chi, res.blocks, np.minimum)
    witnessed = block_reduce(chi == res.ell, res.blocks, np.logical_or, np.logical_and)
    return bool(np.all(cross_min[off] == res.ell) and np.all(witnessed[off]))


def _pair_fallback(V: list[int], is_cmin: np.ndarray, cmin: int) -> ColoringResult:
    """Two singleton blocks on the lexicographically first min-color pair."""
    ai, bi = divmod(int(np.argmax(is_cmin)), len(V))  # symmetric, False diagonal: ai < bi
    return ColoringResult(((V[ai],), (V[bi],)), cmin)


def coloring_partition(n: int, chi, seed=None, kcolors: int | None = None) -> ColoringResult:
    """Disjoint blocks whose cross pairs have minimum color ell, with witnesses.

    chi is a symmetric n x n integer array of pair colors (diagonal ignored).
    Recursion: let c be the smallest color present.  If color-c pairs are dense,
    take the vertices with many color-c neighbors and split them uniformly at
    random into s groups, resampling until every point of every group has a
    color-c neighbor in every other group.  Otherwise greedily color the
    low-degree vertices of the color-c graph and recurse on the largest color
    class with one fewer color.  Tiny instances fall back to a single
    min-color pair as two singleton blocks.

    Each level makes a few array passes over its own submatrix of chi: its
    min with the diagonal set off-diagonal is c, the mask sub == c gives the
    degrees and the one-color test, and one np.nonzero the neighbor lists.
    """
    chi = np.asarray(chi)
    if chi.shape != (n, n):
        raise StructuralError("chi must be an n x n array")
    if n < 2:
        raise ParameterError("need n >= 2")
    if not np.array_equal(chi, chi.T):
        raise StructuralError("chi must be symmetric")
    rng = as_seed(seed).rng()
    if kcolors is None:
        iu, ju = np.triu_indices(n, k=1)
        kcolors = len(np.unique(chi[iu, ju]))

    def solve(V: list[int], sub: np.ndarray, krem: int) -> ColoringResult:
        nv = len(V)
        np.fill_diagonal(sub, sub[0, 1])  # sub is this level's own copy
        cmin = int(sub.min())
        is_cmin = sub == cmin
        np.fill_diagonal(is_cmin, False)
        deg = np.count_nonzero(is_cmin, axis=1)
        mcount = int(deg.sum())  # ordered color-cmin pair count
        if mcount == nv * (nv - 1):
            return ColoringResult(tuple((v,) for v in V), cmin)
        if krem <= 1:
            return _pair_fallback(V, is_cmin, cmin)
        thresh = nv ** (1.0 / krem)
        if mcount >= nv ** (1.0 + 1.0 / krem) / 2.0:
            C = np.flatnonzero(deg >= thresh / 4.0)
            s = int(thresh / (8.0 * math.log(nv))) if nv > 1 else 0
            s = min(s, C.size)
            if s < 2:
                return _pair_fallback(V, is_cmin, cmin)
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
        nbrs = np.nonzero(is_cmin[D])[1].tolist()  # row by row, so deg[D] splits it
        color = [-1] * nv
        start = 0
        for v, end in zip(D.tolist(), np.cumsum(deg[D]).tolist()):
            used = {color[u] for u in nbrs[start:end]}
            start = end
            c = 0
            while c in used:
                c += 1
            color[v] = min(c, palette - 1)  # c < palette when degrees < palette; guard anyway
        colD = np.array(color)[D]
        keep = D[colD == int(np.argmax(np.bincount(colD, minlength=palette)))]
        if keep.size < 2:
            return _pair_fallback(V, is_cmin, cmin)
        return solve([V[i] for i in keep.tolist()], submatrix(sub, keep), krem - 1)

    res = solve(list(range(n)), chi.copy(), max(1, int(kcolors)))
    if not check_coloring_result(chi, res):
        raise ConstructionFailureError("coloring invariants failed post-check", {"result": res})
    return res


def weighted_coloring_partition(
    n: int, chi, w, seed=None, kcolors: int | None = None
) -> tuple[ColoringResult, float, bool]:
    """Coloring partition that also keeps a large weight mass.

    Dichotomy: either two heavy points (sqrt-weights summing to at least
    sqrt(total)) as singleton blocks, or the best level set A = {i : w_i >= t}
    maximizing |A| * sqrt(t), fed to coloring_partition.  Returns
    (result, sigma, check) where sigma = 1/(8 k ln(k+1)) and check is whether
    sum_i w_max(A_i)^sigma >= total^sigma.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,) or np.any(w < 0):
        raise StructuralError("w must be n nonnegative weights")
    chi = np.asarray(chi)
    seed = as_seed(seed)
    iu, ju = np.triu_indices(n, k=1)
    k = kcolors if kcolors is not None else len(np.unique(chi[iu, ju]))
    k = max(1, int(k))
    sigma = 1.0 / (8.0 * k * math.log(k + 1.0))
    total = float(w.sum())

    def sigma_sum(res: ColoringResult) -> float:
        return float(sum(w[list(b)].max() ** sigma for b in res.blocks))

    def level_set(A: list[int]) -> ColoringResult:
        """coloring_partition on the points A, in original indices."""
        sub = coloring_partition(len(A), submatrix(chi, A), seed.child(0), kcolors=k)
        return ColoringResult(tuple(tuple(A[i] for i in blk) for blk in sub.blocks), sub.ell)

    candidates: list[ColoringResult] = []
    # heavy-pair branch
    order = np.argsort(-w, kind="stable")
    hi, hj = int(order[0]), int(order[1])
    if math.sqrt(w[hi]) + math.sqrt(w[hj]) >= math.sqrt(total) - 1e-12:
        a, b = min(hi, hj), max(hi, hj)
        candidates.append(ColoringResult(((a,), (b,)), int(chi[a, b])))
    # level-set branch
    levels = np.unique(w[w > 0])
    best_t, best_score = None, -1.0
    for t in levels:
        A = np.flatnonzero(w >= t)
        score = A.size * math.sqrt(t)
        if A.size >= 2 and score > best_score:
            best_t, best_score = float(t), score
    if best_t is not None and best_score >= math.sqrt(total) - 1e-12:
        try:
            candidates.append(level_set([int(i) for i in np.flatnonzero(w >= best_t)]))
        except ProbabilisticFailureError:
            if not candidates:
                raise
    if not candidates:
        # neither inequality triggered numerically; run the level set anyway
        A = [int(i) for i in np.flatnonzero(w >= (best_t if best_t is not None else 0.0))]
        if len(A) < 2:
            A = sorted(set([hi, hj]))
        candidates.append(level_set(A))
    best = max(candidates, key=sigma_sum)
    check = sigma_sum(best) >= total**sigma - 1e-9
    return best, sigma, check


# ---------------------------------------------------------------------------
# Aspect-ratio quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AspectQuotientResult:
    quotient: QuotientSpace
    report: DistortionReport  # vs equilateral at the lower band edge
    ell: int
    band: tuple[float, float]  # cross distances live in [band[0], band[1]]
    bucket_count: int


def _distance_buckets(m: MetricSpace, alpha: float) -> tuple[np.ndarray, int, float]:
    """Color every pair by the power-of-alpha band its distance falls in, in one n x n buffer."""
    mind = m.min_distance()
    phi = aspect_ratio(m)
    k = 1 if phi <= 1.0 + 1e-12 else int(math.log(phi) / math.log(alpha)) + 1
    buf = m.dist / mind
    np.fill_diagonal(buf, 1.0)  # the diagonal becomes 0 below; 1 keeps its log finite
    np.log(buf, out=buf)
    buf /= math.log(alpha)
    buf += 1e-12
    chi = np.floor(buf, out=buf).astype(int)
    chi += 1
    np.clip(chi, 1, k, out=chi)
    np.fill_diagonal(chi, 0)
    return chi, k, mind


def aspect_quotient(
    m: MetricSpace, alpha: float, lipschitz: bool = False, seed=None, weights=None
) -> AspectQuotientResult:
    """Quotient blocks whose cross distances all sit in one power-of-alpha band.

    Pairs are colored by distance scale, a coloring partition picks blocks with
    minimum cross color ell, and the induced quotient is alpha-equivalent to an
    equilateral space.  With lipschitz=True the block collapse must also be an
    alpha-Lipschitz quotient, lip * colip <= alpha (quotient.lip_colip, within
    the claim_slack verify allows); with weights, the weighted coloring is used.
    """
    if not (1.0 < alpha <= 2.0):
        raise ParameterError("alpha must be in (1, 2]")
    if m.n < 2:
        raise ParameterError("need n >= 2")
    seed = as_seed(seed)
    chi, k, mind = _distance_buckets(m, alpha)
    if weights is None:
        col = coloring_partition(m.n, chi, seed.child(0), kcolors=k)
    else:
        col, _, _ = weighted_coloring_partition(m.n, chi, weights, seed.child(0), kcolors=k)
    q = quotient_metric(m, col.blocks)
    lo = mind * alpha ** (col.ell - 1)
    hi = mind * alpha**col.ell
    cross = q.metric.dist[np.triu_indices(q.metric.n, k=1)]
    if cross.size and (cross.min() < lo - 1e-9 or cross.max() > hi + 1e-9):
        raise ConstructionFailureError(
            "cross distances escaped the color band",
            {"lo": lo, "hi": hi, "min": float(cross.min()), "max": float(cross.max())},
        )
    if lipschitz:  # the check verify makes, with its tolerance
        lip, colip = lip_colip(m, q.blocks, q.metric)
        if lip * colip - alpha > claim_slack(alpha):
            raise ConstructionFailureError(
                "the block collapse is not an alpha-Lipschitz quotient",
                {"lip": lip, "colip": colip, "alpha": alpha},
            )
    model = realize_special(Equilateral(col.s, lo)) if col.s >= 2 else MetricSpace(np.zeros((1, 1)))
    report = distortion_between(q.metric, model)
    return AspectQuotientResult(q, report, col.ell, (lo, hi), k)


# ---------------------------------------------------------------------------
# Star quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarQuotientResult:
    quotient: QuotientSpace  # block 0 is the root (complement) block
    tau: float
    report: DistortionReport  # vs the scaled star model
    attempts: int


def find_star_quotient(
    m: MetricSpace, a: float, b: float, alpha: float, seed=None, ts=None
) -> StarQuotientResult:
    """Quotient alpha-equivalent to a star, sourced from one nearest-radius band.

    Takes the nearest-neighbor-preserving set T, restricts to the band
    [a, b) of nearest radii, colors pairs by the scale of
    min{d(x,y), r(x)+r(y)}, and collapses everything else into a root block.
    Leaf blocks sit at distance [a, b) from the root and within one scale band
    of each other, which is exactly a star up to factor alpha.
    """
    if not (0 < a < b < 2 * a):
        raise ParameterError("need 0 < a < b < 2a")
    if not (b / a - 1e-12 <= alpha <= 2 * b / a + 1e-12):
        raise ParameterError("need b/a <= alpha <= 2b/a")
    seed = as_seed(seed)
    if ts is None:
        S, T, attempts = ts_sets(m, seed.child(0))
    else:
        S, T = ts
        attempts = 0
    r = nearest_radii(m)
    N = [x for x in T if a <= r[x] < b]
    if len(N) < 2:
        raise InsufficientBandError(f"band [{a}, {b}) of T has {len(N)} < 2 points")
    kbuck = int(math.ceil(math.log(2 * b / a) / math.log(alpha))) - 1
    if kbuck > 64:
        raise CapacityError(f"bucket count {kbuck} exceeds cap 64 (alpha too close to b/a)")
    kbuck = max(kbuck, 0)
    nn = len(N)
    val = np.minimum(submatrix(m.dist, N), r[N][:, None] + r[N][None, :])
    with np.errstate(divide="ignore"):
        c = np.ceil(np.log(2 * b / np.maximum(val, 1e-300)) / math.log(alpha) - 1e-12) - 1
    c = np.clip(c, 0, kbuck).astype(int)
    np.fill_diagonal(c, -1)
    col = coloring_partition(nn, c + 1, seed.child(1), kcolors=kbuck + 1)
    ell0 = col.ell - 1
    leaf_blocks = tuple(tuple(N[i] for i in blk) for blk in col.blocks)
    covered = set(x for blk in leaf_blocks for x in blk)
    root = tuple(x for x in range(m.n) if x not in covered)
    q = quotient_metric(m, (root,) + leaf_blocks)
    tau = 2 * b / (a * alpha ** (ell0 + 1))
    model = realize_special(Star(col.s, tau))
    scaled = MetricSpace(model.dist * a)
    report = distortion_between(q.metric, scaled)
    # root-to-leaf distances must sit in [a, b)
    d_root = q.metric.dist[0, 1:]
    if d_root.size and (d_root.min() < a - 1e-9 or d_root.max() >= b + 1e-9):
        raise ConstructionFailureError(
            "root-leaf quotient distances escaped [a, b)",
            {"a": a, "b": b, "min": float(d_root.min()), "max": float(d_root.max())},
        )
    return StarQuotientResult(q, tau, report, attempts)


# ---------------------------------------------------------------------------
# Dichotomy and distortion-2 quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QDichotomyResult:
    branch: str  # "lacunary" | "star"
    quotient: QuotientSpace
    report: DistortionReport
    model: object  # Lacunary | Star | Equilateral (after drop_root)


def q_dichotomy(
    m: MetricSpace,
    k: float,
    beta: float,
    alpha: float,
    seed=None,
    drop_root: bool = False,
) -> QDichotomyResult:
    """Quotient alpha-equivalent to a k-lacunary space or to a star.

    Nearest radii of the kept set T are grouped into geometric classes of
    ratio alpha/beta.  Either representatives of well-separated classes give a
    lacunary quotient (collapse everything else), or one large class feeds the
    star construction.  Returns the branch with the larger certified quotient.
    With drop_root=True a star result has its root deleted, leaving an SQ
    space equivalent to an equilateral.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if not (1 < beta <= 2):
        raise ParameterError("beta must be in (1, 2]")
    if not (beta < alpha < 2 * beta):
        raise ParameterError("alpha must be in (beta, 2*beta)")
    seed = as_seed(seed)
    S, T, _ = ts_sets(m, seed.child(0))
    rho = alpha / beta
    r = nearest_radii(m)
    expo = np.floor(np.log(r) / math.log(rho) + 1e-12).astype(int)
    classes: dict[int, list[int]] = {}
    for x in T:
        classes.setdefault(int(expo[x]), []).append(x)
    inner = max(math.log(k), math.log(1.0 / (beta - 1.0)) if beta < 2 else 0.0)
    mm = max(1, int(math.ceil(inner / math.log(rho) - 1e-12)))
    by_residue: dict[int, int] = {}
    for i, pts in classes.items():
        by_residue[i % mm] = by_residue.get(i % mm, 0) + len(pts)
    qres = min(j for j in by_residue if by_residue[j] == max(by_residue.values()))
    exps = sorted((i for i in classes if i % mm == qres), reverse=True)

    # lacunary branch: one representative per selected class, collapse the rest
    reps = [min(classes[i]) for i in exps]
    kept = set(reps)
    blocks = tuple((v,) for v in reps) + (tuple(x for x in range(m.n) if x not in kept),)
    lac_q = quotient_metric(m, blocks) if len(blocks[-1]) else quotient_metric(m, blocks[:-1])
    avals = tuple(rho**i for i in exps)
    lac_model = Lacunary(avals, k)
    lac_report = distortion_between(lac_q.metric, realize_special(lac_model))

    # star branch: largest selected class, band [rho^i, rho^(i+1))
    star_res = None
    if exps:
        sizes = {i: len(classes[i]) for i in exps}
        ibest = min(i for i in exps if sizes[i] == max(sizes.values()))
        a_band, b_band = rho**ibest, rho ** (ibest + 1)
        try:
            star_res = find_star_quotient(m, a_band, b_band, alpha, seed.child(1), ts=(S, T))
        except (InsufficientBandError, ProbabilisticFailureError, ConstructionFailureError):
            star_res = None

    if star_res is not None and star_res.quotient.metric.n > lac_q.metric.n:
        s = star_res.quotient.metric.n - 1
        if drop_root:
            sq = sq_space(star_res.quotient, list(range(1, s + 1)))
            model = Equilateral(s, star_res.tau)
            report = distortion_between(sq.metric, realize_special(model))
            return QDichotomyResult("star", sq, report, model)
        return QDichotomyResult("star", star_res.quotient, star_res.report, Star(s, star_res.tau))
    return QDichotomyResult("lacunary", lac_q, lac_report, lac_model)


def q2_lacunary(m: MetricSpace, seed=None):
    """Large quotient 2-equivalent to a 1-lacunary space.

    Collapse the complement of the nearest-neighbor-preserving set T; each
    kept point's distances are pinned between r(x) and 2 r(x), which is a
    lacunary space up to factor 2.  Blocks ordered by decreasing nearest
    radius, collapsed complement last.

    Returns (QuotientSpace, DistortionReport, Lacunary model, attempts).
    """
    S, T, attempts = ts_sets(m, seed)
    r = nearest_radii(m)
    ordered = sorted(T, key=lambda x: (-r[x], x))
    kept = set(T)
    A = tuple(x for x in range(m.n) if x not in kept)
    blocks = tuple((x,) for x in ordered) + (A,)
    q = quotient_metric(m, blocks)
    model = Lacunary(tuple(float(r[x]) for x in ordered), 1.0)
    report = distortion_between(q.metric, realize_special(model))
    return q, report, model, attempts


# ---------------------------------------------------------------------------
# Composition quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionQsResult:
    quotient: QuotientSpace
    hst: HstTree
    report: DistortionReport  # quotient vs glued HST leaf metric
    sigma: float
    sigma_ok: bool
    alpha_bound: float  # composition_bound(beta_min, alpha)


def composition_bound(beta: float, alpha: float) -> float:
    """(1 + 1/beta) alpha: how far composition_qs's HST of a tree whose least beta is beta exceeds its quotient."""
    return (1.0 + 1.0 / beta) * alpha


def composition_qs(
    tree: CompositionTree,
    k: float,
    alpha: float,
    seed=None,
) -> CompositionQsResult:
    """Large QS space of a composed metric, close to a k-HST; every point weighs 1.

    Structural induction over the composition tree: each node's outer metric
    gets a weighted aspect-ratio quotient; inside every outer block the child
    of the heaviest point is recursed into, and the block's other children are
    left out of the subspace.  No `composition` instance has such a child:
    its outer spaces have 2-4 points, and the colouring gives a block of more
    than one point only from its dense split, whose group count is 0 below
    about 2.7e4 points.  The glued HST rescales each node's star by
    (beta + 1) * gamma, which dominates the quotient distances and exceeds
    them by at most (1 + 1/beta) * alpha.
    """
    if not (1.0 < alpha <= 2.0):
        raise ParameterError("alpha must be in (1, 2]")
    seed = as_seed(seed)
    real = realize_composition(tree)

    def betas(t: CompositionTree) -> list[float]:
        return [t.beta] + [b for c in t.children if isinstance(c, CompositionTree) for b in betas(c)]

    bmin = min(betas(tree))
    if bmin < alpha * k - 1e-12:
        raise ParameterError(f"beta = {bmin} < alpha*k = {alpha * k} at some node")

    seeds = (seed.child(i) for i in itertools.count(1))

    def base_case(msub: MetricSpace, w: np.ndarray):
        """Weighted aspect quotient of a leaf/outer space, as (blocks, hst, sigma)."""
        if msub.n == 1:
            return ((0,),), leaf(0), 1.0
        if aspect_ratio(msub) > 4.0 + 1e-9:
            raise ParameterError("leaf/outer spaces must have aspect ratio <= 4")
        res = aspect_quotient(msub, alpha, seed=next(seeds), weights=w)
        s = len(res.quotient.blocks)
        delta = float(res.quotient.metric.dist.max())
        tree_h = leaf(0) if s == 1 else join(delta, [leaf(i) for i in range(s)])
        kb = res.bucket_count
        sigma = 1.0 / (8.0 * kb * math.log(kb + 1.0))
        return res.quotient.blocks, tree_h, sigma

    def rec(node: CompositionRealization, w: np.ndarray):
        """Returns (blocks in node-local indices, hst with leaf ids = block slots, sigma)."""
        if node.is_leaf:
            return base_case(node.metric, w)
        outer = node.tree.outer
        spans = [list(range(lo, lo + c.metric.n)) for lo, c in zip(node.offsets, node.children)]
        w_outer = np.array([w[span].sum() for span in spans])
        u_blocks, _, sigma_m = base_case(outer, w_outer)
        label_scale = (node.tree.beta + 1.0) / node.tree.beta * node.cross_multiplier

        all_blocks: list[tuple[int, ...]] = []
        subtrees: list[HstTree] = []
        sigma = sigma_m
        for ublk in u_blocks:
            zi = ublk[int(np.argmax(w_outer[list(ublk)]))]
            sub_blocks, sub_hst, sub_sigma = rec(node.children[zi], w[spans[zi]])
            sigma = min(sigma, sub_sigma)
            off = node.offsets[zi]
            all_blocks.extend(tuple(off + i for i in blk) for blk in sub_blocks)
            subtrees.append(sub_hst)
        if len(subtrees) == 1:
            glued = subtrees[0]
        else:
            # outer star label: dominate every cross-block quotient distance
            delta_m = float(quotient_metric(outer, u_blocks).metric.dist.max()) * label_scale
            glued = join(delta_m, subtrees, renumber=True)
        return tuple(all_blocks), glued, sigma

    blocks, glued, sigma = rec(real, np.ones(real.metric.n))
    q = quotient_metric(real.metric, blocks)
    vr = validate_khst(glued, k)
    if not vr.ok:
        raise ConstructionFailureError("glued tree is not a k-HST", {"violations": vr.violations})
    report = distortion_between(q.metric, hst_to_metric(glued))
    # every point weighs 1, so each block's heaviest point adds 1 ** sigma
    sigma_ok = bool(len(blocks) >= float(real.metric.n) ** sigma - 1e-9)
    return CompositionQsResult(q, glued, report, sigma, sigma_ok, composition_bound(bmin, alpha))
