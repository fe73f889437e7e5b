"""Quotient metrics and the exact distortion evaluator.

Collapsing a partition of a metric space induces the largest metric on the
blocks that is majorized by the original distances: the shortest-path closure
of the complete graph on blocks weighted by minimum inter-block distances.
Three provenances are tracked:

* Q  — quotient of the whole space,
* QS — restrict to a subset first, then quotient,
* SQ — quotient first, then restrict to a subset of the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import floyd_warshall

from .core import (METRIC, TOL, Doc, MetricSpace, _closure_is_identity, block_reduce, integer, list_of,
                   metric_from_fields, metric_to_json, number, one_of)
from .errors import StructuralError, UndefinedInputError


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of (a subset of) a base space's points."""

    base: MetricSpace
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in blk) for blk in self.blocks)
        seen: set[int] = set()
        for blk in blocks:
            if not blk:
                raise StructuralError("empty block in partition")
            for i in blk:
                if i < 0 or i >= self.base.n:
                    raise StructuralError(f"point index {i} out of range")
                if i in seen:
                    raise StructuralError(f"point {i} appears in two blocks")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)

    @property
    def support(self) -> list[int]:
        return sorted(i for blk in self.blocks for i in blk)

    @property
    def covers_base(self) -> bool:
        return len(self.support) == self.base.n


@dataclass(frozen=True)
class QuotientSpace:
    partition: Partition
    metric: MetricSpace
    provenance: str  # "Q" | "QS" | "SQ"

    def __post_init__(self):
        if self.provenance not in ("Q", "QS", "SQ"):
            raise StructuralError(f"unknown provenance {self.provenance!r}")
        if self.metric.n != len(self.partition.blocks):
            raise StructuralError("quotient metric size != block count")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.blocks


def quotient_metric(m: MetricSpace, blocks) -> QuotientSpace:
    """Geodesic quotient metric on the given blocks.

    Edge weights are the set distances between blocks, a (min, min)
    block_reduce of the distance matrix read off its upper triangle; the
    quotient metric is their all-pairs shortest-path closure.  The O(k^3)
    closure is skipped where core._closure_is_identity proves in O(k^2) that
    it would return the weights bit for bit: every edge is at most the sum of
    the least edges at its two ends (as in any band [lo, 2 lo]), so no detour
    is shorter, even in rounded arithmetic.  scipy reads an entry of a dense
    matrix within 1e-8 of 0 as "no edge", so weights that small go to the
    closure as a sparse matrix, whose every stored entry is an edge.  Two
    blocks at distance <= 0 raise StructuralError: a negative weight has no
    shortest paths, and the closure would read a 0 as "no edge".
    Provenance is Q when the blocks cover all points, QS otherwise (quotient
    of the induced subspace).
    """
    part = Partition(m, tuple(tuple(b) for b in blocks))
    w = np.triu(block_reduce(m.dist, part.blocks, np.minimum), 1)
    nonpos = np.argwhere(np.triu(w <= 0, 1))
    if nonpos.size:
        i, j = (int(v) for v in nonpos[0])
        raise StructuralError(f"blocks {i} and {j} are at distance {float(w[i, j])!r} <= 0")
    w += w.T
    if not _closure_is_identity(w):
        tiny = np.min(w + np.diag(np.full(w.shape[0], np.inf))) <= 1e-8
        w = floyd_warshall(csr_matrix(w) if tiny else w, directed=False)
    prov = "Q" if part.covers_base else "QS"
    return QuotientSpace(part, MetricSpace(w), prov)


def quotient_by_subset(m: MetricSpace, A) -> QuotientSpace:
    """Collapse the subset A to a single point, all others staying singletons.

    Uses the closed form d(x, y) = min{d(x, y), d(x, A) + d(y, A)} and
    d(x, A-block) = d(x, A); no shortest-path run is needed because any longer
    chain either stays direct or passes through the collapsed block once.
    Block order: singletons in increasing index, then the A-block last.
    """
    A = sorted(set(int(i) for i in A))
    if not A:
        raise StructuralError("A must be nonempty")
    if A[0] < 0 or A[-1] >= m.n:
        raise StructuralError(f"point index {A[0] if A[0] < 0 else A[-1]} out of range")
    collapsed = set(A)
    rest = [i for i in range(m.n) if i not in collapsed]
    blocks = tuple((i,) for i in rest) + (tuple(A),)
    k = len(blocks)
    dA = m.dist[:, A].min(axis=1)  # distance of every point to A
    d = np.zeros((k, k))
    if rest:
        sub = m.dist[np.ix_(rest, rest)]
        via = dA[rest][:, None] + dA[rest][None, :]
        d[: k - 1, : k - 1] = np.minimum(sub, via)
        np.fill_diagonal(d[: k - 1, : k - 1], 0.0)
        d[: k - 1, k - 1] = dA[rest]
        d[k - 1, : k - 1] = dA[rest]
    return QuotientSpace(Partition(m, blocks), MetricSpace(d), "Q")


def sq_space(q: QuotientSpace, keep) -> QuotientSpace:
    """Subspace of a quotient: keep the listed block indices, in the given order."""
    keep = list(keep)
    if not keep:
        raise UndefinedInputError("must keep at least one block")
    if any(i < 0 or i >= len(q.blocks) for i in keep):
        raise StructuralError("kept block index out of range")
    blocks = tuple(q.blocks[i] for i in keep)
    return QuotientSpace(Partition(q.partition.base, blocks), q.metric.restrict(keep), "SQ")


# ---------------------------------------------------------------------------
# Distortion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionReport:
    """Exact expansion/contraction of an injective map between finite metrics."""

    expansion: float
    contraction: float
    expansion_pair: tuple[int, int]
    contraction_pair: tuple[int, int]

    @property
    def distortion(self) -> float:
        return self.expansion * self.contraction


def distortion_between(source: MetricSpace, target: MetricSpace) -> DistortionReport:
    """Distortion of the identity map i -> i from source into target.

    expansion = max d_target/d_source, contraction = max d_source/d_target,
    both over all pairs; distortion is their product.  Sizes that differ
    raise StructuralError.
    """
    n = source.n
    if target.n != n:
        raise StructuralError(f"source has {n} points, target {target.n}")
    if n < 2:
        return DistortionReport(1.0, 1.0, (0, 0), (0, 0))

    iu, ju = np.triu_indices(n, k=1)
    s, t = source.dist[iu, ju], target.dist[iu, ju]
    if np.any(s <= 0) or np.any(t <= 0):
        raise StructuralError("distances must be positive on distinct points/images")
    ratio = t / s
    hi = int(np.argmax(ratio))
    lo = int(np.argmin(ratio))
    expansion = float(ratio[hi])
    contraction = float(1.0 / ratio[lo])
    return DistortionReport(
        expansion,
        contraction,
        (int(iu[hi]), int(ju[hi])),
        (int(iu[lo]), int(ju[lo])),
    )


def lip_colip(base: MetricSpace, blocks, target: MetricSpace) -> tuple[float, float]:
    """(lip, colip) of the map from the blocks of base onto target whose
    preimage of point y is block y; (1, 1) when the target is a point.

    lip = max d_Y(y, z) / d(B_y, B_z); colip = max H(B_y, B_z) / d_Y(y, z),
    over all target pairs.  Their product certifies the map as an
    alpha-Lipschitz quotient; with singleton blocks it is the map's
    distortion.  The blocks need not cover the base (a QS quotient).  Set
    distances are a (min, min) block_reduce over the blocks, Hausdorff
    distances max(H, H.T) of the (min, max) one.
    """
    if target.n != len(blocks):
        raise StructuralError(f"{len(blocks)} blocks, but the target has {target.n} points")
    if target.n == 1:
        return 1.0, 1.0
    iu, ju = np.triu_indices(target.n, k=1)
    sd = block_reduce(base.dist, blocks, np.minimum)[iu, ju]
    if np.any(sd <= 0):
        raise StructuralError("preimages of distinct points at distance 0")
    H = block_reduce(base.dist, blocks, np.minimum, np.maximum)
    hd = np.maximum(H, H.T)[iu, ju]
    dy = target.dist[iu, ju]
    return float((dy / sd).max()), float((hd / dy).max())


def claim_slack(claimed: float) -> float:
    """How far a recomputed distortion, or lip * colip, may stray from the
    value claimed for it: TOL, or 1e-6 relative where that is larger."""
    return max(TOL, 1e-6 * claimed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def quotient_to_json(q: QuotientSpace, base: bool = True) -> dict:
    """Base, blocks and provenance: the recipe quotient_from_fields rebuilds.
    Without its base (base=False) for an artifact whose plan gives the base.

    An SQ space whose rebuild is not its matrix bit for bit (one that dropped
    several blocks, say) raises StructuralError instead of being written.
    """
    doc = {"blocks": [list(b) for b in q.blocks], "provenance": q.provenance}
    if q.provenance == "SQ" and not np.array_equal(
            quotient_from_fields(q.partition.base, doc).metric.dist, q.metric.dist):
        raise StructuralError("this SQ space is not the one its base and blocks rebuild")
    if base:
        doc["base"] = metric_to_json(q.partition.base)
    return doc


#: a quotient's model: its `type`, which names a core dataclass (Star,
#: Lacunary, Equilateral), and the fields of that dataclass but the scale
#: `edge`, which a distortion does not depend on
MODEL = Doc("a model", type=one_of("star", "lacunary", "equilateral"), n=integer, tau=number,
            a=list_of(number), k=number, optional={"n", "tau", "a", "k"})

#: a quotient document, as quotient_to_json writes it, and the model and
#: certified distortion that a quotient pipeline's artifact adds; a bundle's
#: artifact stores no base, as its plan gives it.  `lipschitz` is the alpha
#: that lip * colip of the block collapse must not exceed (aspect --lipschitz)
QUOTIENT = Doc("a quotient", kind="quotient", base=METRIC, blocks=list_of(list_of(integer)),
               provenance=one_of("Q", "QS", "SQ"), model=MODEL, certified_distortion=number,
               lipschitz=number, optional={"base", "model", "certified_distortion", "lipschitz"})


def quotient_from_json(doc: dict) -> QuotientSpace:
    f = QUOTIENT(doc)
    if f["base"] is None:
        raise StructuralError("required base is missing")
    return quotient_from_fields(metric_from_fields(f["base"]), f)


def quotient_from_fields(base: MetricSpace, f: dict) -> QuotientSpace:
    """The quotient of base by the blocks and provenance of a read document, rebuilt by quotient_metric.

    An SQ space is restricted from the parent q_dichotomy(drop_root=True)
    builds: one block of every point outside the kept blocks, listed first
    (none when empty), then the kept blocks.  A Q or QS label that the blocks
    contradict raises StructuralError.
    """
    blocks, prov = tuple(map(tuple, f["blocks"])), f["provenance"]
    if prov != "SQ":
        q = quotient_metric(base, blocks)
        if q.provenance != prov:
            raise StructuralError(f"provenance {prov} but the blocks give {q.provenance}")
        return q
    kept = {i for b in blocks for i in b}
    rest = tuple(i for i in range(base.n) if i not in kept)
    dropped = (rest,) if rest else ()
    parent = quotient_metric(base, dropped + blocks)
    return sq_space(parent, range(len(dropped), len(parent.blocks)))
