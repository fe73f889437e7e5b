"""Lipschitz / co-Lipschitz constants of finite surjections.

A surjection f between finite metric spaces is graded by two constants over
target pairs: lip compares target distances against minimum preimage
distances, colip compares Hausdorff preimage distances against target
distances.  Their product certifies f as an alpha-Lipschitz quotient; for
maps with singleton preimages it coincides with bi-Lipschitz distortion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import METRIC, Doc, MetricSpace, block_reduce, integer, list_of, metric_from_fields, metric_to_json
from .errors import StructuralError


@dataclass(frozen=True)
class QuotientMap:
    """A surjective point assignment between two finite metric spaces."""

    source: MetricSpace
    target: MetricSpace
    assign: tuple[int, ...]

    def __post_init__(self):
        assign = tuple(int(a) for a in self.assign)
        if len(assign) != self.source.n:
            raise StructuralError("assignment length != source size")
        if any(a < 0 or a >= self.target.n for a in assign):
            raise StructuralError("assignment value out of target range")
        if len(set(assign)) != self.target.n:
            raise StructuralError("assignment is not surjective")
        object.__setattr__(self, "assign", assign)

    def preimage(self, y: int) -> list[int]:
        return [i for i, a in enumerate(self.assign) if a == y]

    @property
    def degenerate(self) -> bool:
        return self.target.n == 1


def lip_colip(qm: QuotientMap) -> tuple[float, float]:
    """(lip, colip) over all target pairs; (1, 1) when the target is a point.

    lip = max d_Y(y, z) / d(f^-1(y), f^-1(z));
    colip = max H(f^-1(y), f^-1(z)) / d_Y(y, z).
    Set distances are a (min, min) block_reduce over the preimages; Hausdorff
    distances are max(H, H.T) of the (min, max) one.
    """
    if qm.degenerate:
        return 1.0, 1.0
    pre = [qm.preimage(y) for y in range(qm.target.n)]
    d = qm.source.dist
    iu, ju = np.triu_indices(qm.target.n, k=1)
    sd = block_reduce(d, pre, np.minimum)[iu, ju]
    if np.any(sd <= 0):
        raise StructuralError("preimages of distinct points at distance 0")
    H = block_reduce(d, pre, np.minimum, np.maximum)
    hd = np.maximum(H, H.T)[iu, ju]
    dy = qm.target.dist[iu, ju]
    return float((dy / sd).max()), float((hd / dy).max())


def certify_lip_quotient(qm: QuotientMap, alpha: float) -> bool:
    """True iff lip * colip <= alpha + 1e-9."""
    lip, colip = lip_colip(qm)
    return bool(lip * colip <= alpha + 1e-9)


def quotient_map_to_json(qm: QuotientMap) -> dict:
    return {
        "source": metric_to_json(qm.source),
        "target": metric_to_json(qm.target),
        "assign": list(qm.assign),
    }


#: a quotient map document, as quotient_map_to_json writes it
QUOTIENT_MAP = Doc("a quotient map", source=METRIC, target=METRIC, assign=list_of(integer))


def quotient_map_from_json(doc: dict) -> QuotientMap:
    f = QUOTIENT_MAP(doc)
    return QuotientMap(metric_from_fields(f["source"]), metric_from_fields(f["target"]), tuple(f["assign"]))
