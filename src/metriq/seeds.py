"""Reproducible randomness.

Every randomized construction takes an RngSeed = (seed, stream), drawing from
SeedSequence(seed, spawn_key=(stream,)).  A CLI run with base seed S and trials
0..T-1 uses RngSeed(S, 0), ..., RngSeed(S, T-1), each reproducible in isolation
but not always independent of the others (RngSeed.child).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngSeed:
    seed: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))

    def child(self, stream: int) -> "RngSeed":
        """Derived seed for a sub-construction.  Derivations can collide:
        RngSeed(7, 0).child(1).child(0) == RngSeed(7, 2).child(0), stream 2001
        (ROADMAP, independent seed streams)."""
        return RngSeed(self.seed, self.stream * 1000 + stream + 1)


def as_seed(seed) -> RngSeed:
    """Accept an RngSeed, a plain int, or None (fresh entropy)."""
    if isinstance(seed, RngSeed):
        return seed
    if seed is None:
        return RngSeed(int(np.random.SeedSequence().entropy % (2**63)))
    return RngSeed(int(seed))
