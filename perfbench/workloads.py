"""The benchmark's three workloads: which plans each trial runs, and why.

A trial is one 1-trial `metriq run` plan with its own seed.  A workload is a
list of cells (instance variant + pipeline + sizes), each given a number of
slots in a round of ROUND_TRIALS trials.  A round visits every slot once, in
an order shuffled from the benchmark seed; a run repeats whole rounds, so
every run sees the same mix of cells and only the generated inputs change
with the seed.

Why each workload exists, and which layers it exercises or bypasses:

quotients
    Euclidean `cloud` instances (q2, dichotomy, aspect; n = 120..320) mixed
    with `gnp` graph metrics (q2, aspect; n = 120..280).  Cloud bundles
    carry n^2 17-digit floats, so `core.dumps`, `json.loads` and
    `metric_to_json/metric_from_json` dominate there.  Graph metrics have
    integer ties: q2 keeps about n/2 singleton blocks and aspect colourings
    of the sparse graphs (q = 0.02) have about 80 blocks, so the Python
    block-min loop in `quotient_metric` and `check_coloring_result`
    dominate.  This is the workload on which a
    faster block-reduction kernel must show its gain.  It never builds an HST
    and never touches the cube code.

centered
    The m-center family: the `hst` pipeline on clouds over a size sweep
    (n = 120..450) plus a small-n `bourgain` cell (n = 40..70).  `hst` never
    calls `quotient_metric`; it takes the closed-form `quotient_by_subset`
    path, and its cost is the recursive `hst_from_m_centered`/`find_m_center`
    build, `hst_to_metric` and the nested tree JSON.  Bourgain's n^2 x columns broadcasts in
    `induced_metric` and in the embedding verifier set a memory peak, so that
    cell stays small.  One cell (cloud n=700) sits above the recursion limit
    and fails with `RecursionError` in every trial; it takes under a tenth of
    the slots so that p90 stays finite, and it keeps the known defect visible
    in `verified_share` instead of hiding it.  The cells that must succeed
    stay at n <= 450, well below the n ~ 620 where failures begin.

cube
    `cube-qs` cells over d, eps in 0.15..0.24 and p in {1.5, 2}, feasible
    cells only (the documented-infeasible cells are not defects and are not
    run).  It allocates no n x n matrix and writes tiny artifacts, so it
    bypasses the serialization and quotient layers, and it exercises the
    O(4^d) certificate stream in `cube_qs_construct`.  Inputs depend only on
    (d, eps, p): trials reuse cells, so the share of trials that repeat an
    earlier input is 1 - cells/trials.  A gain that comes from reusing
    results across trials must name that property and that share.  The top
    of the sweep is d = 12 (about 0.5 s a trial) so that rounds fit a run;
    d >= 18 cannot fit in memory and is never run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROUND_TRIALS = 50
MIN_TRIALS = 100  # p90 needs ten samples beyond it


@dataclass(frozen=True)
class Cell:
    """One instance variant + pipeline, run at each of `sizes` once per round.

    Sizes are spread evenly over a range so that the run-time distribution
    has no gaps for p50/p90 to fall into; every round holds the same sizes.
    """

    name: str
    variant: str
    instance: dict
    pipeline: str
    params: dict
    sizes: tuple = (None,)  # values of instance["n"]; None keeps `instance` as is
    fixed_seed: int | None = None  # plan seed independent of the benchmark seed

    def plan_doc(self, seed: int, size=None) -> dict:
        instance = self.instance if size is None else {**self.instance, "n": size}
        return {
            "instance": {"variant": self.variant, "params": instance},
            "pipeline": self.pipeline,
            "params": self.params,
            "trials": 1,
            "seed": seed if self.fixed_seed is None else self.fixed_seed,
        }


def _spread(lo: int, hi: int, k: int) -> tuple:
    return tuple(int(round(x)) for x in np.linspace(lo, hi, k))


def _cloud(pipeline: str, lo: int, hi: int, k: int) -> Cell:
    return Cell(f"cloud-{pipeline}", "cloud", {}, pipeline, {}, _spread(lo, hi, k))


def _gnp(pipeline: str, lo: int, hi: int, k: int) -> Cell:
    return Cell(f"gnp-{pipeline}", "gnp", {"q": 0.02}, pipeline, {}, _spread(lo, hi, k))


def _cube(d: int, eps: float, p: float, slots: int) -> Cell:
    return Cell(f"cube-d{d}-eps{eps}-p{p}", "cube", {"d": d}, "cube-qs",
                {"d": d, "eps": eps, "p": p}, (None,) * slots)


WORKLOADS: dict[str, list[Cell]] = {
    "quotients": [
        _cloud("q2", 120, 320, 8), _cloud("dichotomy", 120, 320, 6),
        _cloud("aspect", 120, 320, 6),
        _gnp("q2", 120, 280, 12), _gnp("aspect", 120, 280, 18),
    ],
    "centered": [
        _cloud("hst", 120, 450, 37), _cloud("bourgain", 40, 70, 12),
        # above the recursion limit, fails in every trial; its input is fixed
        # so that its memory peak, which sets peak_rss_mb, does not vary
        Cell("cloud-hst-n700", "cloud", {"n": 700}, "hst", {}, fixed_seed=0),
    ],
    # d groups are separated in time; p50 falls inside the d = 11 group and
    # p90 inside the d = 12 group, for both run and verify times
    "cube": [
        _cube(8, 0.22, 1.5, 3), _cube(8, 0.24, 2.0, 3),
        _cube(10, 0.18, 2.0, 4), _cube(10, 0.2, 1.5, 4), _cube(10, 0.24, 2.0, 4),
        _cube(11, 0.2, 2.0, 8), _cube(11, 0.22, 1.5, 8),
        _cube(12, 0.15, 2.0, 5), _cube(12, 0.2, 1.5, 6), _cube(12, 0.24, 2.0, 5),
    ],
}

# reference task (calibrate.py) matching each workload's kind of work:
# cube trials do integer numpy streaming and next to no JSON
REFERENCE_KIND = {"quotients": "mixed", "centered": "mixed", "cube": "vector"}

for _cells in WORKLOADS.values():
    assert sum(len(c.sizes) for c in _cells) == ROUND_TRIALS


def round_schedule(cells: list[Cell], seed: int, round_index: int) -> list[tuple[Cell, object]]:
    """The (cell, size) slots of one round, in an order shuffled from (seed, round)."""
    slots = [(c, size) for c in cells for size in c.sizes]
    order = np.random.default_rng([seed, round_index]).permutation(len(slots))
    return [slots[i] for i in order]


def trial_seed(seed: int, trial: int) -> int:
    """Plan seed of trial `trial`; independent streams per (seed, trial)."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
