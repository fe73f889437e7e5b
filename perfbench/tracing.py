"""Span recorder for the traced benchmark run.

The program is not changed: `Tracer.install` replaces each traced public
function, in every loaded `metriq` module namespace that holds it, with a
wrapper that records a span (name, start, end, parent, trial) and the work
counts given by the layer's counter.  `uninstall` restores the originals.
Spans stay in memory until the run ends.

Each wrapper adds one Python frame per traced call.  A function that
recurses through its own module-level name (the HST JSON codecs) would get
one extra frame per level, which moves the recursion limit; such functions
are wrapped around a private copy whose recursive calls bypass the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def _size(m) -> int:
    return m.n if hasattr(m, "n") else m.shape[0]


def _induced_bytes(emb) -> int:
    n, dim = emb.vectors.shape
    return n * n * dim * emb.vectors.itemsize


# (module, function, counted stats, counter(args, result) -> {stat: amount})
LAYERS = [
    ("cli", "run_experiment", (), None),
    ("cli", "verify_bundle", (), None),
    ("core", "dumps", ("bytes",), lambda a, r: {"bytes": len(r)}),
    ("core", "metric_to_json", (), None),
    ("core", "metric_from_json", (), None),
    ("core", "validate_metric", ("triples",), lambda a, r: {"triples": _size(a[0]) ** 3}),
    ("core", "realize_special", (), None),
    ("generators", "realize_instance", ("points",), lambda a, r: {"points": r.n}),
    ("quotient", "quotient_metric", ("blocks", "block_pairs"),
     lambda a, r: {"blocks": r.metric.n, "block_pairs": _pairs(r.metric.n)}),
    ("quotient", "floyd_warshall", ("k3",), lambda a, r: {"k3": a[0].shape[0] ** 3}),
    ("quotient", "quotient_by_subset", (), None),
    ("quotient", "distortion_between", ("pairs",), lambda a, r: {"pairs": _pairs(a[0].n)}),
    ("constructions", "ts_sets", ("attempts",), lambda a, r: {"attempts": r[2]}),
    ("constructions", "m_center_quotient", ("attempts",), lambda a, r: {"attempts": r[2]}),
    ("constructions", "coloring_partition", ("blocks",), lambda a, r: {"blocks": r.s}),
    ("constructions", "check_coloring_result", ("block_pairs",),
     lambda a, r: {"block_pairs": _pairs(len(a[1].blocks))}),
    ("constructions", "hst_from_m_centered", (), None),
    ("constructions", "find_m_center", (), None),
    ("hst", "hst_to_metric", ("leaves",), lambda a, r: {"leaves": r.n}),
    ("hst", "hst_to_json", (), None),
    ("hst", "hst_from_json", (), None),
    ("embeddings", "bourgain_embed", ("columns",),
     lambda a, r: {"columns": r[0].vectors.shape[1]}),
    ("embeddings", "induced_metric", ("bytes_computed",),
     lambda a, r: {"bytes_computed": _induced_bytes(a[0])}),
    ("embeddings", "embedding_to_json", (), None),
    ("cube", "cube_qs_construct", ("pairs", "net_size", "survivors"),
     lambda a, r: {"pairs": r.report.pairs, "net_size": int(r.A.size),
                   "survivors": int(r.S.size)}),
]

# spans the benchmark opens itself around calls that are not metriq functions
PARSE_SPAN = "cli.verify_bundle.parse"


def _names_used(code: types.CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_used(const)
    return names


def _without_self_recursion(fn):
    """fn itself, or a copy whose calls to its own global name reach the copy."""
    if not isinstance(fn, types.FunctionType) or fn.__name__ not in _names_used(fn.__code__):
        return fn
    globs = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, globs, fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    globs[fn.__name__] = copy
    return copy


class Tracer:
    def __init__(self):
        # span = [name, start, end, parent index or -1, trial, failed]
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.trial = -1
        self._open: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, self.trial, True])
        self._open.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _end(self, idx: int, failed: bool):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = failed
        self._open.pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (for non-metriq calls)."""
        idx = self._begin(name)
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            self._end(idx, failed)

    def _wrap(self, name: str, fn, counter):
        target = _without_self_recursion(fn)
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            failed = True
            try:
                result = target(*args, **kwargs)
                failed = False
            finally:
                self._end(idx, failed)
            if counter is not None:
                for stat, amount in counter(args, result).items():
                    counts[stat] += amount
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "metriq" or name.startswith("metriq.")]
        for module_name, func_name, _, counter in LAYERS:
            orig = getattr(importlib.import_module(f"metriq.{module_name}"), func_name)
            wrapped = self._wrap(f"{module_name}.{func_name}", orig, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    # -- aggregation ----------------------------------------------------------

    def layer_stats(self, factors: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per span name: self_s, calls, failed, plus the counters.

        Self times are scaled by the calibration factor of their trial.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "failed": 0})
        for (name, start, end, _, trial, failed), inner in zip(self.spans, child_time):
            s = stats[name]
            s["self_s"] += ((end - start) - inner) * factors.get(trial, 1.0)
            s["calls"] += 1
            s["failed"] += int(failed)
        for name, counts in self.counts.items():
            stats[name].update(counts)
        return stats

    def span_records(self):
        for i, (name, start, end, parent, trial, failed) in enumerate(self.spans):
            yield {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                   "trial": trial, "failed": failed}
