"""metriq benchmark: build a bundle and re-check it, trial after trial.

Usage (from the repository root):

    python3 perfbench/run.py --workload quotients --seed 1 --seconds 20 --trace 0

A trial is one 1-trial experiment plan taken through the calls that
`metriq run --artifacts` and then `metriq verify` make:
`run_experiment` -> `core.dumps`, then `json.loads` -> `verify_bundle`.
Trials run closed-loop, one at a time, in rounds of a fixed cell mix (see
workloads.py); plan seeds derive from --seed only.

--trace 0 measures whole rounds for about --seconds seconds and prints the
end-to-end metrics.  --trace 1 runs round 0 untraced and then traced with
call-site spans (tracing.py), compares the per-trial outcomes and output
bytes of the two passes, runs the layer size sweep (sweep.py) and prints the
per-layer metrics.  Every time is calibrated for the host's changing speed
(calibrate.py).  Either way the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; run metadata, the
output digest and per-trial records go to perfbench/out/.

Every successful trial is re-verified from its serialized bytes and must
satisfy certified_distortion <= paper_bound; any violation aborts the run
with correct=false and exit code 1.  Without src/metriq next to this
directory the benchmark exits with code 2 and prints no result.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import SpeedProbe, settled_factor  # noqa: E402
from tracing import LAYERS, PARSE_SPAN, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MIN_TRIALS, REFERENCE_KIND, ROUND_TRIALS, WORKLOADS, round_schedule, trial_seed)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3  # this process plus two fresh ones
_MILLIS = re.compile(r'"millis":\[[^\]]*\]')


class GateError(Exception):
    """A bundle failed re-verification or exceeded its paper bound."""


def import_program() -> types.SimpleNamespace:
    """Import metriq from this checkout's src/, or exit with code 2."""
    if not (SRC / "metriq" / "__init__.py").is_file():
        print(f"perfbench: no metriq sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import metriq
    # every module a pipeline imports lazily, so that tracing can patch them all
    from metriq import (  # noqa: F401
        cli, constructions, core, cube, embeddings, generators, hst, quotient)

    if Path(metriq.__file__).resolve().parent != SRC / "metriq":
        print(f"perfbench: imported metriq from {metriq.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(cli=cli, core=core, numpy=numpy, scipy=scipy)


# ---------------------------------------------------------------------------
# One trial
# ---------------------------------------------------------------------------


@dataclass
class TrialResult:
    index: int
    cell: str
    outcome: str  # "ok" or the exception / error-row type
    run_s: float  # run_experiment + dumps; inf when the trial failed
    verify_s: float  # json.loads + verify_bundle; inf when the trial failed
    digest: str | None = None  # sha256 of the CSV and bundle, without summary.millis
    digest_s: float = 0.0  # time spent hashing: the benchmark's own work
    elapsed_s: float = 0.0  # whole trial, plan to verdict, without hashing
    factor: float = 1.0  # calibration factor (calibrate.py) around this trial

    @property
    def run_ms(self) -> float:
        return self.run_s * self.factor * 1e3

    @property
    def verify_ms(self) -> float:
        return self.verify_s * self.factor * 1e3


def _with_digest(result: TrialResult, bundle, text: str) -> TrialResult:
    start = time.perf_counter()
    h = hashlib.sha256(bundle.csv_text().encode())
    h.update(_MILLIS.sub('"millis":[]', text).encode())
    result.digest = h.hexdigest()
    result.digest_s = time.perf_counter() - start
    return result


def run_trial(prog, index: int, cell, size, seed: int, want_digest: bool,
              tracer=None) -> TrialResult:
    cli, core = prog.cli, prog.core
    plan = cli.plan_from_json(cell.plan_doc(seed, size))
    label = cell.name if size is None else f"{cell.name}-n{size}"
    start = time.perf_counter()
    try:
        bundle = cli.run_experiment(plan, keep_artifacts=True)
        text = core.dumps({"plan": bundle.plan, "rows": bundle.rows,
                           "summary": bundle.summary, "artifacts": bundle.artifacts})
    except Exception as exc:  # noqa: BLE001 - e.g. RecursionError: record it, go on
        return TrialResult(index, label, type(exc).__name__, math.inf, math.inf)
    mid = time.perf_counter()
    errors = bundle.summary["errors"]
    if errors:  # a MetriqError row: nothing to verify
        result = TrialResult(index, label, errors[0]["error"], math.inf, math.inf)
        return _with_digest(result, bundle, text) if want_digest else result
    doc = tracer.call(PARSE_SPAN, json.loads, text) if tracer else json.loads(text)
    report = cli.verify_bundle(doc)
    end = time.perf_counter()
    if not report.ok:
        raise GateError(f"trial {index} ({label}, seed {seed}): {report}")
    row = doc["rows"][0]
    if not float(row["certified_distortion"]) <= float(row["paper_bound"]):
        raise GateError(f"trial {index} ({label}, seed {seed}): certified distortion "
                        f"{row['certified_distortion']} > paper bound {row['paper_bound']}")
    result = TrialResult(index, label, "ok", mid - start, end - mid)
    return _with_digest(result, bundle, text) if want_digest else result


def run_round(prog, cells, seed: int, round_index: int, want_digest: bool, probe,
              tracer=None):
    """All trials of one round, in schedule order, each closed by a speed probe mark."""
    results = []
    for slot, (cell, size) in enumerate(round_schedule(cells, seed, round_index)):
        index = round_index * ROUND_TRIALS + slot
        if tracer is not None:
            tracer.trial = index
        start = time.perf_counter()
        res = run_trial(prog, index, cell, size, trial_seed(seed, index), want_digest, tracer)
        res.elapsed_s = time.perf_counter() - start - res.digest_s
        probe.mark()
        results.append(res)
    return results


def apply_factors(results, probe):
    """Give each trial the factor of its probe interval (one per trial, in order)."""
    for res, factor in zip(results, probe.factors(), strict=True):
        res.factor = factor


def busy_s(results) -> float:
    """Calibrated time the trials took, plan to verdict."""
    return sum(r.elapsed_s * r.factor for r in results)


def workload_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.index}:{r.cell}:{r.outcome}:{r.digest}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up, end-to-end run, traced run
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int):
    """Imports, plans and one untimed warm-up trial per cell, at its middle size."""
    prog = import_program()
    cells = WORKLOADS[workload]
    warmup = [run_trial(prog, -1 - i, cell, cell.sizes[len(cell.sizes) // 2],
                        trial_seed(seed, 10**6 + i), False)
              for i, cell in enumerate(cells)]
    return prog, cells, warmup


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process and of SETUP_SAMPLES - 1 fresh processes."""
    samples = [first * settled_factor(REFERENCE_KIND[args.workload])]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(prog, cells, args, setup_s: float):
    samples = setup_samples(args, setup_s)
    results, digest = [], None
    probe = SpeedProbe(REFERENCE_KIND[args.workload])
    start = time.perf_counter()
    round_index = 0
    while True:
        round_start = time.perf_counter()
        batch = run_round(prog, cells, args.seed, round_index, round_index == 0, probe)
        if round_index == 0:
            digest = workload_digest(batch)
        results += batch
        round_index += 1
        now = time.perf_counter()
        if len(results) >= MIN_TRIALS and (now - start) + (now - round_start) > args.seconds:
            break
    wall = time.perf_counter() - start
    apply_factors(results, probe)
    ok = [r for r in results if r.outcome == "ok"]
    metrics = {
        "trials_per_s": (len(ok) / busy_s(results), "1/s"),
        "run_ms_p50": (nearest_rank([r.run_ms for r in results], 50), "ms"),
        "run_ms_p90": (nearest_rank([r.run_ms for r in results], 90), "ms"),
        "verify_ms_p50": (nearest_rank([r.verify_ms for r in results], 50), "ms"),
        "verify_ms_p90": (nearest_rank([r.verify_ms for r in results], 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verified_share": (len(ok) / len(results), "ratio"),
        "setup_s": (statistics.median(samples), "s"),
    }
    extra = {"rounds": round_index, "wall_s": wall,
             "busy_raw_s": sum(r.elapsed_s for r in results), "busy_s": busy_s(results),
             "digest_round0": digest, "setup_samples_s": samples, "setup_raw_s": setup_s}
    return results, metrics, extra


def traced(prog, cells, args):
    from sweep import SweepError, run_sweep  # imports metriq: only after import_program

    probe = SpeedProbe(REFERENCE_KIND[args.workload])
    plain = run_round(prog, cells, args.seed, 0, True, probe)
    tracer = Tracer()
    tracer.install()
    try:
        results = run_round(prog, cells, args.seed, 0, True, probe, tracer)
    finally:
        tracer.uninstall()
    apply_factors(plain + results, probe)
    plain_s, traced_s = busy_s(plain), busy_s(results)
    mismatches = [p.index for p, t in zip(plain, results)
                  if (p.outcome, p.digest) != (t.outcome, t.digest)]
    metrics = layer_metrics(tracer.layer_stats({r.index: r.factor for r in results}))
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["trace.outcome_mismatches"] = (len(mismatches), "count")
    try:
        metrics.update({name: (secs, "s") for name, secs in run_sweep().items()})
    except SweepError as exc:
        raise GateError(f"layer sweep: {exc}") from exc
    extra = {"digest_round0": workload_digest(results),
             "untraced_digest_round0": workload_digest(plain),
             "outcome_mismatches": mismatches, "untraced_s": plain_s, "traced_s": traced_s}
    return results, metrics, extra, tracer


def layer_metrics(stats) -> dict:
    out = {}
    for module, func, counted, _ in LAYERS:
        name = f"{module}.{func}"
        s = stats.get(name, {})
        out[f"{name}.self_s"] = (s.get("self_s", 0.0), "s")
        out[f"{name}.calls"] = (s.get("calls", 0), "count")
        for stat in counted:
            out[f"{name}.{stat}"] = (s.get(stat, 0), "B" if "bytes" in stat else "count")
    for name in ("cli.run_experiment", "constructions.hst_from_m_centered"):
        out[f"{name}.failed"] = (stats.get(name, {}).get("failed", 0), "count")
    ts = stats.get("constructions.ts_sets", {})
    out["constructions.ts_sets.accept_ratio"] = (
        ts.get("calls", 0) / ts["attempts"] if ts.get("attempts") else 0.0, "ratio")
    parse = stats.get(PARSE_SPAN, {})
    out["cli.verify_bundle.parse_s"] = (parse.get("self_s", 0.0), "s")
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(prog, args) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "metriq").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": prog.numpy.__version__,
        "scipy": prog.scipy.__version__, "platform": platform.platform(),
    }


def check_declared(metrics: dict, trace: int):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if listed != printed:
        diff = sorted(set(listed.items()) ^ set(printed.items()))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {diff}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {'setup_s': ...} and exit (one set-up sample)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        prog, cells, warmup = setup(args.workload, args.seed)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            factor = settled_factor(REFERENCE_KIND[args.workload])
            print(json.dumps({"setup_s": setup_s * factor, "raw_setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            results, metrics, extra, tracer = traced(prog, cells, args)
        else:
            results, metrics, extra = end_to_end(prog, cells, args, setup_s)
    except GateError as exc:
        print(f"perfbench: correctness gate: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    check_declared(metrics, args.trace)

    meta = metadata(prog, args)
    outcomes = Counter(r.outcome for r in results)
    record = {
        "meta": meta, **extra, "outcomes": outcomes,
        "warmup": [(r.cell, r.outcome) for r in warmup],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "trials": [{"index": r.index, "cell": r.cell, "outcome": r.outcome,
                    "run_ms": r.run_ms if math.isfinite(r.run_s) else None,
                    "verify_ms": r.verify_ms if math.isfinite(r.verify_s) else None,
                    "raw_run_ms": r.run_s * 1e3 if math.isfinite(r.run_s) else None,
                    "raw_verify_ms": r.verify_s * 1e3 if math.isfinite(r.verify_s) else None,
                    "factor": r.factor}
                   for r in results],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"meta": meta, "digest_round0": extra["digest_round0"], "outcomes": outcomes}))
    print(json.dumps({
        "correct": True,
        "attempted": len(results),
        "failed": len(results) - outcomes["ok"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
