"""Command-line front door and experiment plumbing.

`metriq` generates instances, runs the quotient/embedding constructions,
certifies results, and emits CSV/JSON reports.  All randomness flows from one
base seed: trial t uses RngSeed(seed, t), and every construction derives its
own child streams from that, so the same plan and seed reproduce every
artifact byte-for-byte (wall-clock timings live only in the JSON summary,
never in the CSV).
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import click

from .core import (
    Equilateral,
    MetricSpace,
    Star,
    dumps,
    integer,
    metric_from_csv,
    metric_from_json,
    metric_to_csv,
    metric_to_json,
)
from .cube import MAX_D
from .errors import MetriqError, ParameterError, StructuralError
from .generators import (INSTANCES, InstanceSpec, build_instance, gen_composition, option, realize_instance,
                         resolve_instance, resolve_params)
from .quotient import distortion_between, quotient_metric, quotient_to_json
from .seeds import RngSeed
from .verify import (
    _cube_artifact,
    _hst_artifact,
    _quotient_artifact,
    _standalone_artifact,
    verify_bundle,
)

CSV_COLUMNS = [
    "trial",
    "seed",
    "n",
    "quotient_size",
    "provenance",
    "target_class",
    "p",
    "certified_distortion",
    "paper_bound",
    "attempts",
    "millis",
]


# ---------------------------------------------------------------------------
# Experiment plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentPlan:
    instance: InstanceSpec
    pipeline: str
    params: dict
    trials: int
    seed: int
    #: the params as the pipeline's options check and convert them
    resolved: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ParameterError(
                f"unknown pipeline {self.pipeline!r}; choose from {sorted(PIPELINES)}"
            )
        if self.trials < 0:
            raise ParameterError("trials must be >= 0")
        pipeline = PIPELINES[self.pipeline]
        if pipeline.variant not in (None, self.instance.variant):
            raise ParameterError(f"a {self.pipeline} plan runs on a {pipeline.variant!r} instance, "
                                 f"not {self.instance.variant!r}")
        object.__setattr__(self, "resolved", pipeline.resolve(self.params))

    def instance_spec(self, t: int) -> InstanceSpec:
        """Trial t's instance, which run_experiment realizes and verify_bundle rebuilds."""
        return InstanceSpec(self.instance.variant, self.instance.params, RngSeed(self.seed, t).child(0))


def plan_from_json(doc: dict) -> ExperimentPlan:
    """A plan document; a key it does not declare, at the top or in its
    `instance`, and a `seed` or `trials` that is not a JSON integer are a ParameterError."""
    inst = doc["instance"]
    for where, holder, keys in (("plan", doc, ("instance", "pipeline", "params", "trials", "seed")),
                                ("plan instance", inst, ("variant", "params"))):
        unknown = sorted(holder.keys() - set(keys))
        if unknown:
            raise ParameterError(f"unknown {where} key {unknown[0]!r}; a {where} holds {', '.join(keys)}")
    seed = integer(doc.get("seed", 0), "plan seed", ParameterError)
    trials = integer(doc.get("trials", 1), "plan trials", ParameterError)
    spec = InstanceSpec(inst["variant"], dict(inst.get("params", {})), RngSeed(seed))
    return ExperimentPlan(spec, doc["pipeline"], dict(doc.get("params", {})), trials, seed)


@dataclass
class ReportBundle:
    plan: dict
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    artifacts: list[dict] = field(default_factory=list)

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(str(row.get(c, "")) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


# --- pipeline implementations ----------------------------------------------
# Each pipe maps (its instance as a metric, a composition tree or None, seed,
# resolved params) to its CSV row fields and the artifact that `run
# --artifacts` stores, which references the instance instead of copying it;
# its docstring is the help text of the CLI command generated for it.


def _row(size: int, provenance: str, target: str, certified: float, bound, attempts=1, p=""):
    return {"quotient_size": size, "provenance": provenance, "target_class": target, "p": p,
            "certified_distortion": certified, "paper_bound": bound, "attempts": attempts}


def _pipe_q2(m: MetricSpace, seed: RngSeed, params: dict):
    """Distortion-2 quotient onto a 1-lacunary space."""
    from .constructions import q2_lacunary

    q, report, model, attempts = q2_lacunary(m, seed)
    return (_row(q.metric.n, q.provenance, "lacunary", report.distortion, 2.0, attempts),
            _quotient_artifact(q, model, report.distortion))


def _pipe_aspect(m: MetricSpace, seed: RngSeed, params: dict):
    """Equilateral quotient from an aspect-ratio colouring."""
    from .constructions import aspect_quotient

    res = aspect_quotient(m, params["alpha"], lipschitz=params["lipschitz"], seed=seed)
    q, dist = res.quotient, res.report.distortion
    return (_row(q.metric.n, q.provenance, "equilateral", dist, params["alpha"]),
            _quotient_artifact(q, Equilateral(q.metric.n, res.band[0]), dist,
                               lipschitz=params["alpha"] if params["lipschitz"] else None))


def _pipe_dichotomy(m: MetricSpace, seed: RngSeed, params: dict):
    """Lacunary or star quotient, whichever certifies the larger one."""
    from .constructions import q_dichotomy

    res = q_dichotomy(m, params["k"], params["beta"], params["alpha"], seed,
                      drop_root=params["drop_root"])
    q, dist = res.quotient, res.report.distortion
    return (_row(q.metric.n, q.provenance, res.branch, dist, params["alpha"]),
            _quotient_artifact(q, res.model, dist))


def _pipe_star(m: MetricSpace, seed: RngSeed, params: dict):
    """Star quotient from the band [a, b) of nearest radii, within alpha of a star."""
    from .constructions import find_star_quotient

    res = find_star_quotient(m, params["a"], params["b"], params["alpha"], seed)
    q, dist = res.quotient, res.report.distortion
    return (_row(q.metric.n, q.provenance, "star", dist, params["alpha"], res.attempts),
            _quotient_artifact(q, Star(q.metric.n - 1, res.tau), dist))


def _pipe_hst(m: MetricSpace, seed: RngSeed, params: dict):
    """m-centre quotient, then its HST with a certified distortion."""
    from .constructions import hst_from_m_centered, m_center_quotient, m_center_size

    eps = params["eps"]
    T, q, attempts = m_center_quotient(m, eps, seed)
    mparam = max(2, int(math.ceil(m_center_size(eps))))
    tree, report = hst_from_m_centered(q.metric, mparam)
    return (_row(q.metric.n, q.provenance, "UM", report.distortion, 2.0 * mparam, attempts),
            _hst_artifact(tree, report.distortion, subset=T))


def _pipe_bourgain(m: MetricSpace, seed: RngSeed, params: dict):
    """m-centre quotient, then its Bourgain embedding into L_p."""
    from .constructions import m_center_quotient, m_center_size
    from .embeddings import EXACT_MAX_POINTS, bourgain_embed, bourgain_scales, embedding_to_json

    eps, p = params["eps"], params["p"]
    T, q, attempts = m_center_quotient(m, eps, seed.child(0))
    mparam = m_center_size(eps)
    mode = "exact" if q.metric.n <= EXACT_MAX_POINTS else "monte-carlo"
    emb, report, mask = bourgain_embed(q.metric, mparam, p, mode, seed.child(1))
    bound = 96 * bourgain_scales(mparam, p)
    return (_row(q.metric.n, q.provenance, "lp", report.distortion, bound, attempts, p),
            embedding_to_json(T, emb, mask, report.distortion))


def _pipe_cube_qs(m, seed: RngSeed, params: dict):
    """Large quotient of the Hamming cube with a certified embedding."""
    from .cube import cube_qs_construct

    res = cube_qs_construct(params["d"], params["eps"], params["p"])
    return (_row(res.block_count, "QS", "lp", res.report.distortion, res.certified_bound,
                 p=params["p"]),
            _cube_artifact(res))


def _pipe_composition(tree, seed: RngSeed, params: dict):
    """Random composition tree, then a QS quotient of it glued into a k-HST."""
    from .constructions import composition_qs

    res = composition_qs(tree, params["k"], params["alpha"], seed)
    q, dist = res.quotient, res.report.distortion
    return (_row(q.metric.n, q.provenance, "UM", dist, res.alpha_bound),
            _hst_artifact(res.hst, dist, **quotient_to_json(q, base=False)))


def _cube_space(spec: InstanceSpec, params: dict) -> int:
    """2^d, for a cube-qs plan whose instance, resolved but not built, is the
    `cube` of its d; any other instance is a ParameterError."""
    inst, given = resolve_instance(spec)
    if inst.name != "cube" or given["d"] != params["d"]:
        raise ParameterError(f"a cube-qs plan with d = {params['d']} runs on instance cube with "
                             f"d = {params['d']}, not {spec.variant} {given}")
    return 2 ** params["d"]


@dataclass(frozen=True)
class Pipeline:
    """One construction: `metriq run` executes it once per trial, and the CLI
    command generated from it runs it once.  Its parameters are declared once,
    as the options of that command; plan params are checked and converted by
    them.
    """

    name: str
    kind: str  # of its artifacts
    run: Callable
    options: tuple[click.Option, ...] = ()
    # both None: the pipe runs on the plan's instance metric; own_space: it
    # builds the space of own_space(spec, params) points its instance names
    # (cube-qs); variant: it runs on that instance variant only, as a tree
    own_space: Callable[[InstanceSpec, dict], int] | None = None
    variant: str | None = None
    by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "by_name", {o.name: o for o in self.options})

    def resolve(self, given: dict) -> dict:
        return resolve_params(f"pipeline {self.name!r}", self.by_name, given)


PIPELINES = {p.name: p for p in (
    Pipeline("q2", "quotient", _pipe_q2),
    Pipeline("aspect", "quotient", _pipe_aspect,
             (option("--alpha", 2.0), option("--lipschitz", False, is_flag=True))),
    Pipeline("dichotomy", "quotient", _pipe_dichotomy, (
        option("--k", 1.0), option("--beta", 1.5), option("--alpha", 2.0),
        option("--drop-root", False, is_flag=True),
    )),
    Pipeline("star", "quotient", _pipe_star,
             (option("--a", type=float), option("--b", type=float), option("--alpha", type=float))),
    Pipeline("hst", "hst", _pipe_hst, (option("--eps", 0.25),)),
    Pipeline("bourgain", "embedding", _pipe_bourgain, (option("--eps", 0.25), option("--p", 2.0))),
    Pipeline("cube-qs", "cube-qs", _pipe_cube_qs, (
        option("--d", type=click.IntRange(1, MAX_D)), option("--eps", 0.1), option("--p", 2.0),
    ), own_space=_cube_space),
    Pipeline("composition", "hst", _pipe_composition, (option("--k", 2.0), option("--alpha", 1.5)),
             variant="composition"),
)}


def _quantiles(values: list[float]) -> dict:
    """min, p25, median, p75 and max of the values, {} for none: bit for bit
    np.min, np.percentile(values, 25), np.median, np.percentile(values, 75)
    and np.max, without numpy's dispatch, which a one-trial plan paid five times.

    A quantile q is numpy's default `linear` one: at virtual index h = (n - 1) q
    of the sorted values, its t = h - floor(h) weighs the two values a, b
    around h as numpy's _lerp does, a + (b - a) t, or b - (b - a)(1 - t) when
    t >= 0.5.  The median is the middle value or (a + b) / 2 of the middle
    two.  Any NaN gives NaN in every field, as in numpy.
    """
    if not values:
        return {}
    if any(math.isnan(x) for x in values):
        return dict.fromkeys(("min", "p25", "median", "p75", "max"), math.nan)
    s, n = sorted(values), len(values)

    def linear(q: float) -> float:
        h = (n - 1) * q
        i = min(math.floor(h), n - 2)  # -1 at n = 1: numpy too reads the lone value twice, at t = 1
        a, b, t = s[i], s[i + 1], h - i
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    m = n // 2
    return {"min": s[0], "p25": linear(0.25), "median": s[m] if n % 2 else (s[m - 1] + s[m]) / 2,
            "p75": linear(0.75), "max": s[-1]}


def run_experiment(plan: ExperimentPlan, keep_artifacts: bool = False) -> ReportBundle:
    """Execute the plan's trials; per-trial errors are recorded, not raised.

    Trial t draws its instance and pipeline randomness from RngSeed(seed, t).
    Rows appear in trial order; failed trials keep their row with an empty
    certificate, and the summary carries failure counts and quantiles.
    """
    bundle = ReportBundle(
        {
            "instance": {"variant": plan.instance.variant, "params": plan.instance.params},
            "pipeline": plan.pipeline,
            "params": plan.params,
            "trials": plan.trials,
            "seed": plan.seed,
        }
    )
    pipeline = PIPELINES[plan.pipeline]
    params = plan.resolved
    values = []
    errors = []
    timings = []
    for t in range(plan.trials):
        row = {c: "" for c in CSV_COLUMNS}
        row["trial"] = t
        row["seed"] = plan.seed
        start = time.perf_counter()
        try:
            spec = plan.instance_spec(t)
            if pipeline.own_space:
                m = None
                row["n"] = pipeline.own_space(spec, params)
            else:
                m = (build_instance if pipeline.variant else realize_instance)(spec)
                row["n"] = m.n
            result, art = pipeline.run(m, RngSeed(plan.seed, t).child(1), params)
            row.update(result)
            values.append(float(result["certified_distortion"]))
            if keep_artifacts:
                art["trial"] = t
                bundle.artifacts.append(art)
        except MetriqError as exc:
            errors.append({"trial": t, "error": type(exc).__name__, "detail": str(exc)})
        timings.append((time.perf_counter() - start) * 1000.0)
        bundle.rows.append(row)
    bundle.summary = {
        "trials": plan.trials,
        "failures": len(errors),
        "failure_rate": len(errors) / plan.trials if plan.trials else 0.0,
        "errors": errors,
        "certified_distortion": _quantiles(values),
        "millis": [round(x, 3) for x in timings],
    }
    return bundle


# ---------------------------------------------------------------------------
# Click commands
# ---------------------------------------------------------------------------


class _Main(click.Group):
    """A MetriqError ends the command with one stderr line, `Error: <class>: <message>`, and exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MetriqError as exc:
            refused = click.ClickException(f"{type(exc).__name__}: {exc}")
            refused.exit_code = 3
            raise refused from exc


@click.group(cls=_Main)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def main(ctx, seed, out, fmt):
    """Quotients and embeddings of finite metric spaces."""
    ctx.obj = {"seed": seed, "out": out, "fmt": fmt}


def _emit(ctx, doc: dict | str):
    text = doc if isinstance(doc, str) else dumps(doc)
    out = ctx.obj["out"]
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:  # one `Error:` line, exit code 1
            raise click.FileError(out, exc.strerror) from exc
    else:
        click.echo(text)


def _load(path: str, parse):
    """parse(the file's text); a malformed document raises StructuralError naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except (AttributeError, KeyError, TypeError, ValueError, StructuralError) as exc:
        raise StructuralError(f"{path}: malformed ({exc!r})") from exc


def _load_metric(path: str) -> MetricSpace:
    return _load(path, metric_from_csv if path.endswith(".csv") else lambda t: metric_from_json(json.loads(t)))


def _indices(text: str, option: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a comma-separated list of point indices",
                                 param_hint=option) from None


@main.command()
@click.option("--variant", required=True, type=click.Choice(list(INSTANCES)))
@click.option("--param", "params", multiple=True, help="key=value construction parameters")
@click.pass_context
def gen(ctx, variant, params):
    """Generate an instance metric and write it out."""
    kv = {}
    for item in params:
        k, _, v = item.partition("=")
        try:
            kv[k] = json.loads(v)
        except json.JSONDecodeError:
            kv[k] = v
    spec = InstanceSpec(variant, kv, RngSeed(ctx.obj["seed"]))
    m = realize_instance(spec)
    if ctx.obj["fmt"] == "csv":
        _emit(ctx, metric_to_csv(m))
    else:
        _emit(ctx, {"kind": "metric", **metric_to_json(m)})


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--blocks", default=None, help='semicolon-separated blocks, e.g. "0,1;2;3,4"')
@click.option("--subset", default=None, help="comma-separated subset to collapse to one block")
@click.pass_context
def quotient(ctx, path, blocks, subset):
    """Quotient a metric by explicit blocks or by collapsing one subset.

    JSON gives its artifact, which `verify` rebuilds; --format csv its distances.
    """
    from .quotient import quotient_by_subset

    m = _load_metric(path)
    if (blocks is None) == (subset is None):
        raise click.UsageError("give exactly one of --blocks / --subset")
    if subset is not None:
        q = quotient_by_subset(m, _indices(subset, "--subset"))
    else:
        q = quotient_metric(m, [tuple(_indices(b, "--blocks")) for b in blocks.split(";")])
    if ctx.obj["fmt"] == "csv":
        _emit(ctx, metric_to_csv(q.metric))
    else:
        _emit(ctx, {"kind": "quotient", **quotient_to_json(q)})


@main.group()
def construct():
    """Randomized quotient constructions."""


def _pipeline_command(pipeline: Pipeline) -> click.Command:
    """The CLI command that runs `pipeline` once with RngSeed(--seed) and emits
    its artifact, with the metric it ran on embedded, as no plan gives it.
    A pipeline of one variant takes its params too, and runs as trial 0 of a
    plan with that seed (RngSeed(seed) is RngSeed(seed, 0))."""
    inst = INSTANCES.get(pipeline.variant)

    def callback(path=None, **params):
        ctx = click.get_current_context()
        seed = RngSeed(ctx.obj["seed"])
        if inst:
            spec = InstanceSpec(inst.name, {k: params.pop(k) for k in inst.by_name}, seed.child(0))
            built = build_instance(spec)  # a tree, composed once for the embedded base
            m, seed = gen_composition(built), seed.child(1)
        else:
            built = m = None if pipeline.own_space else _load_metric(path)
        _emit(ctx, _standalone_artifact(pipeline.run(built, seed, params)[1], m))

    opts = [*(inst.options if inst else ()), *pipeline.options]
    if not (pipeline.own_space or inst):
        opts.insert(0, click.Option(["--in", "path"], required=True, type=click.Path(exists=True)))
    return click.Command(pipeline.name, callback=callback, params=opts, help=pipeline.run.__doc__)


for _pipeline in PIPELINES.values():
    (main if _pipeline.own_space or _pipeline.variant else construct).add_command(_pipeline_command(_pipeline))


@main.group()
def certify():
    """Independent certificate checks."""


@certify.command("distortion")
@click.option("--source", required=True, type=click.Path(exists=True))
@click.option("--target", required=True, type=click.Path(exists=True))
@click.pass_context
def certify_distortion(ctx, source, target):
    rep = distortion_between(_load_metric(source), _load_metric(target))
    _emit(ctx, {"expansion": rep.expansion, "contraction": rep.contraction,
                "distortion": rep.distortion,
                "expansion_pair": list(rep.expansion_pair),
                "contraction_pair": list(rep.contraction_pair)})


@main.command()
@click.option("--kind", type=click.Choice(["gauss-trunc", "pstable"]), required=True)
@click.option("--level", "D", type=float, required=True)
@click.option("--d", "dval", type=float, required=True)
@click.option("--p", type=float, default=1.0, show_default=True)
@click.pass_context
def transform(ctx, kind, D, dval, p):
    """Evaluate a distance transform at one value."""
    from .embeddings import pstable_distance, truncated_gauss_distance

    if kind == "gauss-trunc":
        value = truncated_gauss_distance(dval, D)
    else:
        value = pstable_distance(dval, D, p)
    _emit(ctx, {"kind": kind, "d": dval, "D": D, "p": p if kind == "pstable" else 2.0,
                "value": value})


@main.command()
@click.option("--plan", "path", required=True, type=click.Path(exists=True))
@click.option("--artifacts", is_flag=True, help="include per-trial artifacts in the JSON bundle")
@click.pass_context
def run(ctx, path, artifacts):
    """Run an experiment plan and emit its report."""
    plan = _load(path, lambda t: plan_from_json(json.loads(t)))
    bundle = run_experiment(plan, keep_artifacts=artifacts)
    if ctx.obj["fmt"] == "csv":
        _emit(ctx, bundle.csv_text())
    else:
        _emit(ctx, {"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary,
                    "artifacts": bundle.artifacts})


@main.command()
@click.option("--bundle", "path", required=True, type=click.Path(exists=True))
@click.pass_context
def verify(ctx, path):
    """Independently re-check every certificate in a bundle file."""
    rep = verify_bundle(_load(path, json.loads))
    _emit(ctx, {"ok": rep.ok,
                "violations": [[k, list(w), msg] for k, w, msg in rep.violations]})
    if not rep.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
