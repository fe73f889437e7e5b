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
import numpy as np

from .core import (
    Equilateral,
    Lacunary,
    MetricSpace,
    Star,
    ValidationReport,
    dumps,
    metric_from_csv,
    metric_from_json,
    metric_to_csv,
    metric_to_json,
    realize_special,
    validate_metric,
)
from .errors import MetriqError, ParameterError, StructuralError
from .generators import InstanceSpec, realize_instance
from .quotient import (
    QuotientSpace,
    distortion_between,
    quotient_from_json,
    quotient_metric,
    quotient_to_json,
)
from .seeds import RngSeed

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

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ParameterError(
                f"unknown pipeline {self.pipeline!r}; choose from {sorted(PIPELINES)}"
            )
        if self.trials < 0:
            raise ParameterError("trials must be >= 0")
        PIPELINES[self.pipeline].resolve(self.params)


def plan_from_json(doc: dict) -> ExperimentPlan:
    inst = doc["instance"]
    seed = int(doc.get("seed", 0))
    spec = InstanceSpec(inst["variant"], dict(inst.get("params", {})), RngSeed(seed))
    return ExperimentPlan(
        spec, doc["pipeline"], dict(doc.get("params", {})), int(doc.get("trials", 1)), seed
    )


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


def _model_doc(model) -> dict:
    if isinstance(model, Lacunary):
        return {"type": "lacunary", "a": list(model.a), "k": model.k}
    if isinstance(model, Star):
        return {"type": "star", "n": model.n, "tau": model.tau}
    if isinstance(model, Equilateral):
        return {"type": "equilateral", "n": model.n, "edge": model.edge}
    raise StructuralError(f"unknown model {model!r}")


def _model_from_doc(doc: dict) -> MetricSpace:
    t = doc["type"]
    if t == "lacunary":
        m = realize_special(Lacunary(tuple(doc["a"]), float(doc.get("k", 1.0))))
    elif t == "star":
        m = realize_special(Star(int(doc["n"]), float(doc["tau"])))
    elif t == "equilateral":
        m = realize_special(Equilateral(int(doc["n"]), float(doc.get("edge", 1.0))))
    else:
        raise StructuralError(f"unknown model type {t!r}")
    scale = float(doc.get("scale", 1.0))
    return MetricSpace(m.dist * scale) if scale != 1.0 else m


def _quotient_artifact(q: QuotientSpace, model, certified: float) -> dict:
    doc = quotient_to_json(q)
    doc["kind"] = "quotient"
    doc["model"] = _model_doc(model)
    doc["certified_distortion"] = certified
    return doc


def _hst_artifact(base: MetricSpace, tree, certified: float) -> dict:
    from .hst import hst_to_json

    return {"kind": "hst", "base": metric_to_json(base), "tree": hst_to_json(tree),
            "certified_distortion": certified}


def _embedding_artifact(emb) -> dict:
    from .embeddings import embedding_to_json, induced_metric

    doc = embedding_to_json(emb)
    doc["kind"] = "embedding"
    doc["claimed"] = induced_metric(emb).dist.tolist()
    return doc


def _cube_artifact(res) -> dict:
    return {
        "kind": "cube-qs",
        "d": res.d,
        "eps": res.eps,
        "p": res.p,
        "r": res.r,
        "net": res.A.tolist(),
        "survivors": res.S.tolist(),
        "block_count": res.block_count,
        "certified_distortion": res.report.distortion,
        "bound": res.certified_bound,
    }


# --- pipeline implementations ----------------------------------------------
# Each pipe maps (instance metric or None, seed, resolved params) to its CSV
# row fields and the artifact that `run --artifacts` stores; its docstring is
# the help text of the CLI command generated for it.


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
            _quotient_artifact(q, Equilateral(q.metric.n, res.band[0]), dist))


def _pipe_dichotomy(m: MetricSpace, seed: RngSeed, params: dict):
    """Lacunary or star quotient, whichever certifies the larger one."""
    from .constructions import q_dichotomy

    res = q_dichotomy(m, params["k"], params["beta"], params["alpha"], seed,
                      drop_root=params["drop_root"])
    q, dist = res.quotient, res.report.distortion
    art = _quotient_artifact(q, res.model, dist)
    if res.branch == "star":
        art["model"]["scale"] = _star_scale(res)
    return _row(q.metric.n, q.provenance, res.branch, dist, params["alpha"]), art


def _star_scale(res) -> float:
    # root-leaf quotient distances sit at scale a; recover it from the metric
    d = res.quotient.metric.dist
    if res.branch == "star" and d.shape[0] > 1:
        return float(np.median(d[0, 1:] / realize_special(res.model).dist[0, 1:]))
    return 1.0


def _pipe_hst(m: MetricSpace, seed: RngSeed, params: dict):
    """m-centre quotient, then its HST with a certified distortion."""
    from .constructions import hst_from_m_centered, m_center_quotient

    eps = params["eps"]
    T, q, attempts = m_center_quotient(m, eps, seed)
    mparam = max(2, int(math.ceil(2.0 * math.log(2.0 / eps) / eps)))
    tree, report = hst_from_m_centered(q.metric, mparam)
    return (_row(q.metric.n, q.provenance, "UM", report.distortion, 2.0 * mparam, attempts),
            _hst_artifact(q.metric, tree, report.distortion))


def _pipe_bourgain(m: MetricSpace, seed: RngSeed, params: dict):
    """m-centre quotient, then its Bourgain embedding into L_p."""
    from .constructions import m_center_quotient
    from .embeddings import bourgain_embed

    eps, p = params["eps"], params["p"]
    T, q, attempts = m_center_quotient(m, eps, seed.child(0))
    mparam = 2.0 * math.log(2.0 / eps) / eps
    mode = "exact" if q.metric.n <= 15 else "monte-carlo"
    emb, report = bourgain_embed(q.metric, mparam, p, mode, seed.child(1))
    qq = max(1, int(math.ceil(math.log(mparam) / p - 1e-12)))
    return (_row(q.metric.n, q.provenance, "lp", report.distortion, 96 * qq, attempts, p),
            _embedding_artifact(emb))


def _pipe_cube_qs(m, seed: RngSeed, params: dict):
    """Large quotient of the Hamming cube with a certified embedding."""
    from .cube import cube_qs_construct

    res = cube_qs_construct(params["d"], params["eps"], params["p"], seed)
    return (_row(res.block_count, "QS", "lp", res.report.distortion, res.certified_bound,
                 p=params["p"]),
            _cube_artifact(res))


@dataclass(frozen=True)
class Pipeline:
    """One construction: `metriq run` executes it once per trial, and the CLI
    command generated from it runs it once.  Its parameters are declared once,
    as the options of that command; plan params are checked and converted by
    them.
    """

    name: str
    run: Callable
    options: tuple[click.Option, ...] = ()
    # None: the pipe runs on the plan's instance metric; otherwise it builds
    # its own space, of own_space(params) points
    own_space: Callable[[dict], int] | None = None

    def resolve(self, given: dict) -> dict:
        """`given` over the declared defaults, each value converted by its option."""
        opts = {o.name: o for o in self.options}
        unknown = sorted(set(given) - set(opts))
        missing = sorted(k for k, o in opts.items() if o.required and k not in given)
        if unknown or missing:
            raise ParameterError(
                f"pipeline {self.name!r} takes params {sorted(opts)}; "
                f"unknown {unknown}, missing {missing}"
            )
        params = {k: o.default for k, o in opts.items() if not o.required}
        for k, v in given.items():
            try:
                # convert, unlike calling the type, rejects None; click's BOOL
                # raises AttributeError on values that are neither bool nor str
                params[k] = opts[k].type.convert(v, opts[k], None)
            except (click.BadParameter, TypeError, AttributeError) as exc:
                raise ParameterError(f"pipeline {self.name!r}: bad {k!r} value {v!r}") from exc
        return params


def _opt(name: str, default, **kw) -> click.Option:
    return click.Option([name], default=default, show_default=True, **kw)


def _flag(name: str) -> click.Option:
    return click.Option([name], is_flag=True)


PIPELINES = {p.name: p for p in (
    Pipeline("q2", _pipe_q2),
    Pipeline("aspect", _pipe_aspect, (_opt("--alpha", 2.0), _flag("--lipschitz"))),
    Pipeline("dichotomy", _pipe_dichotomy, (
        _opt("--k", 1.0), _opt("--beta", 1.5), _opt("--alpha", 2.0), _flag("--drop-root"),
    )),
    Pipeline("hst", _pipe_hst, (_opt("--eps", 0.25),)),
    Pipeline("bourgain", _pipe_bourgain, (_opt("--eps", 0.25), _opt("--p", 2.0))),
    Pipeline("cube-qs", _pipe_cube_qs, (
        click.Option(["--d"], type=int, required=True), _opt("--eps", 0.1), _opt("--p", 2.0),
    ), own_space=lambda params: 2 ** params["d"]),
)}


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
    params = pipeline.resolve(plan.params)
    values = []
    errors = []
    timings = []
    for t in range(plan.trials):
        trial_seed = RngSeed(plan.seed, t)
        row = {c: "" for c in CSV_COLUMNS}
        row["trial"] = t
        row["seed"] = plan.seed
        start = time.perf_counter()
        try:
            if pipeline.own_space:
                m = None
                row["n"] = pipeline.own_space(params)
            else:
                spec = InstanceSpec(plan.instance.variant, plan.instance.params, trial_seed.child(0))
                m = realize_instance(spec)
                row["n"] = m.n
            result, art = pipeline.run(m, trial_seed.child(1), params)
            row.update(result)
            values.append(float(result["certified_distortion"]))
            if keep_artifacts:
                art["trial"] = t
                bundle.artifacts.append(art)
        except MetriqError as exc:
            errors.append({"trial": t, "error": type(exc).__name__, "detail": str(exc)})
        timings.append((time.perf_counter() - start) * 1000.0)
        bundle.rows.append(row)
    q = (
        {
            "min": float(np.min(values)),
            "p25": float(np.percentile(values, 25)),
            "median": float(np.median(values)),
            "p75": float(np.percentile(values, 75)),
            "max": float(np.max(values)),
        }
        if values
        else {}
    )
    bundle.summary = {
        "trials": plan.trials,
        "failures": len(errors),
        "failure_rate": len(errors) / plan.trials if plan.trials else 0.0,
        "errors": errors,
        "certified_distortion": q,
        "millis": [round(x, 3) for x in timings],
    }
    return bundle


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------


def verify_bundle(doc: dict, tolerance: float = 1e-9) -> ValidationReport:
    """Re-check every certificate in a bundle using only the exact evaluators.

    Quotient artifacts are rebuilt from base + blocks and compared entry by
    entry; model distortions are recomputed; embedding distance tables are
    recomputed from vectors and weights with a local p-norm (no construction
    code involved).
    """
    report = ValidationReport()
    artifacts = doc.get("artifacts", doc.get("kind") and [doc] or [])
    if not isinstance(artifacts, list):
        raise StructuralError("bundle must contain an artifact list")
    for ai, art in enumerate(artifacts):
        kind = art.get("kind")
        try:
            if kind == "metric":
                vr = validate_metric(metric_from_json(art))
                for item in vr.violations:
                    report.add(item[0], (ai,) + item[1], item[2])
            elif kind == "quotient":
                _verify_quotient(art, ai, report, tolerance)
            elif kind == "hst":
                _verify_hst(art, ai, report, tolerance)
            elif kind == "embedding":
                _verify_embedding(art, ai, report, tolerance)
            elif kind == "cube-qs":
                _verify_cube(art, ai, report, tolerance)
            else:
                raise StructuralError(f"artifact {ai}: unknown kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"artifact {ai}: malformed ({exc})") from exc
    return report


def _verify_quotient(art: dict, ai: int, report: ValidationReport, tol: float):
    base = metric_from_json(art["base"])
    blocks = tuple(tuple(int(i) for i in b) for b in art["blocks"])
    stored = np.asarray(art["dist"], dtype=np.float64)
    prov = art["provenance"]
    if prov == "SQ":
        # subspace of a quotient: the stored matrix must itself be a metric and
        # dominate the recomputed full-quotient distances on those blocks
        recomputed = None
    else:
        recomputed = quotient_metric(base, blocks).metric.dist
    if recomputed is not None:
        bad = np.argwhere(np.abs(recomputed - stored) > tol)
        for i, j in bad:
            if i < j:
                report.add(
                    "quotient-distance",
                    (ai, int(i), int(j)),
                    f"stored {stored[i, j]!r} != recomputed {recomputed[i, j]!r}",
                )
    vr = validate_metric(stored, tol)
    for item in vr.violations:
        report.add(item[0], (ai,) + item[1], item[2])
    if "model" in art and "certified_distortion" in art and not report.violations:
        model = _model_from_doc(art["model"])
        rep = distortion_between(MetricSpace(stored), model)
        claimed = float(art["certified_distortion"])
        if abs(rep.distortion - claimed) > max(tol, 1e-6 * claimed):
            report.add(
                "certificate",
                (ai,),
                f"claimed distortion {claimed} != recomputed {rep.distortion}",
            )


def _verify_hst(art: dict, ai: int, report: ValidationReport, tol: float):
    from .hst import hst_from_json, hst_to_metric

    base = metric_from_json(art["base"])
    tree = hst_from_json(art["tree"])
    leafm = hst_to_metric(tree)
    rep = distortion_between(base, leafm)
    claimed = float(art["certified_distortion"])
    if abs(rep.distortion - claimed) > max(tol, 1e-6 * claimed):
        report.add("certificate", (ai,), f"claimed {claimed} != recomputed {rep.distortion}")
    if rep.contraction > 1.0 + tol:
        report.add("contraction", (ai,), f"tree metric contracts by {rep.contraction}")


def _verify_embedding(art: dict, ai: int, report: ValidationReport, tol: float):
    p = float(art["p"])
    raw = art["vectors"]
    w = np.asarray(art["weights"], dtype=np.float64) if art.get("weights") is not None else None
    if art.get("dtype") == "complex":
        v = np.asarray([[complex(c[0], c[1]) for c in row] for row in raw])
    else:
        v = np.asarray(raw, dtype=np.float64)
    mods = np.abs(v[:, None, :] - v[None, :, :]) ** p
    if w is not None:
        mods = mods * w[None, None, :]
    dists = mods.sum(axis=2) ** (1.0 / p)
    claimed = np.asarray(art["claimed"], dtype=np.float64)
    bad = np.argwhere(np.abs(dists - claimed) > max(tol, 1e-9 * max(1.0, claimed.max())))
    for i, j in bad:
        if i < j:
            report.add(
                "embedding-distance",
                (ai, int(i), int(j)),
                f"claimed {claimed[i, j]!r} != recomputed {dists[i, j]!r}",
            )


def _verify_cube(art: dict, ai: int, report: ValidationReport, tol: float):
    d = int(art["d"])
    r = int(art["r"])
    A = np.asarray(art["net"], dtype=np.int64)
    S = np.asarray(art["survivors"], dtype=np.int64)
    if int(art["block_count"]) != S.size - A.size + 1:
        report.add("cube-count", (ai,), "block_count inconsistent with survivor/net sizes")
    # net separation
    if A.size > 1:
        cross = np.bitwise_count(A[:, None] ^ A[None, :])
        np.fill_diagonal(cross, 2 * r + 1)
        if int(cross.min()) < 2 * r + 1:
            report.add("cube-net", (ai,), f"net separation {int(cross.min())} < 2r+1")
    # survivors really avoid the punctured balls
    dA = np.full(2**d, np.iinfo(np.int64).max, dtype=np.int64)
    pts = np.arange(2**d, dtype=np.int64)
    for a in A:
        np.minimum(dA, np.bitwise_count(pts ^ a), out=dA)
    expected = pts[(dA == 0) | (dA > r // 2)]
    if not np.array_equal(expected, S):
        report.add("cube-survivors", (ai,), "survivor set does not match the net and radius")


# ---------------------------------------------------------------------------
# Click commands
# ---------------------------------------------------------------------------


@click.group()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--tolerance", type=float, default=1e-9, show_default=True)
@click.pass_context
def main(ctx, seed, out, fmt, tolerance):
    """Quotients and embeddings of finite metric spaces."""
    ctx.obj = {"seed": seed, "out": out, "fmt": fmt, "tol": tolerance}


def _emit(ctx, doc: dict | str):
    text = doc if isinstance(doc, str) else dumps(doc)
    out = ctx.obj["out"]
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _load_metric(path: str) -> MetricSpace:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        return metric_from_csv(text)
    return metric_from_json(json.loads(text))


@main.command()
@click.option("--variant", required=True,
              type=click.Choice(["padded", "gnp", "composition", "lipcomp", "cube",
                                 "star", "lacunary", "equilateral", "cloud"]))
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
        _emit(ctx, metric_to_json(m))


@main.command()
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--blocks", default=None, help='semicolon-separated blocks, e.g. "0,1;2;3,4"')
@click.option("--subset", default=None, help="comma-separated subset to collapse to one block")
@click.pass_context
def quotient(ctx, path, blocks, subset):
    """Quotient a metric by explicit blocks or by collapsing one subset."""
    from .quotient import quotient_by_subset

    m = _load_metric(path)
    if (blocks is None) == (subset is None):
        raise click.UsageError("give exactly one of --blocks / --subset")
    if subset is not None:
        q = quotient_by_subset(m, [int(x) for x in subset.split(",") if x.strip()])
    else:
        blks = [tuple(int(x) for x in b.split(",") if x.strip()) for b in blocks.split(";")]
        q = quotient_metric(m, blks)
    _emit(ctx, quotient_to_json(q))


@main.group()
def construct():
    """Randomized quotient constructions."""


def _seed_of(ctx) -> RngSeed:
    return RngSeed(ctx.obj["seed"])


@construct.command("mcenter")
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--eps", type=float, required=True)
@click.pass_context
def construct_mcenter(ctx, path, eps):
    from .constructions import m_center_quotient

    m = _load_metric(path)
    T, q, attempts = m_center_quotient(m, eps, _seed_of(ctx))
    doc = quotient_to_json(q)
    doc.update({"kind": "quotient", "T": T, "attempts": attempts})
    _emit(ctx, doc)


@construct.command("star")
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--alpha", type=float, required=True)
@click.pass_context
def construct_star(ctx, path, a, b, alpha):
    from .constructions import find_star_quotient

    m = _load_metric(path)
    res = find_star_quotient(m, a, b, alpha, _seed_of(ctx))
    doc = _quotient_artifact(res.quotient, Star(res.quotient.metric.n - 1, res.tau),
                             res.report.distortion)
    doc["model"]["scale"] = a
    doc["attempts"] = res.attempts
    _emit(ctx, doc)


@construct.command("composition")
@click.option("--depth", type=int, default=2, show_default=True)
@click.option("--k", type=float, default=2.0, show_default=True)
@click.option("--alpha", type=float, default=1.5, show_default=True)
@click.option("--beta", type=float, default=4.0, show_default=True)
@click.pass_context
def construct_composition(ctx, depth, k, alpha, beta):
    from .constructions import composition_qs
    from .generators import random_composition_tree

    seed = _seed_of(ctx)
    tree = random_composition_tree(depth, seed.child(0), beta=beta)
    res = composition_qs(tree, k, alpha, seed.child(1))
    _emit(ctx, {
        **_hst_artifact(res.quotient.metric, res.hst, res.report.distortion),
        "alpha_bound": res.alpha_bound,
        "sigma": res.sigma,
        "sigma_ok": res.sigma_ok,
        "blocks": [list(b) for b in res.quotient.blocks],
    })


def _pipeline_command(pipeline: Pipeline) -> click.Command:
    """The CLI command that runs `pipeline` once with RngSeed(--seed) and emits its artifact."""

    def callback(path=None, **params):
        ctx = click.get_current_context()
        m = None if pipeline.own_space else _load_metric(path)
        _emit(ctx, pipeline.run(m, _seed_of(ctx), params)[1])

    opts = list(pipeline.options)
    if not pipeline.own_space:
        opts.insert(0, click.Option(["--in", "path"], required=True, type=click.Path(exists=True)))
    return click.Command(pipeline.name, callback=callback, params=opts, help=pipeline.run.__doc__)


for _pipeline in PIPELINES.values():
    (main if _pipeline.own_space else construct).add_command(_pipeline_command(_pipeline))


@main.group()
def embed():
    """Explicit embeddings into weighted L_p."""


@embed.command("bourgain")
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--mparam", type=float, required=True)
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--mode", type=click.Choice(["exact", "monte-carlo"]), default="exact")
@click.pass_context
def embed_bourgain(ctx, path, mparam, p, mode):
    from .embeddings import bourgain_embed

    emb, report = bourgain_embed(_load_metric(path), mparam, p, mode, _seed_of(ctx))
    _emit(ctx, {**_embedding_artifact(emb), "distortion": report.distortion})


@embed.command("star")
@click.option("--n", type=int, required=True)
@click.option("--tau", type=float, required=True)
@click.option("--p", type=float, required=True)
@click.pass_context
def embed_star(ctx, n, tau, p):
    from .embeddings import star_to_lp

    _emit(ctx, _embedding_artifact(star_to_lp(n, tau, p)))


@embed.command("gauss-trunc")
@click.option("--n", type=int, default=16, show_default=True)
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--level", "D", type=float, required=True)
@click.option("--features", type=int, default=1024, show_default=True)
@click.pass_context
def embed_gauss(ctx, n, dim, D, features):
    from .embeddings import truncated_gauss_embed

    rng = _seed_of(ctx).child(0).rng()
    pts = rng.uniform(0.0, 2.0 * D, size=(n, dim))
    emb = truncated_gauss_embed(pts, D, features, _seed_of(ctx).child(1))
    _emit(ctx, {**_embedding_artifact(emb), "points": pts.tolist()})


@embed.command("pstable")
@click.option("--n", type=int, default=8, show_default=True)
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--level", "D", type=float, required=True)
@click.option("--p", type=float, required=True)
@click.option("--features", type=int, default=1024, show_default=True)
@click.pass_context
def embed_pstable(ctx, n, dim, D, p, features):
    from .embeddings import pstable_embed

    rng = _seed_of(ctx).child(0).rng()
    pts = rng.uniform(0.0, 2.0 * D, size=(n, dim))
    emb = pstable_embed(pts, D, p, features, _seed_of(ctx).child(1))
    _emit(ctx, {**_embedding_artifact(emb), "points": pts.tolist()})


@embed.command("uptolog")
@click.option("--n", type=int, default=8, show_default=True)
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--level", "D", type=float, required=True)
@click.option("--p", type=float, required=True)
@click.pass_context
def embed_uptolog(ctx, n, dim, D, p):
    from .embeddings import uptolog_embed

    rng = _seed_of(ctx).child(0).rng()
    # 1-separated l1 points
    pts = np.floor(rng.uniform(0.0, max(2.0, D), size=(n, dim)))
    pts = np.unique(pts, axis=0)
    res = uptolog_embed(pts, D, p)
    _emit(ctx, {"kind": "metric", "dist": res.metric.dist.tolist(),
                "image_norm": res.image_norm, "c1": res.c1, "c2": res.c2})


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


@certify.command("lipq")
@click.option("--map", "path", required=True, type=click.Path(exists=True))
@click.option("--alpha", type=float, required=True)
@click.pass_context
def certify_lipq(ctx, path, alpha):
    from .lipschitz import certify_lip_quotient, lip_colip, quotient_map_from_json

    with open(path) as fh:
        qm = quotient_map_from_json(json.load(fh))
    lip, colip = lip_colip(qm)
    _emit(ctx, {"lip": lip, "colip": colip, "product": lip * colip,
                "certified": certify_lip_quotient(qm, alpha)})


@certify.command("cube-lower")
@click.option("--in", "path", required=True, type=click.Path(exists=True))
@click.option("--p", type=float, default=2.0, show_default=True)
@click.pass_context
def certify_cube_lower(ctx, path, p):
    from .cube import CubeQsResult, cube_qs_certify_lower
    from .cube import DistortionSummary

    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") == "cube-qs":
        d = int(doc["d"])
        A = np.asarray(doc["net"], dtype=np.int64)
        S = np.asarray(doc["survivors"], dtype=np.int64)
        dA = np.zeros(S.size)  # not needed for the lower bound
        res = CubeQsResult(d, float(doc["eps"]), float(doc["p"]), int(doc["r"]),
                           A, S, dA, DistortionSummary(1.0, 1.0, 0), float(doc["bound"]))
        r, bound = cube_qs_certify_lower(res, p)
    else:
        r, bound = cube_qs_certify_lower(quotient_from_json(doc), p)
    _emit(ctx, {"r": r, "bound": bound, "p": p})


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
    with open(path) as fh:
        plan = plan_from_json(json.load(fh))
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
    with open(path) as fh:
        doc = json.load(fh)
    rep = verify_bundle(doc, ctx.obj["tol"])
    _emit(ctx, {"ok": rep.ok,
                "violations": [[k, list(w), msg] for k, w, msg in rep.violations]})
    if not rep.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
