"""The artifact format: the writer of each certificate kind (an embedding's is
embeddings.embedding_to_json), its fields and its check.

`verify_bundle` reads every artifact through the declaration `CHECKS` gives its `kind`,
re-checks the fields it read through the kind's check, and compares a bundle's rows with the
rows they give (row_of).
A quotient, hst or embedding artifact is about a base metric: in a bundle, the instance
its plan names, which verify rebuilds; in a standalone artifact, the base it embeds.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from . import cube, errors as _errors
from .core import (METRIC, TOL, Doc, MetricSpace, ValidationReport, array, integer, list_of, metric_from_fields,
                   metric_to_json, number, one_of, validate_metric)
from .errors import MetriqError, StructuralError
from .embeddings import bourgain_bound
from .generators import INSTANCES, InstanceSpec, realize_instance, resolve_instance
from .hst import TREE, HstTree, hst_to_json, hst_to_metric
from .quotient import (QUOTIENT, QuotientSpace, claim_slack, distortion_between, lip_colip, quotient_by_subset,
                       quotient_from_fields, quotient_to_json)


def _model_doc(model) -> dict:
    """The model's type and fields but `edge`: distortion does not depend on scale.
    The fields are read shallowly: asdict would copy a Lacunary's tuple element by element."""
    return {"type": type(model).__name__.lower(), **{f.name: getattr(model, f.name) for f in fields(model)
                                                     if f.name != "edge"}}


def _quotient_artifact(q: QuotientSpace, model, certified: float, lipschitz: float | None = None) -> dict:
    """Blocks and provenance of q, a quotient of the pipe's instance, which the
    artifact does not copy; lipschitz: the alpha that bounds lip * colip of its
    block collapse, where the pipe promises one."""
    doc = quotient_to_json(q, base=False)
    doc["kind"] = "quotient"
    doc["model"] = _model_doc(model)
    doc["certified_distortion"] = certified
    if lipschitz is not None:
        doc["lipschitz"] = lipschitz
    return doc


def _hst_artifact(tree, certified: float, **source) -> dict:
    """source: how the tree's base is the pipe's instance collapsed, subset=T
    (quotient_by_subset) or the blocks and provenance of a quotient_to_json."""
    return {"kind": "hst", **source, "tree": hst_to_json(tree), "certified_distortion": certified}


def _standalone_artifact(art: dict, m: MetricSpace | None) -> dict:
    """A pipe's artifact with m, the instance metric it ran on, embedded as the
    base of a kind that has one: without a plan, nothing else gives it."""
    if m is not None and "base" in CHECKS[art["kind"]][0].fields:
        art["base"] = metric_to_json(m)
    return art


def _cube_artifact(res) -> dict:
    return {"kind": "cube-qs", "d": res.d, "eps": res.eps, "p": res.p, "witnesses": [list(w) for w in res.witnesses],
            "certified_distortion": res.report.distortion}


# --- checks: each takes the fields its kind's declaration has read, adds its
# violations to the report and returns the size of the certified space, which
# the artifact's row gives as `quotient_size`


def _model_from_doc(doc: dict) -> MetricSpace:
    """The model metric of a quotient artifact, realized through its INSTANCES entry."""
    params = {k: v for k, v in doc.items() if v is not None}
    t = params.pop("type")
    inst = INSTANCES.get(t)
    if inst is None or inst.model is None:
        raise StructuralError(f"unknown model type {t!r}")
    return realize_instance(InstanceSpec(t, params, None))


def _check_claim(claimed: float, recomputed: float, ai: int, report: ValidationReport):
    if abs(recomputed - claimed) > claim_slack(claimed):
        report.add("certificate", (ai,), f"claimed distortion {claimed} != recomputed {recomputed}")


def _verify_metric(f: dict, ai: int, report: ValidationReport) -> int:
    m = metric_from_fields(f)
    for kind, where, detail in validate_metric(m).violations:
        report.add(kind, (ai,) + where, detail)
    return m.n


def _verify_quotient(f: dict, ai: int, report: ValidationReport) -> int:
    """Rebuild the quotient from base and blocks (quotient_from_fields), check
    that it is a metric and, if this artifact has no violation, its claim and
    its `lipschitz` bound on lip * colip of the block collapse onto it.
    Model and claim come together or not at all."""
    if (f["model"] is None) != (f["certified_distortion"] is None):
        raise StructuralError("a quotient holds model and certified_distortion together, or neither")
    q = quotient_from_fields(f["base"], f)
    metric_report = validate_metric(q.metric)
    for kind, where, detail in metric_report.violations:
        report.add(kind, (ai,) + where, detail)
    if f["model"] is not None and metric_report.ok:
        rep = distortion_between(q.metric, _model_from_doc(f["model"]))
        _check_claim(f["certified_distortion"], rep.distortion, ai, report)
    if f["lipschitz"] is not None and metric_report.ok:
        lip, colip = lip_colip(f["base"], q.blocks, q.metric)
        if lip * colip - f["lipschitz"] > claim_slack(f["lipschitz"]):
            report.add("lipschitz", (ai,), f"lip * colip = {lip} * {colip} exceeds {f['lipschitz']}")
    return q.metric.n


#: the tree is over the base collapsed on `subset` (the hst pipeline's m-centre
#: set T) or by `blocks` and `provenance` (the composition pipeline's QS
#: quotient), or over the base itself: in a bundle the plan's instance
HST = Doc("an hst artifact", kind="hst", base=METRIC, subset=list_of(integer),
          blocks=list_of(list_of(integer)), provenance=one_of("Q", "QS", "SQ"), tree=TREE,
          certified_distortion=number, optional={"base", "subset", "blocks", "provenance"})


def _collapsed_base(f: dict) -> MetricSpace:
    """The base of f collapsed on its `subset` by quotient_by_subset, as the hst and bourgain pipelines
    collapse their m-centre set, its provenance set for the row; the base itself without a subset."""
    if f["subset"] is None:
        return f["base"]
    q = quotient_by_subset(f["base"], f["subset"])
    f["provenance"] = q.provenance
    return q.metric


def _verify_hst(f: dict, ai: int, report: ValidationReport) -> int:
    """The tree against its base, collapsed where the artifact says how, as
    its pipeline collapses it: on `subset` (_collapsed_base) or by `blocks`
    (quotient_from_fields)."""
    tree = f["tree"]
    if (f["blocks"] is None) != (f["provenance"] is None) or f["subset"] is not None and f["blocks"] is not None:
        raise StructuralError("an hst artifact holds a subset, or blocks and their provenance, or neither")
    base = _collapsed_base(f) if f["blocks"] is None else quotient_from_fields(f["base"], f).metric
    if tree["order"].size != base.n:  # before hst_to_metric allocates leaves x leaves
        raise StructuralError(f"source has {base.n} points, the tree {tree['order'].size} leaves")
    rep = distortion_between(base, hst_to_metric(HstTree(**tree)))
    _check_claim(f["certified_distortion"], rep.distortion, ai, report)
    if rep.contraction > 1.0 + TOL:
        report.add("contraction", (ai,), f"tree metric contracts by {rep.contraction}")
    return base.n


#: the bourgain pipeline's embedding of the base collapsed on `subset`: the
#: coordinates d(u, A_j), A_j row j of the J x N membership mask whose flat
#: indices `subsets` lists, J the size of `weights`
EMBEDDING = Doc("an embedding artifact", kind="embedding", base=METRIC, subset=list_of(integer), p=number,
                weights=array("f", 1), subsets=array("i", 1), certified_distortion=number, optional={"base"})


def _verify_embedding(f: dict, ai: int, report: ValidationReport) -> int:
    """Rebuild the coordinates with the _subset_distances that the run takes and recompute the claim;
    weights >= 0 (VectorEmbedding refuses others) that sum to at most 1 keep the 1-Lipschitz
    coordinates non-expanding."""
    from .embeddings import VectorEmbedding, _subset_distances, embedding_distortion

    source, w, flat = _collapsed_base(f), f["weights"], f["subsets"]
    if not w.sum() <= 1.0 + TOL:
        raise StructuralError("weights must sum to at most 1")
    mask = np.zeros((w.size, source.n), dtype=bool)
    if flat.size and not (0 <= flat[0] and flat[-1] < mask.size and (np.diff(flat) > 0).all()):
        raise StructuralError(f"subsets must be increasing flat indices into a {w.size} x {source.n} mask")
    mask.flat[flat] = True
    emb = VectorEmbedding(_subset_distances(source.dist, mask), f["p"], w)
    _check_claim(f["certified_distortion"], embedding_distortion(source, emb).distortion, ai, report)
    return source.n


def _witness_pairs(value, path: str) -> list:
    """At most two point pairs, one per extreme of the cube bound."""
    pairs = list_of(list_of(integer))(value, path)
    if len(pairs) > 2:
        raise StructuralError(f"declared {path} holds {len(pairs)} pairs, more than the bound's two extremes")
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise StructuralError(f"declared {path}[{i}] is not a pair of points")
    return pairs


CUBE = Doc("a cube-qs artifact", kind="cube-qs", d=integer, eps=number, p=number, witnesses=_witness_pairs,
           certified_distortion=number)


def _verify_cube(f: dict, ai: int, report: ValidationReport) -> int:
    """Recompute the claim from d, eps and p by the construction's decision, cube._claim, on the
    stored witnesses: a cell that keeps too few blocks raises its ConstructionFailureError.  Returns
    the block count; a cube quotient is QS, and the decision's bound, set as `bound`, is its row's."""
    d, eps, p = f["d"], f["eps"], f["p"]
    f["provenance"] = "QS"
    if not 1 <= d <= cube.MAX_D:  # before the 2^d scan below allocates
        raise StructuralError(f"d = {d} is outside 1..{cube.MAX_D}")
    if not 2.0 ** -d <= eps < 0.25:
        raise StructuralError(f"eps = {eps!r} is outside [2^-d, 1/4)")
    if not (p == 2.0 or 1.0 <= p < 2.0):
        raise StructuralError(f"p = {p!r} is neither 2 nor in [1, 2)")
    *_, (exact, _, bad, singletons), f["bound"] = cube._claim(d, eps, p, f["witnesses"])
    if bad is None:
        _check_claim(f["certified_distortion"], exact.distortion, ai, report)
    else:
        x, y = f["witnesses"][bad]
        report.add("cube-witness", (ai, bad), f"({x}, {y}) is not a singleton pair in an extreme cell")
    return singletons + 1  # a block per singleton, and the net's


#: artifact kind -> (its declaration, check(fields, artifact index, report) -> certified
#: size); each check allows core.TOL, and quotient.claim_slack about a claim.
#: metric_from_json and quotient_from_json read core.METRIC and quotient.QUOTIENT.
#: A check gets a declared `base` as a MetricSpace (_with_base).
CHECKS = {
    "metric": (METRIC, _verify_metric),
    "quotient": (QUOTIENT, _verify_quotient),
    "hst": (HST, _verify_hst),
    "embedding": (EMBEDDING, _verify_embedding),
    "cube-qs": (CUBE, _verify_cube),
}

CSV_COLUMNS = ["trial", "seed", "n", "quotient_size", "provenance", "target_class", "p",
               "certified_distortion", "paper_bound", "attempts", "millis"]


def _paper_bound(plan, f: dict):
    """The bound of arXiv math/0406349 that the plan's construction certifies, from its resolved params."""
    params = plan.resolved
    if plan.pipeline == "cube-qs":  # the bound of its cell's decision (cube._claim)
        return f["bound"]
    from .constructions import composition_bound, hst_mparam, m_center_size

    if plan.pipeline == "q2":
        return 2.0
    if plan.pipeline == "hst":
        return 2.0 * hst_mparam(params["eps"])
    if plan.pipeline == "bourgain":
        return bourgain_bound(m_center_size(params["eps"]), params["p"])
    if plan.pipeline == "composition":  # every node of the instance's tree has its beta
        return composition_bound(resolve_instance(plan.instance)[1]["beta"], params["alpha"])
    return params["alpha"]  # aspect, dichotomy, star


#: the target class of each pipeline whose artifact is not a quotient
_TARGETS = {"hst": "UM", "composition": "UM", "bourgain": "lp", "cube-qs": "lp"}


def row_of(plan, f: dict, size: int) -> dict:
    """Every CSV column but `attempts` of the row of trial f["trial"] of the plan,
    whose artifact has the checked fields f and certifies `size` points; f also
    holds `n`, the instance size, and what its check works out that the artifact
    does not hold (the provenance of a collapse on `subset`, a cube's `bound`).
    A quotient's target class is its model type, but star for dichotomy's
    equilateral model of the SQ space drop_root keeps of a star.
    run_experiment writes this row, and _check_rows compares a bundle's with it."""
    target = _TARGETS.get(plan.pipeline) or (f.get("model") or {}).get("type")
    if target == "equilateral" and plan.pipeline == "dichotomy":
        target = "star"
    p, claim = f.get("p"), f["certified_distortion"]
    return {"trial": f["trial"], "seed": plan.seed, "n": f["n"], "quotient_size": size,
            "provenance": f["provenance"] or "", "target_class": target or "", "p": "" if p is None else p,
            "certified_distortion": "" if claim is None else claim, "paper_bound": _paper_bound(plan, f),
            "millis": ""}


def _same(a, b) -> bool:
    """a == b, in value and JSON type throughout, as _wrong compares a row's columns."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _wrong(row: dict, expected: dict) -> str:
    """Each column where row is not expected's, in value or JSON type (14 is
    not 14.0, nor 0 false), but the seed, checked apart, and each key of row that is no column."""
    wrong = [f"{k} {row.get(k)!r} != {v!r}" for k, v in expected.items()
             if k != "seed" and (type(row.get(k)) is not type(v) or row.get(k) != v)]
    return "; ".join(wrong + [f"{k!r} is no column" for k in row.keys() - set(CSV_COLUMNS)])


def _check_rows(rows: list, artifacts: list[tuple[dict, int]], report: ValidationReport, plan) -> tuple[list, list]:
    """Every row names its plan's seed and one of its trials, no earlier row's.
    A row is the row_of its artifact (checked fields and certified size) with
    an integer `attempts` >= 1, which certifies nothing, or without one a
    failed trial's, as run_experiment writes it: every column empty but trial,
    seed and n, the size of the instance built before the trial failed: any
    integer, but own_space's for a pipeline that builds its own space, empty
    where that refuses the plan.  So a bundle written without `--artifacts`
    fails verify unless every trial failed.  Returns the rows as compared and
    the failed trials, ascending."""
    from .cli import PIPELINES

    by_trial, made = {}, []
    for row in rows:
        t = row["trial"]
        if type(row.get("seed")) is not int or row["seed"] != plan.seed:
            report.add("row", (), f"trial {t!r}: seed {row.get('seed')!r} != plan seed {plan.seed}")
        if t in by_trial or type(t) is not int or not 0 <= t < plan.trials:
            report.add("row", (), f"trial {t!r} repeats an earlier row's or is not in 0..{plan.trials - 1}")
        else:
            by_trial[t] = row
    for ai, (f, size) in enumerate(artifacts):
        row = by_trial.pop(f["trial"], None)  # what stays is the rows without an artifact
        if row is None:
            report.add("row", (ai,), f"trial {f['trial']!r} has no row, or an earlier artifact")
            continue
        a = row.get("attempts")  # any integer >= 1 is as good
        made.append({**row_of(plan, f, size), "attempts": a if type(a) is int and a >= 1 else 1})
        wrong = _wrong(row, made[-1])
        if wrong:
            report.add("row", (ai,), f"row {wrong}")
    space = PIPELINES[plan.pipeline].own_space
    for t, row in by_trial.items():
        n = row.get("n")
        if space:  # the n run_experiment writes: empty where own_space refuses the plan
            try:
                n = space(plan.instance, plan.resolved)
            except MetriqError:
                n = ""
        made.append({**dict.fromkeys(CSV_COLUMNS, ""), "trial": t, "n": n if type(n) is int else ""})
        wrong = _wrong(row, made[-1])
        if wrong:
            report.add("row", (), f"trial {t!r} has no artifact, but {wrong}")
    return made, sorted(by_trial)


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


def summary_of(plan, rows: list, errors: list, millis: list) -> dict:
    """The JSON summary of the plan's rows: its trials and failures, the errors
    entry of each failed trial, the quantiles of the certified distortions
    (_quantiles) and millis, each trial's wall-clock time.  run_experiment
    writes it, and verify compares a bundle's with it (_check_summary)."""
    values = [float(row["certified_distortion"]) for row in rows if row["certified_distortion"] != ""]
    return {"trials": plan.trials, "failures": len(errors),
            "failure_rate": len(errors) / plan.trials if plan.trials else 0.0, "errors": errors,
            "certified_distortion": _quantiles(values), "millis": millis}


#: the errors a failed trial's entry may name: run_experiment records a MetriqError, and no other
_ERROR_NAMES = {name for name, c in vars(_errors).items() if isinstance(c, type) and issubclass(c, MetriqError)}


def _check_summary(summary: dict, rows: list, failed: list, report: ValidationReport, plan):
    """The summary is summary_of the rows as compared (_same): its errors hold
    one entry per failed trial, in order, each a MetriqError's name and a
    string detail, and its millis are plan.trials numbers, whose values stay
    unread."""
    given, millis = summary.get("errors"), summary.get("millis")
    wrong, errors = [], given  # malformed ones are reported once, then compared as given
    if type(given) is list and len(given) == len(failed) and all(
            type(e) is dict and type(e.get("error")) is str and e["error"] in _ERROR_NAMES
            and type(e.get("detail")) is str for e in given):
        errors = [{"trial": t, "error": e["error"], "detail": e["detail"]} for t, e in zip(failed, given)]
    else:
        wrong.append(f"errors {given!r} are not one MetriqError name and string detail per failed trial {failed}")
    if not (type(millis) is list and len(millis) == plan.trials and all(type(x) in (int, float) for x in millis)):
        wrong.append(f"millis {millis!r} are not {plan.trials} numbers")
    expected = {**summary_of(plan, rows, failed, millis), "errors": errors}  # failures: one per failed trial
    if not _same(summary, expected):
        wrong += [f"{k} {summary.get(k)!r} != {v!r}" for k, v in expected.items() if not _same(summary.get(k), v)]
        wrong += [f"{k!r} is no summary field" for k in summary.keys() - expected.keys()]
    if wrong:
        report.add("summary", (), "; ".join(wrong))


def _bundle_plan(doc: dict):
    """The plan of a bundle, read as `metriq run` reads it, or None for a document without one."""
    if "plan" not in doc:
        return None
    from .cli import plan_from_json

    try:
        return plan_from_json(doc["plan"])
    except MetriqError as exc:
        raise type(exc)(f"plan: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"plan: malformed ({exc!r})") from exc


def _bind_to_plan(f: dict, kind: str, plan) -> None:
    """Refuse a bundle artifact of a kind its plan's pipeline does not write,
    or whose fields disagree with the params it was written from: a cube's d,
    eps and p, an embedding's p, a quotient's `lipschitz`.  Set the `n` of a
    pipeline that builds its own space, whose instance must name it."""
    from .cli import PIPELINES

    pipeline, params = PIPELINES[plan.pipeline], plan.resolved
    if kind != pipeline.kind:
        raise StructuralError(f"a {plan.pipeline} plan writes {pipeline.kind} artifacts, not {kind}")
    if pipeline.own_space:
        f["n"] = pipeline.own_space(plan.instance, params)
    copied = {k: params[k] for k in {"cube-qs": ("d", "eps", "p"), "embedding": ("p",)}.get(kind, ())}
    if kind == "quotient":  # where the lipschitz flag is set, alpha bounds lip * colip
        copied["lipschitz"] = params["alpha"] if params.get("lipschitz") else None
    for key, value in copied.items():
        if f[key] != value:
            raise StructuralError(f"{key} {f[key]!r} is not its plan's {value!r}")


def _with_base(f: dict, plan) -> None:
    """Set the `base` of f, read for a kind that declares one, to the metric
    the artifact is about.

    In a bundle, that is trial t's instance, rebuilt from the plan as
    run_experiment built it, and the artifact must name t and store no base.
    Without a plan it is the base the artifact embeds.
    """
    if plan is None:
        if f["base"] is None:
            raise StructuralError("required base is missing")
        f["base"] = metric_from_fields(f["base"])
        return
    t = f["trial"]
    if f["base"] is not None:
        raise StructuralError(f"stores a base, but a {plan.pipeline} bundle's base is its plan's instance")
    if t is None or not 0 <= t < plan.trials:
        raise StructuralError(f"trial {t!r} is not one of the plan's {plan.trials} trials")
    f["base"] = realize_instance(plan.instance_spec(t))


def verify_bundle(doc: dict) -> ValidationReport:
    """Re-check every certificate in a bundle using only the exact evaluators.

    Each artifact is read through its kind's declaration, which refuses an
    undeclared key, a missing required field and a mistyped value with
    StructuralError.  The plan is read first; rows need it.  A bundle's
    artifacts must be of the kind its pipeline writes and repeat the params
    they were written from (_bind_to_plan), and its quotient, hst and
    embedding artifacts are checked against the instance of their trial,
    rebuilt from the plan (_with_base).
    Quotients are rebuilt from base + blocks (and, for SQ, the parent
    quotient) and must be metrics; model, HST, embedding and cube
    distortions are recomputed, a cube's from its d, eps, p and witnesses; a
    quotient's `lipschitz` bound must hold for its block collapse.  The
    tolerances are fixed: core.TOL, and quotient.claim_slack about a claim.
    In a bundle with rows, with or without artifacts, each row must be the
    row_of its trial's artifact or, without one, a failed trial's, and name
    its plan's seed (_check_rows); its summary must be the summary_of those
    rows (_check_summary).  Every MetriqError raised names its artifact.
    """
    report = ValidationReport()
    artifacts = doc.get("artifacts", [doc] if "kind" in doc else None) if isinstance(doc, dict) else None
    if not isinstance(artifacts, list):
        raise StructuralError("a bundle needs an artifact list, and a single artifact its kind")
    if "rows" in doc and "plan" not in doc:
        raise StructuralError("rows: a bundle's rows come with the plan they ran")
    plan = _bundle_plan(doc)
    read = []
    for ai, art in enumerate(artifacts):
        try:
            if not isinstance(art, dict):
                raise StructuralError(f"expected a JSON object, got {type(art).__name__}")
            kind = art["kind"] if "kind" in art else None
            if kind not in CHECKS:
                raise StructuralError(f"unknown kind {kind!r}")
            decl, check = CHECKS[kind]
            fields = decl(art)
            if plan is not None:
                _bind_to_plan(fields, kind, plan)
            if "base" in decl.fields:
                _with_base(fields, plan)
            read.append((fields, check(fields, ai, report)))
            if "base" in decl.fields:  # the rows read only its size: memory stays flat in trials
                fields["n"], fields["base"] = fields["base"].n, None
        except MetriqError as exc:
            raise type(exc)(f"artifact {ai}: {exc}") from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"artifact {ai}: malformed ({exc})") from exc
    if "summary" in doc and "rows" not in doc:
        raise StructuralError("summary: a bundle's summary comes with the rows it sums")
    if "rows" in doc:
        try:
            rows, failed = _check_rows(doc["rows"], read, report, plan)
        except (AttributeError, KeyError, TypeError) as exc:
            raise StructuralError(f"rows: malformed ({exc!r})") from exc
    if "summary" in doc:
        try:
            _check_summary(doc["summary"], rows, failed, report, plan)
        except (AttributeError, KeyError, TypeError) as exc:
            raise StructuralError(f"summary: malformed ({exc!r})") from exc
    return report
