"""The artifact format: the writer of each certificate kind (an embedding's is
embeddings.embedding_to_json), its fields and its check.

`verify_bundle` reads every artifact through the declaration `CHECKS` gives its `kind`,
re-checks the fields it read through the kind's check, and compares a bundle's rows with them.
A quotient, hst or embedding artifact is about a base metric: in a bundle, the instance
its plan names, which verify rebuilds; in a standalone artifact, the base it embeds.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from . import cube
from .core import (METRIC, TOL, Doc, MetricSpace, ValidationReport, array, integer, list_of, metric_from_fields,
                   metric_to_json, number, one_of, validate_metric)
from .errors import MetriqError, StructuralError
from .generators import INSTANCES, InstanceSpec, realize_instance
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
    return {
        "kind": "cube-qs",
        "d": res.d,
        "eps": res.eps,
        "p": res.p,
        "witnesses": [list(w) for w in res.witnesses],
        "certified_distortion": res.report.distortion,
    }


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
    """Recompute the claim from d, eps and p: the net radius and greedy net the
    construction takes, then its decision, cube._certify, on the stored
    witnesses.  Returns the block count; a cube quotient is QS."""
    d, eps, p = f["d"], f["eps"], f["p"]
    f["provenance"] = "QS"
    if not 1 <= d <= cube.MAX_D:  # before the 2^d scan below allocates
        raise StructuralError(f"d = {d} is outside 1..{cube.MAX_D}")
    if not 2.0 ** -d <= eps < 0.25:
        raise StructuralError(f"eps = {eps!r} is outside [2^-d, 1/4)")
    if not (p == 2.0 or 1.0 <= p < 2.0):
        raise StructuralError(f"p = {p!r} is neither 2 nor in [1, 2)")
    r = cube._net_radius(d, eps)
    _, dA = cube._greedy_net(d, r)
    exact, _, bad, singletons = cube._certify(d, dA, r // 2, *cube._embedding_lookup(d, r, p), f["witnesses"])
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

#: row fields an artifact repeats, where its fields hold them, as read or as its check sets them
ROW_FIELDS = ("provenance", "certified_distortion", "p")


def _check_rows(rows: list, artifacts: list[tuple[Doc, dict, int]], report: ValidationReport, plan):
    """Each artifact (its declaration, read fields and certified size) against
    the row of its trial, each certified row against its artifact, and every
    row's seed against its plan's.  A row's trial is one of its plan's trials
    and no earlier row's.

    Row and artifact are written from the same values, so they must be equal;
    a row field the artifact's fields hold as None must be empty.
    A row's `n` is the size of the instance its artifact was checked on (kept
    as `base`), or the `n` _bind_to_plan sets (cube-qs).
    """
    by_trial = {}
    for row in rows:
        t = row["trial"]
        if row.get("seed") != plan.seed:
            report.add("row", (), f"trial {t!r}: seed {row.get('seed')!r} != plan seed {plan.seed}")
        if t in by_trial or type(t) is not int or not 0 <= t < plan.trials:
            report.add("row", (), f"trial {t!r} repeats an earlier row's or is not in 0..{plan.trials - 1}")
        else:
            by_trial[t] = row
    for ai, (decl, f, size) in enumerate(artifacts):
        row = by_trial.pop(f["trial"], None)  # what stays is the rows without an artifact
        if row is None:
            report.add("row", (ai,), f"trial {f['trial']!r} has no row, or an earlier artifact")
            continue
        stored = {"quotient_size": size,
                  **{k: "" if f[k] is None else f[k] for k in ROW_FIELDS if k in f},
                  "n": f["base"] if "base" in decl.fields else f["n"]}
        for key, value in stored.items():
            if row.get(key) != value:
                report.add("row", (ai,), f"row {key} {row.get(key)!r} != artifact {value!r}")
    for t, row in by_trial.items():
        if row.get("certified_distortion", "") != "":
            report.add("row", (), f"trial {t!r} has a certificate but no artifact")


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


def _plan_fields(kind: str, params: dict) -> dict:
    """The fields that an artifact of `kind` copies from its pipeline's
    resolved params: a cube's d, eps and p, an embedding's p, and a quotient's
    `lipschitz`, its alpha where the lipschitz flag is set and none otherwise."""
    if kind == "cube-qs":
        return {k: params[k] for k in ("d", "eps", "p")}
    if kind == "embedding":
        return {"p": params["p"]}
    if kind == "quotient":
        return {"lipschitz": params["alpha"] if params.get("lipschitz") else None}
    return {}


def _bind_to_plan(f: dict, kind: str, plan) -> None:
    """Refuse a bundle artifact of a kind its plan's pipeline does not write,
    or whose fields disagree with the params it was written from.  Set the
    `n` of a pipeline that builds its own space, whose instance must name it."""
    from .cli import PIPELINES

    pipeline = PIPELINES[plan.pipeline]
    if kind != pipeline.kind:
        raise StructuralError(f"a {plan.pipeline} plan writes {pipeline.kind} artifacts, not {kind}")
    if pipeline.own_space:
        f["n"] = pipeline.own_space(plan.instance, plan.resolved)
    for key, value in _plan_fields(kind, plan.resolved).items():
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
    In a bundle with rows, with or without artifacts, each artifact must match
    the row of its trial, each row with a certificate have an artifact, and
    each row name its plan's seed.  Every MetriqError raised names its artifact.
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
            read.append((decl, fields, check(fields, ai, report)))
            if "base" in decl.fields:  # the rows read only its size: memory stays flat in trials
                fields["base"] = fields["base"].n
        except MetriqError as exc:
            raise type(exc)(f"artifact {ai}: {exc}") from exc
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"artifact {ai}: malformed ({exc})") from exc
    if "rows" in doc:
        try:
            _check_rows(doc["rows"], read, report, plan)
        except (AttributeError, KeyError, TypeError) as exc:
            raise StructuralError(f"rows: malformed ({exc!r})") from exc
    return report
