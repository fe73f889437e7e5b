"""The artifact format: the writer of each certificate kind and its check.

`verify_bundle` re-checks every artifact from its bytes alone, through the
check that `CHECKS` gives its `kind`, and compares a bundle's rows with them.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from .core import (
    MetricSpace,
    ValidationReport,
    decode_array,
    encode_array,
    metric_from_json,
    metric_to_json,
    validate_metric,
)
from .cube import MAX_D, _net_radius
from .errors import ParameterError, StructuralError
from .generators import INSTANCES
from .quotient import QuotientSpace, distortion_between, quotient_from_json, quotient_to_json


def _model_doc(model) -> dict:
    return {"type": type(model).__name__.lower(), **asdict(model)}


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


def _embedding_artifact(emb, induced: MetricSpace) -> dict:
    """`induced` is induced_metric(emb), already computed."""
    from .embeddings import embedding_to_json

    doc = embedding_to_json(emb)
    doc["kind"] = "embedding"
    doc["claimed"] = encode_array(induced.dist)
    return doc


def _cube_artifact(res) -> dict:
    return {
        "kind": "cube-qs",
        "d": res.d,
        "eps": res.eps,
        "p": res.p,
        "r": res.r,
        "net": encode_array(res.A),
        "survivors": encode_array(res.S),
        "block_count": res.block_count,
        "certified_distortion": res.report.distortion,
    }


# --- checks: each adds its violations to the report and returns the size of
# the certified space, which the artifact's row gives as `quotient_size`


def _model_from_doc(doc: dict) -> MetricSpace:
    """The model metric of a quotient artifact, built through its INSTANCES entry."""
    params = dict(doc)
    t = params.pop("type")
    inst = INSTANCES.get(t)
    if inst is None or inst.model is None:
        raise StructuralError(f"unknown model type {t!r}")
    return inst.build(None, **inst.resolve(params))


def _check_claim(art: dict, recomputed: float, ai: int, report: ValidationReport, tol: float):
    """The artifact's certified_distortion must be finite and match the recomputed one."""
    claimed = float(art["certified_distortion"])
    if not math.isfinite(claimed) or abs(recomputed - claimed) > max(tol, 1e-6 * claimed):
        report.add("certificate", (ai,), f"claimed distortion {claimed} != recomputed {recomputed}")


def _verify_metric(art: dict, ai: int, report: ValidationReport, tol: float) -> int:
    m = metric_from_json(art)
    for kind, where, detail in validate_metric(m).violations:
        report.add(kind, (ai,) + where, detail)
    return m.n


def _verify_quotient(art: dict, ai: int, report: ValidationReport, tol: float) -> int:
    """Rebuild the quotient from base and blocks (quotient_from_json), check
    that it is a metric and, if this artifact has no violation, its claim."""
    q = quotient_from_json(art)
    metric_report = validate_metric(q.metric, tol)
    for kind, where, detail in metric_report.violations:
        report.add(kind, (ai,) + where, detail)
    if "model" in art and "certified_distortion" in art and metric_report.ok:
        model = _model_from_doc(art["model"])
        _check_claim(art, distortion_between(q.metric, model).distortion, ai, report, tol)
    return q.metric.n


def _verify_hst(art: dict, ai: int, report: ValidationReport, tol: float) -> int:
    from .hst import hst_from_json, hst_to_metric

    base = metric_from_json(art["base"])
    leaves = decode_array(art["tree"]["order"]).size
    if leaves != base.n:  # before hst_to_metric allocates leaves x leaves
        raise StructuralError(f"source has {base.n} points, the tree {leaves} leaves")
    rep = distortion_between(base, hst_to_metric(hst_from_json(art["tree"])))
    _check_claim(art, rep.distortion, ai, report, tol)
    if rep.contraction > 1.0 + tol:
        report.add("contraction", (ai,), f"tree metric contracts by {rep.contraction}")
    return base.n


def _verify_embedding(art: dict, ai: int, report: ValidationReport, tol: float) -> int:
    from .embeddings import VectorEmbedding, induced_metric

    w = decode_array(art["weights"]) if art.get("weights") is not None else None
    emb = VectorEmbedding(decode_array(art["vectors"]), float(art["p"]), art["mode"], w)
    dists = induced_metric(emb).dist
    claimed = decode_array(art["claimed"])
    bad = ~np.isfinite(claimed)
    if not bad.any():
        bad = np.abs(dists - claimed) > max(tol, 1e-9 * max(1.0, claimed.max()))
    for i, j in np.argwhere(bad):
        report.add("embedding-distance", (ai, int(i), int(j)),
                   f"claimed {claimed[i, j]!r} != recomputed {dists[i, j]!r}")
    return emb.n


def _verify_cube(art: dict, ai: int, report: ValidationReport, tol: float) -> int:
    d, eps, r = int(art["d"]), float(art["eps"]), int(art["r"])
    if not 1 <= d <= MAX_D:  # before the 2^d scan below allocates
        raise StructuralError(f"d = {d} is outside 1..{MAX_D}")
    if not 2.0 ** -d <= eps < 0.25:
        raise StructuralError(f"eps = {eps!r} is outside [2^-d, 1/4)")
    radius = _net_radius(d, eps)
    if r != radius:
        report.add("cube-radius", (ai,), f"r = {r} is not the net radius {radius} of d and eps")
    A = decode_array(art["net"])
    S = decode_array(art["survivors"])
    block_count = int(art["block_count"])
    if block_count != S.size - A.size + 1:
        report.add("cube-count", (ai,), "block_count inconsistent with survivor/net sizes")
    claimed = float(art["certified_distortion"])
    if not math.isfinite(claimed):
        report.add("certificate", (ai,), f"claimed distortion {claimed} is not finite")
    elif claimed < 1.0 - tol:  # max ratio / min ratio
        report.add("certificate", (ai,), f"claimed distortion {claimed!r} is below 1")
    # radius-r balls around a (2r+1)-separated net are disjoint, so it has at
    # most 2^d / V(d, r) points; this also caps the |A| x |A| table below
    if A.size * sum(math.comb(d, k) for k in range(radius + 1)) > 2**d:
        report.add("cube-net", (ai,), f"{A.size} points are too many for a net of radius {radius}")
        return block_count
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
    return block_count


#: artifact kind -> check(art, artifact index, report, tolerance) -> certified size
CHECKS = {
    "metric": _verify_metric,
    "quotient": _verify_quotient,
    "hst": _verify_hst,
    "embedding": _verify_embedding,
    "cube-qs": _verify_cube,
}

#: row fields an artifact repeats, where it stores them
ROW_FIELDS = ("provenance", "certified_distortion", "p")


def _check_rows(rows: list, artifacts: list[dict], sizes: list[int], report: ValidationReport):
    """Each artifact against the row of its trial, and each certified row against its artifact.

    Row and artifact are written from the same values, so they must be equal.
    """
    by_trial = {row["trial"]: row for row in rows}
    seen = set()
    for ai, (art, size) in enumerate(zip(artifacts, sizes)):
        t = art.get("trial")
        if t not in by_trial or t in seen:
            report.add("row", (ai,), f"trial {t!r} has no row, or an earlier artifact")
            continue
        seen.add(t)
        row = by_trial[t]
        stored = {"quotient_size": size, **{k: art[k] for k in ROW_FIELDS if k in art}}
        for key, value in stored.items():
            if row.get(key) != value:
                report.add("row", (ai,), f"row {key} {row.get(key)!r} != artifact {value!r}")
    for t, row in by_trial.items():
        if row.get("certified_distortion", "") != "" and t not in seen:
            report.add("row", (), f"trial {t!r} has a certificate but no artifact")


def verify_bundle(doc: dict, tolerance: float = 1e-9) -> ValidationReport:
    """Re-check every certificate in a bundle using only the exact evaluators.

    Quotient artifacts are rebuilt from base + blocks (and, for SQ, the parent
    quotient) and must be metrics; model and HST distortions are recomputed;
    embedding distance tables are recomputed from vectors and weights by
    embeddings.induced_metric; a cube's radius must follow from d and eps.  A
    non-finite claim, table entry or vector is a violation or StructuralError.
    In a bundle with rows and artifacts, each artifact must match the row of
    its trial.
    """
    report = ValidationReport()
    artifacts = doc.get("artifacts", [doc] if "kind" in doc else None) if isinstance(doc, dict) else None
    if not isinstance(artifacts, list):
        raise StructuralError("a bundle needs an artifact list, and a single artifact its kind")
    sizes = []
    for ai, art in enumerate(artifacts):
        if not isinstance(art, dict):
            raise StructuralError(f"artifact {ai}: expected a JSON object, got {type(art).__name__}")
        kind = art.get("kind")
        try:
            if kind not in CHECKS:
                raise StructuralError(f"unknown kind {kind!r}")
            sizes.append(CHECKS[kind](art, ai, report, tolerance))
        except StructuralError as exc:
            raise StructuralError(f"artifact {ai}: {exc}") from exc
        except (AttributeError, KeyError, TypeError, ValueError, ParameterError) as exc:
            raise StructuralError(f"artifact {ai}: malformed ({exc})") from exc
    if artifacts and "rows" in doc:
        try:
            _check_rows(doc["rows"], artifacts, sizes, report)
        except (AttributeError, KeyError, TypeError) as exc:
            raise StructuralError(f"rows: malformed ({exc!r})") from exc
    return report
