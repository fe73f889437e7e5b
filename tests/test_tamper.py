"""One-field tampers of every stored artifact field, generated from the declarations.

Each plan's bundle artifact gets one tamper per field that its kind's
declaration in metriq.verify.CHECKS names and the artifact stores, the fields
of a nested document included: an integer + 1, a float x 1.25 + 0.5, a
`one_of` string another declared choice, and a list or an encoded array its
last entry changed by these rules.  `verify_bundle` must refuse each one, by
a violation or a MetriqError, but for the ones KNOWN_ACCEPTED lists, each
with the reason it holds.  Each plan's row gets one tamper per CSV column it
fills, by the same rules, `provenance` and `target_class` read as strings of
their fixed sets; verify must refuse each one but for the ones KNOWN_GAPS
lists, each with the work that closes it.  Each row also gets its empty
columns filled, its integers recast as floats (and 0 or 1 as bools), its
integral floats as integers, and a key of no column; verify must refuse
each one, as it must refuse a failed trial's row with a certified column
filled.  Each artifact field that metriq.verify.row_of copies into the row
column of its name gets a tamper written into artifact and row alike: a
`one_of` string each other declared choice, a number by the rules above;
verify must refuse each one but for the ones KNOWN_CONSISTENT lists, each a
true certificate.  Each bundle's summary, a failed trial's included, gets
one tamper per number it holds, a quantile of its claims included, by the
same rules, and an `errors` entry added, dropped or changed; verify must
refuse each one but for the ones SUMMARY_GAPS lists.
"""

import copy
import functools
import json

import numpy as np
import pytest

from metriq.cli import CSV_COLUMNS, plan_from_json, run_experiment
from metriq.core import Doc, MetricSpace, decode_array, dumps, encode_array, one_of
from metriq.cube import _certify, _embedding_lookup, _greedy_net, _net_radius, traced_bound
from metriq.errors import ConstructionFailureError, MetriqError
from metriq.generators import InstanceSpec, realize_instance
from metriq.quotient import claim_slack
from metriq.verify import CHECKS, verify_bundle

from conftest import SMALL_PLANS, SQ_PLAN, block_reduce_loop, lip_colip_loop, run_bundle, shortest_path_closure

#: name -> (instance variant, instance params, pipeline, pipeline params)
PLANS = {
    **{pipeline: (variant, instance, pipeline, params)
       for pipeline, (variant, instance, params) in SMALL_PLANS.items()},
    "sq": SQ_PLAN,
    "aspect-lipschitz": ("cloud", {"n": 40}, "aspect", {"alpha": 1.5, "lipschitz": True}),
}

#: (plan, field path) -> why verify accepts that tamper; each is a true
#: certificate by the loop oracle (_loop_claims)
KNOWN_ACCEPTED = {
    ("aspect", "blocks"): "benign: both blocks are singletons, so the quotient with the last one "
                          "moved to the next point is a 2-point space, of the claimed distortion 1",
    ("aspect-lipschitz", "blocks"): "benign: as for aspect, and singleton blocks keep lip * colip = 1",
    ("sq", "blocks"): "benign: the SQ space with the last kept point moved to the next one has the "
                      "claimed distortion",
}


@functools.cache
def _bundle(name: str) -> dict:
    """The plan's bundle, which verifies untampered; callers change only copies."""
    doc = run_bundle(*PLANS[name])
    assert verify_bundle(doc).ok, name
    return doc


def _changed(value, read=None):
    """value under its tamper rule, `read` its declared reader where known;
    None where the rule finds nothing to change (an empty list or array)."""
    if hasattr(read, "choices"):
        return next(c for c in read.choices if c != value)
    if type(value) is int:
        return value + 1
    if type(value) is float:
        return value * 1.25 + 0.5
    if isinstance(value, list):
        last = _changed(value[-1]) if value else None
        return None if last is None else value[:-1] + [last]
    a = decode_array(value).copy()  # an encoded array
    if not a.size:
        return None
    a.flat[-1] = _changed(a.flat[-1].item())
    return encode_array(a)


def _stored(decl: Doc, doc: dict, prefix: str = ""):
    """(path, holder, key, reader) of each field of doc that decl declares, the
    holder the document that stores it; for a nested document, of its fields."""
    for key, (read, _) in decl.fields.items():
        if doc.get(key) is None:
            continue
        if isinstance(read, Doc):
            yield from _stored(read, doc[key], f"{prefix}{key}.")
        else:
            yield prefix + key, doc, key, read


def _tampered(name: str, path: str) -> dict:
    """A copy of the plan's bundle with the artifact field at path tampered."""
    doc = copy.deepcopy(_bundle(name))
    art = doc["artifacts"][0]
    for at, holder, key, read in _stored(CHECKS[art["kind"]][0], art):
        if at == path:
            holder[key] = _changed(holder[key], read)
            return doc
    raise KeyError(path)


def _cases() -> list[tuple[str, str]]:
    out = []
    for name in PLANS:
        art = _bundle(name)["artifacts"][0]
        out += [(name, path) for path, holder, key, read in _stored(CHECKS[art["kind"]][0], art)
                if _changed(holder[key], read) is not None]
    return out


CASES = _cases()


def _accepted(doc: dict) -> bool:
    try:
        return verify_bundle(doc).ok
    except MetriqError:
        return False


@pytest.mark.parametrize("name, path", CASES, ids=[f"{name}-{path}" for name, path in CASES])
def test_a_one_field_tamper_is_refused_unless_known(name, path):
    assert _accepted(_tampered(name, path)) == ((name, path) in KNOWN_ACCEPTED)


def _loop_claims(doc: dict) -> tuple[float, float]:
    """The distortion of a bundle's quotient artifact against its model, and
    lip * colip of its blocks' collapse, recomputed pair by pair on its plan's
    instance: the shortest-path closure of the block set distances, an SQ
    space restricted from the quotient by one block of every point outside
    its blocks (none when its blocks cover every point), then its blocks."""
    art = doc["artifacts"][0]
    base = realize_instance(plan_from_json(doc["plan"]).instance_spec(art["trial"]))
    blocks = [tuple(b) for b in art["blocks"]]
    parts, kept = blocks, slice(None)
    rest = tuple(sorted(set(range(base.n)).difference(*blocks)))
    if art["provenance"] == "SQ" and rest:
        parts, kept = [rest, *blocks], slice(1, None)
    q = np.array(shortest_path_closure(block_reduce_loop(base.dist, parts)))[kept, kept]
    model = {k: v for k, v in art["model"].items() if v is not None}
    target = realize_instance(InstanceSpec(model.pop("type"), model, None)).dist
    ratios = [target[i, j] / q[i, j] for i in range(len(q)) for j in range(i + 1, len(q))]
    lip, colip = lip_colip_loop(base, blocks, MetricSpace(q))
    return max(ratios) / min(ratios), lip * colip


@pytest.mark.parametrize("name, path", sorted(KNOWN_ACCEPTED), ids=[f"{n}-{p}" for n, p in sorted(KNOWN_ACCEPTED)])
def test_each_known_acceptance_is_a_generated_tamper_and_a_true_certificate(name, path):
    # a field that leaves its artifact, or a plan that leaves PLANS, takes its entry along
    assert (name, path) in CASES
    doc = _tampered(name, path)
    art = doc["artifacts"][0]
    claim, product = _loop_claims(doc)
    assert abs(claim - art["certified_distortion"]) <= claim_slack(art["certified_distortion"])
    if "lipschitz" in art:
        assert product - art["lipschitz"] <= claim_slack(art["lipschitz"])


# --- the row half: one tamper per CSV column a row fills ---------------------

#: the string columns, read as another value of their fixed set
ROW_READERS = {"provenance": one_of("Q", "QS", "SQ"),
               "target_class": one_of("lacunary", "UM", "equilateral", "star", "lp")}

#: column -> (the work that closes its gap, why verify accepts a tamper of it)
GAPS = {
    "attempts": ("ROADMAP, the tamper matrix, row half: listed for as long as the CSV keeps the column",
                 "a counter of construction attempts, which certifies nothing, so verify reads only "
                 "that it is an integer >= 1"),
}

#: (plan, column) of each row tamper that verify accepts -> GAPS[column]
KNOWN_GAPS = {(name, column): GAPS[column] for name in PLANS for column in GAPS}


def _row_tampered(name: str, column: str) -> dict:
    """A copy of the plan's bundle with its row's value in column tampered."""
    doc = copy.deepcopy(_bundle(name))
    row = doc["rows"][0]
    row[column] = _changed(row[column], ROW_READERS.get(column))
    return doc


ROW_CASES = [(name, column) for name in PLANS for column in CSV_COLUMNS if _bundle(name)["rows"][0][column] != ""]


@pytest.mark.parametrize("name, column", ROW_CASES, ids=[f"{name}-{column}" for name, column in ROW_CASES])
def test_a_row_tamper_is_refused_unless_a_known_gap(name, column):
    assert _accepted(_row_tampered(name, column)) == ((name, column) in KNOWN_GAPS)


def test_each_known_gap_is_a_generated_row_tamper():
    # a column that leaves the rows, or a plan that leaves PLANS, takes its entries along
    assert KNOWN_GAPS.keys() <= set(ROW_CASES)


def _recast(value) -> list[tuple[str, object]]:
    """(name, value) of each change of a row value's JSON type that keeps
    its value: an integer as a float, and 0 or 1 as a bool; an integral float
    as an integer."""
    if type(value) is int:
        return [("float", float(value))] + ([("bool", bool(value))] if value in (0, 1) else [])
    if type(value) is float and value.is_integer():
        return [("int", int(value))]
    return []


#: (plan, key, how, value): each empty column of a plan's row filled, each
#: value recast (_recast), and a key that is no CSV column added
FORM_CASES = [(name, column, how, value) for name in PLANS for column, cell in _bundle(name)["rows"][0].items()
              for how, value in ([("filled", 1.0)] if cell == "" else _recast(cell))]
FORM_CASES += [(name, "note", "added", "") for name in PLANS]


@pytest.mark.parametrize("name, key, how, value", FORM_CASES, ids=[f"{n}-{k}-{h}" for n, k, h, _ in FORM_CASES])
def test_a_row_of_another_form_is_refused(name, key, how, value):
    doc = copy.deepcopy(_bundle(name))
    doc["rows"][0][key] = value
    assert not _accepted(doc)


# --- failed trials: a row without an artifact leaves every certified column empty ---


@functools.cache
def _failed_bundle() -> dict:
    """The bundle of a one-trial cube-qs plan that fails by design: at d = 10
    a net centre's punctured ball alone removes more than eps 2^d points."""
    plan = {"instance": {"variant": "cube", "params": {"d": 10}}, "pipeline": "cube-qs",
            "params": {"d": 10, "eps": 0.05}, "trials": 1, "seed": 0}
    bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    assert [e["error"] for e in bundle.summary["errors"]] == ["ConstructionFailureError"]
    return json.loads(dumps({"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary,
                             "artifacts": bundle.artifacts}))


def test_a_failed_trials_row_verifies_as_run_wrote_it():
    doc = _failed_bundle()
    assert doc["artifacts"] == [] and doc["rows"][0]["n"] == 1024
    assert verify_bundle(doc).ok


def test_a_forged_artifact_of_the_failed_cube_cell_is_refused():
    # its true claim and witnesses at the paper's radius, which keeps 639
    # blocks of the 972.8 needed: verify refuses the cell as run does, alone
    # and in the bundle whose summary lists its trial as failed
    r = _net_radius(10, 0.05)
    _, dA = _greedy_net(10, r)
    lookup, block_norm = _embedding_lookup(10, r, 2.0)
    summary, witnesses, bad, singletons = _certify(10, dA, r // 2, lookup, block_norm)
    assert bad is None and singletons + 1 == 639
    art = {"kind": "cube-qs", "d": 10, "eps": 0.05, "p": 2.0, "witnesses": [list(w) for w in witnesses],
           "certified_distortion": summary.distortion}
    doc = copy.deepcopy(_failed_bundle())
    doc["artifacts"] = [{**art, "trial": 0}]
    doc["rows"][0].update(quotient_size=639, provenance="QS", target_class="lp", p=2.0,
                          certified_distortion=summary.distortion, paper_bound=traced_bound(r, 2.0, lookup), attempts=1)
    for forged in (art, doc):
        with pytest.raises(ConstructionFailureError, match="^artifact 0: only 639 blocks survive; need 972.8$"):
            verify_bundle(forged)


def test_a_failed_cube_rows_n_is_the_size_of_its_plans_cube():
    # own_space gives the n run writes, 2^d, for a failed trial too
    doc = copy.deepcopy(_failed_bundle())
    doc["rows"][0]["n"] = 1025
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", ())]


#: column -> a value that a cube-qs row holds there, or n as a float
FAILED_FILLS = {"n": 1024.0, "quotient_size": 1000, "provenance": "QS", "target_class": "lp", "p": 2.0,
                "certified_distortion": 1.5, "paper_bound": 18.0, "attempts": 1, "millis": 1.0}


@pytest.mark.parametrize("column", FAILED_FILLS)
def test_a_failed_trials_row_with_a_certified_column_filled_is_refused(column):
    doc = copy.deepcopy(_failed_bundle())
    doc["rows"][0][column] = FAILED_FILLS[column]
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", ())]


# --- consistent tampers: one value written into an artifact and its row alike ---

COVERED = ("benign: the Q blocks cover every point, so as SQ no block of the rest is "
           "collapsed and the space is the quotient itself")
TWO = "benign: two singleton blocks, so as SQ a 2-point space, of the claimed distortion 1"

#: (plan, field, value) -> why verify accepts that value in artifact and row;
#: each is a true certificate by the loop oracle (_loop_claims)
KNOWN_CONSISTENT = {
    ("q2", "provenance", "SQ"): COVERED,
    ("star", "provenance", "SQ"): COVERED,
    ("aspect", "provenance", "SQ"): TWO,
    ("aspect-lipschitz", "provenance", "SQ"): TWO + ", and singleton blocks keep lip * colip = 1",
}


def _consistent_cases() -> list[tuple[str, str, object]]:
    out = []
    for name in PLANS:
        art = _bundle(name)["artifacts"][0]
        fields = CHECKS[art["kind"]][0].fields
        for key in CSV_COLUMNS:  # row_of copies each artifact field named like a column into it
            if art.get(key) is None:
                continue
            read = fields.get(key, (None,))[0]  # `trial`, which every kind holds, is an integer
            values = [c for c in read.choices if c != art[key]] if hasattr(read, "choices") else [_changed(art[key])]
            out += [(name, key, value) for value in values]
    return out


CONSISTENT_CASES = _consistent_cases()


def _consistent_ids(cases) -> list[str]:
    """plan-field, and the value where it is a declared choice."""
    return [f"{name}-{key}" + (f"-{value}" if isinstance(value, str) else "") for name, key, value in cases]


def _consistently_tampered(name: str, key: str, value) -> dict:
    """A copy of the plan's bundle with value at key in its artifact and its row."""
    doc = copy.deepcopy(_bundle(name))
    doc["artifacts"][0][key] = doc["rows"][0][key] = value
    return doc


@pytest.mark.parametrize("name, key, value", CONSISTENT_CASES, ids=_consistent_ids(CONSISTENT_CASES))
def test_a_consistent_tamper_is_refused_unless_known(name, key, value):
    assert _accepted(_consistently_tampered(name, key, value)) == ((name, key, value) in KNOWN_CONSISTENT)


@pytest.mark.parametrize("name, key, value", sorted(KNOWN_CONSISTENT), ids=_consistent_ids(sorted(KNOWN_CONSISTENT)))
def test_each_known_consistent_acceptance_is_a_generated_tamper_and_a_true_certificate(name, key, value):
    assert (name, key, value) in CONSISTENT_CASES
    doc = _consistently_tampered(name, key, value)
    art = doc["artifacts"][0]
    claim, product = _loop_claims(doc)
    assert abs(claim - art["certified_distortion"]) <= claim_slack(art["certified_distortion"])
    if "lipschitz" in art:
        assert product - art["lipschitz"] <= claim_slack(art["lipschitz"])


# --- the summary half: one tamper per number a summary holds, and its errors ---

#: summary field -> why verify accepts a tamper of it
SUMMARY_GAPS = {"millis": "wall-clock times, which no rerun repeats: verify reads only that they are "
                          "the plan's trials in number"}


#: each plan's bundle, and `failed`, the bundle of the failed cube-qs trial
SUMMARY_BUNDLES = [*PLANS, "failed"]


def _summary_bundle(name: str) -> dict:
    return _failed_bundle() if name == "failed" else _bundle(name)


def _summary_numbers(doc: dict, prefix: str = ""):
    """(path, holder, key) of each number, or list of them, in a summary, a
    nested document's included; the errors entries are tampered apart."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _summary_numbers(value, f"{prefix}{key}.")
        elif key != "errors":
            yield prefix + key, doc, key


SUMMARY_CASES = [(name, path) for name in SUMMARY_BUNDLES
                 for path, holder, key in _summary_numbers(_summary_bundle(name)["summary"])
                 if _changed(holder[key]) is not None]


def _summary_tampered(name: str, path: str) -> dict:
    """A copy of the bundle with the summary number at path tampered."""
    doc = copy.deepcopy(_summary_bundle(name))
    for at, holder, key in _summary_numbers(doc["summary"]):
        if at == path:
            holder[key] = _changed(holder[key])
            return doc
    raise KeyError(path)


@pytest.mark.parametrize("name, path", SUMMARY_CASES, ids=[f"{name}-{path}" for name, path in SUMMARY_CASES])
def test_a_summary_tamper_is_refused_unless_a_known_gap(name, path):
    assert _accepted(_summary_tampered(name, path)) == (path in SUMMARY_GAPS)


def test_each_summary_gap_is_a_generated_tamper():
    assert {path for _, path in SUMMARY_CASES} >= SUMMARY_GAPS.keys()
    assert {path for _, path in SUMMARY_CASES} >= {"trials", "failures", "failure_rate",
                                                   *(f"certified_distortion.{q}" for q in
                                                     ("min", "p25", "median", "p75", "max"))}


#: how -> the entries that replace a summary's last errors entry
ERROR_TAMPERS = {
    "dropped": lambda entry: [],
    "trial": lambda entry: [{**entry, "trial": _changed(entry["trial"])}],
    "not-metriq": lambda entry: [{**entry, "error": "ValueError"}],
    "detail": lambda entry: [{**entry, "detail": 0}],
}

#: (bundle, how): an entry added to each summary's errors, and each of its last entry's ERROR_TAMPERS
ERROR_CASES = [(name, "added") for name in SUMMARY_BUNDLES]
ERROR_CASES += [(name, how) for name in SUMMARY_BUNDLES if _summary_bundle(name)["summary"]["errors"]
                for how in ERROR_TAMPERS]


@pytest.mark.parametrize("name, how", ERROR_CASES, ids=[f"{name}-{how}" for name, how in ERROR_CASES])
def test_an_errors_tamper_is_refused(name, how):
    doc = copy.deepcopy(_summary_bundle(name))
    errors = doc["summary"]["errors"]
    if how == "added":
        errors.append({"trial": 0, "error": "ConstructionFailureError", "detail": "forged"})
    else:
        errors[-1:] = ERROR_TAMPERS[how](errors[-1])
    assert [v[:2] for v in verify_bundle(doc).violations] == [("summary", ())]


#: (bundle, path, how, value): each summary number recast (_recast), and a key that is no summary field
SUMMARY_FORM_CASES = [(name, path, how, value) for name in SUMMARY_BUNDLES
                      for path, holder, key in _summary_numbers(_summary_bundle(name)["summary"])
                      for how, value in _recast(holder[key])]
SUMMARY_FORM_CASES += [(name, "note", "added", "") for name in SUMMARY_BUNDLES]


@pytest.mark.parametrize("name, path, how, value", SUMMARY_FORM_CASES,
                         ids=[f"{n}-{p}-{h}" for n, p, h, _ in SUMMARY_FORM_CASES])
def test_a_summary_of_another_form_is_refused(name, path, how, value):
    doc = copy.deepcopy(_summary_bundle(name))
    *parents, key = path.split(".")
    holder = doc["summary"]
    for part in parents:
        holder = holder[part]
    holder[key] = value
    assert not _accepted(doc)
