"""Every artifact field is read through its kind's declaration in metriq.verify.CHECKS.

A field that is dropped, undeclared or of the wrong type is a StructuralError
that names the artifact and the field's path, before any check runs.
"""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from metriq import cube, embeddings
from metriq.core import Doc, decode_array, integer, number
from metriq.cube import _cell_ratio, _class_bound, _embedding_lookup, _greedy_net, _net_radius
from metriq.errors import StructuralError, UndefinedInputError
from metriq.verify import CHECKS, verify_bundle

from conftest import SMALL_PLANS, SQ_PLAN, cli_output, run_bundle, standalone

def _plan(pipeline: str) -> dict:
    variant, instance, params = SMALL_PLANS[pipeline]
    return run_bundle(variant, instance, pipeline, params)


#: name -> (metrics fixture -> a fresh document that verifies): a bundle, or
#: the artifact a command writes
FRESH = {
    "metric": lambda metrics: json.loads(Path(metrics["CLOUD"]).read_text()),
    "quotient-Q": lambda metrics: _plan("q2"),
    "quotient-QS": lambda metrics: json.loads(
        cli_output("quotient", "--in", metrics["CLOUD"], "--blocks", "0,1;2;5,6")),
    "quotient-SQ": lambda metrics: run_bundle(*SQ_PLAN),
    "hst": lambda metrics: _plan("hst"),
    "embedding": lambda metrics: _plan("bourgain"),
    "cube-qs": lambda metrics: _plan("cube-qs"),
}

DROP = object()


def _path(keys: tuple) -> str:
    text = ""
    for k in keys:
        text += f"[{k}]" if isinstance(k, int) else f".{k}" if text else k
    return text


def _value_cases(read, value, at: tuple):
    """(keys, bad value) pairs for one stored value that its reader refuses;
    read is None for a list item, whose reader is the list's."""
    if read is integer or read is None and type(value) is int:
        yield from ((at, value + 0.5), (at, True))
    elif read is number or read is None and type(value) is float:
        yield from ((at, repr(value)), (at, math.nan))
    elif isinstance(value, str):
        yield at, "bogus"
    elif isinstance(value, dict):  # an encoded array
        yield from ((at, decode_array(value).tolist()), (at + ("zz",), 1))
    else:
        yield at, dict(enumerate(value))
        yield from _value_cases(None, value[0], at + (0,))


def _cases(decl: Doc, doc: dict, at: tuple = ()):
    """(keys, replacement) for each way to change one field of doc that decl
    refuses: keys lead to the field, and DROP deletes it."""
    yield at + ("zz",), 1
    for key, (read, required) in decl.fields.items():
        if key in doc:
            if required:
                yield at + (key,), DROP
            if isinstance(read, Doc):
                yield from _cases(read, doc[key], at + (key,))
            else:
                yield from _value_cases(read, doc[key], at + (key,))


def _artifact(doc: dict) -> dict:
    return doc["artifacts"][0] if "artifacts" in doc else doc


def _refusal(doc: dict, keys: tuple, replacement) -> str:
    """The StructuralError message of verify_bundle on a copy of doc with one
    field of its artifact replaced, or "" when the copy verifies."""
    doc = copy.deepcopy(doc)
    holder = _artifact(doc)
    for k in keys[:-1]:
        holder = holder[k]
    if replacement is DROP:
        del holder[keys[-1]]
    else:
        holder[keys[-1]] = replacement
    try:
        verify_bundle(doc)
    except StructuralError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("name", sorted(FRESH))
def test_every_field_refuses_a_dropped_undeclared_or_mistyped_value(name, metrics):
    doc = FRESH[name](metrics)
    art = _artifact(doc)
    assert verify_bundle(doc).ok
    assert name in (art["kind"], f"{art['kind']}-{art.get('provenance')}")
    cases = list(_cases(CHECKS[art["kind"]][0], art))
    if "trial" in art:
        cases += list(_value_cases(integer, art["trial"], ("trial",)))
    missed = []
    for keys, replacement in cases:
        message = _refusal(doc, keys, replacement)
        named = rf"artifact 0: (declared |unknown |undeclared |required )?{re.escape(_path(keys))}[ :]"
        if not re.match(named, message):
            missed.append((_path(keys), replacement if replacement is not DROP else "dropped", message))
    assert missed == []


@pytest.mark.parametrize("pipeline, keys, edit", [
    ("cube-qs", ("d",), lambda v: 8.9),
    ("cube-qs", ("witnesses", 0, 0), lambda v: v + 0.5),
    ("cube-qs", ("witnesses", 0), lambda v: v + [1]),
    ("cube-qs", ("witnesses",), lambda v: v * 3),
    ("cube-qs", ("eps",), lambda v: "0.24"),
    ("cube-qs", ("extra",), lambda v: 1),
    ("q2", ("blocks", 0), lambda v: [1.7]),
    ("q2", ("blocks", 0), lambda v: [True]),
    ("aspect", ("model", "n"), lambda v: v + 0.9),
    ("aspect", ("model", "edge"), lambda v: repr(v)),
    ("q2", ("trial",), lambda v: 0.0),
], ids=["cube-d", "cube-witness-float", "cube-witness-triple",
        "cube-witnesses-three", "cube-eps-string", "cube-undeclared", "q2-block-float",
        "q2-block-bool", "aspect-model-n", "aspect-model-edge-string", "q2-trial-float"])
def test_verify_refuses_a_truncated_or_mistyped_field(pipeline, keys, edit):
    # each of these verified while fields were read with int(), float() or not at all
    doc = _plan(pipeline)
    holder = doc["artifacts"][0]
    for k in keys[:-1]:
        holder = holder[k]
    key = keys[-1]
    holder[key] = edit(holder[key] if isinstance(holder, list) or key in holder else None)
    with pytest.raises(StructuralError, match=r"^artifact 0: .*" + re.escape(_path(keys))):
        verify_bundle(doc)


@pytest.mark.parametrize("pipeline", ["cube-qs", "q2", "hst"])
def test_a_standalone_claim_that_is_a_string_is_refused(pipeline):
    art = standalone(_plan(pipeline))
    assert verify_bundle(art).ok
    art["certified_distortion"] = repr(art["certified_distortion"])
    with pytest.raises(StructuralError, match="^artifact 0: declared certified_distortion '"):
        verify_bundle(art)


@pytest.mark.parametrize("pipeline", ["q2", "aspect", "dichotomy"])
def test_a_quotient_holds_its_model_and_claim_together(pipeline):
    doc = _plan(pipeline)
    art, row = doc["artifacts"][0], doc["rows"][0]
    del art["model"]
    art["certified_distortion"] = row["certified_distortion"] = 1.0
    with pytest.raises(StructuralError, match="^artifact 0: a quotient holds model and"):
        verify_bundle(doc)
    # without both, the row's claim has nothing to match
    del art["certified_distortion"]
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", (0,))]
    row["certified_distortion"] = ""
    assert verify_bundle(doc).ok


def test_every_metriq_error_names_its_artifact():
    doc = run_bundle(*SQ_PLAN)
    doc["artifacts"][0]["blocks"] = []  # the SQ space keeps no block
    with pytest.raises(UndefinedInputError, match="^artifact 0: must keep at least one block"):
        verify_bundle(doc)


# --- the cube certificate: recomputed from the net, its bound and witnesses

#: d = 10, eps = 0.2: both extremes of its bound need a witness
CUBE = ("cube", {"d": 10}, "cube-qs", {"d": 10, "eps": 0.2})


def test_a_consistent_cube_claim_of_one_is_refused():
    # it verified while verify only refused a cube claim below 1
    doc = run_bundle(*CUBE)
    doc["artifacts"][0]["certified_distortion"] = doc["rows"][0]["certified_distortion"] = 1.0
    assert [v[:2] for v in verify_bundle(doc).violations] == [("certificate", (0,))]


# witness 0 is at distance 1, where every singleton pair has the largest ratio
# lookup[1], so only its distance can be wrong; witness 1 is at distance d - 1
@pytest.mark.parametrize("tamper, wi", [
    ("non-survivor", 0), ("wrong distance", 0), ("non-survivor", 1), ("wrong class", 1), ("wrong distance", 1),
], ids=["expansion-non-survivor", "expansion-wrong-distance", "contraction-non-survivor",
        "contraction-wrong-class", "contraction-wrong-distance"])
def test_a_cube_witness_outside_an_extreme_cell_is_refused(tamper, wi):
    doc = run_bundle(*CUBE)
    art = doc["artifacts"][0]
    d = art["d"]
    r = _net_radius(d, art["eps"])
    _, dA = _greedy_net(d, r)
    lab = np.where(dA > r // 2, dA, 0)
    lookup, block_norm = _embedding_lookup(d, r, art["p"])
    bound = _class_bound(d, dA, r // 2, lookup, block_norm)
    x, y = art["witnesses"][wi]
    assert (x ^ y).bit_count() == [1, d - 1][wi]
    assert _cell_ratio(lookup, lab[x] + lab[y], (x ^ y).bit_count()) == [bound.hi, bound.lo][wi]
    pts = np.arange(2**d)
    h = np.bitwise_count(pts ^ x)
    singleton = (lab > 0) & (pts != x)
    extreme = np.isin(_cell_ratio(lookup, lab[x] + lab, np.maximum(h, 1)), [bound.hi, bound.lo])
    # a removed point that would name an extreme cell if its distance to the
    # net counted as a class, where there is one (next to the expansion witness)
    removed = (dA > 0) & (lab == 0)
    counted = removed & np.isin(_cell_ratio(lookup, lab[x] + dA, np.maximum(h, 1)), [bound.hi, bound.lo])
    moved = {"non-survivor": counted if counted.any() else removed,
             "wrong class": singleton & (h == h[y]) & (lab != lab[y]) & ~extreme,
             "wrong distance": singleton & (lab == lab[y]) & (h != h[y]) & ~extreme}[tamper]
    art["witnesses"][wi][1] = int(np.flatnonzero(moved)[0])
    assert [v[:2] for v in verify_bundle(doc).violations] == [("cube-witness", (0, wi))]


def test_a_dropped_cube_witness_verifies_the_true_claim_by_the_kernel(monkeypatch):
    doc = run_bundle(*CUBE)
    kernel, calls = cube._class_distortion, []
    monkeypatch.setattr(cube, "_class_distortion", lambda *args: calls.append(args) or kernel(*args))
    assert verify_bundle(doc).ok and not calls
    for wi in (0, 1):
        dropped = copy.deepcopy(doc)
        del dropped["artifacts"][0]["witnesses"][wi]
        assert verify_bundle(dropped).ok
    assert len(calls) == 2
    # the kernel's value is the one compared
    dropped["artifacts"][0]["certified_distortion"] = dropped["rows"][0]["certified_distortion"] = 1.0
    assert [v[:2] for v in verify_bundle(dropped).violations] == [("certificate", (0,))]


def test_run_and_verify_decide_a_cube_claim_by_one_call(monkeypatch):
    # run searches for the witnesses, verify reads the stored ones, and both
    # take the claim from cube._certify
    certify, calls = cube._certify, []
    monkeypatch.setattr(cube, "_certify", lambda *args: calls.append(args) or certify(*args))
    doc = run_bundle(*CUBE)
    assert [len(args) for args in calls] == [5]
    assert verify_bundle(doc).ok
    assert [len(args) for args in calls] == [5, 6] and calls[1][5] == doc["artifacts"][0]["witnesses"]
    # the claim compared is the one _certify returns
    off = cube.DistortionSummary(2.0, 2.0, 1)
    monkeypatch.setattr(cube, "_certify", lambda *args: (off, *certify(*args)[1:]))
    assert [v[:2] for v in verify_bundle(doc).violations] == [("certificate", (0,))]


def test_run_and_verify_decide_an_embedding_claim_by_one_call(monkeypatch):
    # bourgain_embed and verify both take the claim from embeddings.embedding_distortion,
    # on the same source and coordinates
    decide, calls = embeddings.embedding_distortion, []
    monkeypatch.setattr(embeddings, "embedding_distortion", lambda *args: calls.append(args) or decide(*args))
    doc = _plan("bourgain")
    assert len(calls) == 1
    assert verify_bundle(doc).ok
    assert len(calls) == 2
    (run_source, run_emb), (source, emb) = calls
    assert run_source.dist.tobytes() == source.dist.tobytes() and run_emb.vectors.tobytes() == emb.vectors.tobytes()
    # the claim compared is the one embedding_distortion returns
    monkeypatch.setattr(embeddings, "embedding_distortion",
                        lambda *args: dataclasses.replace(decide(*args), contraction=2.0 * decide(*args).contraction))
    assert [v[:2] for v in verify_bundle(doc).violations] == [("certificate", (0,))]
