"""A bundle's quotient, hst and embedding artifacts are about the instance its plan names.

They store no copy of it: `verify` rebuilds trial t's instance from the plan,
as `run` built it, so a base of the artifact's own, an edited plan and a
missing trial are refused.  Rows must name the plan's seed and the size of
the rebuilt instance, an aspect quotient the `lipschitz` bound its plan
promises, a cube-qs artifact its plan's d, eps and p, and an embedding its
p.  A composition plan runs only on a composition instance, and its hst
artifact stores the blocks of its quotient of that instance, not a base.
Instances above generators.MAX_POINTS, and cube dimensions above
cube.MAX_D, are refused before anything is built.
"""

import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metriq.cli import plan_from_json, run_experiment
from metriq.core import decode_array, metric_to_json
from metriq.cube import MAX_D, cube_qs_construct
from metriq.errors import CapacityError, ParameterError, StructuralError
from metriq.generators import INSTANCES, MAX_POINTS, InstanceSpec, realize_instance
from metriq.hst import hst_from_json, hst_to_metric
from metriq.quotient import claim_slack, quotient_by_subset, quotient_metric
from metriq.seeds import RngSeed
from metriq.verify import summary_of, verify_bundle

from conftest import (block_reduce_loop, bourgain_embed_loop, edit_array, lip_colip_loop, run_bundle,
                      shortest_path_closure, standalone, widen, widenings)

Q2 = ("cloud", {"n": 40}, "q2", {})
HST = ("cloud", {"n": 40}, "hst", {})
CUBE = ("cube", {"d": 8}, "cube-qs", {"d": 8, "eps": 0.24})
COMPOSITION = ("composition", {}, "composition", {})
BOURGAIN = ("cloud", {"n": 40}, "bourgain", {})


def _instance(doc: dict):
    return realize_instance(plan_from_json(doc["plan"]).instance_spec(doc["artifacts"][0]["trial"]))


def _refusal(doc: dict, error=StructuralError) -> str:
    with pytest.raises(error) as exc:
        verify_bundle(doc)
    assert str(exc.value).startswith("artifact 0: ")
    return str(exc.value)


def test_an_hst_artifact_given_its_own_tree_metric_as_base_is_refused():
    # the tree is then exact for its base: claim and row 1.0 verified before
    doc = run_bundle(*HST)
    art, row = doc["artifacts"][0], doc["rows"][0]
    art["base"] = metric_to_json(hst_to_metric(hst_from_json(art["tree"])))
    del art["subset"]
    art["certified_distortion"] = row["certified_distortion"] = 1.0
    # standalone, it is a true certificate
    assert verify_bundle({k: v for k, v in art.items() if k != "trial"}).ok
    assert "stores a base" in _refusal(doc)


@pytest.mark.parametrize("plan", [Q2, BOURGAIN], ids=["q2", "bourgain"])
def test_an_artifact_given_its_instance_times_three_is_refused(plan):
    doc = run_bundle(*plan)
    base = metric_to_json(_instance(doc))
    edit_array(base, "dist", lambda d: 3 * d)
    doc["artifacts"][0]["base"] = base
    assert "stores a base" in _refusal(doc)


@pytest.mark.parametrize("plan", [Q2, HST], ids=["q2", "hst"])
def test_an_edited_plan_seed_fails_the_certificate_on_the_other_instance(plan):
    # a valid plan, and rows that name its seed: its instance is another
    # cloud, where the claim is off
    doc = run_bundle(*plan)
    assert verify_bundle(doc).ok
    doc["plan"]["seed"] = doc["rows"][0]["seed"] = 1
    violations = verify_bundle(doc).violations
    assert violations and {v[1][:1] for v in violations} == {(0,)}
    assert "certificate" in {v[0] for v in violations}


@pytest.mark.parametrize("plan, n, message", [
    (Q2, 41, "provenance Q but the blocks give QS"),
    (Q2, 39, "point index 39 out of range"),
    (HST, 41, "source has 38 points, the tree 37 leaves"),  # |T| = 4
    (HST, 39, "source has 36 points, the tree 37 leaves"),
], ids=["q2-41", "q2-39", "hst-41", "hst-39"])
def test_an_edited_instance_size_is_refused(plan, n, message):
    doc = run_bundle(*plan)
    doc["plan"]["instance"]["params"]["n"] = n
    assert message in _refusal(doc)


@pytest.mark.parametrize("plan", [Q2, HST], ids=["q2", "hst"])
@pytest.mark.parametrize("trial", [None, 1, -1], ids=["missing", "past", "negative"])
def test_a_bundle_artifact_needs_one_of_its_plan_trials(plan, trial):
    doc = run_bundle(*plan)
    art = doc["artifacts"][0]
    if trial is None:
        del art["trial"]
    else:
        art["trial"] = doc["rows"][0]["trial"] = trial
    assert f"trial {trial!r} is not one of the plan's 1 trials" in _refusal(doc)


def test_an_artifact_of_a_kind_its_plan_does_not_write_is_refused():
    # a q2 artifact under a composition plan, on the instance a composition plan takes
    doc = run_bundle(*Q2)
    doc["plan"].update(instance={"variant": "composition", "params": {}}, pipeline="composition", params={})
    assert "a composition plan writes hst artifacts, not quotient" in _refusal(doc)


def test_rows_need_their_plan_and_an_artifact_without_a_plan_its_base():
    doc = run_bundle(*Q2)
    del doc["plan"]
    with pytest.raises(StructuralError, match="^rows: a bundle's rows come with the plan"):
        verify_bundle(doc)
    del doc["rows"]
    assert "required base is missing" in _refusal(doc)


def test_a_composition_bundle_stores_no_base():
    # its tree is checked on the plan's instance collapsed by its QS blocks;
    # that instance with one distance changed verifies neither as an embedded
    # base nor as the base of the standalone artifact
    doc = run_bundle(*COMPOSITION)
    art = doc["artifacts"][0]
    assert "base" not in art and art["provenance"] == "QS" and verify_bundle(doc).ok
    a, b = art["blocks"][0][0], art["blocks"][1][0]

    def halve(d):
        d[a, b] = d[b, a] = d[a, b] / 2
        return d

    base = metric_to_json(_instance(doc))
    edit_array(base, "dist", halve)
    alone = {**standalone(doc), "base": base}
    art["base"] = base
    assert "stores a base" in _refusal(doc)
    assert "certificate" in {v[0] for v in verify_bundle(alone).violations}


@pytest.mark.parametrize("edit", [
    lambda art: art.update(subset=[0, 1]),
    lambda art: art.pop("provenance"),
    lambda art: art.pop("blocks"),
], ids=["subset-too", "no-provenance", "no-blocks"])
def test_a_composition_artifact_holds_its_blocks_and_their_provenance(edit):
    doc = run_bundle(*COMPOSITION)
    edit(doc["artifacts"][0])
    assert "holds a subset, or blocks and their provenance, or neither" in _refusal(doc)


@pytest.mark.parametrize("seed", range(2))
def test_a_point_added_to_a_composition_block_is_checked_on_the_quotient_it_gives(seed):
    # every point outside the blocks, added to every block in turn: verify
    # accepts the tree exactly where the claim still holds on the quotient
    # by the new blocks, recomputed by loops
    doc = run_bundle(*COMPOSITION, seed=seed)
    del doc["rows"], doc["summary"]
    art, m = doc["artifacts"][0], _instance(doc)
    tree = hst_to_metric(hst_from_json(art["tree"])).dist
    iu, ju = np.triu_indices(tree.shape[0], 1)
    outside = sorted(set(range(m.n)) - {x for b in art["blocks"] for x in b})
    verdicts = []
    for x in outside:
        for b in range(len(art["blocks"])):
            trial = json.loads(json.dumps(doc))
            blocks = widen(trial["artifacts"][0], m, b, x)
            q = np.array(shortest_path_closure(block_reduce_loop(m.dist, blocks)))
            ratio = tree[iu, ju] / q[iu, ju]
            claim = art["certified_distortion"]
            holds = (abs(ratio.max() / ratio.min() - claim) <= claim_slack(claim)
                     and 1 / ratio.min() <= 1 + 1e-9)
            verdicts.append(holds)
            assert verify_bundle(trial).ok == holds, (x, b)
    assert outside and not all(verdicts)


def test_an_hst_bundle_relabelled_as_a_composition_plan_is_refused():
    # the tree's own metric as the base of its artifact: exact for its tree
    doc = run_bundle(*HST)
    art, row = doc["artifacts"][0], doc["rows"][0]
    art["base"] = metric_to_json(hst_to_metric(hst_from_json(art["tree"])))
    del art["subset"]
    art["certified_distortion"] = row["certified_distortion"] = 1.0
    doc["plan"].update(pipeline="composition", params={})
    with pytest.raises(ParameterError, match="^plan: a composition plan runs on a 'composition' instance"):
        verify_bundle(doc)
    doc["plan"]["instance"] = {"variant": "composition", "params": {}}
    assert "stores a base" in _refusal(doc)


# --- rows name the plan's seed and the size of its instance -----------------


def _violations(doc: dict) -> list:
    return [v[:2] for v in verify_bundle(doc).violations]


@pytest.mark.parametrize("plan", [Q2, HST, CUBE, COMPOSITION, BOURGAIN],
                         ids=["q2", "hst", "cube-qs", "composition", "bourgain"])
def test_a_row_naming_another_instance_size_is_refused(plan):
    doc = run_bundle(*plan)
    assert verify_bundle(doc).ok
    doc["rows"][0]["n"] += 1
    assert _violations(doc) == [("row", (0,))]


@pytest.mark.parametrize("plan", [Q2, HST], ids=["q2", "hst"])
def test_a_row_naming_another_seed_is_refused(plan):
    doc = run_bundle(*plan)
    doc["rows"][0]["seed"] = 99
    assert _violations(doc) == [("row", ())]


def test_the_seed_of_a_failed_trials_row_is_checked():
    # trial 1 fails: its row has no certificate and no artifact, but its seed
    doc = run_bundle(*Q2, trials=2)
    doc["artifacts"].pop()
    row = doc["rows"][1]
    row.update(dict.fromkeys(("quotient_size", "provenance", "target_class", "p", "certified_distortion",
                              "paper_bound", "attempts"), ""))
    error = {"trial": 1, "error": "ConstructionFailureError", "detail": "failed"}  # the summary counts it
    doc["summary"] = summary_of(plan_from_json(doc["plan"]), doc["rows"], [error], doc["summary"]["millis"])
    assert verify_bundle(doc).ok
    row["seed"] = 99
    assert _violations(doc) == [("row", ())]


# --- the lipschitz bound of an aspect quotient is its plan's ----------------

LIPSCHITZ = ("cloud", {"n": 60}, "aspect", {"alpha": 1.5, "lipschitz": True})


@pytest.mark.parametrize("edit, message", [
    (lambda art: art.pop("lipschitz"), "lipschitz None is not its plan's 1.5"),
    (lambda art: art.update(lipschitz=4.5), "lipschitz 4.5 is not its plan's 1.5"),
], ids=["dropped", "raised"])
def test_a_lipschitz_bound_that_is_not_the_plans_is_refused(edit, message):
    doc = run_bundle(*LIPSCHITZ)
    assert doc["artifacts"][0]["lipschitz"] == 1.5 and verify_bundle(doc).ok
    edit(doc["artifacts"][0])
    assert message in _refusal(doc)


def test_a_lipschitz_bound_that_its_plan_does_not_promise_is_refused():
    doc = run_bundle("cloud", {"n": 60}, "aspect", {"alpha": 1.5})
    assert "lipschitz" not in doc["artifacts"][0]
    doc["artifacts"][0]["lipschitz"] = 1.5
    assert "lipschitz 1.5 is not its plan's None" in _refusal(doc)


@pytest.mark.parametrize("seed", range(6))
def test_a_block_widened_past_the_lipschitz_bound_is_refused(seed):
    # one point outside the blocks joins block 0 and no set distance moves:
    # quotient, model claim and row still hold, but a Hausdorff distance grows
    doc = run_bundle(*LIPSCHITZ, seed=seed)
    art, m = doc["artifacts"][0], _instance(doc)

    def product(x):
        blocks = [list(b) for b in art["blocks"]]
        blocks[0].append(x)
        return math.prod(lip_colip_loop(m, blocks, quotient_metric(m, blocks).metric))

    x = max((x for b, x in widenings(m, art["blocks"]) if b == 0), key=product)
    assert product(x) > 2.0
    widen(art, m, 0, x)
    assert _violations(doc) == [("lipschitz", (0,))]


# --- a cube-qs artifact repeats its plan's d, eps and p, an embedding its p --

def test_a_cube_artifact_of_another_plan_is_refused():
    # the d = 9 artifact of another run, its row's size and claim copied
    doc, other = run_bundle(*CUBE), run_bundle("cube", {"d": 9}, "cube-qs", {"d": 9, "eps": 0.24})
    doc["artifacts"] = other["artifacts"]
    for key in ("quotient_size", "certified_distortion"):
        doc["rows"][0][key] = other["rows"][0][key]
    assert "d 9 is not its plan's 8" in _refusal(doc)


def _rewritten(doc: dict, key: str, value) -> None:
    """Set the artifact's `key` to value, and its row's too where the row has
    it, with the claims and the rest that value gives: a cube's witnesses and
    block count as cube_qs_construct makes them, an embedding's distortion
    under that p of the same coordinates (the per-subset loop)."""
    art, row = doc["artifacts"][0], doc["rows"][0]
    art[key] = value
    if row.get(key, "") != "":
        row[key] = value
    if art["kind"] == "cube-qs":
        res = cube_qs_construct(art["d"], art["eps"], art["p"])
        art["witnesses"], row["quotient_size"] = [list(w) for w in res.witnesses], res.block_count
        claim = res.report.distortion
    else:
        source = quotient_by_subset(_instance(doc), art["subset"]).metric
        flat, weights = decode_array(art["subsets"]), decode_array(art["weights"])
        mask = np.isin(np.arange(weights.size * source.n), flat).reshape(weights.size, source.n)
        _, _, table = bourgain_embed_loop(source, 1.0, art["p"], "monte-carlo", given=(mask, weights))
        iu, ju = np.triu_indices(source.n, 1)
        ratio = table[iu, ju] / source.dist[iu, ju]
        claim = ratio.max() / ratio.min()
    art["certified_distortion"] = row["certified_distortion"] = float(claim)


@pytest.mark.parametrize("plan, key, value", [(CUBE, "eps", 0.22), (CUBE, "p", 1.5), (BOURGAIN, "p", 1.0)],
                         ids=["cube-eps", "cube-p", "bourgain-p"])
def test_an_artifact_with_another_param_than_its_plan_is_refused(plan, key, value):
    # rewritten as a run with that param writes it, the artifact is a true
    # certificate on its own, and its row agrees; at bourgain seed 1 the p = 2
    # claim 2.94 became the p = 1 distortion 4.23 and verified
    doc = run_bundle(*plan, seed=1)
    _rewritten(doc, key, value)
    assert verify_bundle(standalone(doc)).ok
    assert f"{key} {value!r} is not its plan's" in _refusal(doc)


def test_a_cube_plan_of_a_huge_dimension_is_refused_before_2_to_the_d():
    # 2 ** 10**9 alone is a 125 MB integer; the plan's d is bounded by MAX_D
    doc = run_bundle(*CUBE)
    doc["plan"]["params"]["d"] = 10**9
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="^plan: pipeline 'cube-qs': bad 'd' value 1000000000"):
            verify_bundle(doc)
        with pytest.raises(ParameterError, match=f"not in the range 1<=x<={MAX_D}"):
            plan_from_json(doc["plan"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("where, key", [((), "param"), (("instance",), "seed")], ids=["plan", "instance"])
def test_a_bundle_plan_with_an_unknown_key_is_refused(where, key):
    # verify reads the plan as `run` reads it, so a misspelled key is no default
    doc = run_bundle(*Q2)
    holder = doc["plan"]
    for k in where:
        holder = holder[k]
    holder[key] = 1
    with pytest.raises(ParameterError, match=f"^plan: unknown plan (instance )?key {key!r}"):
        verify_bundle(doc)


# --- the cap on realized instances ------------------------------------------


@pytest.mark.parametrize("variant, params", [
    ("cloud", {"n": 10**7}),
    ("gnp", {"n": MAX_POINTS + 1, "q": 0.5}),
    ("padded", {"base_n": 2000, "copies": 3}),
    ("lipcomp", {"k": 100, "yn": 100}),
    ("composition", {"depth": 10**6}),
    ("cube", {"d": 10**7}),
    ("star", {"n": MAX_POINTS}),
    ("lacunary", {"a": [2.0**-i for i in range(MAX_POINTS)]}),
    ("equilateral", {"n": 10**7}),
])
def test_an_instance_above_the_cap_is_refused_before_it_is_built(variant, params):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"the cap is {MAX_POINTS}"):
            realize_instance(InstanceSpec(variant, params, RngSeed(0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a 10^7-point matrix would take 800 TB


def test_a_plan_above_the_cap_is_refused_in_run_and_in_verify():
    doc = run_bundle(*Q2)
    doc["plan"]["instance"]["params"]["n"] = 10**7
    tracemalloc.start()
    try:
        assert "would have 10000000 points" in _refusal(doc, CapacityError)
        bundle = run_experiment(plan_from_json(doc["plan"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.summary["errors"][0]["error"] == "CapacityError"
    assert peak < 2**20


def test_a_model_above_the_cap_is_refused():
    doc = run_bundle("cloud", {"n": 40}, "aspect", {})
    doc["artifacts"][0]["model"]["n"] = 10**7
    _refusal(doc, CapacityError)


def test_the_cap_covers_every_benchmark_and_sweep_size():
    # the benchmark's cells, and the largest sizes of the ROADMAP sweeps
    # (hst n = 2000; q2, aspect and dichotomy n = 1200; bourgain n = 1000)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    plans = [(c.variant, c.instance if size is None else {**c.instance, "n": size})
             for cells in workloads.WORKLOADS.values() for c in cells for size in c.sizes]
    plans += [("cloud", {"n": 2000}), ("cloud", {"n": 1200})]
    for variant, params in plans:
        inst = INSTANCES[variant]
        assert inst.points(inst.resolve(params)) <= MAX_POINTS, (variant, params)
    assert INSTANCES["cube"].points({"d": 12}) == MAX_POINTS  # the largest cube hypercube_metric builds
