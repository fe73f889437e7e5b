"""A bundle's quotient and hst artifacts are about the instance its plan names.

They store no copy of it: `verify` rebuilds trial t's instance from the plan,
as `run` built it, so a base of the artifact's own, an edited plan and a
missing trial are refused.  Instances above generators.MAX_POINTS are refused
before anything is built.
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

from metriq.cli import plan_from_json, run_experiment
from metriq.core import metric_to_json
from metriq.errors import CapacityError, StructuralError
from metriq.generators import INSTANCES, MAX_POINTS, InstanceSpec, realize_instance
from metriq.hst import hst_from_json, hst_to_metric
from metriq.seeds import RngSeed
from metriq.verify import verify_bundle

from conftest import edit_array, run_bundle

Q2 = ("cloud", {"n": 40}, "q2", {})
HST = ("cloud", {"n": 40}, "hst", {})


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


def test_a_q2_artifact_given_its_instance_times_three_is_refused():
    doc = run_bundle(*Q2)
    base = metric_to_json(_instance(doc))
    edit_array(base, "dist", lambda d: 3 * d)
    doc["artifacts"][0]["base"] = base
    assert "stores a base" in _refusal(doc)


@pytest.mark.parametrize("plan", [Q2, HST], ids=["q2", "hst"])
def test_an_edited_plan_seed_fails_the_certificate_on_the_other_instance(plan):
    # a valid plan: its instance is another cloud, where the claim is off
    doc = run_bundle(*plan)
    assert verify_bundle(doc).ok
    doc["plan"]["seed"] += 1
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
    # a composition plan's artifacts embed their base: a q2 artifact with a
    # base of its own must not pass as one
    doc = run_bundle(*Q2)
    doc["plan"].update(pipeline="composition", params={})
    doc["artifacts"][0]["base"] = metric_to_json(_instance(doc))
    assert "a composition plan writes hst artifacts, not quotient" in _refusal(doc)


def test_rows_need_their_plan_and_an_artifact_without_a_plan_its_base():
    doc = run_bundle(*Q2)
    del doc["plan"]
    with pytest.raises(StructuralError, match="^rows: a bundle's rows come with the plan"):
        verify_bundle(doc)
    del doc["rows"]
    assert "required base is missing" in _refusal(doc)


def test_a_composition_bundle_keeps_its_embedded_base():
    doc = run_bundle("composition", {}, "composition", {})
    assert "base" in doc["artifacts"][0] and verify_bundle(doc).ok
    del doc["artifacts"][0]["base"]
    assert "required base is missing" in _refusal(doc)


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
