import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from metriq.cli import (
    CSV_COLUMNS,
    ExperimentPlan,
    main,
    plan_from_json,
    run_experiment,
    verify_bundle,
)
from metriq.core import (
    Equilateral,
    Lacunary,
    Star,
    ValidationReport,
    decode_array,
    dumps,
    metric_from_json,
    metric_to_json,
    realize_special,
)
from metriq.cube import cube_qs_construct
from metriq.errors import ConstructionFailureError, MetriqError, ParameterError, StructuralError
from metriq.generators import InstanceSpec
from metriq.quotient import quotient_to_json
from metriq.seeds import RngSeed
from metriq.verify import CHECKS, _quantiles

from conftest import ARTIFACT_COMMANDS, SQ_PLAN, edit_array, random_metric, refusal, run_bundle, standalone


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_gen_is_deterministic(runner):
    a = invoke(runner, "--seed", "5", "gen", "--variant", "cloud", "--param", "n=10")
    b = invoke(runner, "--seed", "5", "gen", "--variant", "cloud", "--param", "n=10")
    assert a.output == b.output
    c = invoke(runner, "--seed", "6", "gen", "--variant", "cloud", "--param", "n=10")
    assert c.output != a.output
    m = metric_from_json(json.loads(a.output))
    assert m.n == 10


def test_gen_csv_round_trip(runner, tmp_path):
    out = tmp_path / "m.csv"
    invoke(runner, "--seed", "1", "--out", str(out), "--format", "csv",
           "gen", "--variant", "equilateral", "--param", "n=4")
    text = out.read_text()
    assert len(text.strip().splitlines()) == 4


def test_quotient_subset_command(runner, tmp_path):
    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "2", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=6")
    res = invoke(runner, "quotient", "--in", str(mpath), "--subset", "0,3")
    doc = json.loads(res.output)
    assert doc["provenance"] == "Q"
    assert doc["blocks"][-1] == [0, 3]


def test_quotient_command_writes_its_distances_as_csv(runner, tmp_path):
    from metriq.core import metric_from_csv
    from metriq.quotient import quotient_metric

    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "2", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=6")
    res = invoke(runner, "--format", "csv", "quotient", "--in", str(mpath), "--blocks", "0,1;2;3,4")
    q = quotient_metric(metric_from_json(json.loads(mpath.read_text())), [(0, 1), (2,), (3, 4)])
    assert np.array_equal(metric_from_csv(res.output).dist, q.metric.dist)


def test_quotient_requires_exactly_one_selector(runner, tmp_path):
    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "2", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=5")
    result = runner.invoke(main, ["quotient", "--in", str(mpath)])
    assert result.exit_code != 0


def test_construct_q2_certificate(runner, tmp_path):
    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "3", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=40")
    res = invoke(runner, "--seed", "3", "construct", "q2", "--in", str(mpath))
    doc = json.loads(res.output)
    assert doc["kind"] == "quotient"
    assert doc["certified_distortion"] <= 2.0 + 1e-9
    assert doc["model"]["type"] == "lacunary"


def test_transform_matches_closed_form(runner):
    res = invoke(runner, "transform", "--kind", "gauss-trunc", "--level", "2.0",
                 "--d", "2.0")
    doc = json.loads(res.output)
    expect = math.sqrt(2.0) * 2.0 * math.sqrt(1.0 - math.exp(-0.5))
    assert doc["value"] == pytest.approx(expect)


def test_certify_distortion_command(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    m = random_metric(5, 4)
    a.write_text(json.dumps(metric_to_json(m)))
    from metriq.core import MetricSpace

    b.write_text(json.dumps(metric_to_json(MetricSpace(m.dist * 2.0))))
    res = invoke(runner, "certify", "distortion", "--source", str(a), "--target", str(b))
    doc = json.loads(res.output)
    assert doc["expansion"] == pytest.approx(2.0)
    assert doc["distortion"] == pytest.approx(1.0)


def test_certify_distortion_refuses_spaces_of_different_sizes(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(metric_to_json(random_metric(5, 4))))
    b.write_text(json.dumps(metric_to_json(random_metric(6, 4))))
    result = runner.invoke(main, ["certify", "distortion", "--source", str(a), "--target", str(b)])
    assert refusal(result, StructuralError) == "source has 5 points, target 6"


def test_verify_refuses_a_model_with_extra_points(runner, tmp_path):
    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "3", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=40")
    doc = json.loads(invoke(runner, "--seed", "3", "construct", "q2", "--in", str(mpath)).output)
    assert verify_bundle(doc).ok
    a = doc["model"]["a"]
    a += [a[-1] / 2, a[-1] / 4]  # the model's first points keep their distances
    with pytest.raises(StructuralError, match="source has"):
        verify_bundle(doc)


def test_verify_names_the_artifact_of_a_structural_error():
    from metriq.cli import plan_from_json, run_experiment

    plan = {"instance": {"variant": "cloud", "params": {"n": 40}}, "pipeline": "q2",
            "params": {}, "trials": 3, "seed": 0}
    bundle = run_experiment(plan_from_json(plan), True)
    doc = json.loads(dumps({"plan": bundle.plan, "artifacts": bundle.artifacts}))
    assert verify_bundle(doc).ok
    a = doc["artifacts"][2]["model"]["a"]
    a += [a[-1] / 2, a[-1] / 4]
    with pytest.raises(StructuralError, match=r"^artifact 2: source has"):
        verify_bundle(doc)
    with pytest.raises(StructuralError) as err:
        verify_bundle({"artifacts": [{"kind": "nope"}]})
    assert str(err.value) == "artifact 0: unknown kind 'nope'"


def test_verify_refuses_a_tree_with_extra_leaves():
    from metriq.hst import hst_from_json, hst_to_json, join, leaf

    art = json.loads(dumps(_fresh_artifact("hst")))
    assert verify_bundle(art).ok
    tree = hst_from_json(art["tree"])
    n = tree.order.size
    # the old leaves keep their distances under the new root
    art["tree"] = hst_to_json(join(float(tree.delta[0]), [tree, leaf(n), leaf(n + 1)]))
    with pytest.raises(StructuralError, match="source has"):
        verify_bundle(art)


def test_quotient_refuses_a_subset_index_out_of_range(runner, tmp_path):
    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "2", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=5")
    result = runner.invoke(main, ["quotient", "--in", str(mpath), "--subset", "0,9"])
    assert "out of range" in refusal(result, StructuralError)


@pytest.mark.parametrize("option, value", [("--subset", "a"), ("--blocks", "0,1;x")])
def test_quotient_reports_unparsable_indices_as_a_bad_parameter(runner, tmp_path, option, value):
    mpath = tmp_path / "m.json"
    invoke(runner, "--seed", "2", "--out", str(mpath), "gen", "--variant", "cloud",
           "--param", "n=5")
    result = runner.invoke(main, ["quotient", "--in", str(mpath), option, value])
    assert result.exit_code == 2  # click's usage error, not a traceback
    assert f"Invalid value for {option}" in result.output


@pytest.mark.parametrize("command, text", [
    (["certify", "distortion", "--target", "M", "--source"], "[[0, 1], [1, 0]]"),
    (["quotient", "--subset", "0", "--in"], "not json"),
    (["run", "--plan"], "{}"),
    (["verify", "--bundle"], "not json"),
], ids=["distortion", "quotient", "run", "verify"])
def test_file_loaders_refuse_a_malformed_document(runner, tmp_path, command, text):
    good, bad = tmp_path / "m.json", tmp_path / "bad.json"
    good.write_text(json.dumps(metric_to_json(random_metric(2, 0))))
    bad.write_text(text)
    args = [str(good) if a == "M" else a for a in command] + [str(bad)]
    result = runner.invoke(main, args)
    assert refusal(result, StructuralError).startswith(f"{bad}: malformed (")


def test_cube_qs_and_lower_round_trip(runner, tmp_path):
    out = tmp_path / "cube.json"
    invoke(runner, "--out", str(out), "cube-qs", "--d", "10", "--eps", "0.2")
    doc = json.loads(out.read_text())
    res = cube_qs_construct(10, 0.2)
    assert set(doc) == {"kind", "d", "eps", "p", "witnesses", "certified_distortion"}
    assert doc["witnesses"] == [list(w) for w in res.witnesses]
    # verify derives the net and the block count from d and eps: it stores neither
    decl, check = CHECKS["cube-qs"]
    report = ValidationReport()
    assert check(decl(doc), 0, report) == res.block_count >= 0.8 * 1024
    assert report.ok


# --- experiment plans -------------------------------------------------------


def q2_plan(trials=3, seed=11):
    return {
        "instance": {"variant": "cloud", "params": {"n": 40}},
        "pipeline": "q2",
        "params": {},
        "trials": trials,
        "seed": seed,
    }


def test_plan_rejects_unknown_pipeline():
    doc = q2_plan()
    doc["pipeline"] = "nope"
    with pytest.raises(ParameterError):
        plan_from_json(doc)


@pytest.mark.parametrize("where, key, message", [
    ((), "param", "unknown plan key 'param'; a plan holds instance, pipeline, params, trials, seed"),
    (("instance",), "seed", "unknown plan instance key 'seed'; a plan instance holds variant, params"),
], ids=["plan", "instance"])
def test_run_refuses_an_unknown_plan_key(runner, tmp_path, where, key, message):
    # a misspelled "params" ran aspect with its default alpha 2.0
    doc = {"instance": {"variant": "cloud", "params": {"n": 10}}, "pipeline": "aspect"}
    holder = doc
    for k in where:
        holder = holder[k]
    holder[key] = {"alpha": 1.1} if key == "param" else 3
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert refusal(runner.invoke(main, ["run", "--plan", str(path)]), ParameterError) == message


def test_out_into_a_missing_directory_is_one_error_line(runner, tmp_path):
    out = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, ["--out", str(out), "gen", "--variant", "cloud", "--param", "n=5"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"Error: Could not open file {str(out)!r}: No such file or directory\n"


def test_run_experiment_rows_and_summary():
    bundle = run_experiment(plan_from_json(q2_plan()))
    assert len(bundle.rows) == 3
    for t, row in enumerate(bundle.rows):
        assert row["trial"] == t
        assert row["n"] == 40
        assert float(row["certified_distortion"]) <= 2.0 + 1e-9
        assert row["millis"] == ""  # timings never enter the CSV rows
    assert bundle.summary["failures"] == 0
    assert len(bundle.summary["millis"]) == 3
    assert bundle.summary["certified_distortion"]["max"] <= 2.0 + 1e-9


#: summary inputs with ties, +-inf and NaN; -0.0 is read as 0.0, since numpy
#: may return either zero of a tie and no certified distortion is -0.0
_SUMMARY_VALUES = st.one_of(st.floats(), st.sampled_from([1.0, 2.0, math.inf, -math.inf, math.nan])).map(
    lambda x: 0.0 if x == 0 else x)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_SUMMARY_VALUES, min_size=1, max_size=50))
@example(values=[math.inf]).via("numpy interpolates the lone value with itself at t = 1: NaN")
@example(values=[1.0, math.inf, 2.0, 3.0, 2.0, 2.0]).via("p75 takes b - (b - a)(1 - t) = inf - inf")
def test_summary_quantiles_are_numpys_bit_for_bit(values):
    with np.errstate(invalid="ignore"):
        want = {"min": np.min(values), "p25": np.percentile(values, 25), "median": np.median(values),
                "p75": np.percentile(values, 75), "max": np.max(values)}
    got = _quantiles(values)
    assert list(got) == list(want)
    assert [float.hex(v) for v in got.values()] == [float.hex(float(v)) for v in want.values()]


def test_run_csv_is_byte_deterministic(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(q2_plan()))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        invoke(runner, "--format", "csv", "--out", str(out), "run", "--plan", str(plan))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_run_zero_trials_gives_header_only(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(q2_plan(trials=0)))
    out = tmp_path / "empty.csv"
    invoke(runner, "--format", "csv", "--out", str(out), "run", "--plan", str(plan))
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_run_failed_trials_keep_rows():
    doc = {
        "instance": {"variant": "cloud", "params": {"n": 6}},
        "pipeline": "q2",  # n/4 + 1 target often unreachable at tiny n is fine;
        "params": {},
        "trials": 2,
        "seed": 1,
    }
    bundle = run_experiment(plan_from_json(doc))
    assert len(bundle.rows) == 2  # failed or not, every trial leaves a row


def test_verify_bundle_accepts_and_rejects(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(q2_plan(trials=2)))
    out = tmp_path / "bundle.json"
    invoke(runner, "--out", str(out), "run", "--plan", str(plan), "--artifacts")
    doc = json.loads(out.read_text())
    assert verify_bundle(doc).ok

    # a point moved to another block: the quotient rebuilt from the plan's
    # instance changes, and the claimed distortion no longer holds
    art = doc["artifacts"][0]
    src = next(b for b in art["blocks"] if len(b) > 1)
    next(b for b in art["blocks"] if b is not src).append(src.pop())
    rep = verify_bundle(doc)
    assert [v[:2] for v in rep.violations] == [("certificate", (0,))]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "--bundle", str(bad)])
    assert result.exit_code == 1


@pytest.mark.parametrize("claim", [None, 0.5], ids=["as-run", "claim-0.5"])
def test_a_certified_bundle_without_artifacts_fails_verify(runner, tmp_path, claim):
    # `run` without --artifacts: both rows claim a certificate that no
    # artifact backs, so there is nothing to check them against
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"instance": {"variant": "cloud", "params": {"n": 40}}, "pipeline": "hst",
                                "params": {}, "trials": 2, "seed": 1}))
    out = tmp_path / "bundle.json"
    invoke(runner, "--out", str(out), "run", "--plan", str(plan))
    doc = json.loads(out.read_text())
    assert doc["artifacts"] == [] and all(row["certified_distortion"] != "" for row in doc["rows"])
    if claim is not None:
        doc["rows"][0]["certified_distortion"] = claim
        out.write_text(json.dumps(doc))
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", ()), ("row", ()), ("summary", ())]
    result = runner.invoke(main, ["verify", "--bundle", str(out)])
    assert result.exit_code == 1 and not json.loads(result.output)["ok"]


def _verify_peak(doc: dict) -> tuple[int, list]:
    """verify_bundle's tracemalloc peak on doc, and its violations."""
    tracemalloc.start()
    try:
        rep = verify_bundle(doc)
        return tracemalloc.get_traced_memory()[1], rep.violations
    finally:
        tracemalloc.stop()


def test_verify_bundle_memory_is_flat_in_trials():
    # each trial rebuilds a 600-point instance (2.9 MB); the 16-trial peak is
    # that of its largest trial, which keeps no rebuilt base for its rows
    doc = run_bundle("cloud", {"n": 600}, "hst", {}, trials=16)
    peak, violations = _verify_peak(doc)
    assert violations == []
    singles = []
    for row, art in zip(doc["rows"], doc["artifacts"]):
        one = {"plan": doc["plan"], "rows": [row], "artifacts": [art]}
        singles.append(_verify_peak(one))
    assert all(v == [] for _, v in singles)
    assert peak <= 1.1 * max(p for p, _ in singles)


def _set_pair(d, i, j, value):
    d[i, j] = d[j, i] = value
    return d


def test_verify_checks_gen_and_quotient_documents(runner, tmp_path):
    mpath, qpath = tmp_path / "m.json", tmp_path / "q.json"
    invoke(runner, "--seed", "2", "--out", str(mpath), "gen", "--variant", "cloud", "--param", "n=6")
    invoke(runner, "--out", str(qpath), "quotient", "--in", str(mpath), "--subset", "0,3")

    # breaks the triangle inequality of the metric; in the quotient by
    # {0, 3}, puts the singleton blocks of points 1 and 2 at distance 0,
    # which no quotient metric has
    for path, kind, key, tamper in ((mpath, "metric", None, lambda d: _set_pair(d, 0, 1, 100.0)),
                                    (qpath, "quotient", "base", lambda d: _set_pair(d, 1, 2, 0.0))):
        doc = json.loads(path.read_text())
        assert doc["kind"] == kind
        assert json.loads(invoke(runner, "verify", "--bundle", str(path)).output)["ok"]
        edit_array(doc[key] if key else doc, "dist", tamper)
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["verify", "--bundle", str(bad)])
        if kind == "metric":
            assert result.exit_code == 1 and not json.loads(result.output)["ok"]
        else:
            assert "blocks 0 and 1 are at distance 0.0 <= 0" in refusal(result, StructuralError)


def test_verify_refuses_a_document_without_artifacts_or_kind():
    doc = json.loads(dumps(metric_to_json(random_metric(5, 1))))
    with pytest.raises(StructuralError):
        verify_bundle(doc)


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"artifacts": [5]},
    {"artifacts": [{"kind": "quotient", "base": [1]}]},
    {"kind": "hst", "base": 5},
])
def test_verify_refuses_a_document_or_artifact_that_is_not_an_object(runner, tmp_path, doc):
    with pytest.raises(StructuralError) as err:
        verify_bundle(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "--bundle", str(path)])
    assert refusal(result, StructuralError) == str(err.value)


@pytest.mark.parametrize("tolerance", ["1e-3", "100", "nan"])
def test_verify_takes_no_tolerance(runner, tmp_path, tolerance):
    # an hst claim raised from 10.41 to 13.52 in artifact and row verified
    # under --tolerance 100 or nan; verify's slack is fixed
    doc = run_bundle("cloud", {"n": 40}, "hst", {}, seed=1)
    claim = doc["artifacts"][0]["certified_distortion"] * 1.25 + 0.5
    doc["artifacts"][0]["certified_distortion"] = doc["rows"][0]["certified_distortion"] = claim
    assert [v[:2] for v in verify_bundle(doc).violations] == [("certificate", (0,)), ("summary", ())]
    with pytest.raises(TypeError):
        verify_bundle(doc, float(tolerance))
    path = tmp_path / "raised.json"
    path.write_text(dumps(doc))
    result = runner.invoke(main, ["--tolerance", tolerance, "verify", "--bundle", str(path)])
    assert result.exit_code == 2 and "No such option '--tolerance'" in result.output


@pytest.mark.parametrize("n", [3.7, "3", 3.0, True])
def test_verify_refuses_a_declared_n_that_is_not_an_int(runner, tmp_path, n):
    art = {"kind": "metric", **metric_to_json(random_metric(3, 1))}
    assert verify_bundle({"artifacts": [art]}).ok
    art["n"] = n
    with pytest.raises(StructuralError, match="declared n") as err:
        verify_bundle({"artifacts": [art]})
    path = tmp_path / "bad.json"
    path.write_text(dumps(art))
    result = runner.invoke(main, ["verify", "--bundle", str(path)])
    assert refusal(result, StructuralError) == str(err.value)


@pytest.mark.parametrize("labels", ["abc", [1, 2, 3], {"x": 1, "y": 2, "z": 3}, ["a", "b"], [], "", ["a", "b", 3]])
def test_verify_refuses_labels_that_are_not_n_strings(runner, tmp_path, labels):
    art = {"kind": "metric", **metric_to_json(random_metric(3, 1))}
    for good in (None, ["a", "b", "c"]):
        art["labels"] = good
        assert verify_bundle({"artifacts": [art]}).ok
    assert metric_from_json(art).labels == ("a", "b", "c")
    art["labels"] = labels
    with pytest.raises(StructuralError, match="label") as err:
        verify_bundle({"artifacts": [art]})
    path = tmp_path / "bad.json"
    path.write_text(dumps(art))
    result = runner.invoke(main, ["verify", "--bundle", str(path)])
    assert refusal(result, StructuralError) == str(err.value)


@pytest.mark.parametrize("claim", [0.5, 0.0, -1.0, 1.0 - 1e-6])
def test_verify_refuses_a_cube_claim_below_one(claim):
    # a distortion is max ratio / min ratio, so at least 1
    art = json.loads(dumps(_fresh_artifact("cube-qs")))
    assert verify_bundle({"artifacts": [art]}).ok
    art["certified_distortion"] = claim
    rep = verify_bundle({"artifacts": [art]})
    assert [v[0] for v in rep.violations] == ["certificate"]


def _as_format1(doc):
    """doc with every encoded array written out as a JSON list, as format 1 stored it."""
    if isinstance(doc, dict):
        if set(doc) == {"dtype", "shape", "b64"}:
            return decode_array(doc).tolist()
        return {k: _as_format1(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_as_format1(v) for v in doc]
    return doc


def _fresh_artifact(kind: str) -> dict:
    """A standalone artifact of the kind, with its base embedded where it has one."""
    from metriq.cli import PIPELINES
    from metriq.verify import _standalone_artifact

    m = random_metric(30, 2)
    if kind == "sq":
        art = standalone(run_bundle(*SQ_PLAN))
        assert art["provenance"] == "SQ"
        return art
    if kind == "metric":
        return {"kind": "metric", **metric_to_json(m)}
    pipe = PIPELINES[{"quotient": "q2", "hst": "hst", "embedding": "bourgain", "cube-qs": "cube-qs"}[kind]]
    params = pipe.resolve({"d": 8, "eps": 0.24} if kind == "cube-qs" else {})
    m = None if pipe.own_space else m
    return _standalone_artifact(pipe.run(m, RngSeed(2), params)[0], m)


@pytest.mark.parametrize("kind, path", [
    ("metric", ["dist"]),
    ("quotient", ["base", "dist"]),
    ("hst", ["tree", "parent"]),
    ("hst", ["base", "dist"]),
    ("embedding", ["subsets"]),
    ("embedding", ["base", "dist"]),
    ("hst", ["tree", "delta"]),
    ("sq", ["base", "dist"]),
])
def test_verify_refuses_a_format1_list(kind, path):
    art = json.loads(dumps(_fresh_artifact(kind)))
    assert verify_bundle({"artifacts": [art]}).ok
    holder = art
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = decode_array(holder[path[-1]]).tolist()
    with pytest.raises(StructuralError, match="format 2"):
        verify_bundle({"artifacts": [art]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, path", [
    ("quotient", ["certified_distortion"]),
    ("quotient", ["base", "dist"]),
    ("bare quotient", ["base", "dist"]),
    ("hst", ["certified_distortion"]),
    ("hst", ["base", "dist"]),
    ("embedding", ["certified_distortion"]),
    ("embedding", ["base", "dist"]),
    ("cube-qs", ["certified_distortion"]),
    ("sq", ["certified_distortion"]),
    ("sq", ["base", "dist"]),
])
def test_verify_rejects_a_non_finite_claim_or_entry(kind, path, bad):
    art = json.loads(dumps(_fresh_artifact(kind.removeprefix("bare "))))
    if kind.startswith("bare "):
        del art["model"], art["certified_distortion"]  # as `metriq quotient` writes it
    assert verify_bundle({"artifacts": [art]}).ok
    holder = art
    for key in path[:-1]:
        holder = holder[key]
    if path[-1] == "certified_distortion":
        holder[path[-1]] = bad
    else:
        def tamper(a):
            a[0, 1] = bad
            return a

        edit_array(holder, path[-1], tamper)
    try:
        rep = verify_bundle({"artifacts": [art]})
    except StructuralError:
        return
    assert not rep.ok


def test_verify_rebuilds_the_parent_of_an_sq_space():
    # the base distances from the dropped root block to the kept points
    # halved: only paths through the rebuilt parent's root block change
    art = standalone(run_bundle(*SQ_PLAN))
    assert art["provenance"] == "SQ" and verify_bundle(art).ok
    kept = [i for b in art["blocks"] for i in b]
    root = np.setdiff1d(np.arange(60), kept)  # SQ_PLAN's cloud has 60 points

    def halve(d):
        d[np.ix_(root, kept)] *= 0.5
        d[np.ix_(kept, root)] *= 0.5
        return d

    edit_array(art["base"], "dist", halve)
    assert [v[:2] for v in verify_bundle(art).violations] == [("certificate", (0,))]


def test_an_sq_that_dropped_two_blocks_is_not_written():
    # its base and blocks would rebuild the SQ that dropped one block
    from metriq.quotient import quotient_metric, sq_space

    m = random_metric(12, 5)
    parent = quotient_metric(m, [(0, 1), (2, 3), (4,), (5, 6), *((i,) for i in range(7, 12))])
    with pytest.raises(StructuralError, match="SQ space is not the one"):
        quotient_to_json(sq_space(parent, range(2, len(parent.blocks))))
    art = {"kind": "quotient", **quotient_to_json(sq_space(parent, range(1, len(parent.blocks))))}
    assert art["provenance"] == "SQ" and verify_bundle(art).ok


QUOTIENT_PIPES = {  # pipeline -> params of one artifact kind "quotient"
    "q2": {}, "aspect": {}, "dichotomy": {}, "dichotomy --drop-root": {"drop_root": True},
}


def _verdict(doc: dict):
    """What verify_bundle says of doc: its violations (kind, where), or the
    class and message, without the artifact prefix, of the error it raises."""
    try:
        return [v[:2] for v in verify_bundle(doc).violations]
    except MetriqError as exc:
        return type(exc).__name__, str(exc).removeprefix("artifact 0: ")


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(["cloud", "gnp"]), n=st.integers(12, 60),
       pipe=st.sampled_from(sorted(QUOTIENT_PIPES)), seed=st.integers(0, 2**32 - 1),
       move=st.integers(0, 2**32 - 1))
def test_a_quotient_artifact_rebuilds_its_writers_matrix(variant, n, pipe, seed, move):
    from metriq import verify
    from metriq.generators import realize_instance
    from metriq.quotient import quotient_from_fields

    instance = {"n": n, "q": 0.1} if variant == "gnp" else {"n": n}
    plan = {"instance": {"variant": variant, "params": instance}, "pipeline": pipe.split()[0],
            "params": QUOTIENT_PIPES[pipe], "trials": 1, "seed": seed}
    written = []

    def recording(q, base=True):
        written.append(q)
        return quotient_to_json(q, base)

    with mock.patch.object(verify, "quotient_to_json", recording):
        bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
    errors = [e["error"] for e in bundle.summary["errors"]]
    assert "StructuralError" not in errors  # as the writer refuses a space it would not rebuild
    assume(not errors)  # the construction failed on this input
    q, = written
    event(q.provenance)
    doc = json.loads(dumps({"plan": bundle.plan, "rows": bundle.rows, "artifacts": bundle.artifacts}))
    art, row = doc["artifacts"][0], doc["rows"][0]
    m = realize_instance(plan_from_json(plan).instance_spec(0))
    assert np.array_equal(quotient_from_fields(m, art).metric.dist, q.metric.dist)
    assert verify_bundle(doc).ok
    claim = art["certified_distortion"]
    art["certified_distortion"] = row["certified_distortion"] = claim * (1 + 1e-5)
    assert _verdict(doc) == [("certificate", (0,))]
    art["certified_distortion"] = row["certified_distortion"] = claim

    # the reference tampered, not a base: another plan seed (and its rows'),
    # or one point moved to another block.  verify checks the artifact on the
    # instance the edited plan gives, as it checks the standalone artifact that
    # embeds it
    other = {**doc, "plan": {**doc["plan"], "seed": seed ^ 1}, "rows": [{**row, "seed": seed ^ 1}]}
    assert _verdict(other) == _verdict(standalone(other))
    if variant == "cloud" and pipe == "q2":  # a claim on another cloud is off
        assert _verdict(other) != []
    blocks = art["blocks"]
    rng = np.random.default_rng(move)
    src = int(rng.choice([i for i, b in enumerate(blocks) if len(b) > 1] or [0]))
    dst = int(rng.choice([i for i in range(len(blocks)) if i != src]))
    blocks[dst].append(blocks[src].pop(int(rng.integers(len(blocks[src])))))
    assert _verdict(doc) == _verdict(standalone(doc))


def test_verify_checks_each_quotient_claim_after_an_earlier_violation():
    # the claim check is gated on the artifact's own violations, not the bundle's
    doc = run_bundle("cloud", {"n": 40}, "q2", {}, trials=2, seed=11)
    for art in doc["artifacts"]:
        art["certified_distortion"] = 1.0
    certificates = [v[1] for v in verify_bundle(doc).violations if v[0] == "certificate"]
    assert certificates == [(0,), (1,)]


def test_verify_refuses_a_quotient_document_that_stores_dist():
    art = json.loads(dumps(_fresh_artifact("quotient")))
    with pytest.raises(StructuralError, match="stores no dist"):
        verify_bundle({**art, "dist": art["base"]["dist"]})


def test_verify_refuses_a_negative_block_distance():
    # scipy's closure would raise NegativeCycleError
    art = json.loads(dumps(_fresh_artifact("quotient")))
    (a,), (b,) = [blk for blk in art["blocks"] if len(blk) == 1][:2]
    edit_array(art["base"], "dist", lambda d: _set_pair(d, a, b, -0.5))
    with pytest.raises(StructuralError, match="at distance -0.5 <= 0"):
        verify_bundle(art)


def test_verify_refuses_a_cube_dimension_outside_the_construction_cap():
    # the survivor scan would allocate 2^d entries: 8 TiB at d = 40
    art = json.loads(dumps(_fresh_artifact("cube-qs")))
    for d in (40, 0, -3):
        with pytest.raises(StructuralError, match=f"d = {d} is outside 1..22"):
            verify_bundle({**art, "d": d})


def _derived(kind: str, key: str):
    """The value an artifact of `kind` stored as `key` before verify worked it out."""
    from metriq.core import encode_array
    from metriq.cube import _greedy_net, _net_radius

    r = _net_radius(8, 0.24)  # _fresh_artifact's cube
    return {"r": r, "net": encode_array(_greedy_net(8, r)[0]), "mode": "exact"}[key]


@pytest.mark.parametrize("kind, key", [("cube-qs", "r"), ("cube-qs", "net"), ("embedding", "mode")])
def test_verify_refuses_a_field_it_works_out(kind, key):
    # the cube's radius and net follow from d and eps, and no check reads how
    # Bourgain's subsets were drawn: an artifact stores none of them, even right
    art = json.loads(dumps(_fresh_artifact(kind)))
    assert verify_bundle(art).ok
    with pytest.raises(StructuralError, match=f"^artifact 0: undeclared {key}: "):
        verify_bundle({**art, key: _derived(kind, key)})


@pytest.mark.parametrize("net", [[0], [1023], [5, 1018]], ids=str)
def test_verify_refuses_a_cube_net_that_is_not_the_greedy_net(net):
    # at d = 10, eps = 0.2, each with its claim, witnesses and row
    # quotient_size recomputed for it: a separated net in the cube within the
    # Hamming bound, but not the one the greedy scan of d and r keeps, which
    # is the one verify takes
    from metriq.cube import _certify, _embedding_lookup, _net_radius

    doc = run_bundle("cube", {"d": 10}, "cube-qs", {"d": 10, "eps": 0.2})
    art, row = doc["artifacts"][0], doc["rows"][0]
    d = art["d"]
    r = _net_radius(d, art["eps"])
    pts = np.arange(2**d, dtype=np.int64)
    dA = np.min([np.bitwise_count(pts ^ a) for a in net], axis=0).astype(np.int64)
    summary, witnesses, _, _ = _certify(d, dA, r // 2, *_embedding_lookup(d, r, art["p"]))
    art.update(witnesses=[list(w) for w in witnesses], certified_distortion=summary.distortion)
    row.update(certified_distortion=summary.distortion, quotient_size=int((dA > r // 2).sum()) + 1)
    kinds = {v[0] for v in verify_bundle(doc).violations}
    assert kinds & {"certificate", "cube-witness"}, kinds


@pytest.mark.parametrize("key, value", [("eps", lambda eps: 0.15)])
def test_verify_checks_the_cube_radius_against_d_and_eps(key, value):
    # the radius follows from d and eps: at d = 11, eps = 0.2 gives r = 4 and
    # eps = 0.15 gives r = 6, a feasible cell where the witness r = 4 found
    # names no extreme cell
    art = json.loads(dumps(standalone(run_bundle("cube", {"d": 11}, "cube-qs", {"d": 11, "eps": 0.2}))))
    assert verify_bundle(art).ok
    art[key] = value(art[key])
    assert [v[0] for v in verify_bundle(art).violations] == ["cube-witness"]
    with pytest.raises(StructuralError, match="eps = 0.25 is outside"):
        verify_bundle({**art, "eps": 0.25})


@pytest.mark.parametrize("witnesses", [[[3, 3], [999999, -5]], [[1, 2]], []])
def test_verify_refuses_any_cube_witness_where_no_point_is_a_singleton(witnesses):
    # at d = 8, eps = 0.01 the net is one block and no point a singleton: the
    # construction's survivor count refuses the cell before any witness is read
    art = {**json.loads(dumps(_fresh_artifact("cube-qs"))), "eps": 0.01, "certified_distortion": 0.0}
    with pytest.raises(ConstructionFailureError, match="^artifact 0: only 1 blocks survive; need 253.4$"):
        verify_bundle({**art, "witnesses": witnesses})


def test_verify_refuses_a_tree_larger_than_its_base_before_building_its_metric():
    # hst_to_metric would allocate a 10^6 x 10^6 matrix, 7.28 TiB
    from metriq.core import encode_array

    art = json.loads(dumps(_fresh_artifact("hst")))
    leaves = 10**6
    art["tree"] = {"order": encode_array(np.arange(leaves, dtype=np.int64)),
                   "parent": encode_array(np.r_[-1, np.zeros(leaves, dtype=np.int64)]),
                   "delta": encode_array(np.r_[1.0, np.zeros(leaves)])}
    n = art["base"]["n"] - len(art["subset"]) + 1  # the base collapsed on the subset
    with pytest.raises(StructuralError, match=f"source has {n} points, the tree {leaves} leaves"):
        verify_bundle(art)


def test_verify_refuses_an_unknown_provenance():
    art = json.loads(dumps(_fresh_artifact("quotient")))
    assert art["provenance"] == "Q" and verify_bundle(art).ok
    assert verify_bundle({**art, "provenance": "SQ"}).ok  # the SQ that keeps every block
    with pytest.raises(StructuralError, match="unknown provenance"):
        verify_bundle({**art, "provenance": "X"})


@pytest.mark.parametrize("plan, key, edit", [
    (("cloud", {"n": 40}, "q2", {}), "certified_distortion", lambda v: v * 1.01),
    (("cloud", {"n": 40}, "hst", {}), "quotient_size", lambda v: v - 1),
    (("cube", {"d": 8}, "cube-qs", {"d": 8, "eps": 0.24}), "p", lambda v: 1.5),
    (SQ_PLAN, "provenance", lambda v: "Q"),
    (("cube", {"d": 8}, "cube-qs", {"d": 8, "eps": 0.24}), "provenance", lambda v: "Q"),
    (("cloud", {"n": 40}, "bourgain", {}), "certified_distortion", lambda v: v * 1.25 + 0.5),
    (("cloud", {"n": 40}, "bourgain", {}), "provenance", lambda v: "QS"),
], ids=["q2-certified_distortion", "hst-quotient_size", "cube-p", "sq-provenance", "cube-provenance",
        "bourgain-certified_distortion", "bourgain-provenance"])
def test_verify_compares_each_row_with_its_artifact(plan, key, edit):
    doc = run_bundle(*plan, trials=2)
    assert verify_bundle(doc).ok
    row = doc["rows"][1]
    row[key] = edit(row[key])
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", (1,))]


def test_verify_refuses_a_certified_row_without_its_artifact():
    doc = run_bundle("cloud", {"n": 40}, "q2", {}, trials=3)
    doc["artifacts"][1]["trial"] = 0  # two artifacts for trial 0, none for trial 1
    # artifact 1's blocks are now checked on trial 0's instance, where its claim fails
    # and the summary counts no failure for trial 1
    assert [v[:2] for v in verify_bundle(doc).violations] == [
        ("certificate", (1,)), ("row", (1,)), ("row", ()), ("summary", ())]
    del doc["artifacts"][1]
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", ()), ("summary", ())]
    del doc["rows"][1], doc["summary"]  # the row goes too, and the summary that sums it: nothing left to compare
    assert verify_bundle(doc).ok
    doc["rows"] = [{"trial": [0]}]
    with pytest.raises(StructuralError, match="rows: malformed"):
        verify_bundle(doc)


def test_verify_refuses_a_repeated_row():
    # a copy of row 0 put before it verified while only the last row per trial was read
    doc = run_bundle("cloud", {"n": 40}, "hst", {}, seed=1)
    doc["rows"].insert(0, {**doc["rows"][0], "certified_distortion": 0.5, "quotient_size": 999})
    violations = verify_bundle(doc).violations
    assert ("row", (), "trial 0 repeats an earlier row's or is not in 0..0") in violations
    assert {v[0] for v in violations} == {"row"}


def test_verify_refuses_a_row_outside_its_plan():
    doc = run_bundle("cloud", {"n": 40}, "hst", {}, seed=1)
    doc["rows"].append({**doc["rows"][0], "trial": 5, "certified_distortion": "", "quotient_size": ""})
    assert verify_bundle(doc).violations == [("row", (), "trial 5 repeats an earlier row's or is not in 0..0")]


def test_a_bourgain_row_claim_is_checked():
    # the embedding artifact names its source, the plan's instance collapsed on
    # its m-centre set: the row repeats its claim, which verify recomputes there
    doc = run_bundle("cloud", {"n": 40}, "bourgain", {})
    assert verify_bundle(doc).ok
    doc["rows"][0]["certified_distortion"] = 1.0
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", (0,))]
    doc["artifacts"][0]["certified_distortion"] = 1.0
    assert [v[:2] for v in verify_bundle(doc).violations] == [("certificate", (0,)), ("summary", ())]


def test_cli_verify_bundle_is_the_verify_module_one():
    import metriq.cli
    import metriq.verify

    assert metriq.cli.verify_bundle is metriq.verify.verify_bundle


def _past_the_mask(art: dict):
    """The first flat index past the J x N mask of an embedding artifact: J
    weights, N the points of its base collapsed on its subset."""
    return decode_array(art["weights"]).size * (art["base"]["n"] - len(art["subset"]) + 1)


@pytest.mark.parametrize("key, tamper, message", [
    ("weights", lambda w, art: w + 0.5j, "weights must be real"),
    ("weights", lambda w, art: np.r_[-w[0], w[1:]], "weights must be finite and >= 0"),
    ("weights", lambda w, art: w * (1 + 1e-6), "weights must sum to at most 1"),
    ("subsets", lambda s, art: s[::-1], "subsets must be increasing flat indices"),
    ("subsets", lambda s, art: np.r_[s[0], s[:-1]], "subsets must be increasing flat indices"),
    ("subsets", lambda s, art: np.r_[-1, s[1:]], "subsets must be increasing flat indices"),
    ("subsets", lambda s, art: np.r_[s[:-1], _past_the_mask(art)], "subsets must be increasing flat indices"),
], ids=["complex-weight", "negative-weight", "weights-above-1", "subsets-reversed", "subset-repeated",
        "subset-negative", "subset-past-the-mask"])
def test_verify_refuses_embedding_weights_or_subsets_that_do_not_give_a_map(key, tamper, message):
    # weights >= 0 that sum to at most 1 keep the 1-Lipschitz coordinates
    # non-expanding; the subsets are the increasing indices of a J x N mask
    art = json.loads(dumps(_fresh_artifact("embedding")))
    assert verify_bundle(art).ok
    edit_array(art, key, lambda a: tamper(a, art))
    with pytest.raises(StructuralError, match=message):
        verify_bundle({"artifacts": [art]})


def test_verify_command_refuses_a_format1_bundle(runner, tmp_path):
    # an hst bundle: a q2 bundle's artifact holds no array since it stores no base
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**q2_plan(trials=1), "pipeline": "hst"}))
    out = tmp_path / "bundle.json"
    invoke(runner, "--out", str(out), "run", "--plan", str(plan), "--artifacts")
    old = tmp_path / "format1.json"
    old.write_text(json.dumps(_as_format1(json.loads(out.read_text()))))
    result = runner.invoke(main, ["verify", "--bundle", str(old)])
    assert "format 2" in refusal(result, StructuralError)


def test_run_records_a_missing_instance_param_per_trial():
    doc = q2_plan(trials=3)
    doc["instance"]["params"] = {"nn": 40}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert len(bundle.rows) == 3 and bundle.artifacts == []
    assert bundle.summary["failures"] == 3 and bundle.summary["certified_distortion"] == {}
    for t, err in enumerate(bundle.summary["errors"]):
        assert err["trial"] == t and err["error"] == "ParameterError"
        assert "'cloud'" in err["detail"] and "'n'" in err["detail"]


def test_run_records_a_non_numeric_instance_param_per_trial():
    doc = q2_plan(trials=2)
    doc["instance"]["params"] = {"n": "abc"}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert len(bundle.rows) == 2 and bundle.artifacts == []
    assert bundle.summary["failures"] == 2
    for t, err in enumerate(bundle.summary["errors"]):
        assert err["trial"] == t and err["error"] == "ParameterError"
        assert "'cloud'" in err["detail"] and "'n'" in err["detail"] and "'abc'" in err["detail"]


@pytest.mark.parametrize("variant, params, key", [
    ("cloud", {"n": -1}, "n"),
    ("cloud", {"n": 10, "dim": -2}, "dim"),
    ("gnp", {"n": -3, "q": 0.5}, "n"),
    ("padded", {"base_n": -1, "copies": 2}, "base_n"),
    ("lipcomp", {"k": -1}, "k"),
    ("lipcomp", {"yn": -1}, "yn"),
    ("cloud", {"n": 40, "nn": 3}, "nn"),
])
def test_run_and_gen_refuse_a_negative_size_or_unknown_instance_param(runner, variant, params, key):
    doc = q2_plan(trials=2)
    doc["instance"] = {"variant": variant, "params": params}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert len(bundle.rows) == 2 and bundle.artifacts == []
    assert bundle.summary["failures"] == 2
    for t, err in enumerate(bundle.summary["errors"]):
        assert err["trial"] == t and err["error"] == "ParameterError"
        assert repr(variant) in err["detail"] and repr(key) in err["detail"]
    args = [f"--param={k}={json.dumps(v)}" for k, v in params.items()]
    result = runner.invoke(main, ["gen", "--variant", variant, *args])
    assert refusal(result, ParameterError) == err["detail"]


@pytest.mark.parametrize("model", [
    Lacunary((8.0, 4.0, 1.5), 2.0), Star(5, 1.25), Equilateral(4, 0.75),
], ids=["lacunary", "star", "equilateral"])
def test_model_doc_round_trips_to_the_model_metric(model):
    from metriq.verify import _model_doc, _model_from_doc

    doc = json.loads(dumps(_model_doc(model)))
    assert doc["type"] == type(model).__name__.lower()
    # an equilateral model is stored without its edge and read at edge 1
    edge = getattr(model, "edge", 1.0)
    assert np.array_equal(_model_from_doc(doc).dist * edge, realize_special(model).dist)
    with pytest.raises(ParameterError, match="unknown \\['scale'\\]"):
        _model_from_doc({**doc, "scale": 2.5})  # distortion ignores scale, so none is stored
    with pytest.raises(StructuralError):
        _model_from_doc({**doc, "type": "cloud"})
    with pytest.raises(ParameterError, match="unknown \\['zz'\\]"):
        _model_from_doc({**doc, "zz": 1})


def test_embedding_verifier_in_one_row_chunks(runner, monkeypatch, metrics):
    # `construct bourgain --in M` embeds M as its base; verify rebuilds the
    # coordinates one subset and the induced metric one row at a time, and
    # recomputes the claim bit for bit; the nearest pair outside the subset
    # brought closer fails it
    from metriq import embeddings, verify

    art = json.loads(invoke(runner, "--seed", "4", "construct", "bourgain", "--in", metrics["CLOUD"]).output)
    with open(metrics["CLOUD"]) as fh:
        assert {"kind": "metric", **art["base"]} == json.load(fh)
    recomputed = []
    with monkeypatch.context() as patch:
        patch.setattr(embeddings, "TABLE_ELEMENTS", 1)
        patch.setattr(verify, "_check_claim", lambda claimed, value, *rest: recomputed.append((claimed, value)))
        assert verify_bundle(art).ok
    assert recomputed == [(art["certified_distortion"],) * 2]
    d = metric_from_json(art["base"]).dist
    rest = np.setdiff1d(np.arange(30), art["subset"])
    near = d[np.ix_(rest, rest)] + np.diag(np.full(rest.size, np.inf))
    a, b = rest[list(np.unravel_index(np.argmin(near), near.shape))]
    edit_array(art["base"], "dist", lambda d: _set_pair(d, a, b, d[a, b] / 2))
    assert [v[:2] for v in verify_bundle(art).violations] == [("certificate", (0,))]


def test_verify_command_ok_exit_zero(runner, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(q2_plan(trials=1)))
    out = tmp_path / "bundle.json"
    invoke(runner, "--out", str(out), "run", "--plan", str(plan), "--artifacts")
    res = invoke(runner, "verify", "--bundle", str(out))
    assert json.loads(res.output)["ok"]


def test_experiment_plan_rejects_negative_trials():
    with pytest.raises(ParameterError):
        ExperimentPlan(
            InstanceSpec("cloud", {"n": 10}, RngSeed(0)), "q2", {}, -1, 0
        )


# --- pipeline registry ------------------------------------------------------


def test_artifact_commands_are_generated_from_pipelines():
    from metriq.cli import PIPELINES, construct
    from metriq.generators import INSTANCES

    # cube-qs builds its own space; composition takes its instance's params
    own = {n for n, p in PIPELINES.items() if p.own_space or p.variant}
    assert own == {"cube-qs", "composition"}
    assert set(construct.commands) == set(PIPELINES) - own
    assert set(main.commands) - own == {"gen", "quotient", "construct", "certify", "transform",
                                        "run", "verify"}
    assert {f"construct {c}" for c in construct.commands} | own == set(ARTIFACT_COMMANDS)
    for name, pipeline in PIPELINES.items():
        command = (main if name in own else construct).commands[name]
        assert command.help == pipeline.run.__doc__
        declared = [o.name for o in pipeline.options]
        if pipeline.variant:
            declared = [o.name for o in INSTANCES[pipeline.variant].options] + declared
        expected = declared if name in own else ["path", *declared]
        assert [o.name for o in command.params] == expected


@pytest.mark.parametrize("command", sorted(ARTIFACT_COMMANDS))
def test_artifact_command_output_verifies(runner, tmp_path, metrics, command):
    out = tmp_path / "art.json"
    args = [metrics.get(a, a) for a in ARTIFACT_COMMANDS[command]]
    invoke(runner, "--seed", "4", "--out", str(out), *command.split(), *args)
    res = invoke(runner, "verify", "--bundle", str(out))
    assert json.loads(res.output)["ok"]


@pytest.mark.parametrize("name, opts, params", [
    ("q2", [], {}),
    ("aspect", [], {}),
    ("aspect", ["--alpha", "1.5", "--lipschitz"], {"alpha": 1.5, "lipschitz": True}),
    ("dichotomy", [], {}),
    ("dichotomy", ["--beta", "1.2", "--drop-root"], {"beta": 1.2, "drop_root": True}),
    ("hst", ["--eps", "0.3"], {"eps": 0.3}),
    ("bourgain", ["--p", "1.5"], {"p": 1.5}),
    ("cube-qs", ["--d", "8", "--eps", "0.24", "--p", "1.5"], {"d": 8, "eps": 0.24, "p": 1.5}),
    ("star", ["--a", "0.2", "--b", "0.3", "--alpha", "2.0"], {"a": 0.2, "b": 0.3, "alpha": 2.0}),
    ("composition", ["--depth", "1", "--alpha", "1.25"], {"alpha": 1.25}),
], ids=["q2", "aspect", "aspect-lipschitz", "dichotomy", "dichotomy-drop-root", "hst",
        "bourgain", "cube-qs", "star", "composition"])
def test_construct_emits_the_pipeline_artifact(runner, metrics, name, opts, params):
    from metriq.cli import PIPELINES, _load_metric
    from metriq.core import dumps
    from metriq.verify import _standalone_artifact

    pipeline = PIPELINES[name]
    if pipeline.variant:
        # trial 0 of a plan with seed 6 on the instance the options give, embedded
        res = invoke(runner, "--seed", "6", name, *opts)
        doc = run_bundle(pipeline.variant, {"depth": 1}, name, params, seed=6)
        assert json.loads(res.output) == standalone(doc)
        return
    if pipeline.own_space:
        m, args = None, [name, *opts]
    else:
        m = _load_metric(metrics["CLOUD"])
        args = ["construct", name, "--in", metrics["CLOUD"], *opts]
    res = invoke(runner, "--seed", "6", *args)
    art = pipeline.run(m, RngSeed(6), pipeline.resolve(params))[0]
    assert res.output == dumps(_standalone_artifact(art, m)) + "\n"


def test_flags_take_no_value_and_cube_d_is_required(runner, metrics):
    from metriq.cli import construct

    flags = {o.name for c in construct.commands.values() for o in c.params if o.is_flag}
    assert flags == {"lipschitz", "drop_root"}
    a = invoke(runner, "construct", "dichotomy", "--in", metrics["CLOUD"], "--drop-root",
               "--beta", "1.2")
    assert json.loads(a.output)["kind"] == "quotient"
    result = runner.invoke(main, ["cube-qs", "--eps", "0.2"])
    assert result.exit_code != 0
    assert "--d" in result.output


def test_construct_lacunary_is_gone(runner, metrics):
    result = runner.invoke(main, ["construct", "lacunary", "--in", metrics["CLOUD"]])
    assert result.exit_code != 0
    assert "No such command" in result.output


def test_aspect_plan_on_points_at_distance_zero_records_an_error_per_trial():
    # one base point in two copies at distance 0: the aspect ratio is undefined
    doc = {"instance": {"variant": "padded", "params": {"base_n": 1, "copies": 2}},
           "pipeline": "aspect", "params": {}, "trials": 2, "seed": 0}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert len(bundle.rows) == 2 and bundle.artifacts == []
    assert [e["error"] for e in bundle.summary["errors"]] == ["UndefinedInputError"] * 2


@pytest.mark.parametrize("variant, params, key", [
    ("cube", {"d": -5, "zz": 1}, "zz"),
    ("cube", {"d": -5}, "d"),
    ("cube", {}, "d"),
    ("kube", {"d": 8}, "kube"),
])
def test_cube_qs_plan_checks_its_instance_params_per_trial(variant, params, key):
    doc = {"instance": {"variant": variant, "params": params}, "pipeline": "cube-qs",
           "params": {"d": 8, "eps": 0.24}, "trials": 2, "seed": 0}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert len(bundle.rows) == 2 and bundle.artifacts == []
    for t, err in enumerate(bundle.summary["errors"]):
        assert err["trial"] == t and err["error"] == "ParameterError"
        assert repr(key) in err["detail"]


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf], ids=["half", "nan", "inf"])
def test_bourgain_plan_refuses_a_p_that_is_not_finite_and_at_least_1_per_trial(tmp_path, p):
    # p = nan crashed the run in bourgain_scales with a bare ValueError, and
    # p = inf certified 14.97 for an all-zero embedding that verify then refused
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"instance": {"variant": "cloud", "params": {"n": 40}}, "pipeline": "bourgain",
                                "params": {"p": p}, "trials": 2, "seed": 0}))
    bundle = run_experiment(plan_from_json(json.loads(path.read_text())), keep_artifacts=True)
    assert bundle.artifacts == [] and [row["certified_distortion"] for row in bundle.rows] == ["", ""]
    assert [(err["trial"], err["error"], err["detail"]) for err in bundle.summary["errors"]] == [
        (t, "ParameterError", f"p = {p!r} is not a finite number >= 1") for t in range(2)]


@pytest.mark.parametrize("d", [8, 13])
def test_cube_qs_plan_resolves_its_instance_without_building_it(d):
    # a built d = 13 cube would be a 2^13-point matrix, which hypercube_metric refuses
    doc = {"instance": {"variant": "cube", "params": {"d": d}}, "pipeline": "cube-qs",
           "params": {"d": d, "eps": 0.24}, "trials": 1, "seed": 0}
    bundle = run_experiment(plan_from_json(doc))
    assert bundle.summary["failures"] == 0 and bundle.rows[0]["n"] == 2**d


@pytest.mark.parametrize("variant, params", [("cloud", {"n": 5}), ("cube", {"d": 3}), ("cube", {"d": 30})],
                         ids=["cloud", "cube-d3", "cube-d30"])
def test_cube_qs_plan_runs_only_on_the_cube_of_its_d(variant, params):
    # each of these ran the pipeline's 256-point cube, and its bundle verified ok
    doc = {"instance": {"variant": variant, "params": params}, "pipeline": "cube-qs",
           "params": {"d": 8, "eps": 0.24}, "trials": 2, "seed": 0}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert len(bundle.rows) == 2 and bundle.artifacts == []
    for t, err in enumerate(bundle.summary["errors"]):
        assert err["trial"] == t and err["error"] == "ParameterError"
        assert err["detail"].startswith(f"a cube-qs plan with d = 8 runs on instance cube with d = 8, not {variant} ")
    # each failed row's n is empty, as own_space refuses the plan, and verify expects it so
    doc = json.loads(dumps({"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary, "artifacts": []}))
    assert verify_bundle(doc).ok
    doc["rows"][1]["n"] = 256
    assert [v[:2] for v in verify_bundle(doc).violations] == [("row", ())]
    matched = run_bundle("cube", {"d": 8}, "cube-qs", {"d": 8, "eps": 0.24})
    matched["plan"]["instance"] = {"variant": variant, "params": params}
    with pytest.raises(ParameterError, match="^artifact 0: a cube-qs plan with d = 8 runs on instance cube"):
        verify_bundle(matched)
    del matched["rows"]
    with pytest.raises(ParameterError, match="^artifact 0: a cube-qs plan"):
        verify_bundle(matched)


def test_plan_rejects_missing_param():
    doc = {
        "instance": {"variant": "cube", "params": {"d": 8}},
        "pipeline": "cube-qs",
        "params": {"eps": 0.2},
        "trials": 1,
        "seed": 0,
    }
    with pytest.raises(ParameterError, match="missing \\['d'\\]"):
        plan_from_json(doc)


@pytest.mark.parametrize("params", [{"alpah": 1.5}, {"alpha": "two"}, {"alpha": None}, {"lipschitz": "maybe"}])
def test_plan_rejects_unknown_or_bad_param(params):
    doc = q2_plan()
    doc.update(pipeline="aspect", params=params)
    with pytest.raises(ParameterError):
        plan_from_json(doc)


@pytest.mark.parametrize("key, value", [("trials", 1.9), ("trials", True), ("seed", 2.0), ("seed", False)])
def test_plan_refuses_a_seed_or_trial_count_that_is_not_a_json_integer(key, value):
    # read with int(), "trials": 1.9 ran one trial
    doc = q2_plan()
    doc[key] = value
    with pytest.raises(ParameterError, match=f"plan {key} {value!r} is not an integer"):
        plan_from_json(doc)


@pytest.mark.parametrize("d", [8.5, 8.0, True])
def test_plan_refuses_an_integer_param_that_is_not_a_json_integer(d):
    # click would truncate 8.5 to a d = 8 cube, and read True as d = 1
    doc = {"instance": {"variant": "cube", "params": {"d": 8}}, "pipeline": "cube-qs",
           "params": {"d": d, "eps": 0.24}, "trials": 1, "seed": 0}
    with pytest.raises(ParameterError, match=f"pipeline 'cube-qs': bad 'd' value {d!r}"):
        plan_from_json(doc)


def test_plan_params_are_recorded_as_given_and_run_converted():
    doc = q2_plan(trials=1)
    doc.update(pipeline="aspect", params={"alpha": 2})
    bundle = run_experiment(plan_from_json(doc))
    assert bundle.plan["params"] == {"alpha": 2}
    assert bundle.summary["failures"] == 0
    assert repr(bundle.rows[0]["paper_bound"]) == "2.0"


def test_hst_plan_on_a_large_cloud_completes_and_verifies():
    # the m-centre splits of a 1000-point cloud nest far past the recursion limit
    doc = {"instance": {"variant": "cloud", "params": {"n": 1000}}, "pipeline": "hst",
           "params": {}, "trials": 1, "seed": 0}
    res = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert res.summary["failures"] == 0 and len(res.artifacts) == 1
    assert verify_bundle(json.loads(dumps({"plan": res.plan, "artifacts": res.artifacts}))).ok


@pytest.mark.parametrize("name, instance, params, key", [
    ("star", {"variant": "equilateral", "params": {"n": 12}}, {"a": 0.9, "b": 1.1, "alpha": 2.0},
     "dist"),
    ("composition", {"variant": "composition", "params": {}}, {}, "delta"),
])
def test_one_trial_plan_is_certified_and_a_tamper_is_rejected(name, instance, params, key):
    doc = {"instance": instance, "pipeline": name, "params": params, "trials": 1, "seed": 3}
    bundle = run_experiment(plan_from_json(doc), keep_artifacts=True)
    assert bundle.summary["failures"] == 0
    row, = bundle.rows
    assert float(row["certified_distortion"]) <= float(row["paper_bound"])
    art = json.loads(dumps({"plan": bundle.plan, "artifacts": bundle.artifacts}))
    assert verify_bundle(art).ok
    holder = art["artifacts"][0]
    if key == "delta":
        def tamper(a):
            a[a.argmax()] *= 1.5  # the root label
            return a

        edit_array(holder["tree"], key, tamper)
    else:
        # two leaf blocks of the star moved apart in the instance the plan gives
        art = standalone(art)
        (a, *_), (b, *_) = art["blocks"][1:3]
        edit_array(art["base"], key, lambda d: _set_pair(d, a, b, d[a, b] * 1.5))
    assert not verify_bundle(art).ok


@pytest.mark.parametrize("instance, depth, beta", [({}, 2, 4.0), ({"depth": 1, "beta": 3.0}, 1, 3.0)],
                         ids=["defaults", "depth1-beta3"])
def test_composition_runs_on_the_tree_of_its_plan_instance(instance, depth, beta):
    # the tree is random_composition_tree of the instance's depth, seed and
    # beta, and the row's n is the size of the instance realize_instance builds
    from metriq.constructions import composition_qs
    from metriq.generators import random_composition_tree, realize_instance
    from metriq.hst import hst_to_json

    plan = plan_from_json({"instance": {"variant": "composition", "params": instance},
                           "pipeline": "composition", "params": {}, "trials": 2, "seed": 4})
    bundle = run_experiment(plan, keep_artifacts=True)
    assert bundle.summary["failures"] == 0
    for t, (row, art) in enumerate(zip(bundle.rows, bundle.artifacts)):
        spec = plan.instance_spec(t)
        tree = random_composition_tree(depth, spec.seed, beta=beta)
        res = composition_qs(tree, 2.0, 1.5, RngSeed(4, t).child(1))
        assert row["n"] == tree.n == realize_instance(spec).n
        assert row["quotient_size"] == res.quotient.metric.n and row["paper_bound"] == res.alpha_bound
        assert dumps(art["tree"]) == dumps(hst_to_json(res.hst))
        assert art["blocks"] == [list(b) for b in res.quotient.blocks]


def test_the_composition_instance_params_change_the_tree():
    doc = run_bundle("composition", {}, "composition", {})
    other = run_bundle("composition", {"depth": 1, "beta": 3.0}, "composition", {})
    assert dumps(doc["artifacts"][0]["tree"]) != dumps(other["artifacts"][0]["tree"])
    assert doc["rows"][0]["n"] != other["rows"][0]["n"]


def test_a_composition_plan_on_another_variant_is_refused_in_run_and_verify(tmp_path):
    plan = {"instance": {"variant": "cloud", "params": {"n": 40}}, "pipeline": "composition",
            "params": {}, "trials": 1, "seed": 0}
    message = "a composition plan runs on a 'composition' instance, not 'cloud'"
    with pytest.raises(ParameterError, match=message):
        plan_from_json(plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert message in refusal(CliRunner().invoke(main, ["run", "--plan", str(path)]), ParameterError)
    doc = run_bundle("composition", {}, "composition", {})
    doc["plan"]["instance"] = plan["instance"]
    with pytest.raises(ParameterError, match=f"^plan: {message}"):
        verify_bundle(doc)


@pytest.mark.parametrize("missing", ["a", "b", "alpha"])
def test_star_plan_needs_a_b_and_alpha(missing):
    params = {k: v for k, v in {"a": 0.9, "b": 1.1, "alpha": 2.0}.items() if k != missing}
    doc = {"instance": {"variant": "equilateral", "params": {"n": 12}}, "pipeline": "star",
           "params": params, "trials": 1, "seed": 0}
    with pytest.raises(ParameterError, match=f"missing \\['{missing}'\\]"):
        plan_from_json(doc)
