import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from metriq.cli import (
    CSV_COLUMNS,
    ExperimentPlan,
    main,
    plan_from_json,
    run_experiment,
    verify_bundle,
)
from metriq.core import metric_from_json, metric_to_json
from metriq.errors import ParameterError
from metriq.generators import InstanceSpec
from metriq.lipschitz import QuotientMap, quotient_map_to_json
from metriq.seeds import RngSeed

from conftest import random_metric


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


def test_embed_star_exact(runner):
    res = invoke(runner, "embed", "star", "--n", "3", "--tau", "1.0", "--p", "1.0")
    doc = json.loads(res.output)
    claimed = np.asarray(doc["claimed"])
    assert claimed.shape == (4, 4)
    assert np.allclose(claimed[0, 1:], 1.0)
    assert np.allclose(claimed[1:, 1:][~np.eye(3, dtype=bool)], 1.0)


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


def test_certify_lipq_command(runner, tmp_path):
    m = random_metric(5, 7)
    qm = QuotientMap(m, m, tuple(range(5)))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(quotient_map_to_json(qm)))
    res = invoke(runner, "certify", "lipq", "--map", str(path), "--alpha", "1.0")
    doc = json.loads(res.output)
    assert doc["certified"] and doc["product"] == pytest.approx(1.0)


def test_cube_qs_and_lower_round_trip(runner, tmp_path):
    out = tmp_path / "cube.json"
    invoke(runner, "--out", str(out), "cube-qs", "--d", "10", "--eps", "0.2")
    doc = json.loads(out.read_text())
    assert doc["block_count"] >= 0.8 * 1024
    res = invoke(runner, "certify", "cube-lower", "--in", str(out))
    lower = json.loads(res.output)
    assert lower["bound"] <= doc["certified_distortion"] + 1e-9


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

    # tamper with one stored quotient distance
    art = doc["artifacts"][0]
    art["dist"][0][1] = art["dist"][0][1] + 0.5
    art["dist"][1][0] = art["dist"][0][1]
    rep = verify_bundle(doc)
    assert not rep.ok
    assert any(kind == "quotient-distance" for kind, _, _ in rep.violations)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "--bundle", str(bad)])
    assert result.exit_code == 1


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


@pytest.fixture
def metrics(runner, tmp_path):
    cloud = tmp_path / "cloud.json"
    invoke(runner, "--seed", "3", "--out", str(cloud), "gen", "--variant", "cloud",
           "--param", "n=30")
    equi = tmp_path / "equi.json"
    invoke(runner, "--out", str(equi), "gen", "--variant", "equilateral", "--param", "n=12")
    return {"CLOUD": str(cloud), "EQUI": str(equi)}


ARTIFACT_COMMANDS = {
    "construct q2": ["--in", "CLOUD"],
    "construct aspect": ["--in", "CLOUD", "--alpha", "1.5", "--lipschitz"],
    "construct dichotomy": ["--in", "CLOUD", "--beta", "1.2", "--drop-root"],
    "construct hst": ["--in", "CLOUD"],
    "construct bourgain": ["--in", "CLOUD"],
    "construct mcenter": ["--in", "CLOUD", "--eps", "0.25"],
    "construct star": ["--in", "EQUI", "--a", "0.9", "--b", "1.1", "--alpha", "2.0"],
    "construct composition": [],
    "embed bourgain": ["--in", "EQUI", "--mparam", "4"],
    "embed star": ["--n", "3", "--tau", "1.0", "--p", "1.0"],
    "embed gauss-trunc": ["--level", "2.0"],
    "embed pstable": ["--level", "2.0", "--p", "1.5"],
    "embed uptolog": ["--level", "4", "--p", "1.5"],
    "cube-qs": ["--d", "8", "--eps", "0.24"],
}


def test_artifact_commands_cover_every_construct_and_embed():
    from metriq.cli import construct, embed

    listed = {f"construct {c}" for c in construct.commands} | {f"embed {c}" for c in embed.commands}
    assert listed | {"cube-qs"} == set(ARTIFACT_COMMANDS)


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
], ids=["q2", "aspect", "aspect-lipschitz", "dichotomy", "dichotomy-drop-root", "hst",
        "bourgain", "cube-qs"])
def test_construct_emits_the_pipeline_artifact(runner, metrics, name, opts, params):
    from metriq.cli import PIPELINES, _load_metric
    from metriq.core import dumps

    pipeline = PIPELINES[name]
    if pipeline.own_space:
        m, args = None, [name, *opts]
    else:
        m = _load_metric(metrics["CLOUD"])
        args = ["construct", name, "--in", metrics["CLOUD"], *opts]
    res = invoke(runner, "--seed", "6", *args)
    _, art = pipeline.run(m, RngSeed(6), pipeline.resolve(params))
    assert res.output == dumps(art) + "\n"


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


def test_plan_params_are_recorded_as_given_and_run_converted():
    doc = q2_plan(trials=1)
    doc.update(pipeline="aspect", params={"alpha": 2})
    bundle = run_experiment(plan_from_json(doc))
    assert bundle.plan["params"] == {"alpha": 2}
    assert bundle.summary["failures"] == 0
    assert repr(bundle.rows[0]["paper_bound"]) == "2.0"
