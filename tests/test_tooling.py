import ast
import dataclasses
import importlib
import importlib.util
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import types
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import metriq
from metriq import verify
from metriq.cli import PIPELINES, main, plan_from_json
from metriq.core import Doc, MetricSpace, ValidationReport, metric_to_json
from metriq.generators import INSTANCES
from metriq.quotient import MODEL
from metriq.verify import CHECKS, verify_bundle

from conftest import ARTIFACT_COMMANDS, SMALL_PLANS, cli_output, run_bundle

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _traced_layers():
    """perfbench's LAYERS table, read from its file without running the benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, f) for m, f, _, _ in module.LAYERS]


@pytest.mark.parametrize("module, function", _traced_layers())
def test_every_traced_layer_exists(module, function):
    # Tracer.install looks each one up by name; a rename would crash --trace 1
    assert callable(getattr(importlib.import_module(f"metriq.{module}"), function, None))


class _Recording(dict):
    """Read fields that record each key a check reads, by [] or by iterating;
    a nested document's fields are a _Recording too."""

    def __init__(self, values: dict):
        super().__init__({k: _Recording(v) if isinstance(v, dict) else v for k, v in values.items()})
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __iter__(self):
        self.read.update(self.keys())
        return super().__iter__()

    def items(self):
        self.read.update(self.keys())
        return super().items()

    def unread(self, stored: dict, path: str = "") -> set[str]:
        """The paths of the fields stored in `stored` that no check read; its
        kind is read when verify_bundle looks up its declaration."""
        out = set()
        for key in stored.keys() - {"kind"}:
            if key not in self.read:
                out.add(path + key)
            elif isinstance(self[key], _Recording):
                out |= self[key].unread(stored[key], f"{path}{key}.")
        return out


def _checked(pipeline: str):
    """The SMALL_PLANS bundle of the pipeline, the size its artifact's check
    certifies, and the artifact's fields as verify_bundle hands them to the
    row check, read through a _Recording, with the report of its check and of
    the rows."""
    variant, instance, params = SMALL_PLANS[pipeline]
    doc = run_bundle(variant, instance, pipeline, params)
    art, = doc["artifacts"]
    decl, check = CHECKS[art["kind"]]
    typed, report, plan = _Recording(decl(art)), ValidationReport(), plan_from_json(doc["plan"])
    verify._bind_to_plan(typed, art["kind"], plan)
    if "base" in decl.fields:
        verify._with_base(typed, plan)
    size = check(typed, 0, report)
    if "base" in decl.fields:  # what verify_bundle keeps of it for the rows
        typed["n"], typed["base"] = typed["base"].n, None
    verify._check_rows(doc["rows"], [(typed, size)], report, plan)
    return doc, size, typed, report


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_every_pipeline_writes_a_kind_that_verify_checks(pipeline):
    # a new pipeline needs a plan here, and its artifact a kind in
    # metriq.verify.CHECKS whose declaration names each field it stores and
    # whose check, or the row check, reads every one of them: a field that
    # verify never reads is one it cannot vouch for
    doc, _, typed, report = _checked(pipeline)
    assert report.ok
    assert typed.unread(doc["artifacts"][0]) == set()


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_a_written_row_is_row_of_its_plan_and_checked_artifact(pipeline):
    # run and verify make a row by the one function: over the fields verify
    # checked, row_of gives the row the run wrote, value and JSON type alike
    # (2 is not 2.0), in every column but `attempts`, which certifies nothing
    doc, size, typed, _ = _checked(pipeline)
    row, = doc["rows"]
    made = verify.row_of(plan_from_json(doc["plan"]), typed, size)
    assert list(made) == [c for c in verify.CSV_COLUMNS if c != "attempts"]
    assert {c: (type(v), v) for c, v in made.items()} == {c: (type(row[c]), row[c]) for c in made}


def _fields(decl: Doc, doc: dict | None = None) -> set[tuple[str, str]]:
    """(declaration name, field) of each field decl declares, or of each that
    doc stores, with those of its nested documents."""
    out = set()
    for key, (read, _) in decl.fields.items():
        if doc is None or key in doc:
            out.add((decl.name, key))
            if isinstance(read, Doc):
                out |= _fields(read, None if doc is None else doc[key])
    return out


def _required(decl: Doc, doc: dict) -> set[tuple[str, str]]:
    """(declaration name, field) of each required field of doc and of the documents it stores."""
    out = set()
    for key, (read, required) in decl.fields.items():
        if required:
            out.add((decl.name, key))
        if isinstance(read, Doc) and key in doc:
            out |= _required(read, doc[key])
    return out


def test_every_declared_field_is_stored_by_some_writer(metrics):
    # every artifact a command or pipeline writes: each stored field is
    # declared for its kind and each required one is stored, and every
    # declared field is stored by one of them, so no declaration is dead.
    # Both forms of a kind with a base count: a bundle's artifact of a
    # pipeline that runs on its plan's instance stores no base (hst and
    # bourgain: its m-centre set as `subset`, composition: its blocks); a
    # standalone one embeds it.
    # `lipschitz` is written in both forms by aspect --lipschitz alone
    bundles = {pipeline: run_bundle(*plan[:2], pipeline, plan[2]) for pipeline, plan in SMALL_PLANS.items()}
    bundles["aspect --lipschitz"] = run_bundle("cloud", {"n": 40}, "aspect", {"alpha": 1.5, "lipschitz": True})
    standalone = [json.loads(cli_output("--seed", "4", *command.split(), *[metrics.get(a, a) for a in args]))
                  for command, args in ARTIFACT_COMMANDS.items()]
    standalone.append(json.loads(Path(metrics["CLOUD"]).read_text()))
    standalone += [json.loads(cli_output("quotient", "--in", metrics["CLOUD"], *selector))
                   for selector in (["--subset", "0,3"], ["--blocks", "0,1;2;5,6"])]
    # labels: only a MetricSpace given labels has them, and no command makes one
    labelled = MetricSpace(np.ones((2, 2)) - np.eye(2), ("a", "b"))
    standalone.append({"kind": "metric", **metric_to_json(labelled)})
    for pipeline, doc in bundles.items():
        art, = doc["artifacts"]
        if "base" in CHECKS[art["kind"]][0].fields:
            assert "base" not in art, pipeline
        assert ("subset" in art) == (pipeline in ("hst", "bourgain")), pipeline
        assert ("lipschitz" in art) == (pipeline == "aspect --lipschitz"), pipeline
    for art in standalone:
        if "base" in CHECKS[art["kind"]][0].fields:
            assert "base" in art, art["kind"]
    pairs = [(doc, doc["artifacts"][0]) for doc in bundles.values()] + [(art, art) for art in standalone]
    stored = set()
    for doc, art in pairs:
        decl = CHECKS[art["kind"]][0]
        assert verify_bundle(doc).ok
        assert set(art) - {"kind", "trial"} <= decl.fields.keys()
        assert _required(decl, art) <= _fields(decl, art)
        stored |= _fields(decl, art)
    assert set().union(*(_fields(decl) for decl, _ in CHECKS.values())) == stored
    assert any("trial" in art for _, art in pairs)
    # a model holds its type and the fields of the core dataclass it names,
    # but an equilateral edge: distortion does not depend on scale
    models = {name: i.model for name, i in INSTANCES.items() if i.model}
    assert MODEL.fields.keys() == {"type"} | {f.name for m in models.values() for f in fields(m)} - {"edge"}
    for name in models:
        MODEL({"type": name}, "model")


def _readme_table(header: str) -> dict[str, str]:
    """First cell -> second cell of each row of the README table headed `| header |`."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} |"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1]
    return rows


def _declared(options) -> str:
    return ", ".join(
        f"`{o.name}` ({'required' if o.required else json.dumps(o.default)})" for o in options
    ) or "—"


@pytest.mark.parametrize("header, table", [("pipeline", PIPELINES), ("variant", INSTANCES)],
                         ids=["pipelines", "instances"])
def test_readme_tables_list_the_declared_params(header, table):
    assert _readme_table(header) == {name: _declared(t.options) for name, t in table.items()}


def test_readme_global_options_are_the_options_of_main():
    # the sentence "Global options (`--seed`, ...) come before the subcommand"
    text = (ROOT / "README.md").read_text()
    listed = text.split("Global options (", 1)[1].split(")", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == [p.opts[0] for p in main.params]


def _readme_cli_paths() -> list[list[str]]:
    """The command path of each `metriq` line in the README's CLI code block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    paths = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] != ["metriq"]:
            continue
        words = words[1:]
        while words and words[0].startswith("--"):
            words = words[2:]  # each global option takes a value
        paths.append(list(itertools.takewhile(lambda w: not w.startswith("-"), words)))
    return paths


@pytest.mark.parametrize("path", _readme_cli_paths(), ids=" ".join)
def test_readme_cli_lines_name_existing_commands(path):
    command = main
    for word in path:
        assert isinstance(command, click.Group) and word in command.commands, path
        command = command.commands[word]
    result = CliRunner().invoke(main, [*path, "--help"])
    assert result.exit_code == 0, result.output


# --- no library code that only the tests reach -------------------------------

#: (module, name) of each top-level function or class, or (module,
#: "Class.member") of each method or property, in src/metriq that only the
#: tests reach, with the reason it stays.
ONLY_FROM_TESTS: dict[tuple[str, str], str] = {}


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name, attribute and imported name in tree, and its string constants if asked."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _unreached() -> set[tuple[str, str]]:
    """(module, name) of each top-level function or class in src/metriq that
    nothing outside the tests reaches.

    The roots are the other module-level statements of src/metriq (the
    pipeline and instance tables among them), the click commands, what
    __init__ exports, and every name and string in perfbench/*.py (its tracer
    looks layers up by name).  A def is reached when a root or a reached def
    names it.  Names are matched without their module, so a name that two
    modules define is reached in both or in neither.
    """
    defs, roots = {}, set()
    for path in sorted((ROOT / "src" / "metriq").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "__init__":
            roots |= _names(tree)
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
                if _is_click_command(node):
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    for path in (ROOT / "perfbench").glob("*.py"):
        roots |= _names(ast.parse(path.read_text()), strings=True)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for _, node in defs.get(name, []) for n in _names(node))
    return {(module, name) for name, found in defs.items() if name not in reached
            for module, _ in found}


def test_every_library_function_is_reached_outside_the_tests():
    # delete such a function, move it into tests/conftest.py as a reference,
    # or give the reason it stays in ONLY_FROM_TESTS
    assert _unreached() == {key for key in ONLY_FROM_TESTS if "." not in key[1]}


def _unused_members() -> set[tuple[str, str]]:
    """(module, "Class.member") of each method or property of a class in
    src/metriq whose name src/metriq and perfbench/*.py never use as an
    attribute.  Dunder methods are left out, as Python calls them.  Names are
    matched without their class, so a name that any code reads as `.name`
    counts as used everywhere.
    """
    paths = sorted((ROOT / "src" / "metriq").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths + sorted((ROOT / "perfbench").glob("*.py"))}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    return {(path.stem, f"{cls.name}.{member.name}") for path in paths
            for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)
            for member in cls.body if isinstance(member, ast.FunctionDef)
            and not (member.name.startswith("__") and member.name.endswith("__"))
            and member.name not in attrs}


def test_every_library_member_is_used_outside_the_tests():
    # move such a member into a tests/conftest.py helper, or give the reason
    # it stays in ONLY_FROM_TESTS
    assert _unused_members() == {key for key in ONLY_FROM_TESTS if "." in key[1]}


# --- no option that no library call sets ------------------------------------

#: (module, "function.param") or (module, "Class.method.param") of each
#: parameter with a default that no call in src/metriq or perfbench/*.py
#: sets, with the reason it stays.
UNSET_DEFAULTS: dict[tuple[str, str], str] = {}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, index among a call's positional arguments, or None for a
    keyword-only one) of each parameter of fn with a default; a method's
    calls pass no self."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = int(method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
    first = len(positional) - len(a.defaults)
    return ([(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _unset_defaults() -> set[tuple[str, str]]:
    """(module, "function.param") of each parameter with a default, of a
    top-level function or a non-dunder method in src/metriq, that no call in
    src/metriq or perfbench/*.py sets by keyword or by position.  Calls are
    matched by the callee's name alone; a call with *args sets every
    position, one with **kwargs every keyword."""
    paths = sorted((ROOT / "src" / "metriq").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths + sorted((ROOT / "perfbench").glob("*.py"))}
    keywords, positions = {}, {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = getattr(call.func, "id", None) or call.func.attr
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)  # None: **kwargs
                given = np.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
                positions[name] = max(positions.get(name, 0), given)
    out = set()
    for path in paths:
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node, False, node.name)]
            elif isinstance(node, ast.ClassDef):
                fns = [(m, True, f"{node.name}.{m.name}") for m in node.body if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__") and m.name.endswith("__"))]
            else:
                continue
            for fn, method, qualname in fns:
                kws = keywords.get(fn.name, set())
                out |= {(path.stem, f"{qualname}.{param}") for param, at in _defaulted(fn, method)
                        if not ({param, None} & kws or (at is not None and at < positions.get(fn.name, 0)))}
    return out


def test_every_defaulted_parameter_is_set_by_some_library_call():
    # an option that nothing sets is dead code behind its default: delete
    # it, or give the reason it stays in UNSET_DEFAULTS
    assert _unset_defaults() == UNSET_DEFAULTS.keys()


# --- no public name that the library never calls -------------------------------

#: each name metriq exports that no src/metriq module names, with the reason it stays
UNCALLED_PUBLIC = {
    "quotient_from_json": "the documented reader of a quotient document (README, artifact format)",
    "hst_from_json": "the documented reader of a tree document (README, artifact format)",
    "hst_from_ultrametric": "the exact L2 embedding of lacunary and UM models is to call it (ROADMAP, the "
                            "certificate reaches Hilbert space); perfbench/sweep.py times it",
    "ultrametric_to_l2": "the exact L2 embedding of lacunary and UM models is to call it (ROADMAP, the "
                         "certificate reaches Hilbert space)",
}


def _uncalled_public() -> set[str]:
    """Each name in metriq.__all__, modules aside, that no src/metriq module
    but __init__ reads as a name or imports by name."""
    used = set()
    for path in (ROOT / "src" / "metriq").glob("*.py"):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return {name for name in metriq.__all__
            if not isinstance(getattr(metriq, name), types.ModuleType) and name not in used}


def test_every_public_name_is_called_in_the_library():
    # delete such a name, or give the reason it stays in UNCALLED_PUBLIC; a
    # listed name that gains a caller leaves the table
    assert _uncalled_public() == UNCALLED_PUBLIC.keys()


def test_the_library_reads_no_open_mesh_fancy_index():
    # an n x n matrix read through np.ix_ took 0.23 ms at n = 251, against
    # 0.07 ms for core.submatrix's two takes (2-vCPU host)
    found = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "src" / "metriq").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "ix_"
             or isinstance(node, ast.alias) and node.name == "ix_"]
    assert found == []


def _fresh_interpreter(code: str) -> list[str]:
    """The words code prints, run by a new interpreter that imports this checkout's metriq."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.split()


def test_the_benchmarked_imports_leave_scipy_integrate_out():
    # the modules perfbench's import_program loads; importing scipy.integrate
    # alone costs 0.11-0.16 s on a 2-vCPU host, and nothing in src/metriq needs
    # it; scipy.sparse costs 0.26 s, and only a shortest-path closure needs it
    code = ("import sys\n"
            "import numpy, scipy\n"
            "from metriq import cli, constructions, core, cube, embeddings, generators, hst, quotient\n"
            "print('scipy.integrate' in sys.modules, 'scipy.sparse' in sys.modules)")
    assert _fresh_interpreter(code) == ["False", "False"]


def test_only_a_shortest_path_closure_loads_scipy_sparse():
    # cube-qs and hst trials run, dump, load and verify without it; a q2 trial
    # on cloud n = 150, seed 4, fails the row-minimum test, runs a closure and
    # loads it, and its bytes (summary.millis blanked) are those of scipy's
    # closure imported at start-up
    code = textwrap.dedent("""\
        import hashlib, json, sys
        from metriq.cli import plan_from_json, run_experiment
        from metriq.core import dumps
        from metriq.verify import verify_bundle

        def trial(variant, instance, pipeline, params, seed):
            plan = {"instance": {"variant": variant, "params": instance}, "pipeline": pipeline,
                    "params": params, "trials": 1, "seed": seed}
            bundle = run_experiment(plan_from_json(plan), keep_artifacts=True)
            doc = {"plan": bundle.plan, "rows": bundle.rows, "summary": bundle.summary,
                   "artifacts": bundle.artifacts}
            assert verify_bundle(json.loads(dumps(doc))).ok
            bundle.summary["millis"] = []
            return hashlib.sha256(dumps(doc).encode()).hexdigest()

        trial("cube", {"d": 8}, "cube-qs", {"d": 8, "eps": 0.24}, 0)
        trial("cloud", {"n": 40}, "hst", {}, 0)
        print("scipy.sparse" in sys.modules)
        print(trial("cloud", {"n": 150}, "q2", {}, 4), "scipy.sparse" in sys.modules)
    """)
    assert _fresh_interpreter(code) == [
        "False", "6a1e828bc41850fd8fa3b342bf70e3033017f70db4c8777de530612c3f9e4b83", "True"]


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_a_trial_pays_for_no_numpy_quantile_or_asdict(monkeypatch, pipeline):
    # the summary and the model documents once spent a third of a small trial
    # in these; each name that holds one, in numpy, dataclasses or metriq, now raises
    slow = (np.percentile, np.median, dataclasses.asdict)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial called numpy.percentile, numpy.median or dataclasses.asdict")

    for name, module in list(sys.modules.items()):
        if module is not None and (name in ("numpy", "dataclasses", "metriq") or name.startswith("metriq.")):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in slow):
                    monkeypatch.setattr(module, attr, refuse)
    variant, instance, params = SMALL_PLANS[pipeline]
    doc = run_bundle(variant, instance, pipeline, params, trials=3)
    assert len(doc["artifacts"]) == 3 and verify_bundle(doc).ok
