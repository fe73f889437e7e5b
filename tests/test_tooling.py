import importlib
import importlib.util
import itertools
import json
import shlex
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from metriq.cli import PIPELINES, main
from metriq.generators import INSTANCES

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
