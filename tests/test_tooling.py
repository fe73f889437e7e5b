import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
