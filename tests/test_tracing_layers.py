"""Every layer the benchmark's tracer wraps still exists under its name."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name, module, attr", _layers())
def test_layer_resolves(name, module, attr):
    # a renamed function would leave the layer untraced, not fail the benchmark
    target = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(target, part), f"{name}: {module}.{attr} is missing"
        target = getattr(target, part)
    assert callable(target)
