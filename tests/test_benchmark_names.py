"""The benchmark traces functions of ncym by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, names", sorted(_layers().items()))
def test_traced_names_resolve_to_callables(layer, names):
    module = importlib.import_module(f"ncym.{layer}")
    for name in names:
        assert callable(getattr(module, name, None)), f"ncym.{layer}.{name}"
