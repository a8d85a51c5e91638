"""The names the benchmark's tracer and step clock wrap must exist in the package.

perfbench/layers.py times layers by replacing module-level names of anisoflow;
a renamed name would silently mark its layer absent (or, for diagnostics_row,
drop the calibrated step clock back to raw wall time).  The layer table is read
from that file, which is imported and left unmodified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("layer", load_layers().LAYERS, ids=lambda layer: layer[0])
def test_every_layer_resolves_to_a_callable(layer):
    _, module_name, names = layer
    module = importlib.import_module(f"anisoflow.{module_name}")
    assert any(callable(getattr(module, name, None)) for name in names), layer


def test_step_clock_hook_exists():
    from anisoflow import flow_engine

    assert callable(getattr(flow_engine, "diagnostics_row", None))
