"""The names the benchmark's tracer and step clock wrap must exist in the package,
and a run must reach them through those names; the benchmark's workloads must
pass their gates.

perfbench/layers.py times layers by replacing module-level names of anisoflow;
a renamed name would silently mark its layer absent (or, for diagnostics_row,
drop the calibrated step clock back to raw wall time), and so would a run that
called a local copy instead of looking the name up.  The layer table, the
tracer and the step clock are read from that file, and the workloads and their
gates from perfbench/workloads.py; both are imported and left unmodified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


layers = load_perfbench("layers")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("layer", layers.LAYERS, ids=lambda layer: layer[0])
def test_every_layer_resolves_to_a_callable(layer):
    _, module_name, names = layer
    module = importlib.import_module(f"anisoflow.{module_name}")
    assert any(callable(getattr(module, name, None)) for name in names), layer


def test_step_clock_hook_exists():
    from anisoflow import flow_engine

    assert callable(getattr(flow_engine, "diagnostics_row", None))


def run_tiny_curve(hook):
    """30 steps of a 32-node curve, recorded every 10, with hook active."""
    from anisoflow import RadialGraph, SpeedProfile, SphericalGrid, StepControl, flow_engine

    grid = SphericalGrid.circle(32)
    graph = RadialGraph(grid, np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta)))
    state = flow_engine.initial_state(SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0), graph)
    with hook:
        result = flow_engine.run(state, StepControl(t_end=3.0, max_steps=30, record_every=10))
    assert result.reason == "max_steps"
    return hook


def test_step_clock_cuts_a_run_into_chunks():
    assert run_tiny_curve(layers.StepClock(chunk_steps=10)).chunks()


def test_tracer_counts_rhs_step_and_diagnostics():
    tracer = run_tiny_curve(layers.Tracer())
    for layer in ("rhs", "step", "diagnostics"):
        assert tracer.calls[layer] > 0, layer


@pytest.mark.parametrize("zonal", [True, False], ids=["zonal", "nonzonal"])
def test_tracer_sees_every_layer_of_a_surface_run(zonal):
    # a zonal surface is stepped on its one-column stage and a non-zonal one on
    # its full grid; either must reach the stencils, curvature, the cone gate
    # and the speed terms through their module names
    from anisoflow import ExpFlatG, RadialGraph, SpeedProfile, SphericalGrid, StepControl, flow_engine

    grid = SphericalGrid.sphere(16, 32)
    t = grid.theta[:, None]
    phi = np.broadcast_to(np.log(1.0375 + 0.1125 * np.cos(2.0 * t)), grid.shape).copy()
    if not zonal:
        phi += 1e-3 * np.sin(t) ** 2 * np.cos(2.0 * grid.phi_lon)
    profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    state = flow_engine.initial_state(profile, RadialGraph(grid, phi))
    assert state.stage_graph.grid == (grid.zonal_column if zonal else grid)
    with layers.Tracer() as tracer:
        result = flow_engine.run(state, StepControl(t_end=1.0, max_steps=6, record_every=2))
    assert result.reason == "max_steps"
    for layer in ("stencils", "rhs", "weingarten", "cone_gate", "eval_scaled"):
        assert tracer.calls[layer] > 0, layer
    # each record's field is reused by the next step's first stage
    assert tracer.calls["weingarten"] == 4 * result.state.step_count + 1
    assert tracer.calls["stencils"] == tracer.calls["weingarten"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_workload_passes_its_gate_and_repeats_bit_for_bit(name):
    # seed 0 of each workload as the benchmark runs it: a broken gate or a
    # lost bit of zonality fails here, and so does a run that does not repeat
    from anisoflow import flow_engine

    finals = []
    for _ in range(2):
        case = workloads.WORKLOADS[name](0)
        result = flow_engine.run(flow_engine.initial_state(case.profile, case.graph), case.control)
        assert case.gate(result) == []
        finals.append(result.state.graph.phi.tobytes())
    assert finals[0] == finals[1]
