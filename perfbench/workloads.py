"""Benchmark workloads: seeded initial data, run controls and correctness gates.

Every workload runs to a stop criterion (a sphericity threshold or a tau
horizon), never to a fixed step count, so a change can win through fewer
steps as well as through cheaper ones.

Seed 0 is the reference data of each workload.  Any other seed adds a
low-mode perturbation of sup-norm 1e-3 to phi that keeps the workload's
symmetry: cos(2 m theta) modes on the curve and on the zonal surface (which
therefore stays bit-exactly zonal), sin^m(theta) cos(m lon + s) modes on the
non-zonal surface.  The program only ever sees the generated phi.
"""

import math
from dataclasses import dataclass

import numpy as np

from anisoflow import (
    ExpFlatG,
    RadialGraph,
    SpeedProfile,
    SphericalGrid,
    StepControl,
)

PERTURBATION = 1e-3
NONZONAL_TAU = 0.005
MODES = (1, 2, 3)
# AC-3 / AC-8 allowance for round-off in "non-increasing" record-to-record checks.
RISE_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    profile: SpeedProfile
    graph: RadialGraph
    control: StepControl
    gate: object  # RunResult -> list of problem strings, empty when it passes
    clock_steps: int  # steps per timed chunk; a multiple of control.record_every


def _amplitudes(rng):
    u = rng.uniform(-1.0, 1.0, len(MODES))
    return PERTURBATION * u / np.abs(u).sum()


def _even_modes(theta, seed):
    """sum_m a_m cos(2 m theta): symmetric under theta -> -theta and theta -> theta + pi."""
    a = _amplitudes(np.random.default_rng(seed))
    return sum(a_m * np.cos(2.0 * m * theta) for a_m, m in zip(a, MODES))


def _sectoral_modes(grid, seed):
    """sum_m a_m sin^m(theta) cos(m lon + s_m): smooth on S^2, not zonal."""
    rng = np.random.default_rng(seed)
    a = _amplitudes(rng)
    shift = rng.uniform(0.0, 2.0 * math.pi, len(MODES))
    sin_t = np.sin(grid.theta)[:, None]
    lon = grid.phi_lon[None, :]
    return sum(a_m * sin_t**m * np.cos(m * lon + s) for a_m, m, s in zip(a, MODES, shift))


def _rise(series, column):
    values = series.column(column)
    return float(np.diff(values).max()) if len(values) > 1 else 0.0


def _curve_gate(result):
    series = result.series
    problems = []
    if result.reason != "sphericity_stop":
        problems.append(f"stopped by {result.reason}, not sphericity_stop")
    if not series.last("osc") < 1e-3:
        problems.append(f"final osc {series.last('osc'):.3e} >= 1e-3")
    rise = _rise(series, "r_max")
    if rise > RISE_TOL:
        problems.append(f"r_max rose by {rise:.3e} between records")
    if not series.column("u_min").min() > 0.0:
        problems.append("support function u_min <= 0: star-shapedness lost")
    return problems


def _zonal_gate(result):
    series = result.series
    problems = []
    if result.reason != "t_end":
        problems.append(f"stopped by {result.reason}, not t_end")
    if not series.last("osc") < 1e-3:
        problems.append(f"final osc {series.last('osc'):.3e} >= 1e-3")
    if not abs(series.last("r_max") - 1.0) <= 2e-2:
        problems.append(f"|r - 1| = {abs(series.last('r_max') - 1.0):.3e} > 2e-2")
    if float(np.ptp(result.state.graph.phi, axis=1).max()) != 0.0:
        problems.append("final state is no longer bit-exactly zonal")
    return problems


def _nonzonal_gate(result):
    problems = []
    if result.reason != "t_end" or result.state.tau < NONZONAL_TAU - 1e-15:
        problems.append(f"stopped by {result.reason} at tau={result.state.tau:.6g}")
    rise = _rise(result.series, "grad_phi_max")
    if rise > RISE_TOL:
        problems.append(f"max|grad phi| rose by {rise:.3e} between records")
    return problems


def _expflat_surface(seed, zonal):
    profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    grid = SphericalGrid.sphere(32, 64)
    theta = grid.theta
    col = np.log(1.0375 + 0.1125 * np.cos(2.0 * theta))
    if zonal and seed:
        col = col + _even_modes(theta, seed)
    phi = np.broadcast_to(col[:, None], grid.shape).copy()
    if not zonal:
        phi = phi + 1e-3 * np.sin(theta)[:, None] ** 2 * np.cos(2.0 * grid.phi_lon)[None, :]
        if seed:
            phi = phi + _sectoral_modes(grid, seed)
    return profile, RadialGraph(grid, phi)


def curve_nonconvex(seed):
    """demos/sample_run.ini: AC-3 at half resolution, run to sphericity 1e-3."""
    profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0)
    grid = SphericalGrid.circle(256)
    phi = np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta))
    if seed:
        phi = phi + _even_modes(grid.theta, seed)
    control = StepControl(t_end=3.0, sphericity_stop=1e-3, record_every=10)
    return Case(profile, RadialGraph(grid, phi), control, _curve_gate, clock_steps=100)


def zonal_expflat(seed):
    """The AC-4 column at 32x64, run to tau = 6."""
    profile, graph = _expflat_surface(seed, zonal=True)
    control = StepControl(t_end=6.0, record_every=20)
    return Case(profile, graph, control, _zonal_gate, clock_steps=20)


def nonzonal_pole(seed):
    """zonal_expflat data plus 1e-3 sin^2(theta) cos(2 lon): the pole-bound dt regime."""
    profile, graph = _expflat_surface(seed, zonal=False)
    control = StepControl(t_end=NONZONAL_TAU, record_every=20)
    return Case(profile, graph, control, _nonzonal_gate, clock_steps=20)


WORKLOADS = {f.__name__: f for f in (curve_nonconvex, zonal_expflat, nonzonal_pole)}
