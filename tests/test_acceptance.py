"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints an ``AC-n ...: PASS|FAIL`` line (shown with ``-s``, or on
failure) and then asserts.  The two long integrations (AC-3, AC-4) are
module-scoped fixtures so AC-8 can reuse their diagnostic series.

AC-3's cone subcheck tests what the paper proves: k-convexity is preserved.
It holds the cone margin and the speed factor strictly positive from the first
k-convex record on.  Records before it are excluded because they hold the
prescribed non-convex data: the initial curve r = 1 + 0.3 cos(2 theta) is
concave at its waist (kappa = -0.35/0.343 at theta = pi/2), outside the
theorem's hypothesis.  The flow is autonomous in physical time and the
normalization is a positive rescaling, so the first k-convex record is valid
initial data for the theorem.
"""

import math

import numpy as np
import pytest

from anisoflow.diagnostics import fit_exponential
from anisoflow.flow_engine import StepControl, initial_state, is_zonal, rhs, run
from anisoflow.speed_profile import ExpFlatG, MonomialG, SpeedProfile
from anisoflow.sphere_geometry import (
    RadialGraph,
    SphericalGrid,
    sphere_graph,
    weingarten,
)
from anisoflow.verify import pde_vs_ode_check
from anisoflow.symfunc import CONE_EPS
from anisoflow.verify import (
    aggregate_slope,
    ellipse_exact_curvature,
    ellipse_graph,
    identity_suite,
    oracle_convergence,
    profile_matrix,
)


def _report(label, ok, detail=""):
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return line


# ---------------------------------------------------------------------------
# shared long runs


@pytest.fixture(scope="module")
def ac3_run():
    # curve-shortening-type flow (k=1, alpha=1, beta=2) from a non-convex curve
    prof = SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0)
    grid = SphericalGrid.circle(512)
    graph = RadialGraph(grid, np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta)))
    state = initial_state(prof, graph)
    control = StepControl(t_end=3.0, sphericity_stop=1e-3, record_every=1)
    return run(state, control)


@pytest.fixture(scope="module")
def ac4_run():
    # 2-convex flow with an exponentially flat perturbation, zonal initial data
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    grid = SphericalGrid.sphere(64, 128)
    col = np.log(1.0375 + 0.1125 * np.cos(2.0 * grid.theta))
    graph = RadialGraph(grid, np.broadcast_to(col[:, None], grid.shape).copy())
    state = initial_state(prof, graph)
    return run(state, StepControl(t_end=6.0, record_every=2))


# ---------------------------------------------------------------------------
# AC-1: equality-regime spheres are discrete fixed points


def test_ac1_round_spheres_are_stationary():
    worst = 0.0
    cases = 0
    for n in (1, 2):
        grid = SphericalGrid.circle(256) if n == 1 else SphericalGrid.sphere(64, 128)
        for k in range(1, n + 1):
            for alpha in sorted({1.0 / k, 1.0, 2.0}):
                prof = SpeedProfile(n=n, k=k, alpha=alpha, beta=1.0 + k * alpha)
                for r0 in (0.5, 1.0, 1.7):
                    out, _, _ = rhs(prof, sphere_graph(grid, r0), lam=1.0)
                    worst = max(worst, float(np.abs(out).max()))
                    cases += 1
    ok = worst <= 1e-10
    line = _report(
        "AC-1 spheres stationary in the equality regime", ok,
        f"{cases} cases, worst |rhs| = {worst:.2e}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# AC-2: sphere trajectories track the exact radius ODE


def test_ac2_sphere_matches_closed_form_and_ode():
    grid = SphericalGrid.circle(256)

    prof = SpeedProfile(n=1, k=1, alpha=1.0, beta=3.0)
    state = initial_state(prof, sphere_graph(grid, 2.0))
    result = run(state, StepControl(t_end=math.log(2.0), record_every=12))
    r_end = result.series.last("r_max")
    rel = abs(r_end - 4.0 / 3.0) / (4.0 / 3.0)
    nonuni = float(result.series.column("osc").max())
    ok_closed = rel <= 1e-4 and nonuni <= 1e-8

    prof_g = SpeedProfile(n=1, k=1, alpha=1.0, beta=3.0, g=MonomialG(4.0))
    dev, osc = pde_vs_ode_check(prof_g, 2.0, grid, StepControl(t_end=math.log(2.0), record_every=12))
    ok_ode = dev <= 1e-4 and osc <= 1e-8

    line = _report(
        "AC-2 sphere run hits the closed-form radius", ok_closed,
        f"|r - 4/3|/(4/3) = {rel:.2e}, max osc = {nonuni:.2e}",
    )
    line2 = _report(
        "AC-2 perturbed-speed sphere tracks the integrated radius equation", ok_ode,
        f"max rel deviation = {dev:.2e}, max osc = {osc:.2e}",
    )
    assert ok_closed, line
    assert ok_ode, line2


# ---------------------------------------------------------------------------
# AC-3: non-convex curve rounds out


def test_ac3_oscillation_decays(ac3_run):
    series = ac3_run.series
    osc = series.column("osc")
    tau = series.column("tau")
    reached = osc[-1] < 1e-3
    rate = fit_exponential(tau, osc).rate
    ok = reached and rate <= -0.1
    line = _report(
        "AC-3 oscillation decays below 1e-3 with an exponential tail", ok,
        f"final osc = {osc[-1]:.2e}, tail rate = {rate:.3f}, reason = {ac3_run.reason}",
    )
    assert ok, line


def test_ac3_outer_radius_monotone_and_star_shaped(ac3_run):
    series = ac3_run.series
    increase = float(np.diff(series.column("r_max")).max())
    u_min = float(series.column("u_min").min())
    ok = increase <= 1e-9 and u_min > 0.0
    line = _report(
        "AC-3 outer radius non-increasing, star-shapedness preserved", ok,
        f"max per-record increase = {increase:.2e}, min support = {u_min:.3f}",
    )
    assert ok, line


def test_ac3_cone_margin_and_speed_positive_throughout(ac3_run):
    # k-convexity preservation: the curve must enter Gamma_k^+ before the
    # sphericity stop, and from its first k-convex record on every record must
    # keep margin > CONE_EPS and a positive speed factor.  The tau = 0 record
    # is the waist r = 0.7, r' = 0, r'' = 1.2: kappa = (r^2 - r r'') / r^3.
    series = ac3_run.series
    tau = series.column("tau")
    margin = series.column("cone_margin")
    speed = series.column("phi_min_cap")
    inside = np.flatnonzero(margin > CONE_EPS)
    waist = f"tau=0 margin = {margin[0]:.7f} (exact waist kappa {-0.35 / 0.343:.7f})"
    if inside.size == 0 or inside[0] == len(margin) - 1:
        ok = False
        detail = f"{waist}; never k-convex before the final record of {len(margin)}"
    else:
        i0 = int(inside[0])
        margin_after = float(margin[i0:].min())
        speed_after = float(speed[i0:].min())
        ok = margin_after > CONE_EPS and speed_after > 0.0
        detail = (
            f"{waist}; k-convex from record {i0} (tau = {tau[i0]:.4f}) on: "
            f"min cone margin = {margin_after:.3e}, min speed = {speed_after:.3e}"
        )
    line = _report("AC-3 cone margin and speed positive from k-convex entry on", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# AC-4: zonal surface with flat perturbation converges to the unit sphere


def test_ac4_zonal_surface_converges_to_unit_sphere(ac4_run):
    series = ac4_run.series
    osc_end = float(series.last("osc"))
    r_limit = float(series.last("r_max"))
    ok = osc_end < 1e-3 and abs(r_limit - 1.0) <= 2e-2
    line = _report(
        "AC-4 zonal flow relaxes to the unit sphere", ok,
        f"final osc = {osc_end:.2e}, |r - 1| = {abs(r_limit - 1.0):.2e}, "
        f"reason = {ac4_run.reason}",
    )
    assert is_zonal(ac4_run.state.graph)  # longitude independence survives
    assert ok, line


@pytest.mark.parametrize("alpha, beta", [(1.0, 2.0), (2.0, 3.0)])
def test_ac4_mean_convex_nonconvex_surface_rounds_out(alpha, beta):
    # k = 1 on S^2 beyond convexity: r = 1 + 0.3 cos 2 theta is mean-convex
    # but pinched at the equator (sigma_2 < 0); the sigma_1 cone margin must
    # hold at every record, with alpha = 2 behind the live cone gate
    prof = SpeedProfile(n=2, k=1, alpha=alpha, beta=beta)
    grid = SphericalGrid.sphere(32, 64)
    col = np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta))
    graph = RadialGraph(grid, np.broadcast_to(col[:, None], grid.shape).copy())
    sigma2_min = float(weingarten(graph).sigma[..., 1].min())
    result = run(initial_state(prof, graph), StepControl(t_end=10.0, sphericity_stop=1e-3, record_every=1))
    margin = float(result.series.column("cone_margin").min())
    ok = sigma2_min < 0.0 and margin > CONE_EPS and result.reason == "sphericity_stop"
    line = _report(
        f"AC-4 mean-convex, non-convex zonal surface rounds out (alpha={alpha:g}, beta={beta:g})", ok,
        f"initial min sigma_2 = {sigma2_min:.3f}, min sigma_1 margin = {margin:.3f}, "
        f"{result.state.step_count} steps, reason = {result.reason}",
    )
    assert is_zonal(result.state.graph)
    assert ok, line


# ---------------------------------------------------------------------------
# AC-5: the two curvature routes agree under refinement


def test_ac5_curvature_routes_converge_together():
    worst = math.inf
    for n, levels in ((1, (64, 128, 256, 512)), (2, (16, 32, 64, 128))):
        for seed in range(5):
            mid, pole = oracle_convergence(n, seed, levels)
            full = [max(m, p) for m, p in zip(mid, pole)]
            worst = min(worst, aggregate_slope(full))
    grid = SphericalGrid.circle(512)
    kappa = weingarten(ellipse_graph(grid, 2.0, 1.0)).kappa[:, 0]
    ell_err = float(np.abs(kappa - ellipse_exact_curvature(grid, 2.0, 1.0)).max())
    ok = worst >= 1.8 and ell_err <= 5e-3
    line = _report(
        "AC-5 independent curvature routes converge together", ok,
        f"worst slope over 3 doublings = {worst:.2f} (5 seeds/dim), "
        f"ellipse error at N=512 = {ell_err:.2e}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# AC-6: symmetric-function identities on random cone samples


def test_ac6_symmetric_function_identities():
    res = identity_suite()
    samples = int(res.details.split()[0])
    ok = res.ok and samples >= 10_000
    line = _report("AC-6 curvature-polynomial identities", ok, res.details)
    assert ok, line


# ---------------------------------------------------------------------------
# AC-7: admissibility validator matrix


def test_ac7_validator_matrix():
    rows = profile_matrix()
    assert len(rows) == 8
    bad = []
    for label, report, expected_ok, expected_condition in rows:
        if report.ok != expected_ok:
            bad.append(f"{label}: ok={report.ok}, wanted {expected_ok}")
        elif not expected_ok and report.condition != expected_condition:
            bad.append(f"{label}: condition={report.condition!r}, wanted {expected_condition!r}")
    ok = not bad
    line = _report(
        "AC-7 speed-profile validator matrix", ok,
        "8/8 verdicts as expected" if ok else "; ".join(bad),
    )
    assert ok, line


# ---------------------------------------------------------------------------
# AC-8: recorded gradient bounds on the stored long runs


def test_ac8_gradient_bounds_on_stored_runs(ac3_run, ac4_run):
    problems = []
    for name, result in (("non-convex curve", ac3_run), ("zonal surface", ac4_run)):
        series = result.series
        osc = series.column("osc")
        grad_r = series.column("grad_r_max")
        grad_phi = series.column("grad_phi_max")
        chord = np.max(osc - math.pi * grad_r)
        if chord > 1e-12:
            problems.append(f"{name}: osc exceeds pi*max|grad r| by {chord:.2e}")
        rise = float(np.diff(grad_phi).max())
        if rise > 1e-9:
            problems.append(f"{name}: max|grad phi| rose by {rise:.2e} between records")
    ok = not problems
    line = _report(
        "AC-8 oscillation bounded by pi*max|grad r|; gradient cap non-increasing",
        ok,
        "both stored runs" if ok else "; ".join(problems),
    )
    assert ok, line
