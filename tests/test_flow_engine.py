"""Normalized-flow time stepping: RK4, stability control, runs, checkpoints."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anisoflow.flow_engine import (
    AdmissibilityError,
    ConeViolationError,
    FlowState,
    NonFiniteRHSError,
    RunResult,
    StepControl,
    initial_state,
    is_zonal,
    lambda_maps,
    lambda_of_tau,
    load_checkpoint,
    rhs,
    run,
    save_checkpoint,
    stable_dt_bound,
    step,
    t_of_tau,
    unnormalize,
)
from anisoflow.speed_profile import (
    BumpG,
    ExpFlatG,
    MonomialG,
    SpeedProfile,
    TabulatedG,
    ZeroG,
    eval_g,
    eval_scaled,
)
from anisoflow.sphere_geometry import RadialGraph, SphericalGrid, sphere_graph, weingarten


def profile_k1(beta, g=None, n=1):
    return SpeedProfile(n=n, k=1, alpha=1.0, beta=beta, g=g if g is not None else ZeroG())


def wiggly_circle(N=64, amp=0.1):
    grid = SphericalGrid.circle(N)
    return RadialGraph(grid, amp * np.cos(2 * grid.theta))


# ---------------------------------------------------------------------------
# normalization maps


def test_lambda_maps_spot_values():
    eq = profile_k1(2.0)  # beta = 1 + k*alpha, gamma = 1
    assert_allclose(lambda_maps(eq, 1.0), (math.e, 1.0), rtol=1e-15)
    strict = profile_k1(3.0)  # beta = k*alpha + 2, gamma = 1
    assert_allclose(lambda_maps(strict, 2.0), (3.0, math.log(3.0)), rtol=1e-15)
    for prof in (eq, strict):
        assert lambda_maps(prof, 0.0) == (1.0, 0.0)
    with pytest.raises(ValueError):
        lambda_maps(eq, -0.5)


@pytest.mark.parametrize("beta", [2.0, 3.0, 4.5])
def test_lambda_maps_inverse_consistency(beta):
    prof = profile_k1(beta)
    for t in (0.0, 0.3, 1.0, 7.5):
        lam, tau = lambda_maps(prof, t)
        assert_allclose(t_of_tau(prof, tau), t, rtol=1e-13, atol=1e-15)
        assert_allclose(lambda_of_tau(prof, tau), lam, rtol=1e-13)


def test_unnormalize_identity_at_start():
    prof = profile_k1(3.0)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(32), 1.4))
    t, graph = unnormalize(state)
    assert t == 0.0
    assert graph == state.graph


def test_unnormalize_strict_regime_spot_value():
    # beta = k*alpha + 2 and gamma = 1: tau = log 3 corresponds to t = 2
    prof = profile_k1(3.0)
    graph = sphere_graph(SphericalGrid.circle(32), 1.0)
    state = FlowState(
        tau=math.log(3.0), graph=graph, lam=3.0, step_count=5, last_dt=0.1, profile=prof
    )
    t, phys = unnormalize(state)
    assert_allclose(t, 2.0, rtol=1e-15)
    assert_allclose(phys.r(), 1.0 / 3.0, rtol=1e-15)


def test_unnormalize_equality_regime_sphere_shrinks_exponentially():
    prof = SpeedProfile(n=1, k=1, alpha=2.0, beta=3.0)  # equality regime, gamma = 1
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(32), 0.8))
    result = run(state, StepControl(t_end=0.5, dt_max=0.01))
    t, phys = unnormalize(result.state)
    assert_allclose(t, 0.5, atol=1e-12)
    assert_allclose(phys.r(), 0.8 * math.exp(-0.5), rtol=1e-9)


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_vanishes_at_fixed_point():
    # any round sphere is stationary in the equality regime
    for r0 in (0.5, 1.0, 1.7):
        prof = profile_k1(2.0)
        out, _, _ = rhs(prof, sphere_graph(SphericalGrid.circle(64), r0), lam=1.0)
        assert np.max(np.abs(out)) < 1e-12
    prof2 = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
    out, _, _ = rhs(prof2, sphere_graph(SphericalGrid.sphere(32, 64), 1.3), lam=1.0)
    assert np.max(np.abs(out)) < 1e-10


def test_rhs_spot_value_power_speed():
    # r = 2, beta = 3, k = alpha = 1, g = 0: rhs = -(r^2)(1/r) + 1 = -1
    prof = profile_k1(3.0)
    graph = sphere_graph(SphericalGrid.circle(32), 2.0)
    out, field, A = rhs(prof, graph, lam=1.0)
    assert_allclose(out, -1.0, rtol=1e-13)
    assert_allclose(A, 4.0, rtol=1e-13)
    assert_allclose(field.kappa[:, 0], 0.5, rtol=1e-13)


def test_rhs_spot_value_monomial_speed():
    # sphere: rhs = gamma - gamma*r0^(beta-1-k*alpha) - gamma*lam^(beta-l)*r0^(l-1-k*alpha)
    r0, lam, beta, l = 1.5, 2.0, 3.0, 4.0
    prof = profile_k1(beta, MonomialG(l))
    out, _, _ = rhs(prof, sphere_graph(SphericalGrid.circle(32), r0), lam=lam)
    expect = 1.0 - r0 ** (beta - 2.0) - lam ** (beta - l) * r0 ** (l - 2.0)
    assert_allclose(out, expect, rtol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_rhs_nonfinite_detected():
    prof = profile_k1(3.0)
    graph = sphere_graph(SphericalGrid.circle(32), math.exp(600.0))
    with pytest.raises(NonFiniteRHSError):
        rhs(prof, graph, lam=1.0)


def test_cone_gate_trips_on_dumbbell():
    # strongly pinched zonal surface: sigma_2 < 0 at the waist
    grid = SphericalGrid.sphere(32, 64)
    t = grid.theta[:, None]
    graph = RadialGraph(grid, np.broadcast_to(np.log(1.0 + 0.7 * np.cos(2 * t)), grid.shape).copy())
    assert weingarten(graph).sigma[..., 1].min() < 0.0  # genuinely outside the cone
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0)
    with pytest.raises(ConeViolationError) as exc:
        rhs(prof, graph, lam=1.0, tau=0.0)
    assert exc.value.tau == 0.0
    assert exc.value.margin < 0.0
    node_margin = weingarten(graph).sigma[..., :2].min(axis=-1)
    worst = int(np.argmin(node_margin))
    assert exc.value.node == np.unravel_index(worst, node_margin.shape)
    assert exc.value.margin == node_margin.ravel()[worst]
    assert "cone margin" in str(exc.value)


def test_no_cone_gate_for_curve_shortening_family():
    # k = 1, alpha = 1 stays parabolic for any curvature sign: no gate
    prof = profile_k1(2.0)
    graph = wiggly_circle(N=128, amp=0.3)  # concave at the waist
    field = weingarten(graph)
    assert field.sigma[:, 0].min() < 0.0
    out, _, _ = rhs(prof, graph, lam=1.0)  # must not raise
    assert np.all(np.isfinite(out))


def test_cone_gate_active_for_powered_curvature():
    # same concave curve, but alpha = 2 needs kappa > 0: gate trips
    prof = SpeedProfile(n=1, k=1, alpha=2.0, beta=3.0)
    with pytest.raises(ConeViolationError):
        rhs(prof, wiggly_circle(N=128, amp=0.3), lam=1.0)


# ---------------------------------------------------------------------------
# stepping


def scalar_phi_rk4(prof, phi0, tau0, dt, lam_of):
    """RK4 on the sphere-reduced phi equation, mirroring the engine's stages."""

    def F(phi, tau):
        r = math.exp(phi)
        g = eval_scaled(prof, lam_of(tau), r)
        sig = (math.comb(prof.n, prof.k) * r**-prof.k) ** prof.alpha
        A = r ** (prof.beta - 1.0) + g / r
        return -A * sig + prof.gamma

    k1 = F(phi0, tau0)
    k2 = F(phi0 + 0.5 * dt * k1, tau0 + 0.5 * dt)
    k3 = F(phi0 + 0.5 * dt * k2, tau0 + 0.5 * dt)
    k4 = F(phi0 + dt * k3, tau0 + dt)
    return phi0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize(
    "g", [ZeroG(), MonomialG(5.0)], ids=["zero", "monomial"]
)
def test_step_on_sphere_matches_scalar_rk4(g):
    prof = profile_k1(4.0, g)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(64), 1.5))
    new = step(state, StepControl(t_end=1.0))
    dt = new.last_dt
    assert dt > 0.0
    phi_expect = scalar_phi_rk4(
        prof, math.log(1.5), 0.0, dt, lambda tau: math.exp(prof.gamma * tau)
    )
    assert np.max(np.abs(new.graph.phi - phi_expect)) < 1e-12
    assert new.tau == dt
    assert new.step_count == 1


def test_step_self_convergence_order():
    # fixed forced dt, halved twice: Richardson order of the time error
    prof = profile_k1(3.0)
    grid = SphericalGrid.circle(64)
    base = initial_state(prof, RadialGraph(grid, 0.05 * np.cos(2 * grid.theta)))
    control = StepControl(t_end=10.0, cfl=1.0, dt_max=1.0)

    def advance(dt, m):
        s = base
        for _ in range(m):
            s = step(s, control, dt_cap=dt)
            assert s.last_dt == dt
        return s.graph.phi

    T, m0 = 0.032, 4  # dt below the N=64 stability bound so the cap binds
    sols = [advance(T / m, m) for m in (m0, 2 * m0, 4 * m0)]
    e1 = np.max(np.abs(sols[0] - sols[1]))
    e2 = np.max(np.abs(sols[1] - sols[2]))
    order = math.log2(e1 / e2)
    assert order > 2.0, order


def test_step_too_small_rejected():
    prof = profile_k1(2.0)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(32), 1.0))
    from anisoflow.flow_engine import StepTooSmallError

    with pytest.raises(StepTooSmallError):
        step(state, StepControl(t_end=1.0), dt_cap=1e-16)


def test_stable_dt_bound_scales_with_grid():
    prof = profile_k1(2.0)
    bounds = []
    for N in (32, 64):
        graph = sphere_graph(SphericalGrid.circle(N), 1.0)
        out, field, A = rhs(prof, graph, lam=1.0)
        bounds.append(stable_dt_bound(prof, graph, field, A))
    assert_allclose(bounds[0] / bounds[1], 4.0, rtol=1e-10)


def test_zonal_bound_ignores_longitude():
    grid = SphericalGrid.sphere(16, 256)  # absurdly fine longitude
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
    graph = sphere_graph(grid, 1.0)
    _, field, A = rhs(prof, graph, lam=1.0)
    assert is_zonal(graph)
    b_zonal = stable_dt_bound(prof, graph, field, A, zonal=True)
    b_generic = stable_dt_bound(prof, graph, field, A, zonal=False)
    assert b_zonal > 20.0 * b_generic  # sin^2 near the poles throttles the generic bound
    assert_allclose(b_zonal, grid.h_theta**2 / (A * field.kappa.max() / 1.0).max(), rtol=0.5)


def test_zonality_is_preserved_by_steps():
    grid = SphericalGrid.sphere(16, 32)
    t = grid.theta[:, None]
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
    phi0 = np.broadcast_to(np.log(1.0 + 0.05 * np.cos(2 * t)), grid.shape).copy()
    state = initial_state(prof, RadialGraph(grid, phi0))
    for _ in range(5):
        state = step(state, StepControl(t_end=10.0))
    assert is_zonal(state.graph)


# ---------------------------------------------------------------------------
# runs


def test_run_reaches_t_end_exactly():
    prof = profile_k1(2.0)
    state = initial_state(prof, wiggly_circle(N=64, amp=0.05))
    result = run(state, StepControl(t_end=0.25))
    assert result.reason == "t_end"
    assert abs(result.state.tau - 0.25) < 1e-12
    assert isinstance(result, RunResult)


def test_run_sphere_stops_immediately_on_sphericity():
    prof = profile_k1(2.0)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(32), 1.0))
    result = run(state, StepControl(t_end=5.0, sphericity_stop=1e-3))
    assert result.reason == "sphericity_stop"
    assert result.state.step_count == 0
    assert len(result.series.column("tau")) == 1


def test_run_max_steps():
    prof = profile_k1(2.0)
    state = initial_state(prof, wiggly_circle(N=64, amp=0.05))
    result = run(state, StepControl(t_end=100.0, max_steps=3))
    assert result.reason == "max_steps"
    assert result.state.step_count == 3


def test_run_record_cadence():
    prof = profile_k1(2.0)
    state = initial_state(prof, wiggly_circle(N=64, amp=0.05))
    result = run(state, StepControl(t_end=100.0, max_steps=12, record_every=5))
    taus = result.series.column("tau")
    assert len(taus) == 4  # steps 0, 5, 10 and the final state at 12
    assert np.all(np.diff(taus) > 0)
    assert result.series.column("dt")[0] == 0.0  # nothing stepped yet at tau = 0


def test_run_decays_toward_sphere():
    prof = profile_k1(2.0)
    state = initial_state(prof, wiggly_circle(N=64, amp=0.1))
    result = run(state, StepControl(t_end=2.0, record_every=20))
    osc = result.series.column("osc")
    assert osc[-1] < 0.05 * osc[0]


def test_run_is_deterministic():
    prof = profile_k1(2.0)

    def once():
        state = initial_state(prof, wiggly_circle(N=64, amp=0.08))
        return run(state, StepControl(t_end=0.5, record_every=7))

    a, b = once(), once()
    assert a.series == b.series
    assert np.array_equal(a.state.graph.phi, b.state.graph.phi)


def test_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_max=-1.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, sphericity_stop=-1e-3)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, record_every=0)


def test_initial_state_validation():
    prof = profile_k1(2.0)
    with pytest.raises(ValueError, match="dimension"):
        initial_state(prof, sphere_graph(SphericalGrid.sphere(16, 32), 1.0))
    bad = profile_k1(2.0, MonomialG(1.0))  # fails the equality-regime validator
    graph = sphere_graph(SphericalGrid.circle(32), 1.0)
    with pytest.raises(AdmissibilityError, match="scaling"):
        initial_state(bad, graph)
    state = initial_state(bad, graph, validate_regime=False)  # explicit override
    assert state.tau == 0.0 and state.lam == 1.0


# ---------------------------------------------------------------------------
# checkpoints


def tab_profile():
    base = profile_k1(4.0, ExpFlatG(1.0))
    pts = np.linspace(0.0, 4.0, 80)
    vals, ders = eval_g(base, pts)
    return profile_k1(4.0, TabulatedG(pts, vals, ders))


@pytest.mark.parametrize(
    "prof",
    [
        profile_k1(2.0),
        profile_k1(4.0, ExpFlatG(2.0)),
        profile_k1(3.0, MonomialG(4.0)),
        profile_k1(2.0, BumpG(0.5, 1.0)),
        tab_profile(),
    ],
    ids=["zero", "expflat", "monomial", "bump", "tabulated"],
)
def test_checkpoint_roundtrip(tmp_path, prof):
    state = initial_state(prof, wiggly_circle(N=32, amp=0.04), validate_regime=False)
    state = step(state, StepControl(t_end=1.0))
    path = tmp_path / "chk.txt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.profile == state.profile
    assert loaded.graph == state.graph
    assert loaded.tau == state.tau
    assert loaded.lam == state.lam
    assert loaded.step_count == state.step_count
    assert loaded.last_dt == state.last_dt


def test_checkpoint_resume_is_bit_exact(tmp_path):
    prof = profile_k1(2.0)
    control = StepControl(t_end=10.0)
    state = initial_state(prof, wiggly_circle(N=64, amp=0.08))
    for _ in range(10):
        state = step(state, control)
    path = tmp_path / "chk.txt"
    save_checkpoint(state, path)
    resumed = load_checkpoint(path)
    for _ in range(10):
        state = step(state, control)
        resumed = step(resumed, control)
    assert np.array_equal(state.graph.phi, resumed.graph.phi)
    assert state.tau == resumed.tau
    assert state.last_dt == resumed.last_dt


def test_checkpoint_rejects_corruption(tmp_path):
    prof = profile_k1(2.0)
    state = initial_state(prof, wiggly_circle(N=32, amp=0.04))
    path = tmp_path / "chk.txt"
    save_checkpoint(state, path)
    text = path.read_text()

    bad = tmp_path / "bad.txt"
    bad.write_text("something else\n" + text)
    with pytest.raises(ValueError, match="not an anisoflow checkpoint"):
        load_checkpoint(bad)

    tampered = text.replace("lambda=1", "lambda=1.5")
    bad.write_text(tampered)
    with pytest.raises(ValueError, match="inconsistent"):
        load_checkpoint(bad)

    lines = text.splitlines(keepends=True)
    state_end = next(i for i, ln in enumerate(lines) if ln.startswith("state: ")) + 1
    for cut in (1, 2, state_end):
        bad.write_text("".join(lines[:cut]))
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(bad)

    bad.write_text(text.replace(" g=zero", "", 1))
    with pytest.raises(ValueError, match="g= field"):
        load_checkpoint(bad)

    tab = initial_state(tab_profile(), wiggly_circle(N=32, amp=0.04), validate_regime=False)
    save_checkpoint(tab, path)
    text = path.read_text()
    first_row = next(ln for ln in text.splitlines() if ln.startswith("table: "))
    for tampered in (text.replace(first_row, first_row + ",0", 1), text.replace(" points=80", " points=0", 1)):
        bad.write_text(tampered)
        with pytest.raises(ValueError, match="tabulated g rows"):
            load_checkpoint(bad)
