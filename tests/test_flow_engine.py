"""Normalized-flow time stepping: the engine's damped optimal four-stage
polynomial, re-derived from its defining equations, against an RK4 oracle;
stability control, runs, checkpoints."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anisoflow import flow_engine, speed_profile, sphere_geometry
from anisoflow.flow_engine import (
    COLUMNS,
    STAGE_C1,
    STAGE_C2,
    REAL_LIMIT,
    STEP_FRACTION,
    AdmissibilityError,
    ConeViolationError,
    FlowState,
    NonFiniteRHSError,
    RunResult,
    SpeedRangeError,
    StepControl,
    StepTooSmallError,
    diagnostics_row,
    initial_state,
    lambda_of_tau,
    rhs,
    run,
    stable_dt_bound,
    step,
)
from anisoflow.speed_profile import (
    BumpG,
    ExpFlatG,
    MonomialG,
    ScaleOverflowError,
    SpeedProfile,
    TabulatedG,
    ZeroG,
    eval_g,
    eval_scaled,
)
from anisoflow.sphere_geometry import (
    RadialGraph,
    SingularMetricError,
    SphericalGrid,
    ZonalColumn,
    is_zonal,
    reduce_zonal,
    sphere_graph,
    weingarten,
)
from anisoflow.symfunc import CONE_EPS, sigma_k_partials
from anisoflow.textform import ConfigError, load_checkpoint, save_checkpoint, save_graph


# classic RK4's real stability limit, the real root of z^3 + 4z^2 + 12z + 24
# negated (Hairer & Wanner, Solving ODEs II, Sec. IV.2); the RK4 oracle steps
# at this fraction of the engine's bound
RK4_REAL_LIMIT = (4.0 + np.cbrt(172.0 + 36.0 * math.sqrt(29.0)) - np.cbrt(36.0 * math.sqrt(29.0) - 172.0)) / 3.0
RK4_FRACTION = RK4_REAL_LIMIT / REAL_LIMIT

# RKC(4) with damping 2/13, from the Chebyshev polynomial T4 itself: R(z) =
# 1 + B (T4(W0 + W1 z) - T4(W0)) swings between 1 - B (T4(W0) + 1) and its
# damping 1 - B (T4(W0) - 1) past z = -1
T4 = np.polynomial.Chebyshev.basis(4)
W0 = 1.0 + (2.0 / 13.0) / 16.0
B = T4.deriv(2)(W0) / T4.deriv(1)(W0) ** 2
T4_DAMPING = 1.0 - B * (T4(W0) - 1.0)

# the engine's polynomial R(z) = 1 + z + z^2/2 + A3 z^3 + A4 z^4, re-derived:
# R(-x) has extrema exactly +ETA at X1 and -ETA at X2, ETA being RKC(4)'s
# damping to six digits
ETA = 0.954182


def _polynomial_by_newton(eta):
    """(a3, a4, x1, x2) solving p(x1) = eta, p(x2) = -eta, p'(x1) = p'(x2) = 0
    for p(x) = R(-x) = 1 - x + x^2/2 - a3 x^3 + a4 x^4, by Newton's method."""

    def residual(v):
        a3, a4, x1, x2 = v
        p = np.polynomial.Polynomial([1.0, -1.0, 0.5, -a3, a4])
        dp = p.deriv()
        return np.array([p(x1) - eta, p(x2) + eta, dp(x1), dp(x2)]), dp.deriv()

    v = np.array([0.08, 0.004, 5.0, 10.0])  # near RKC(4)'s coefficients
    for _ in range(50):
        res, d2p = residual(v)
        a3, a4, x1, x2 = v
        jac = np.array([
            [-x1**3, x1**4, 0.0, 0.0],
            [-x2**3, x2**4, 0.0, 0.0],
            [-3.0 * x1**2, 4.0 * x1**3, d2p(x1), 0.0],
            [-3.0 * x2**2, 4.0 * x2**3, 0.0, d2p(x2)],
        ])
        v = v - np.linalg.solve(jac, res)
    assert np.abs(residual(v)[0]).max() < 1e-13
    return tuple(float(c) for c in v)


A3, A4, X1, X2 = _polynomial_by_newton(ETA)


def stability_R(z):
    """The engine's stability polynomial."""
    return 1.0 + z + z**2 / 2.0 + A3 * z**3 + A4 * z**4


def stage_polynomials():
    """R_1..R_4 of the two-register stages on z' = z u: R_j = 1 + c_j z R_{j-1},
    c = (STAGE_C1, STAGE_C2, 1/2, 1), R_0 = 1; R_4 is R."""
    z = np.polynomial.Polynomial([0.0, 1.0])
    polys = [np.polynomial.Polynomial([1.0])]
    for c in (STAGE_C1, STAGE_C2, 0.5, 1.0):
        polys.append(1.0 + c * z * polys[-1])
    return polys[1:]


def profile_k1(beta, g=None, n=1):
    return SpeedProfile(n=n, k=1, alpha=1.0, beta=beta, g=g if g is not None else ZeroG())


def wiggly_circle(N=64, amp=0.1):
    grid = SphericalGrid.circle(N)
    return RadialGraph(grid, amp * np.cos(2 * grid.theta))


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_vanishes_at_fixed_point():
    # any round sphere is stationary in the equality regime
    for r0 in (0.5, 1.0, 1.7):
        prof = profile_k1(2.0)
        out = rhs(prof, sphere_graph(SphericalGrid.circle(64), r0), 0.0)
        assert np.max(np.abs(out)) < 1e-12
    prof2 = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
    out = rhs(prof2, sphere_graph(SphericalGrid.sphere(32, 64), 1.3), 0.0)
    assert np.max(np.abs(out)) < 1e-10


def test_rhs_spot_value_power_speed():
    # r = 2, beta = 3, k = alpha = 1, g = 0: rhs = -(r^2)(1/r) + 1 = -1
    prof = profile_k1(3.0)
    graph = sphere_graph(SphericalGrid.circle(32), 2.0)
    state = initial_state(prof, graph)
    out = rhs(prof, graph, 0.0)
    assert_allclose(out, -1.0, rtol=1e-13)
    assert_allclose(state.speed_coefficient, 4.0, rtol=1e-13)
    assert_allclose(state.field.kappa[:, 0], 0.5, rtol=1e-13)


def test_rhs_spot_value_monomial_speed():
    # sphere: rhs = gamma - gamma*r0^(beta-1-k*alpha) - gamma*lam^(beta-l)*r0^(l-1-k*alpha)
    r0, lam, beta, l = 1.5, 2.0, 3.0, 4.0
    prof = profile_k1(beta, MonomialG(l))  # gamma = 1: lam = 2 at tau = log 2
    out = rhs(prof, sphere_graph(SphericalGrid.circle(32), r0), math.log(lam))
    expect = 1.0 - r0 ** (beta - 2.0) - lam ** (beta - l) * r0 ** (l - 2.0)
    assert_allclose(out, expect, rtol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_rhs_nonfinite_detected():
    prof = profile_k1(3.0)
    graph = sphere_graph(SphericalGrid.circle(32), math.exp(600.0))
    with pytest.raises(NonFiniteRHSError):
        rhs(prof, graph, 0.0)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("g", [ZeroG(), MonomialG(5.0)], ids=["zero", "monomial"])
def test_rhs_rejects_non_finite_stage_input(n, bad, g):
    # RK stage graphs skip RadialGraph's finiteness scan; rhs must still fail
    # loudly (an infinite radius is past g's overflow bound)
    grid = SphericalGrid.circle(64) if n == 1 else SphericalGrid.sphere(16, 32)
    phi = np.zeros(grid.shape)
    phi.flat[5] = bad
    prof = SpeedProfile(n=n, k=1, alpha=1.0, beta=4.0, g=g)
    with pytest.raises((NonFiniteRHSError, SingularMetricError, ValueError, ScaleOverflowError)):
        rhs(prof, RadialGraph._unchecked(grid, phi), 0.0)


def test_cone_gate_trips_on_dumbbell():
    # strongly pinched zonal surface: sigma_2 < 0 at the waist
    grid = SphericalGrid.sphere(32, 64)
    t = grid.theta[:, None]
    graph = RadialGraph(grid, np.broadcast_to(np.log(1.0 + 0.7 * np.cos(2 * t)), grid.shape).copy())
    assert weingarten(graph).sigma[..., 1].min() < 0.0  # genuinely outside the cone
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0)
    with pytest.raises(ConeViolationError) as exc:
        rhs(prof, graph, 0.0)
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
    out = rhs(prof, graph, 0.0)  # must not raise
    assert np.all(np.isfinite(out))


def test_cone_gate_active_for_powered_curvature():
    # same concave curve, but alpha = 2 needs kappa > 0: gate trips
    prof = SpeedProfile(n=1, k=1, alpha=2.0, beta=3.0)
    with pytest.raises(ConeViolationError):
        rhs(prof, wiggly_circle(N=128, amp=0.3), 0.0)


# ---------------------------------------------------------------------------
# stepping


def _sphere_F(prof):
    """The sphere-reduced phi equation's right-hand side F(phi, tau)."""

    def F(phi, tau):
        r = math.exp(phi)
        g = eval_scaled(prof, math.exp(prof.gamma * tau), r)
        sig = (math.comb(prof.n, prof.k) * r**-prof.k) ** prof.alpha
        A = r ** (prof.beta - 1.0) + g / r
        return -A * sig + prof.gamma

    return F


def scalar_phi_engine(prof, phi0, tau0, dt):
    """The engine's stages on the sphere-reduced phi equation."""
    F = _sphere_F(prof)
    u1 = phi0 + STAGE_C1 * dt * F(phi0, tau0)
    u2 = phi0 + STAGE_C2 * dt * F(u1, tau0 + STAGE_C1 * dt)
    u3 = phi0 + 0.5 * dt * F(u2, tau0 + STAGE_C2 * dt)
    return phi0 + dt * F(u3, tau0 + 0.5 * dt)


def scalar_phi_rk4(prof, phi0, tau0, dt):
    """Classic RK4 on the sphere-reduced phi equation, mirroring the oracle's stages."""
    F = _sphere_F(prof)
    k1 = F(phi0, tau0)
    k2 = F(phi0 + 0.5 * dt * k1, tau0 + 0.5 * dt)
    k3 = F(phi0 + 0.5 * dt * k2, tau0 + 0.5 * dt)
    k4 = F(phi0 + dt * k3, tau0 + dt)
    return phi0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


SPHERE_GS = pytest.mark.parametrize("g", [ZeroG(), MonomialG(5.0)], ids=["zero", "monomial"])


@SPHERE_GS
def test_step_on_sphere_matches_scalar_stages(g):
    prof = profile_k1(4.0, g)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(64), 1.5))
    new = step(state, StepControl(t_end=1.0))
    dt = new.last_dt
    assert dt > 0.0
    phi_expect = scalar_phi_engine(prof, math.log(1.5), 0.0, dt)
    assert np.max(np.abs(new.graph.phi - phi_expect)) < 1e-12
    assert new.tau == dt
    assert new.step_count == 1


@SPHERE_GS
def test_step_on_sphere_matches_scalar_rk4(g):
    # the RK4 oracle against the scalar RK4, at the oracle's own dt
    prof = profile_k1(4.0, g)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(64), 1.5))
    phi, dt = _rk4_step(state, StepControl(t_end=1.0))
    assert dt > 0.0
    assert np.max(np.abs(phi - scalar_phi_rk4(prof, math.log(1.5), 0.0, dt))) < 1e-12


def test_step_self_convergence_order():
    # fixed forced dt, halved twice: Richardson order of the time error
    prof = profile_k1(3.0)
    grid = SphericalGrid.circle(64)
    base = initial_state(prof, RadialGraph(grid, 0.05 * np.cos(2 * grid.theta)))
    control = StepControl(t_end=10.0, dt_max=1.0)

    def advance(dt, m):
        s = base
        for _ in range(m):
            s = step(s, dataclasses.replace(control, dt_max=dt))
            assert s.last_dt == dt
        return s.graph.phi

    T, m0 = 0.032, 8  # dt below STEP_FRACTION of the N=64 stability limit (about 0.0089) so dt_max binds
    sols = [advance(T / m, m) for m in (m0, 2 * m0, 4 * m0)]
    e1 = np.max(np.abs(sols[0] - sols[1]))
    e2 = np.max(np.abs(sols[1] - sols[2]))
    order = math.log2(e1 / e2)
    assert order > 1.8, order  # second order: measured 2.02


def test_step_too_small_rejected():
    prof = profile_k1(2.0)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(32), 1.0))
    with pytest.raises(StepTooSmallError):
        step(state, StepControl(t_end=1.0, dt_max=1e-16))


def test_step_too_small_names_the_smallest_radius_and_its_node():
    # a curve of radius about 1e-13 under g = r: the stable step is already
    # below 1e-14 at tau = 0, and the error says where the surface is smallest
    grid = SphericalGrid.circle(32)
    graph = RadialGraph(grid, np.log(1e-13 * (1.0 + 0.1 * np.cos(grid.theta))))
    state = initial_state(profile_k1(2.0, MonomialG(1.0)), graph, validate_regime=False)
    with pytest.raises(StepTooSmallError) as exc:
        run(state, StepControl(t_end=1.0))
    r = graph.r()
    assert exc.value.tau == 0.0 and exc.value.state is state
    assert exc.value.node == 16 == int(np.argmin(r)) and exc.value.r_min == float(r.min())
    assert str(exc.value) == "stable step 6.178e-15 below 1e-14; smallest radius 9.000e-14 at node 16 (at tau=0)"


@pytest.mark.parametrize("tau", [1.0 - 1e-16, 1.0, 2.0])
def test_step_with_no_time_left_is_refused(tau):
    # a state run would stop at t_end has no step left, which is not a
    # collapse of the stable step (StepTooSmallError)
    state = dataclasses.replace(initial_state(profile_k1(2.0), wiggly_circle(N=32)), tau=tau)
    with pytest.raises(ValueError) as exc:
        step(state, StepControl(t_end=1.0))
    assert not isinstance(exc.value, StepTooSmallError)
    assert str(exc.value) == f"no time left to step: tau={tau!r} reaches t_end=1.0"


def test_step_ends_exactly_at_t_end():
    state = dataclasses.replace(initial_state(profile_k1(2.0), wiggly_circle(N=32)), tau=1.0 - 1e-3)
    assert 1e-3 < 0.8 * stable_dt_bound(state)  # the time left binds, not the limit
    new = step(state, StepControl(t_end=1.0))
    assert new.tau == 1.0
    assert new.last_dt == 1.0 - state.tau


def test_stable_dt_bound_scales_with_grid():
    prof = profile_k1(2.0)
    bounds = []
    for N in (32, 64):
        bounds.append(stable_dt_bound(initial_state(prof, sphere_graph(SphericalGrid.circle(N), 1.0))))
    assert_allclose(bounds[0] / bounds[1], 4.0, rtol=1e-10)


def test_zonal_bound_ignores_longitude():
    grid = SphericalGrid.sphere(16, 256)  # absurdly fine longitude
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
    graph = sphere_graph(grid, 1.0)
    column = initial_state(prof, graph)
    assert column.graph.grid == grid.zonal_column
    full = dataclasses.replace(column, graph=graph)
    b_zonal = stable_dt_bound(column)
    b_generic = stable_dt_bound(full)
    assert b_zonal > 20.0 * b_generic  # sin^2 near the poles throttles the generic bound
    field, A = full.field, full.speed_coefficient
    D = A * sigma_k_partials(field.kappa, 2).max(axis=-1) / (field.r * field.rho)
    assert_allclose(b_zonal, REAL_LIMIT * (3.0 / 16.0) * grid.h_theta**2 / D.max(), rtol=1e-12)


def test_polynomial_solves_its_defining_equations():
    # ETA is RKC(4)'s damping, and the engine's stage coefficients are
    # Newton's solution to 1e-13
    assert abs(ETA - T4_DAMPING) < 5e-7
    assert_allclose((X1, X2), (4.7198946, 9.8247403), rtol=1e-7)
    assert abs(STAGE_C2 / 2.0 - A3) <= 1e-13
    assert abs(STAGE_C1 * STAGE_C2 / 2.0 - A4) <= 1e-13


def test_real_limit_closed_form():
    # the limit is where R(-x) climbs back to 1: R(-x) - 1 = x (a4 x^3 - a3 x^2
    # + x/2 - 1), whose cubic has one real root.  |R(-x)| <= 1 on [0, L]
    # (R(-L) = 1 up to round-off), damped to ETA on [1, X2]; past L it climbs
    # above 1
    z = REAL_LIMIT
    roots = np.roots([A4, -A3, 0.5, -1.0])
    assert np.isreal(roots).sum() == 1
    assert_allclose(z, roots[np.isreal(roots)].real, rtol=1e-13)
    assert_allclose(z, 11.869290077999935, rtol=1e-13)
    x = np.linspace(0.0, z, 200_001)
    assert np.abs(stability_R(-x)).max() <= 1.0 + 1e-13
    assert abs(stability_R(-z) - 1.0) <= 1e-13
    past_one = x[(x >= 1.0) & (x <= X2)]
    assert_allclose(np.abs(stability_R(-past_one)).max(), ETA, rtol=1e-9)
    assert abs(stability_R(-1.02 * z)) > 1.0


def test_stage_coefficients_give_the_polynomial():
    # the two-register stages multiply out to R: c2/2 = a3 and c1 c2/2 = a4
    assert_allclose(stage_polynomials()[-1].coef, [1.0, 1.0, 0.5, A3, A4], rtol=1e-13, atol=0.0)


def test_internal_stage_polynomials_stay_bounded():
    # each stage's own amplification R_1..R_3 stays within 1 on [-L, 0] too,
    # so no stage amplifies a stiff mode on its way to phi1
    x = np.linspace(0.0, REAL_LIMIT, 200_001)
    for poly in stage_polynomials()[:3]:
        assert np.abs(poly(-x)).max() <= 1.0


def test_rk4_real_limit_is_the_cubic_root():
    # the oracle's limit
    z = RK4_REAL_LIMIT
    roots = np.roots([1.0, 4.0, 12.0, 24.0])
    assert_allclose(-z, roots[np.isreal(roots)].real, rtol=1e-14)
    R = 1.0 - z + z**2 / 2.0 - z**3 / 6.0 + z**4 / 24.0  # RK4's R(-z)
    assert abs(R - 1.0) < 1e-14


def _fd_jacobian(profile, graph):
    """rhs's Jacobian in phi, by central differences."""
    phi0, eps = graph.phi, 1e-6
    J = np.empty((phi0.size, phi0.size))
    for j in range(phi0.size):
        d = np.zeros(phi0.size)
        d[j] = eps
        d = d.reshape(phi0.shape)
        up = rhs(profile, RadialGraph(graph.grid, phi0 + d), 0.0)
        down = rhs(profile, RadialGraph(graph.grid, phi0 - d), 0.0)
        J[:, j] = ((up - down) / (2.0 * eps)).ravel()
    return J


SPECTRUM_CASES = [("curve", amp) for amp in (0.0, 0.1, 0.3)] + [("surface", amp) for amp in (0.0, 1e-3, 0.05)]
SPECTRUM_IDS = [f"{w}-{a:g}" for w, a in SPECTRUM_CASES]


@functools.cache
def _bound_and_spectrum(where, amp):
    """(stable_dt_bound, eigenvalues of the Jacobian) of a SPECTRUM_CASES entry.

    The full grid's longitude modes count, so the surface is evaluated on
    its full grid, not its stage, even when its data are zonal.
    """
    if where == "curve":
        profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0)
        graph = _curve(64, amp)
    else:
        profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
        graph = _surface(16, 32, zonal=False, amp=amp)
    state = FlowState(tau=0.0, graph=graph, step_count=0, last_dt=0.0, profile=profile)
    return stable_dt_bound(state), np.linalg.eigvals(_fd_jacobian(profile, graph))


@pytest.mark.parametrize("where, amp", SPECTRUM_CASES, ids=SPECTRUM_IDS)
def test_dt_bound_is_the_real_limit_over_measured_spectral_radius(where, amp):
    # the bound times the Jacobian's spectral radius is the polynomial's
    # real-axis limit L, reached on the round curve (measured 11.327-11.869
    # on the curve, 11.334-11.786 on the surface)
    bound, eigs = _bound_and_spectrum(where, amp)
    product = bound * float(np.abs(eigs).max())
    assert 0.9 * REAL_LIMIT <= product <= REAL_LIMIT * (1.0 + 1e-6), product


@pytest.mark.parametrize("where, amp", SPECTRUM_CASES, ids=SPECTRUM_IDS)
def test_cfl_one_keeps_every_measured_eigenvalue_stable(where, amp):
    # |R(dt lambda)| <= 1 at dt = the bound for every eigenvalue of the
    # measured Jacobian, R being the engine's stability polynomial; the
    # spectra are real to 4e-8, and max|R| is 1 - 1e-10 on the curves and
    # 1 - 5e-4 on the surfaces, both from the slowest mode's near-zero
    # eigenvalue (the round curve's top eigenvalue, at L itself, reads 1 - 6e-10)
    bound, eigs = _bound_and_spectrum(where, amp)
    assert float(np.abs(stability_R(bound * eigs)).max()) <= 1.0 + 1e-12


@pytest.mark.parametrize("where, amp", SPECTRUM_CASES, ids=SPECTRUM_IDS)
def test_dt_bound_is_rk4_limit_over_measured_spectral_radius(where, amp):
    # the RK4 oracle's bound, RK4_FRACTION of the engine's, times the
    # Jacobian's spectral radius is RK4's real-axis limit, and classic RK4's
    # |R| stays <= 1 over the measured spectrum there
    bound, eigs = _bound_and_spectrum(where, amp)
    z = RK4_FRACTION * bound * eigs
    product = float(np.abs(z).max())
    assert 0.9 * RK4_REAL_LIMIT <= product <= RK4_REAL_LIMIT * (1.0 + 1e-6), product
    R = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    assert float(np.abs(R).max()) <= 1.0 + 1e-12


def test_cfl_one_is_stable_and_matches_the_default(monkeypatch):
    # a step fraction of 1 steps at the linear limit itself; at 1.02x the
    # limit this run's r_max rises by 8.3 between records and phi is off by
    # 1.6.  The two runs differ by the second-order time error (measured 6.6e-8)
    profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0)
    state = initial_state(profile, _curve(256, 0.3))
    default = run(state, StepControl(t_end=0.5))
    monkeypatch.setattr(flow_engine, "STEP_FRACTION", 1.0)  # step reads it at call time
    full = run(state, StepControl(t_end=0.5))
    assert full.reason == "t_end" and full.state.tau == default.state.tau == 0.5
    assert full.state.step_count < default.state.step_count
    assert np.diff(full.series.column("r_max")).max() <= 1e-9
    assert np.abs(full.state.graph.phi - default.state.graph.phi).max() <= 1e-6


def test_zonality_is_preserved_by_steps():
    # a state built by hand steps on the full grid it is given, and every
    # stencil and coefficient is longitude-uniform there
    grid = SphericalGrid.sphere(16, 32)
    t = grid.theta[:, None]
    prof = SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0)
    phi0 = np.broadcast_to(np.log(1.0 + 0.05 * np.cos(2 * t)), grid.shape).copy()
    state = FlowState(tau=0.0, graph=RadialGraph(grid, phi0), step_count=0, last_dt=0.0, profile=prof)
    for _ in range(5):
        state = step(state, StepControl(t_end=10.0))
    assert state.graph.grid == grid
    assert is_zonal(state.graph)


# ---------------------------------------------------------------------------
# the zonal strip: a bit-exactly zonal state lives on one column, and every
# result must equal the full grid's bit for bit


def _full_graph(graph):
    """graph on the full grid: a zonal column's graph repeated over its sphere grid's longitudes."""
    if isinstance(graph.grid, ZonalColumn):
        return RadialGraph(graph.grid.sphere, np.repeat(graph.phi, graph.grid.n_lon, axis=1))
    return graph


def _zonal_expflat_state():
    profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    return initial_state(profile, _surface(32, 64, zonal=True), validate_regime=False)


def _full_grid_step(state, control):
    """(phi, dt) of one engine step built from rhs on the full grid, at the
    dt of the state's own grid."""
    graph = _full_graph(state.graph)
    profile, grid, tau0, phi0 = state.profile, graph.grid, state.tau, graph.phi
    k1 = rhs(profile, graph, tau0)
    dt = min(control.dt_max, STEP_FRACTION * stable_dt_bound(dataclasses.replace(state)))
    t1, t2, t3 = tau0 + STAGE_C1 * dt, tau0 + STAGE_C2 * dt, tau0 + 0.5 * dt
    u1 = phi0 + (STAGE_C1 * dt) * k1
    k2 = rhs(profile, RadialGraph(grid, u1), t1)
    u2 = phi0 + (STAGE_C2 * dt) * k2
    k3 = rhs(profile, RadialGraph(grid, u2), t2)
    u3 = phi0 + (0.5 * dt) * k3
    k4 = rhs(profile, RadialGraph(grid, u3), t3)
    return phi0 + dt * k4, dt


def _on_full_grid(state):
    """A copy of state built by hand on its full grid."""
    return dataclasses.replace(state, graph=_full_graph(state.graph))


def test_only_zonal_states_take_the_strip():
    zonal = _zonal_expflat_state()
    full = _surface(32, 64, zonal=True)
    assert zonal.graph.grid == full.grid.zonal_column == ZonalColumn(32, 64)
    assert zonal.graph.phi.tobytes() == full.phi[:, :1].copy().tobytes()
    assert zonal.field.r.shape == (32, 1)
    state = initial_state(zonal.profile, _surface(32, 64, zonal=False))
    assert state.graph.grid == full.grid
    assert state.field.r.shape == (32, 64)
    assert not is_zonal(step(state, StepControl(t_end=10.0)).graph)


def test_a_state_built_by_hand_steps_on_the_grid_it_is_given():
    # zonality is decided where states are made from outside, not by step:
    # the full grid's dt bound adds the longitude spacing
    zonal = _zonal_expflat_state()
    control = StepControl(t_end=10.0)
    on_column, on_full = step(zonal, control), step(_on_full_grid(zonal), control)
    assert on_column.graph.grid == ZonalColumn(32, 64)
    assert on_full.graph.grid == SphericalGrid.sphere(32, 64)
    assert on_column.last_dt > 100.0 * on_full.last_dt


def test_zonal_step_equals_full_grid_step_bitwise():
    state = _zonal_expflat_state()
    control = StepControl(t_end=10.0)
    for _ in range(3):
        ref_phi, ref_dt = _full_grid_step(state, control)
        state = step(state, control)
        assert state.last_dt == ref_dt
        assert state.graph.phi.shape == (32, 1)
        assert np.array_equal(np.repeat(state.graph.phi, 64, axis=1), ref_phi)


def test_zonal_record_equals_full_grid_record():
    state = _zonal_expflat_state()
    for _ in range(2):
        strip_row = diagnostics_row(state)
        full_row = diagnostics_row(_on_full_grid(state))
        assert state.field.r.shape == (32, 1)
        assert strip_row == full_row
        state = step(state, StepControl(t_end=10.0))


def test_zonal_cone_exit_matches_full_grid():
    grid = SphericalGrid.sphere(32, 64)
    t = grid.theta[:, None]
    graph = RadialGraph(grid, np.broadcast_to(np.log(1.0 + 0.7 * np.cos(2 * t)), grid.shape).copy())
    state = dataclasses.replace(_zonal_expflat_state(), graph=reduce_zonal(graph), tau=0.25)
    with pytest.raises(ConeViolationError) as full:
        rhs(state.profile, graph, state.tau)
    with pytest.raises(ConeViolationError) as strip:
        step(state, StepControl(t_end=10.0))
    assert state.field.r.shape == (32, 1)
    assert full.value.node[1] == 0
    assert (strip.value.node, strip.value.margin, strip.value.tau) == (
        full.value.node,
        full.value.margin,
        full.value.tau,
    )


def test_stepped_zonal_states_carry_their_column():
    # a zonal state is stepped on its column and the next state lives there
    # too, with the column's (N_lat, 1) phi
    state = _zonal_expflat_state()
    column = state.graph.grid
    for _ in range(4):
        state = step(state, StepControl(t_end=10.0))
        assert state.graph.grid is column
        assert state.graph.phi.shape == (32, 1)


def test_stepped_nonzonal_state_stages_on_its_full_grid():
    profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    state = initial_state(profile, _surface(32, 64, zonal=False), validate_regime=False)
    grid = state.graph.grid
    for _ in range(2):
        state = step(state, StepControl(t_end=10.0))
        assert state.graph.grid is grid and state.graph.phi.shape == (32, 64)


def _count_zonality_scans(monkeypatch, make_state):
    """(is_zonal calls while make_state() makes a state, calls in a 12-step
    run from it, which builds every FlowState field it reads)."""
    calls = []
    scan = sphere_geometry.is_zonal
    monkeypatch.setattr(sphere_geometry, "is_zonal", lambda graph: calls.append(graph) or scan(graph))
    start = make_state()
    made = len(calls)
    result = run(start, StepControl(t_end=10.0, max_steps=12, record_every=5))
    assert result.state.step_count == 12 and len(result.series) == 4
    return made, len(calls) - made


def test_zonal_run_scans_for_zonality_once(monkeypatch, tmp_path):
    # initial_state's scan and load_checkpoint's; none in run, step or FlowState
    assert _count_zonality_scans(monkeypatch, _zonal_expflat_state) == (1, 0)
    save_checkpoint(_zonal_expflat_state(), tmp_path / "chk.txt")  # written on the full grid
    assert _count_zonality_scans(monkeypatch, lambda: load_checkpoint(tmp_path / "chk.txt")) == (1, 0)


def test_nonzonal_run_scans_for_zonality_once(monkeypatch):
    # initial_state's scan; none in run, step or FlowState
    profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    start = functools.partial(initial_state, profile, _surface(16, 32, zonal=False), validate_regime=False)
    assert _count_zonality_scans(monkeypatch, start) == (1, 0)


def test_a_record_and_the_next_first_stage_share_the_speed_terms(monkeypatch):
    # eval_scaled, looked up through its module name as perfbench's tracer
    # wraps it, runs once per evaluated state: each step's four stages and
    # the final state, which a record reads but no step follows
    calls = dict.fromkeys(("eval_scaled", "rhs", "weingarten"), 0)
    for module, name in ((speed_profile, "eval_scaled"), (flow_engine, "rhs"), (flow_engine, "weingarten")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    start = initial_state(profile, _surface(16, 32, zonal=False), validate_regime=False)
    result = run(start, StepControl(t_end=10.0, max_steps=12, record_every=5))
    assert len(result.series) == 4  # steps 0, 5, 10 and the final 12
    assert calls == {"eval_scaled": 49, "rhs": 48, "weingarten": 49}
    # the shared A has the bits of the one the first stage builds itself
    unrecorded = run(dataclasses.replace(start), StepControl(t_end=10.0, max_steps=12, record_every=10**9))
    assert result.state.graph.phi.tobytes() == unrecorded.state.graph.phi.tobytes()
    state = result.state
    assert "speed_coefficient" in vars(state)
    # the A a stage's rhs builds itself from the graph alone
    A = flow_engine._speed_coefficient(profile, state.graph, weingarten(state.graph), state.tau)
    assert A.tobytes() == state.speed_coefficient.tobytes()


@pytest.mark.parametrize("zonal", [None, True, False], ids=["circle", "zonal", "nonzonal"])
@pytest.mark.parametrize("g", [ZeroG(), ExpFlatG(1.0)], ids=["pure", "expflat"])
def test_recorded_speed_factor_is_f_times_sigma_k_to_the_alpha(zonal, g):
    # the record takes Phi as u (A sigma_k^alpha); to rounding it is the
    # defining f sigma_k^alpha with f = r^beta + lam^beta g(r/lam)
    if zonal is None:
        profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=3.0, g=g)
        grid = SphericalGrid.circle(64)
        graph = RadialGraph(grid, 0.1 * np.cos(3.0 * grid.theta))
    else:
        profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=g)
        graph = _surface(32, 64, zonal)
    state = step(initial_state(profile, graph, validate_regime=False), StepControl(t_end=10.0))
    field = state.field
    f = field.r**profile.beta + eval_scaled(profile, lambda_of_tau(profile, state.tau), field.r)
    big_phi = f * field.sigma[..., profile.k - 1] ** profile.alpha
    row = diagnostics_row(state)
    assert row["phi_min_cap"] == pytest.approx(big_phi.min(), rel=1e-14)
    assert row["phi_max_cap"] == pytest.approx(big_phi.max(), rel=1e-14)


FIELD_ARRAYS = ("r", "rho", "grad_sq", "sigma", "kappa", "u")


@pytest.mark.parametrize("where", ["circle", "zonal", "nonzonal"])
def test_no_kernel_writes_into_an_array_it_was_handed(where):
    # the stage arithmetic writes into its own temporaries only: a state's
    # graphs and its field, which a record and the next step's first stage
    # share, keep their bytes through every kernel
    if where == "circle":
        profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=3.0, g=ExpFlatG(1.0))
        graph = wiggly_circle()
    else:
        profile = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
        graph = _surface(32, 64, zonal=where == "zonal")
    start = dataclasses.replace(initial_state(profile, graph, validate_regime=False), tau=0.25)
    state, unread = start, dataclasses.replace(start)
    field, lazy = state.field, unread.field
    arrays = [state.graph.phi] + [getattr(field, name) for name in FIELD_ARRAYS]
    kept = [a.tobytes() for a in arrays]
    weingarten(state.graph)
    rhs(profile, state.graph, state.tau)
    rhs(profile, state.graph, state.tau, field=field)
    rhs(profile, unread.graph, unread.tau, field=lazy)
    step(state, StepControl(t_end=10.0))
    diagnostics_row(state)
    assert [a.tobytes() for a in arrays] == kept
    # kappa and u first read after an rhs on their field have the same bytes
    assert "kappa" not in vars(lazy) and "u" not in vars(lazy)
    for name in FIELD_ARRAYS:
        assert getattr(lazy, name).tobytes() == getattr(field, name).tobytes(), name


# ---------------------------------------------------------------------------
# bit-identity guard: the engine's stages against a plain transcription of the
# stage arithmetic, which builds everything the stages once built


def _ref_d1(P, h):
    w1, w2 = 8.0 / (12.0 * h), 1.0 / (12.0 * h)
    return w1 * (P[3:-1] - P[1:-3]) - w2 * (P[4:] - P[:-4])


def _ref_d2(P, h):
    C = P[2:-2]
    w3, w4 = 16.0 / (12.0 * h * h), 1.0 / (12.0 * h * h)
    return w3 * ((P[1:-3] - C) + (P[3:-1] - C)) - w4 * ((P[:-4] - C) + (P[4:] - C))


def _ref_pad_periodic(F):
    return np.concatenate((F[-2:], F, F[:2]))


def _ref_pad_lat(F, n_lon):
    half = n_lon // 2
    P = np.empty((F.shape[0] + 4, n_lon))
    P[2:-2] = F
    P[1] = np.roll(F[0], half)
    P[0] = np.roll(F[1], half)
    P[-2] = np.roll(F[-1], half)
    P[-1] = np.roll(F[-2], half)
    return P


def _ref_weingarten(graph):
    """(r, rho, kappa, sigma) with the packed gradient and Hessian and every
    product formed where the formula names it."""
    grid, phi = graph.grid, graph.phi
    r = np.exp(phi)
    if grid.n == 1:
        P = _ref_pad_periodic(phi)
        phi_d, phi_dd = _ref_d1(P, grid.h_theta), _ref_d2(P, grid.h_theta)
        rho2 = 1.0 + phi_d * phi_d
        rho = np.sqrt(rho2)
        kappa = (1.0 + phi_d * phi_d - phi_dd) / (r * rho * rho2)
        return r, rho, kappa[:, None].copy(), kappa[:, None].copy()
    t = grid.theta
    sin_t, cos_t = np.sin(t)[:, None], np.cos(t)[:, None]
    ht, hp = grid.h_theta, grid.h_phi
    P = _ref_pad_lat(phi, grid.n_lon)
    Q = _ref_pad_periodic(phi.T)
    F_t, F_tt = _ref_d1(P, ht), _ref_d2(P, ht)
    F_p, F_pp = _ref_d1(Q, hp).T, _ref_d2(Q, hp).T
    F_tp = _ref_d1(_ref_pad_lat(F_p, grid.n_lon), ht)
    grad = np.stack([F_t, F_p], axis=-1)
    hess = np.empty(grid.shape + (2, 2))
    hess[..., 0, 0] = F_tt
    hess[..., 0, 1] = hess[..., 1, 0] = F_tp - (cos_t / sin_t) * F_p
    hess[..., 1, 1] = F_pp + (sin_t * cos_t) * F_t
    p_t, p_p = grad[..., 0], grad[..., 1]
    sin2 = sin_t * sin_t
    grad2 = p_t * p_t + p_p * p_p * (1.0 / sin2)
    rho2 = 1.0 + grad2
    rho = np.sqrt(rho2)
    E11, E12, E22 = 1.0 + p_t * p_t, p_t * p_p, sin2 + p_p * p_p
    B11, B12, B22 = E11 - hess[..., 0, 0], E12 - hess[..., 0, 1], E22 - hess[..., 1, 1]
    # adj(E) B' = [[N11, N12], [N21, N22]]
    N11 = E22 * B11 - E12 * B12
    N12 = E22 * B12 - E12 * B22
    N21 = E11 * B12 - E12 * B11
    N22 = E11 * B22 - E12 * B12
    den = sin2 * rho2 * (r * rho)  # det E * r rho
    sigma = np.stack([(N11 + N22) / den, (B11 * B22 - B12 * B12) / (den * (r * rho))], axis=-1)
    mean = 0.5 * (N11 + N22) / den
    disc = np.sqrt(np.maximum((0.5 * (N11 - N22)) ** 2 + N12 * N21, 0.0)) / den
    kappa = np.stack([mean + disc, mean - disc], axis=-1)
    return r, rho, kappa, sigma


def _ref_stage(profile, graph, lam):
    """(d phi/d tau, A, r, rho, kappa, sigma), eval_scaled called whatever g is."""
    k, alpha = profile.k, profile.alpha
    r, rho, kappa, sigma = _ref_weingarten(graph)
    assert (k == 1 and alpha == 1.0) or sigma[..., :k].min() > CONE_EPS
    A = np.exp((profile.beta - 1.0) * graph.phi) * rho + (rho / r) * eval_scaled(profile, lam, r)
    power = sigma[..., k - 1] if alpha == 1.0 else np.power(sigma[..., k - 1], alpha)
    return -A * power + profile.gamma, A, r, rho, kappa, sigma


def _ref_dt_bound(profile, grid, phi, A, r, rho, kappa, sigma):
    """The engine's linear stability limit, the largest partial taken by a reduction
    over the partials' last axis and zonality by a zero peak-to-peak per row."""
    k, alpha = profile.k, profile.alpha
    D = A * sigma_k_partials(kappa, k).max(axis=-1) / (r * rho)
    if alpha != 1.0:
        D = alpha * np.power(sigma[..., k - 1], alpha - 1.0) * D
    if grid.n == 1 or float(np.ptp(phi, axis=1).max()) == 0.0:
        d_over_h2 = D.max() / grid.h_theta**2
    else:
        sin2 = np.sin(grid.theta)[:, None] ** 2
        d_over_h2 = ((1.0 / grid.h_theta**2 + 1.0 / (grid.h_phi**2 * sin2)) * D).max()
    return float(REAL_LIMIT / ((16.0 / 3.0) * d_over_h2))


def _ref_step(state, control):
    """(phi, dt) of one engine step with a validated RadialGraph per stage."""
    profile, grid = state.profile, state.graph.grid
    gamma = profile.gamma

    def stage(phi, tau):
        return _ref_stage(profile, RadialGraph(grid, phi), math.exp(gamma * tau))

    tau0, phi0 = state.tau, state.graph.phi
    k1, A, r, rho, kappa, sigma = stage(phi0, tau0)
    dt = min(control.dt_max, STEP_FRACTION * _ref_dt_bound(profile, grid, phi0, A, r, rho, kappa, sigma))
    u1 = phi0 + (STAGE_C1 * dt) * k1
    u2 = phi0 + (STAGE_C2 * dt) * stage(u1, tau0 + STAGE_C1 * dt)[0]
    u3 = phi0 + (0.5 * dt) * stage(u2, tau0 + STAGE_C2 * dt)[0]
    return phi0 + dt * stage(u3, tau0 + 0.5 * dt)[0], dt


# ---------------------------------------------------------------------------
# the RK4 oracle: classic RK4 from rhs on the full grid, at STEP_FRACTION of its own
# limit, against which the engine's trajectories are checked at fixed horizons


def _rk4_step(state, control):
    """(phi, dt) of one classic RK4 step, dt = min(dt_max, STEP_FRACTION * RK4's limit, t_end - tau)."""
    profile, grid, tau0, phi0 = state.profile, state.graph.grid, state.tau, state.graph.phi
    k1 = rhs(profile, state.graph, tau0)
    # the engine's bound, which drops a zonal graph's longitude on its column
    bound = stable_dt_bound(dataclasses.replace(state, graph=reduce_zonal(state.graph)))
    dt = min(control.dt_max, STEP_FRACTION * RK4_FRACTION * bound, control.t_end - tau0)
    half, tau1 = tau0 + 0.5 * dt, tau0 + dt
    k2 = rhs(profile, RadialGraph(grid, phi0 + (0.5 * dt) * k1), half)
    k3 = rhs(profile, RadialGraph(grid, phi0 + (0.5 * dt) * k2), half)
    k4 = rhs(profile, RadialGraph(grid, phi0 + dt * k3), tau1)
    return phi0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), dt


def _rk4_final_phi(state, control):
    """phi at control.t_end by RK4 oracle steps on the full grid."""
    state = _on_full_grid(state)
    while state.tau < control.t_end - 1e-15:
        phi, dt = _rk4_step(state, control)
        state = dataclasses.replace(state, tau=state.tau + dt, graph=RadialGraph(state.graph.grid, phi))
    return state.graph.phi


def _curve(N, amp):
    grid = SphericalGrid.circle(N)
    return RadialGraph(grid, np.log(1.0 + amp * np.cos(2.0 * grid.theta)))


def _surface(n_lat, n_lon, zonal, amp=1e-3):
    grid = SphericalGrid.sphere(n_lat, n_lon)
    t = grid.theta[:, None]
    phi = np.broadcast_to(np.log(1.0375 + 0.1125 * np.cos(2.0 * t)), grid.shape).copy()
    if not zonal:
        phi = phi + amp * np.sin(t) ** 2 * np.cos(2.0 * grid.phi_lon)[None, :]
    return RadialGraph(grid, phi)


DT_BOUND_CASES = [
    (where, k, alpha)
    for where in ("curve", "zonal-strip", "nonzonal")
    for k in (1, 2)
    for alpha in (1.0, 2.0)
    if not (where == "curve" and k == 2)
]


@pytest.mark.parametrize("where, k, alpha", DT_BOUND_CASES, ids=[f"{w}-k{k}-a{a:g}" for w, k, a in DT_BOUND_CASES])
def test_dt_bound_equals_last_axis_max_reference(where, k, alpha):
    n = 1 if where == "curve" else 2
    profile = SpeedProfile(n=n, k=k, alpha=alpha, beta=2.0 + k * alpha, g=ExpFlatG(1.0))
    graph = _curve(128, 0.1) if where == "curve" else _surface(32, 64, zonal=where == "zonal-strip")
    state = initial_state(profile, graph, validate_regime=False)
    graph = state.graph
    assert graph.phi.shape == {"curve": (128,), "zonal-strip": (32, 1), "nonzonal": (32, 64)}[where]
    bound = stable_dt_bound(state)
    field, A = state.field, state.speed_coefficient
    if k == 1:  # all-ones partials: no principal curvatures needed
        assert "kappa" not in field.__dict__
    ref = _ref_dt_bound(profile, graph.grid, graph.phi, A, field.r, field.rho, field.kappa, field.sigma)
    assert bound == ref


def _ptp_zonal(graph):
    """is_zonal by a zero peak-to-peak along every row."""
    return graph.grid.n == 2 and float(np.ptp(graph.phi, axis=1).max()) == 0.0


def _is_zonal_cases():
    grid = SphericalGrid.sphere(16, 32)
    col = np.log(1.0 + 0.1 * np.cos(2.0 * grid.theta))
    zonal = np.broadcast_to(col[:, None], grid.shape).copy()
    signed = np.zeros(grid.shape)
    signed[3, 0] = signed[5, 9] = -0.0  # equal to 0.0, in the first column and elsewhere
    ulp = zonal.copy()
    ulp[4, 9] = np.nextafter(ulp[4, 9], np.inf)
    return {
        "zonal": (RadialGraph(grid, zonal), True),
        "signed-zero": (RadialGraph(grid, signed), True),
        "one-ulp": (RadialGraph(grid, ulp), False),
        "nonzonal": (_surface(16, 32, zonal=False), False),
        "curve": (RadialGraph(SphericalGrid.circle(16), np.zeros(16)), False),
    }


@pytest.mark.parametrize("case", ["zonal", "signed-zero", "one-ulp", "nonzonal", "curve"])
def test_is_zonal_agrees_with_zero_peak_to_peak(case):
    graph, expected = _is_zonal_cases()[case]
    assert is_zonal(graph) is expected
    assert _ptp_zonal(graph) is expected


# one case per branch the stages specialize: g = 0 (no eval_scaled), the cone
# gate off and on, alpha = 1 and not, n = 1 and 2, zonal and pole-bound dt
LEAN_STAGE_CASES = {
    "n1-zero-k1a1": (SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0), _curve(256, 0.3)),
    "n1-alpha2-gate": (SpeedProfile(n=1, k=1, alpha=2.0, beta=3.5), _curve(128, 0.1)),
    "n1-monomial": (SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=MonomialG(5.0)), _curve(128, 0.2)),
    "n2-k2-expflat-zonal": (
        SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0)),
        _surface(32, 64, zonal=True),
    ),
    "n2-bump-nonzonal": (
        SpeedProfile(n=2, k=2, alpha=1.0, beta=3.0, g=BumpG(epsilon=0.5, p=1.0)),
        _surface(16, 32, zonal=False),
    ),
    "n2-k1-alpha2": (SpeedProfile(n=2, k=1, alpha=2.0, beta=3.5), _surface(16, 32, zonal=False)),
}


@pytest.mark.parametrize("case", sorted(LEAN_STAGE_CASES))
def test_step_matches_reference_stages_bitwise(case):
    profile, graph = LEAN_STAGE_CASES[case]
    # from tau = 0.25, so that every stage's lam = exp(gamma*tau), which rhs
    # derives from tau, is above 1
    state = dataclasses.replace(initial_state(profile, graph, validate_regime=False), tau=0.25)
    control = StepControl(t_end=10.0)
    for _ in range(4):
        # the stage values themselves: with a small dt, a last-bit change in
        # a stage can vanish in phi + dt * k.  The reference runs on the full
        # grid, and a zonal column's values repeat over its longitudes
        full = _full_graph(state.graph)
        out, field = rhs(profile, state.graph, state.tau), state.field
        got = (out, state.speed_coefficient, field.r, field.rho, field.kappa, field.sigma)
        for value, ref in zip(got, _ref_stage(profile, full, math.exp(profile.gamma * state.tau))):
            assert np.array_equal(np.broadcast_to(value, ref.shape), ref)
        ref_phi, ref_dt = _ref_step(dataclasses.replace(state, graph=full), control)
        state = step(state, control)
        assert state.last_dt == ref_dt
        assert np.array_equal(np.broadcast_to(state.graph.phi, ref_phi.shape), ref_phi)


EXPFLAT_K2 = SpeedProfile(n=2, k=2, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
# the benchmark workloads' seed-0 data, the checkpoints of its path, the last
# one the end, and the bar on the worst max|dphi| over them
ORACLE_CASES = {
    "curve_nonconvex": (SpeedProfile(n=1, k=1, alpha=1.0, beta=2.0), _curve(256, 0.3), (0.05, 0.1, 0.25, 0.5, 1.0), 1e-6),
    "zonal_expflat": (EXPFLAT_K2, _surface(32, 64, zonal=True), (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 6.0), 6e-5),
    "nonzonal_pole": (EXPFLAT_K2, _surface(32, 64, zonal=False), (0.0005, 0.001, 0.0025, 0.005), 1e-6),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_fixed_horizon_phi_matches_rk4_oracle(case):
    # second order against fourth along the whole path, where the transient
    # is: the engine (successive runs) and the oracle (successive passes)
    # land on each checkpoint.  Measured worst max|dphi| 4.3e-7, 5.7e-5 and
    # 1.2e-10, and at the end 3.5e-8, 6.2e-8 and 1.2e-10, within 1e-6
    profile, graph, checkpoints, bar = ORACLE_CASES[case]
    engine = oracle = initial_state(profile, graph)
    errors = []
    for t_end in checkpoints:
        result = run(engine, StepControl(t_end=t_end, record_every=10**9))
        assert result.reason == "t_end"
        engine = result.state
        phi = _rk4_final_phi(oracle, StepControl(t_end=t_end))
        oracle = dataclasses.replace(oracle, tau=t_end, graph=RadialGraph(graph.grid, phi))
        errors.append(np.abs(engine.graph.phi - phi).max())
    assert max(errors) <= bar
    assert errors[-1] <= 1e-6


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


def test_run_ends_a_flat_speed_past_the_float_range_as_a_speed_range_error():
    # a circle at phi = 400 with g = r^2 exp(-1/r) (n = k = alpha = 1, beta = 2):
    # lam^beta g(r/lam) is e^800 at tau = 0.  The run ends typed and without
    # an overflow warning, which pyproject's filter would make an error too
    graph = RadialGraph(SphericalGrid.circle(64), np.full(64, 400.0))
    state = initial_state(profile_k1(2.0, ExpFlatG(1.0)), graph, validate_regime=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SpeedRangeError) as exc:
            run(state, StepControl(t_end=0.1))
    assert not caught
    assert isinstance(exc.value.__cause__, ScaleOverflowError)
    assert exc.value.tau == 0.0 and exc.value.state is state
    assert str(exc.value) == f"rescaled g overflows: lam=1.0, r={float(graph.r()[0])!r} (at tau=0)"
    # the pure-power sphere at the same radius runs
    assert run(initial_state(profile_k1(2.0), graph), StepControl(t_end=0.1)).reason == "t_end"


@pytest.mark.parametrize("mode", ["always", "error"])
def test_run_ends_a_monomial_speed_past_the_float_range_as_a_speed_range_error(mode):
    # a circle at phi = 178 with g = r^4 (n = k = alpha = 1, beta = 3):
    # lam^beta g(r/lam) is e^712 at tau = 0, under either warning filter
    graph = RadialGraph(SphericalGrid.circle(64), np.full(64, 178.0))
    state = initial_state(profile_k1(3.0, MonomialG(4.0)), graph, validate_regime=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(mode)
        with pytest.raises(SpeedRangeError) as exc:
            run(state, StepControl(t_end=0.1))
    assert not caught
    assert isinstance(exc.value.__cause__, ScaleOverflowError)
    assert exc.value.tau == 0.0
    assert str(exc.value) == f"rescaled g overflows: lam=1.0, r={float(graph.r()[0])!r} (at tau=0)"


def test_run_ends_a_normalization_factor_past_the_float_range_as_a_speed_range_error():
    # an admissible flat g (n = k = alpha = 1, beta = 3): lam = exp(tau)
    # leaves the float range at tau = 709.78, where lam^beta g(r/lam) is still 0
    prof = profile_k1(3.0, ExpFlatG(1.0))
    for profile in (prof, SpeedProfile(n=2, k=1, alpha=1.5, beta=4.0)):  # gamma 1 and 2^1.5
        for tau in (0.0, 0.3, 7.5, 200.0):
            assert_allclose(lambda_of_tau(profile, tau), math.exp(profile.gamma * tau), rtol=1e-15)
    with pytest.raises(ScaleOverflowError, match="overflows at tau=710.0"):
        lambda_of_tau(prof, 710.0)
    start = dataclasses.replace(initial_state(prof, wiggly_circle(N=16)), tau=709.0)
    with pytest.raises(SpeedRangeError) as exc:
        run(start, StepControl(t_end=711.0))
    assert isinstance(exc.value.__cause__, ScaleOverflowError)
    assert str(exc.value).startswith("normalization factor lam = exp(gamma*tau) overflows at tau=7")
    assert 709.0 <= exc.value.tau < 711.0 and exc.value.state.tau == exc.value.tau
    assert len(exc.value.series) > 0 and exc.value.series.last("tau") <= exc.value.tau


def test_run_ends_a_tabulated_speed_past_the_float_range_as_a_speed_range_error():
    # a table of g = r^6 (n = k = alpha = 1, beta = 4), run with validation off,
    # since its first cubic is not zero: at tau = 200 lam^beta is e^800, past
    # the float range already at the first record
    pts = np.linspace(0.0, 3.0, 301)
    prof = profile_k1(4.0, TabulatedG(pts, pts**6, 6.0 * pts**5))
    graph = sphere_graph(SphericalGrid.circle(16), 1.0)
    start = dataclasses.replace(initial_state(prof, graph, validate_regime=False), tau=200.0)
    with pytest.raises(SpeedRangeError) as exc:
        run(start, StepControl(t_end=201.0))
    assert isinstance(exc.value.__cause__, ScaleOverflowError)
    assert str(exc.value) == f"rescaled tabulated g overflows: lam={math.exp(200.0)!r}, r=1.0 (at tau=200)"
    assert exc.value.state is start and len(exc.value.series) == 0


def test_a_table_whose_origin_interval_is_zero_runs_to_the_unit_sphere():
    # a table of r^2 exp(-1/r) whose first cubic, on [0, 1e-3], is exactly 0;
    # late in the run lam^beta g(r/lam) reads only that cubic, so the g term is 0
    base = profile_k1(4.0, ExpFlatG(1.0))
    pts = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 500)])
    prof = profile_k1(4.0, TabulatedG(pts, *eval_g(base, pts)))
    graph = wiggly_circle(N=32)
    result = run(initial_state(prof, graph), StepControl(t_end=20.0))
    r = result.state.graph.r()
    assert result.reason == "t_end" and np.abs(r - 1.0).max() < 1e-12
    assert np.array_equal(eval_scaled(prof, lambda_of_tau(prof, result.state.tau), r), np.zeros_like(r))
    analytic = run(initial_state(base, graph), StepControl(t_end=20.0))
    assert np.abs(result.state.graph.phi - analytic.state.graph.phi).max() < 1e-12


@pytest.mark.parametrize("g", [ExpFlatG(0.1), ExpFlatG(0.3), BumpG(0.001, 0.1)], ids=repr)
def test_a_g_flat_to_all_orders_runs_to_the_unit_sphere(g):
    # g/r^4 falls from r = 1e-3 to 0.1 for these, but each is flat to all
    # orders at 0: the strict regime's theorem holds, and the run rounds out
    grid = SphericalGrid.circle(64)
    graph = RadialGraph(grid, np.log(1.0 + 0.1 * np.cos(2.0 * grid.theta)))
    result = run(initial_state(profile_k1(3.0, g), graph), StepControl(t_end=60.0))
    assert result.reason == "t_end" and np.abs(result.state.graph.r() - 1.0).max() < 1e-9


@pytest.mark.filterwarnings("error")
def test_a_run_from_outside_the_cone_ends_typed_with_a_finite_first_record():
    # alpha = 1/2: sigma_1^alpha is not real at the concave waist of
    # r = 1 + 0.3 cos 2theta, and the tau = 0 record comes before the cone gate
    grid = SphericalGrid.circle(64)
    graph = RadialGraph(grid, np.log(1.0 + 0.3 * np.cos(2.0 * grid.theta)))
    profile = SpeedProfile(n=1, k=1, alpha=0.5, beta=1.5)
    with pytest.raises(ConeViolationError) as exc:
        run(initial_state(profile, graph), StepControl(t_end=1.0))
    series = exc.value.series
    assert exc.value.tau == 0.0 and len(series) == 1
    assert np.isfinite([series.last(name) for name in COLUMNS]).all()
    # the record's power takes sigma_1's sign: the waist shows as a negative Phi
    assert series.last("phi_min_cap") < 0.0 < series.last("phi_max_cap")
    assert series.last("cone_margin") < 0.0


def test_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_max=-1.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, sphericity_stop=-1e-3)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, record_every=0)
    # nan would fail every "osc < stop" test, so the run would never stop there
    with pytest.raises(ValueError, match="sphericity_stop"):
        StepControl(t_end=1.0, sphericity_stop=math.nan)
    # record_every = 2.5 would record only at multiples of 5
    for bad in ({"record_every": 2.5}, {"record_every": 2.0}, {"max_steps": 1e5}):
        with pytest.raises(ValueError, match="integers"):
            StepControl(t_end=1.0, **bad)
    assert StepControl(t_end=1.0, record_every=np.int64(3)).record_every == 3


def test_initial_state_validation():
    prof = profile_k1(2.0)
    with pytest.raises(ValueError, match="dimension"):
        initial_state(prof, sphere_graph(SphericalGrid.sphere(16, 32), 1.0))
    bad = profile_k1(2.0, MonomialG(1.0))  # fails the equality-regime validator
    graph = sphere_graph(SphericalGrid.circle(32), 1.0)
    with pytest.raises(AdmissibilityError, match="scaling"):
        initial_state(bad, graph)
    state = initial_state(bad, graph, validate_regime=False)  # explicit override
    assert state.tau == 0.0 and lambda_of_tau(state.profile, state.tau) == 1.0
    huge = RadialGraph(graph.grid, np.full(graph.grid.shape, 710.0))  # exp(710) overflows
    for validate_regime in (True, False):
        with pytest.raises(ValueError, match="overflows"):
            initial_state(prof, huge, validate_regime=validate_regime)
    initial_state(prof, RadialGraph(graph.grid, np.full(graph.grid.shape, 709.0)))


@pytest.mark.parametrize("tau", [math.nan, math.inf, -5.0])
@pytest.mark.parametrize("g", [ZeroG(), ExpFlatG(1.0)], ids=["pure", "expflat"])
def test_run_refuses_a_state_whose_tau_is_not_finite_and_nonnegative(tau, g):
    # a state built in code: nan stepped to max_steps, inf "finished" after
    # 0 steps, and the flat g died in eval_scaled with an untyped error
    start = initial_state(profile_k1(4.0, g), sphere_graph(SphericalGrid.circle(32), 1.0), validate_regime=False)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        run(dataclasses.replace(start, tau=tau), StepControl(t_end=1.0, max_steps=2000))


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
    assert lambda_of_tau(loaded.profile, loaded.tau) == lambda_of_tau(state.profile, state.tau)
    assert loaded.step_count == state.step_count
    assert loaded.last_dt == state.last_dt


# the curve and the AC-4 zonal surface
RESUME_CASES = {"curve": (profile_k1(2.0), wiggly_circle(N=64, amp=0.08)), "zonal": (EXPFLAT_K2, _surface(32, 64, zonal=True))}


@pytest.mark.parametrize("case", list(RESUME_CASES))
def test_checkpoint_resume_is_bit_exact(tmp_path, case):
    prof, graph = RESUME_CASES[case]
    control = StepControl(t_end=10.0)
    state = initial_state(prof, graph)
    for _ in range(10):
        state = step(state, control)
    path = tmp_path / "chk.txt"
    save_checkpoint(state, path)
    save_graph(state.graph, tmp_path / "graph.txt")
    # both texts hold one row per node of the full grid, a zonal state's
    # column repeated over every longitude, and the same graph sections
    text = path.read_text()
    rows = text.split("[graph]\n", 1)[1].splitlines()
    assert len(rows) == graph.phi.size
    values = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
    assert values.tobytes() == np.broadcast_to(state.graph.phi, graph.grid.shape).tobytes()
    assert (tmp_path / "graph.txt").read_text() == text[text.index("[grid]\n") :]
    resumed = load_checkpoint(path)
    # the resumed run steps at its own grid's dt: the column's if the state is zonal
    phi = resumed.graph.phi
    own = RadialGraph(graph.grid, phi) if case == "curve" else RadialGraph(graph.grid.zonal_column, np.ascontiguousarray(phi[:, :1]))
    bound = stable_dt_bound(dataclasses.replace(resumed, graph=own))
    state, resumed = step(state, control), step(resumed, control)
    assert resumed.last_dt == min(control.dt_max, STEP_FRACTION * bound)
    for _ in range(9):
        state = step(state, control)
        resumed = step(resumed, control)
    assert state.graph.phi.tobytes() == resumed.graph.phi.tobytes()
    assert state.tau == resumed.tau
    assert state.last_dt == resumed.last_dt


def test_checkpoint_rejects_corruption(tmp_path):
    prof = profile_k1(2.0)
    state = initial_state(prof, wiggly_circle(N=32, amp=0.04))
    path = tmp_path / "chk.txt"
    save_checkpoint(state, path)
    text = path.read_text()
    bad = tmp_path / "bad.txt"

    def fails(tampered, match):
        bad.write_text(tampered)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(bad)

    fails("something else\n" + text, "expected 'key = value'")
    # the format of version 1: a header line, then 'profile:', 'state:' and 'graph:' lines
    fails("anisoflow-checkpoint 1\nprofile: n=1 k=1 alpha=1 beta=2 g=zero\n", "format version 1")

    lines = text.splitlines(keepends=True)
    for cut in (1, 2, lines.index("[grid]\n"), len(lines) - 1):
        fails("".join(lines[:cut]), "required|31 rows for the 32 nodes")
    fails(text.replace("g.kind = zero\n", "", 1), r"\[profile\] g.kind: required")
    fails(text.replace("tau = 0\n", "tau = 0\ntau = 0\n", 1), "duplicate key 'tau'")
    fails(text.replace("n = 1\n", "n = 2\n", 1), r"\[grid\] n: 1 does not match \[profile\] n = 2")

    tab = initial_state(tab_profile(), wiggly_circle(N=32, amp=0.04), validate_regime=False)
    save_checkpoint(tab, path)
    text = path.read_text()
    first_row = text.split("[table]\n", 1)[1].split("\n", 1)[0]
    fails(text.replace(first_row, first_row + ",0", 1), r"\[table\] bad table row")
    fails(text.replace("g.kind = tabulated", "g.kind = zero"), r"\[table\] rows: not valid for g.kind=zero")


def test_checkpoint_whose_radius_overflows_is_a_config_error(tmp_path):
    # a checkpoint's state is made by initial_state, with its finite-radius
    # check: phi = 800 at one node would load and its run write NaN records
    state = initial_state(profile_k1(2.0), wiggly_circle(N=32, amp=0.04))
    phi = state.graph.phi.copy()
    phi[5] = 800.0
    path = tmp_path / "chk.txt"
    save_checkpoint(dataclasses.replace(state, graph=RadialGraph(state.graph.grid, phi)), path)
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert exc.value.errors == ["[graph] initial radius exp(phi) overflows (max phi = 800)"]


@pytest.mark.parametrize(
    "key, value", [("tau", "nan"), ("tau", "inf"), ("tau", "-5"), ("last_dt", "nan"), ("last_dt", "-1e-3"), ("step_count", "-1")]
)
def test_checkpoint_state_must_be_finite_and_nonnegative(tmp_path, key, value):
    # a nan tau would load, and a run from it end in an untyped error from the speed terms
    state = initial_state(profile_k1(4.0, ExpFlatG(1.0)), sphere_graph(SphericalGrid.circle(32), 1.0))
    path = tmp_path / "chk.txt"
    save_checkpoint(state, path)
    lines = path.read_text().splitlines()
    i = lines.index(f"{key} = 0")
    lines[i] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert exc.value.errors == [f"line {i + 1}: [state] {key}: bad value {value!r}"]
