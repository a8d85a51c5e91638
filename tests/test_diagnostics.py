"""Diagnostics series, decay fits, and the sphere-ODE oracle with closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anisoflow.diagnostics import (
    COLUMNS,
    DecayFit,
    DiagnosticsSeries,
    closed_form_r1,
    closed_form_r2,
    fit_exponential,
    r1_comparison_rhs,
    rk4_scalar_step,
    sphere_ode_at,
    sphere_ode_rhs,
)
from anisoflow.flow_engine import StepControl
import anisoflow
from anisoflow import diagnostics, flow_engine, speed_profile, verify
from anisoflow.speed_profile import ExpFlatG, SpeedProfile, ZeroG
from anisoflow.sphere_geometry import SphericalGrid
from anisoflow.verify import pde_vs_ode_check


def profile_k1(beta):
    return SpeedProfile(n=1, k=1, alpha=1.0, beta=beta, g=ZeroG())


def sample_row(tau, **overrides):
    row = {name: 1.0 for name in COLUMNS}
    row["tau"] = tau
    row.update(overrides)
    return row


# ---------------------------------------------------------------------------
# series container


def test_series_append_and_columns():
    s = DiagnosticsSeries()
    s.append(**sample_row(0.0, osc=0.5))
    s.append(**sample_row(0.1, osc=0.25))
    assert len(s) == 2
    assert_allclose(s.column("osc"), [0.5, 0.25])
    assert s.last("tau") == 0.1
    with pytest.raises(KeyError):
        s.column("no_such_column")


def test_series_rejects_bad_rows():
    s = DiagnosticsSeries()
    row = sample_row(0.0)
    del row["dt"]
    with pytest.raises(ValueError, match="missing"):
        s.append(**row)
    with pytest.raises(ValueError, match="extra"):
        s.append(**sample_row(0.0), bogus=1.0)
    s.append(**sample_row(0.5))
    with pytest.raises(ValueError, match="strictly increasing"):
        s.append(**sample_row(0.5))
    with pytest.raises(ValueError, match="oscillation"):
        s.append(**sample_row(0.7, osc=-1e-3))


def test_series_csv_roundtrip_bit_exact(tmp_path):
    s = DiagnosticsSeries()
    # awkward values: non-terminating binary fractions and tiny magnitudes
    s.append(**sample_row(0.1 + 0.2, osc=1.0 / 3.0, dt=1e-17))
    s.append(**sample_row(1.0 / 7.0 + 1.0, a_max=math.pi))
    path = tmp_path / "diag.csv"
    s.to_csv(path)
    loaded = DiagnosticsSeries.from_csv(path)
    assert loaded == s
    for name in COLUMNS:
        assert np.array_equal(loaded.column(name), s.column(name))


def test_series_csv_rejects_malformed(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("tau,r_min\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        DiagnosticsSeries.from_csv(path)
    good_header = ",".join(COLUMNS)
    path.write_text(good_header + "\n1.0,2.0\n")
    with pytest.raises(ValueError, match="row"):
        DiagnosticsSeries.from_csv(path)


# ---------------------------------------------------------------------------
# exponential fits


def test_fit_exponential_exact_decay():
    tau = np.arange(0.0, 5.01, 0.1)
    fit = fit_exponential(tau, np.exp(-2.0 * tau))
    assert abs(fit.rate + 2.0) < 1e-9
    assert abs(fit.amplitude - 1.0) < 1e-9
    assert fit.residual < 1e-12


def test_fit_exponential_constant():
    tau = np.linspace(0.0, 3.0, 40)
    fit = fit_exponential(tau, np.full_like(tau, 2.5))
    assert abs(fit.rate) < 1e-12
    assert_allclose(fit.amplitude, 2.5, rtol=1e-12)


def test_fit_exponential_perturbed():
    tau = np.linspace(0.0, 8.0, 200)
    vals = 3.0 * np.exp(-0.7 * tau) * (1.0 + 0.01 * np.sin(tau))
    fit = fit_exponential(tau, vals)
    assert abs(fit.rate + 0.7) < 0.02
    assert abs(fit.amplitude - 3.0) < 0.2


def test_fit_exponential_shift_invariant_rate():
    tau = np.linspace(0.0, 5.0, 120)
    vals = 1.7 * np.exp(-1.3 * tau)
    r0 = fit_exponential(tau, vals).rate
    r1 = fit_exponential(tau + 5.0, vals).rate
    assert abs(r0 - r1) < 1e-9


def test_fit_exponential_window_control():
    tau = np.linspace(0.0, 10.0, 300)
    # two-phase decay: a window over the tail isolates the slow rate
    vals = np.exp(-3.0 * tau) + 0.1 * np.exp(-0.5 * tau)
    fit = fit_exponential(tau, vals, window=(6.0, 10.0))
    assert abs(fit.rate + 0.5) < 0.01


def test_fit_exponential_errors():
    tau = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError, match="matching"):
        fit_exponential(tau, np.ones(49))
    with pytest.raises(ValueError, match=">= 10 points"):
        fit_exponential(tau, np.ones(50), window=(0.99, 1.0))
    vals = np.ones(50)
    vals[-3] = -1.0
    with pytest.raises(ValueError, match="nonpositive"):
        fit_exponential(tau, vals)


def test_decay_fit_validation():
    with pytest.raises(ValueError, match="window"):
        DecayFit(rate=-1.0, amplitude=1.0, residual=0.0, window=(1.0, 1.0))
    with pytest.raises(ValueError, match="residual"):
        DecayFit(rate=-1.0, amplitude=1.0, residual=-0.1, window=(0.0, 1.0))


# ---------------------------------------------------------------------------
# sphere ODE and closed forms


def test_sphere_ode_rhs_spot_values():
    eq = profile_k1(2.0)
    assert sphere_ode_rhs(eq, 1.0, 0.0) == 0.0  # unit sphere is stationary
    strict = profile_k1(3.0)
    assert sphere_ode_rhs(strict, 2.0, 0.0) == -2.0  # -r^2 + r at r = 2
    assert sphere_ode_rhs(strict, 1.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        sphere_ode_rhs(eq, 0.0, 0.0)


def test_sphere_ode_rhs_calls_eval_scaled_through_its_module(monkeypatch):
    # a wrapper on speed_profile.eval_scaled (as a tracer installs) sees the ODE's calls
    calls = []
    original = speed_profile.eval_scaled

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(speed_profile, "eval_scaled", counting)
    profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    sphere_ode_rhs(profile, 1.2, 0.3)
    assert len(calls) == 1


def test_sphere_ode_and_its_suite_take_lam_from_speed_profile(monkeypatch):
    # lam = exp(gamma*tau) has one source, speed_profile.lambda_of_tau, which
    # the engine and the package re-export
    calls, inside = [], []
    original_lam, original_rhs = speed_profile.lambda_of_tau, diagnostics.sphere_ode_rhs
    assert anisoflow.lambda_of_tau is flow_engine.lambda_of_tau is original_lam

    def counting(profile, tau):
        if not inside:
            calls.append(tau)
        return original_lam(profile, tau)

    def flagged(*args):
        inside.append(True)
        try:
            return original_rhs(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(speed_profile, "lambda_of_tau", counting)
    profile = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    sphere_ode_rhs(profile, 1.2, 0.3)
    assert calls == [0.3]
    # the suite's own calls, outside the ODE's rhs: one per sample time of
    # its sandwich bound
    calls.clear()
    monkeypatch.setattr(diagnostics, "sphere_ode_rhs", flagged)
    monkeypatch.setattr(verify, "sphere_ode_rhs", flagged)
    assert verify.sphere_ode_suite().ok
    assert calls == list(np.linspace(0.0, 3.0, 61))


def test_rk4_scalar_step_order():
    # one step of y' = y from 1: error against e^h is O(h^5)
    errs = [abs(rk4_scalar_step(lambda t, y: y, 0.0, 1.0, h) - math.exp(h)) for h in (0.1, 0.05)]
    assert errs[0] < 1e-7
    assert errs[1] < errs[0] / 20.0  # ~32x for 5th-order local error
    # exact on linear-in-t right-hand sides
    assert rk4_scalar_step(lambda t, y: 3.0, 0.0, 1.0, 0.25) == 1.75


def test_closed_form_r2_spot_values():
    prof = profile_k1(3.0)
    assert closed_form_r2(prof, 2.0, 0.0) == 2.0
    # r0 = 2 at tau = log 2: w = 1 - 0.5 * 0.5 = 3/4, r = 4/3
    assert_allclose(closed_form_r2(prof, 2.0, math.log(2.0)), 4.0 / 3.0, rtol=1e-15)
    # every sphere converges to the unit sphere
    for r0 in (0.3, 2.5):
        assert_allclose(closed_form_r2(prof, r0, 1e3), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        closed_form_r2(profile_k1(2.0), 1.0, 1.0)  # equality regime has no such form
    with pytest.raises(ValueError):
        closed_form_r2(prof, -1.0, 1.0)


def test_sphere_ode_matches_closed_form():
    prof = profile_k1(3.0)
    times = np.linspace(0.0, math.log(2.0), 11)
    rs = sphere_ode_at(prof, 2.0, times)
    expect = [closed_form_r2(prof, 2.0, t) for t in times]
    assert_allclose(rs, expect, rtol=1e-10)
    assert rs[0] == 2.0


def test_integrate_sphere_ode_wrapper():
    prof = profile_k1(3.0)
    times = np.linspace(0.0, 2.0, 41)
    rs = sphere_ode_at(prof, 0.5, times)
    assert times.shape == rs.shape == (41,)
    assert times[0] == 0.0 and times[-1] == 2.0
    assert_allclose(rs[-1], closed_form_r2(prof, 0.5, 2.0), rtol=1e-10)
    with pytest.raises(ValueError):
        sphere_ode_at(prof, 1.0, np.array([0.5, 0.5]))


@pytest.mark.parametrize("beta", [3.0, 3.5], ids=["equal-exponents", "generic"])
def test_closed_form_r1_reduces_to_r2_without_bound(beta):
    prof = profile_k1(beta)
    for t in (0.0, 0.4, 1.0, 3.0):
        assert_allclose(
            closed_form_r1(prof, 1.7, 0.0, t),
            closed_form_r2(prof, 1.7, t),
            rtol=1e-12,
        )


def test_closed_form_r1_spot_value():
    # beta = 3, gamma = 1, C = 1, r0 = 2, t = 1 (equal-exponent branch):
    # w = (1/2 - 1 + t) e^-t + 1 = 1 + 1/(2e), r = 2e / (1 + 2e)
    prof = profile_k1(3.0)
    expect = 2.0 * math.e / (1.0 + 2.0 * math.e)
    assert_allclose(closed_form_r1(prof, 2.0, 1.0, 1.0), expect, rtol=1e-15)


@pytest.mark.parametrize("beta", [3.0, 3.5, 2.3], ids=["equal", "generic", "q-below-p"])
def test_closed_form_r1_solves_comparison_ode(beta):
    # central difference of the closed form against the stated right-hand side
    prof = profile_k1(beta)
    h = 1e-6
    for t in (0.3, 1.0, 2.5):
        r_mid = closed_form_r1(prof, 1.8, 0.7, t)
        drdt = (
            closed_form_r1(prof, 1.8, 0.7, t + h) - closed_form_r1(prof, 1.8, 0.7, t - h)
        ) / (2.0 * h)
        assert_allclose(drdt, r1_comparison_rhs(prof, 0.7, r_mid, t), rtol=1e-8)


@pytest.mark.parametrize("beta", [3.0, 3.5], ids=["equal", "generic"])
def test_closed_form_r1_vs_rk4(beta):
    prof = profile_k1(beta)

    def fun(t, y):
        return r1_comparison_rhs(prof, 1.0, y, t)

    r, t = 1.6, 0.0
    h = 2.5 / 4000
    for _ in range(4000):
        r = rk4_scalar_step(fun, t, r, h)
        t += h
    assert_allclose(closed_form_r1(prof, 1.6, 1.0, 2.5), r, rtol=1e-10)


def test_closed_form_r1_bound_slows_nothing_down():
    # the extra bounding term only shrinks the solution: r1 <= r2 for C > 0
    for beta in (3.0, 3.5):
        prof = profile_k1(beta)
        for t in (0.2, 1.0, 4.0):
            assert closed_form_r1(prof, 2.0, 1.0, t) <= closed_form_r2(prof, 2.0, t)


def test_closed_form_r1_input_validation():
    prof = profile_k1(3.0)
    with pytest.raises(ValueError):
        closed_form_r1(prof, 2.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        closed_form_r1(profile_k1(2.0), 2.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# PDE-vs-ODE comparison harness


def test_pde_vs_ode_stationary_sphere():
    prof = profile_k1(2.0)
    dev, osc = pde_vs_ode_check(prof, 1.3, SphericalGrid.circle(32), StepControl(t_end=0.2))
    assert dev < 1e-10
    assert osc < 1e-12


def test_pde_vs_ode_strict_regime_tracks_closed_form():
    # the engine is second order in time, so the deviation falls about 4x per
    # halving of cfl (measured 4.67e-6, 1.17e-6 and 2.93e-7 at 0.8, 0.4, 0.2)
    prof = profile_k1(3.0)
    devs = []
    for cfl in (0.8, 0.4, 0.2):
        control = StepControl(t_end=math.log(2.0), cfl=cfl)
        dev, osc = pde_vs_ode_check(prof, 2.0, SphericalGrid.circle(64), control)
        assert osc < 1e-12
        devs.append(dev)
    assert devs[0] <= 1e-5
    assert devs[0] >= 3.5 * devs[1] and devs[1] >= 3.5 * devs[2], devs
