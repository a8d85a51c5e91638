"""Diagnostics series, decay fits, and the sphere-ODE oracle with closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anisoflow.flow_engine import COLUMNS, STEP_FRACTION, DiagnosticsSeries, StepControl, initial_state, stable_dt_bound
import anisoflow
from anisoflow import flow_engine, speed_profile, verify
from anisoflow.speed_profile import ExpFlatG, NonPositiveRadiusError, SpeedProfile, ZeroG
from anisoflow.sphere_geometry import RadialGraph, SphericalGrid, sphere_graph
from anisoflow.textform import load_series, save_series
from anisoflow.verify import (
    closed_form_r1,
    closed_form_r2,
    fit_exponential,
    pde_vs_ode_check,
    r1_comparison_rhs,
    rk4_step,
    sphere_ode_at,
    sphere_ode_rhs,
)


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
    # NaN fails every comparison, so each check is written to refuse it
    with pytest.raises(ValueError, match="oscillation"):
        s.append(**sample_row(0.7, osc=math.nan))
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            s.append(**sample_row(tau))
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        DiagnosticsSeries().append(**sample_row(math.nan))
    assert len(s) == 1


def test_series_csv_roundtrip_bit_exact(tmp_path):
    s = DiagnosticsSeries()
    # awkward values: non-terminating binary fractions and tiny magnitudes
    s.append(**sample_row(0.1 + 0.2, osc=1.0 / 3.0, dt=1e-17))
    s.append(**sample_row(1.0 / 7.0 + 1.0, a_max=math.pi))
    path = tmp_path / "diag.csv"
    save_series(s, path)
    loaded = load_series(path)
    assert loaded == s
    for name in COLUMNS:
        assert np.array_equal(loaded.column(name), s.column(name))


# the first two records that `anisoflow run demos/sample_run.ini` writes: the
# text pins the CSV format byte for byte
SAMPLE_RUN_CSV = """\
tau,r_min,r_max,osc,grad_phi_max,grad_r_max,u_min,phi_min_cap,phi_max_cap,cone_margin,a_max,dt
0,0.69999999999999996,1.3,0.60000000000000009,0.6289352357364324,0.60000007001954225,0.68587604248622558,-0.49999900093143212,2.5000000668958458,-1.0204061243498617,1.479289980411743,0
0.010724963158413798,0.71213632724539111,1.2873856064973055,0.57524927925191438,0.60722266970028183,0.58160504428941395,0.70209524106352128,-0.36309537681473991,2.4406354771910257,-0.71596936225284424,1.4726027984484882,0.0010724963158413796
"""


def test_series_csv_reads_and_writes_the_sample_runs_records(tmp_path):
    path = tmp_path / "run_series.csv"
    path.write_text(SAMPLE_RUN_CSV)
    series = load_series(path)
    rows = [line.split(",") for line in SAMPLE_RUN_CSV.splitlines()[1:]]
    for i, name in enumerate(COLUMNS):
        assert series.column(name).tolist() == [float(row[i]) for row in rows]
    save_series(series, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == SAMPLE_RUN_CSV.encode()


def test_series_csv_rejects_malformed(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("tau,r_min\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_series(path)
    good_header = ",".join(COLUMNS)
    path.write_text(good_header + "\n1.0,2.0\n")
    with pytest.raises(ValueError, match="row"):
        load_series(path)
    # a token that is not a number names its row and line, past a blank line
    bad_row = ",".join("x" if name == "osc" else "0" for name in COLUMNS)
    path.write_text(f"{good_header}\n\n{bad_row}\n")
    with pytest.raises(ValueError, match=f"^line 3: bad diagnostics CSV row: '{bad_row}'$"):
        load_series(path)
    nan_row = ",".join(["nan"] * len(COLUMNS))
    path.write_text(f"{good_header}\n{nan_row}\n{nan_row}\n")
    with pytest.raises(ValueError, match="tau must be finite"):
        load_series(path)
    # a record the series refuses names its line too
    zero_row = ",".join(["0"] * len(COLUMNS))
    path.write_text(f"{good_header}\n{zero_row}\n{nan_row}\n")
    with pytest.raises(ValueError, match="^line 3: tau must be finite and strictly increasing, got nan after 0.0$"):
        load_series(path)
    path.write_text(good_header + "\n" + ",".join("nan" if name == "osc" else "0" for name in COLUMNS) + "\n")
    with pytest.raises(ValueError, match="oscillation"):
        load_series(path)


# ---------------------------------------------------------------------------
# exponential fits


def test_fit_exponential_exact_decay():
    tau = np.arange(0.0, 5.01, 0.1)
    fit = fit_exponential(tau, np.exp(-2.0 * tau))
    assert abs(fit.rate + 2.0) < 1e-9
    assert abs(fit.amplitude - 1.0) < 1e-9


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
    original_lam, original_rhs = speed_profile.lambda_of_tau, verify.sphere_ode_rhs
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
    monkeypatch.setattr(verify, "sphere_ode_rhs", flagged)
    assert verify.sphere_ode_suite().ok
    assert calls == list(np.linspace(0.0, 3.0, 61))


def test_rk4_scalar_step_order():
    # one step of the scalar y' = y from 1: error against e^h is O(h^5)
    errs = [abs(rk4_step(lambda t, y: y, 0.0, 1.0, h) - math.exp(h)) for h in (0.1, 0.05)]
    assert errs[0] < 1e-7
    assert errs[1] < errs[0] / 20.0  # ~32x for 5th-order local error
    # exact on linear-in-t right-hand sides
    assert rk4_step(lambda t, y: 3.0, 0.0, 1.0, 0.25) == 1.75


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


def test_sphere_ode_at_matches_the_closed_form():
    prof = profile_k1(3.0)
    times = np.linspace(0.0, 2.0, 41)
    rs = sphere_ode_at(prof, 0.5, times)
    assert times.shape == rs.shape == (41,)
    assert times[0] == 0.0 and times[-1] == 2.0
    assert_allclose(rs[-1], closed_form_r2(prof, 0.5, 2.0), rtol=1e-10)
    with pytest.raises(ValueError):
        sphere_ode_at(prof, 1.0, np.array([0.5, 0.5]))


def test_sphere_ode_at_an_array_of_radii_is_each_radius_alone():
    # one pass over an array gives each radius's own scalar pass bit for bit
    prof = SpeedProfile(n=1, k=1, alpha=1.0, beta=4.0, g=ExpFlatG(1.0))
    times = np.linspace(0.1, 2.0, 20)
    radii = [0.6, 1.0, 1.7]
    rs = sphere_ode_at(prof, radii, times)
    assert rs.shape == (20, 3)
    for j, r0 in enumerate(radii):
        assert rs[:, j].tobytes() == sphere_ode_at(prof, r0, times).tobytes()
    with pytest.raises(NonPositiveRadiusError):
        sphere_ode_rhs(prof, np.array([1.0, 0.0]), 0.0)


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
        r = rk4_step(fun, t, r, h)
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
    dev, osc = pde_vs_ode_check(initial_state(prof, sphere_graph(SphericalGrid.circle(32), 1.3)), StepControl(t_end=0.2))
    assert dev < 1e-10
    assert osc < 1e-12


def test_pde_vs_ode_refuses_a_state_that_is_not_round_data_at_tau_0():
    prof = profile_k1(2.0)
    grid = SphericalGrid.circle(32)
    wavy = initial_state(prof, RadialGraph(grid, 1e-3 * np.cos(2 * grid.theta)))
    with pytest.raises(ValueError, match="round data at tau = 0"):
        pde_vs_ode_check(wavy, StepControl(t_end=0.2))
    later = dataclasses.replace(initial_state(prof, sphere_graph(grid, 1.3)), tau=0.1)
    with pytest.raises(ValueError, match=r"round data at tau = 0, got radii in \[1.3, 1.3\] at tau=0.1"):
        pde_vs_ode_check(later, StepControl(t_end=0.2))


def test_sphere_barriers_refuse_records_that_do_not_start_at_tau_0():
    # the barriers' ODE starts at tau = 0, and the first record is its start
    prof = profile_k1(2.0)
    state = initial_state(prof, sphere_graph(SphericalGrid.circle(32), 1.3))
    alone = DiagnosticsSeries()
    alone.append(**flow_engine.diagnostics_row(state))
    with pytest.raises(ValueError, match=r"from tau = 0, got 1 from tau \[0.0\]"):
        verify.sphere_barriers(prof, alone)
    later = DiagnosticsSeries()
    for tau in (0.1, 0.2):
        later.append(**flow_engine.diagnostics_row(dataclasses.replace(state, tau=tau)))
    with pytest.raises(ValueError, match=r"got 2 from tau \[0.1\]"):
        verify.sphere_barriers(prof, later)


def test_pde_vs_ode_strict_regime_tracks_closed_form():
    # the engine is second order in time, so the deviation falls about 4x per
    # halving of dt from the first step's STEP_FRACTION of the stability limit
    # (measured 4.67e-6, 1.17e-6 and 2.93e-7 at the default, then dt_max at
    # 1/2 and 1/4 of that step)
    state = initial_state(profile_k1(3.0), sphere_graph(SphericalGrid.circle(64), 2.0))
    first_dt = STEP_FRACTION * stable_dt_bound(state)
    devs = []
    for dt_max in (1.0, first_dt / 2.0, first_dt / 4.0):  # 1.0, the default cap, never binds here
        dev, osc = pde_vs_ode_check(state, StepControl(t_end=math.log(2.0), dt_max=dt_max))
        assert osc < 1e-12
        devs.append(dev)
    assert devs[0] <= 1e-5
    assert devs[0] >= 3.5 * devs[1] and devs[1] >= 3.5 * devs[2], devs
