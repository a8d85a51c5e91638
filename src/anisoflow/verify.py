"""Property suites: algebraic identities, curvature-oracle agreement,
profile-validator matrix, and sphere-ODE closed-form cross-checks, plus the
full PDE engine against the sphere ODE (``pde_vs_ode_check``).

Each suite returns a SuiteResult and is safe to run repeatedly (fixed seeds,
no state).  The CLI's ``verify`` subcommand prints one line per suite; the
test suite asserts on the same results.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

import anisoflow.symfunc as sf

from . import speed_profile
from .diagnostics import closed_form_r1, closed_form_r2, r1_comparison_rhs, rk4_scalar_step, sphere_ode_at, sphere_ode_rhs
from .flow_engine import initial_state, run
from .speed_profile import (
    BumpG,
    ExpFlatG,
    MonomialG,
    SpeedProfile,
    ZeroG,
    eval_scaled,
    validate_theorem1,
    validate_theorem2,
)
from .sphere_geometry import RadialGraph, SphericalGrid, embedding_oracle, sphere_graph, weingarten

IDENTITY_TOL = 1e-10
IDENTITY_SAMPLES = 2000  # cone samples per (n, k) in identity_suite
IDENTITY_SEED = 20240817
GRAPH_AMPLITUDE = 0.08  # bound on each mode's coefficient in random_graph_function
R1_RK4_STEPS = 4000  # RK4 steps of the bounding ODE in the sphere-ODE suite
ODE_DT = 1e-3  # the largest RK4 step of the sphere ODE in pde_vs_ode_check


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    worst: float
    details: str


# ---------------------------------------------------------------------------
# identity suite (Euler / quadratic / Newton-MacLaurin / largest-curvature)


def cone_samples(n, k, count, rng):
    """Random curvature vectors in the k-convexity cone, mixing strictly
    positive vectors with sign-mixed ones that still satisfy the cone test."""
    out = []
    while len(out) < count:
        batch = count - len(out)
        pos = np.exp(rng.normal(0.0, 1.0, size=(batch, n)))
        mixed = rng.normal(1.0, 1.5, size=(batch, n))
        cand = np.concatenate([pos, mixed], axis=0)
        inside, _ = sf.in_gamma_k_plus(cand, k)
        out.extend(cand[inside])
    return np.array(out[:count])


def identity_suite():
    """Exact symmetric-polynomial identities on random cone samples."""
    rng = np.random.default_rng(IDENTITY_SEED)
    worst = 0.0
    worst_what = ""
    total = 0

    def track(resid, what):
        nonlocal worst, worst_what
        r = float(np.max(resid)) if np.size(resid) else 0.0
        if r > worst:
            worst, worst_what = r, what

    for n in (1, 2, 3):
        for k in range(1, n + 1):
            kap = cone_samples(n, k, IDENTITY_SAMPLES, rng)
            total += len(kap)
            sig_k = sf.sigma_k(kap, k)
            partials = sf.sigma_k_partials(kap, k)

            euler = np.sum(partials * kap, axis=-1)
            scale = np.maximum(1.0, np.abs(k * sig_k))
            track(np.abs(euler - k * sig_k) / scale, f"euler n={n} k={k}")

            sig_1 = sf.sigma_k(kap, 1)
            sig_k1 = sf.sigma_k(kap, k + 1) if k + 1 <= n else np.zeros_like(sig_k)
            quad = np.sum(partials * kap * kap, axis=-1)
            rhs = sig_1 * sig_k - (k + 1) * sig_k1
            scale = np.maximum(1.0, np.abs(rhs))
            track(np.abs(quad - rhs) / scale, f"quadratic n={n} k={k}")

            # largest-curvature bound: sigma_{k-1}(kappa | kappa_max) * kappa_max >= (k/n) sigma_k
            imax = np.argmax(kap, axis=-1)
            rows = np.arange(len(kap))
            lhs = partials[rows, imax] * kap[rows, imax]
            bound = (k / n) * sig_k
            scale = np.maximum(1.0, np.abs(bound))
            track(np.maximum(0.0, bound - lhs) / scale, f"largest-curvature n={n} k={k}")

            if k + 1 <= n:
                inside, _ = sf.in_gamma_k_plus(kap, k + 1)
                sub = kap[inside]
                if len(sub):
                    s_k = sf.sigma_k(sub, k)
                    s_k1 = sf.sigma_k(sub, k + 1)
                    s_1 = sf.sigma_k(sub, 1)
                    c_k = math.comb(n, k)
                    c_k1 = math.comb(n, k + 1)
                    upper = c_k1 * (s_k / c_k) ** ((k + 1) / k)
                    scale = np.maximum(1.0, np.abs(upper))
                    track(np.maximum(0.0, s_k1 - upper) / scale, f"newton-maclaurin-upper n={n} k={k}")
                    lower = n * (s_k / c_k) ** (1.0 / k)
                    scale = np.maximum(1.0, np.abs(lower))
                    track(np.maximum(0.0, lower - s_1) / scale, f"newton-maclaurin-mean n={n} k={k}")

    ok = worst <= IDENTITY_TOL
    details = f"{total} cone samples; worst residual {worst:.3e}"
    if not ok:
        details += f" ({worst_what})"
    return SuiteResult("symfunc", ok, worst, details)


# ---------------------------------------------------------------------------
# curvature-oracle agreement


def random_graph_function(n, seed):
    """A fixed random smooth log-radius function, evaluable on any grid size.

    Built from low-order trigonometric modes (n=1) or restrictions of harmonic
    polynomials (n=2), so the function is smooth everywhere including poles.
    """
    rng = np.random.default_rng(seed)
    if n == 1:
        a = rng.uniform(-GRAPH_AMPLITUDE, GRAPH_AMPLITUDE, size=4)
        b = rng.uniform(-GRAPH_AMPLITUDE, GRAPH_AMPLITUDE, size=4)

        def f(theta):
            out = np.zeros_like(theta)
            for m in range(1, 5):
                out += a[m - 1] * np.cos(m * theta) + b[m - 1] * np.sin(m * theta)
            return out

        return f

    c = rng.uniform(-GRAPH_AMPLITUDE, GRAPH_AMPLITUDE, size=5)

    def f(theta, phi):
        st, ct = np.sin(theta), np.cos(theta)
        return (
            c[0] * 0.5 * (3.0 * ct * ct - 1.0)
            + c[1] * st * st * np.cos(2.0 * phi)
            + c[2] * st * ct * np.cos(phi)
            + c[3] * st * st * st * np.cos(3.0 * phi)
            + c[4] * st * (5.0 * ct * ct - 1.0) * np.sin(phi)
        )

    return f


def graph_from_function(grid, f):
    if grid.n == 1:
        return RadialGraph(grid, f(grid.theta))
    th = grid.theta[:, None]
    ph = grid.phi_lon[None, :]
    return RadialGraph(grid, np.broadcast_to(f(th, ph), grid.shape).copy())


def _kappa_gap(graph, band=None):
    """max |kappa_weingarten - kappa_embedding| over nodes (optionally banded)."""
    kw = weingarten(graph).kappa
    ke = embedding_oracle(graph).kappa
    gap = np.abs(kw - ke).max(axis=-1)
    if band is not None:
        gap = gap[band]
    return float(gap.max())


def oracle_convergence(n, seed, levels):
    """Refinement study of the two curvature routes on one random graph.

    Returns (mid_errs, pole_errs): max-norm gaps per level; for n=1 the two
    lists are identical (no pole band).
    """
    f = random_graph_function(n, seed)
    mid, pole = [], []
    for lv in levels:
        if n == 1:
            grid = SphericalGrid.circle(lv)
            graph = graph_from_function(grid, f)
            e = _kappa_gap(graph)
            mid.append(e)
            pole.append(e)
        else:
            grid = SphericalGrid.sphere(lv, 2 * lv)
            graph = graph_from_function(grid, f)
            band = np.abs(grid.theta - 0.5 * math.pi) < 1.2
            mid.append(_kappa_gap(graph, band[:, None] & np.ones(grid.shape, bool)))
            pole.append(_kappa_gap(graph, ~band[:, None] & np.ones(grid.shape, bool)))
    return mid, pole


def aggregate_slope(errs):
    """Mean order per doubling: log2(err_first / err_last) / (levels - 1)."""
    if errs[0] <= 0.0 or errs[-1] <= 0.0:
        return math.inf
    return math.log2(errs[0] / errs[-1]) / (len(errs) - 1)


def ellipse_graph(grid, a, b):
    th = grid.theta
    r = a * b / np.sqrt(a * a * np.sin(th) ** 2 + b * b * np.cos(th) ** 2)
    return RadialGraph(grid, np.log(r))


def ellipse_exact_curvature(grid, a, b):
    th = grid.theta
    r = a * b / np.sqrt(a * a * np.sin(th) ** 2 + b * b * np.cos(th) ** 2)
    s = (a * np.sin(th) / b) ** 2 + (b * np.cos(th) / a) ** 2
    return a * b / (r**3 * s**1.5)


def oracle_suite():
    """Trimmed-down oracle agreement check (full study lives in acceptance)."""
    worst_slope = math.inf
    details = []
    for n, levels in ((1, (64, 128, 256)), (2, (16, 32, 64))):
        for seed in (11, 12):
            mid, pole = oracle_convergence(n, seed, levels)
            s_mid = aggregate_slope(mid)
            worst_slope = min(worst_slope, s_mid)
            if n == 2:
                s_pole = aggregate_slope(pole)
                details.append(f"n=2 seed={seed} mid {s_mid:.2f} pole {s_pole:.2f}")
                if s_pole < 1.0:
                    worst_slope = min(worst_slope, 0.0)
            else:
                details.append(f"n=1 seed={seed} slope {s_mid:.2f}")
    grid = SphericalGrid.circle(512)
    kappa = weingarten(ellipse_graph(grid, 2.0, 1.0)).kappa[:, 0]
    err = float(np.abs(kappa - ellipse_exact_curvature(grid, 2.0, 1.0)).max())
    ok = worst_slope >= 1.8 and err <= 5e-3
    return SuiteResult(
        "oracle",
        ok,
        worst_slope,
        f"worst slope {worst_slope:.2f}; ellipse max err {err:.2e}; " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# profile-validator matrix


def profile_matrix():
    """(label, report, expected_ok, expected_condition) for the standard cases."""
    rows = []

    def add(label, profile, validator, expected_ok, expected_condition=None):
        rows.append((label, validator(profile), expected_ok, expected_condition))

    add("zero", SpeedProfile(1, 1, 1.0, 2.0, ZeroG()), validate_theorem1, True)
    for p in (1.0, 2.0):
        add(
            f"bump(eps=0.5,p={p:g})",
            SpeedProfile(1, 1, 1.0, 2.0, BumpG(epsilon=0.5, p=p)),
            validate_theorem1,
            True,
        )
    for p in (1.0, 2.0):
        add(
            f"expflat(p={p:g})",
            SpeedProfile(1, 1, 1.0, 3.0, ExpFlatG(p=p)),
            validate_theorem2,
            True,
        )
    add(
        "monomial(l=4),beta=3",
        SpeedProfile(1, 1, 1.0, 3.0, MonomialG(l=4)),
        validate_theorem2,
        True,
    )
    add(
        "monomial(l=1),beta=2",  # g = r against the equality-regime validator
        SpeedProfile(1, 1, 1.0, 2.0, MonomialG(l=1)),
        validate_theorem1,
        False,
        "scaling",
    )
    add(
        "monomial(l=3),beta=3",  # l = floor(beta): not flat enough at the origin
        SpeedProfile(1, 1, 1.0, 3.0, MonomialG(l=3)),
        validate_theorem2,
        False,
        "flatness",
    )
    return rows


def profile_suite():
    rows = profile_matrix()
    bad = []
    for label, report, expected_ok, expected_condition in rows:
        if report.ok != expected_ok:
            bad.append(f"{label}: ok={report.ok}, expected {expected_ok}")
        elif not expected_ok and report.condition != expected_condition:
            bad.append(f"{label}: condition={report.condition!r}, expected {expected_condition!r}")
    ok = not bad
    details = f"{len(rows)} profiles checked" + ("" if ok else "; " + "; ".join(bad))
    return SuiteResult("profiles", ok, 0.0 if ok else 1.0, details)


# ---------------------------------------------------------------------------
# sphere-ODE closed forms


def _r1_vs_rk4(profile, r0, C_bound, t_end):
    fun = lambda t, r: r1_comparison_rhs(profile, C_bound, r, t)
    h = t_end / R1_RK4_STEPS
    t, r = 0.0, r0
    for _ in range(R1_RK4_STEPS):
        r = rk4_scalar_step(fun, t, r, h)
        t += h
    return abs(closed_form_r1(profile, r0, C_bound, t_end) - r)


def sphere_ode_suite():
    worst = 0.0
    notes = []

    prof_eq = SpeedProfile(1, 1, 1.0, 3.0, ZeroG())  # beta integer: equal exponents
    prof_gen = SpeedProfile(1, 1, 1.0, 3.5, ZeroG())  # distinct exponents

    # rhs spot values
    prof_fix = SpeedProfile(1, 1, 1.0, 2.0, ZeroG())
    worst = max(worst, abs(sphere_ode_rhs(prof_fix, 1.7, 0.3)))
    worst = max(worst, abs(sphere_ode_rhs(prof_eq, 2.0, 0.0) + 2.0))
    worst = max(worst, abs(sphere_ode_rhs(prof_eq, 1.0, 1.2)))

    # closed_form_r2 spot values
    worst = max(worst, abs(closed_form_r2(prof_eq, 2.0, 0.0) - 2.0))
    worst = max(worst, abs(closed_form_r2(prof_eq, 2.0, math.log(2.0)) - 4.0 / 3.0))
    worst = max(worst, abs(closed_form_r2(prof_eq, 1.0, 5.0) - 1.0))

    # C = 0 collapses r1 onto r2, on both branches
    for prof in (prof_eq, prof_gen):
        for t in (0.0, 0.4, 1.0, 3.0):
            worst = max(worst, abs(closed_form_r1(prof, 2.0, 0.0, t) - closed_form_r2(prof, 2.0, t)))

    ok = worst <= 1e-12
    notes.append(f"spot values/reduction worst {worst:.2e}")

    # closed form vs independent RK4 of the bounding ODE, both branches
    rk_worst = 0.0
    for prof in (prof_eq, prof_gen):
        for t_end in (0.3, 1.0, 2.5):
            rk_worst = max(rk_worst, _r1_vs_rk4(prof, 2.0, 1.0, t_end))
    notes.append(f"r1-vs-RK4 worst {rk_worst:.2e}")
    ok = ok and rk_worst <= 1e-8

    # long-time limits
    lim_worst = 0.0
    for prof in (prof_eq, prof_gen):
        for r0 in (0.5, 2.0):
            lim_worst = max(lim_worst, abs(closed_form_r2(prof, r0, 1e3) - 1.0))
            lim_worst = max(lim_worst, abs(closed_form_r1(prof, r0, 1.0, 1e3) - 1.0))
    notes.append(f"limit worst {lim_worst:.2e}")
    ok = ok and lim_worst <= 1e-6

    # sandwich with an observed bound on the g coefficient
    prof_g = SpeedProfile(1, 1, 1.0, 3.0, ExpFlatG(p=1.0))
    times = np.linspace(0.0, 3.0, 61)
    r_ode = sphere_ode_at(prof_g, 1.6, times, max_dt=5e-4)
    q = prof_g.beta - math.floor(prof_g.beta) - 1.0
    c_obs = 0.0
    for t, r in zip(times, r_ode):
        lam = speed_profile.lambda_of_tau(prof_g, t)
        gs = prof_g.gamma * eval_scaled(prof_g, lam, r)
        c_obs = max(c_obs, gs / (lam**q * r**prof_g.beta))
    # 1% slack: the sampled supremum can undershoot the true one between
    # samples; with the slack the comparison solution is a strict subsolution.
    c_obs *= 1.01
    sandwich_worst = 0.0
    for t, r in zip(times, r_ode):
        lo = closed_form_r1(prof_g, 1.6, c_obs, t)
        hi = closed_form_r2(prof_g, 1.6, t)
        sandwich_worst = max(sandwich_worst, lo - r, r - hi)
    notes.append(f"sandwich worst {sandwich_worst:.2e}")
    ok = ok and sandwich_worst <= 1e-7

    worst_all = max(worst, rk_worst, lim_worst, sandwich_worst)
    return SuiteResult("sphere-ode", ok, worst_all, "; ".join(notes))


def pde_vs_ode_check(profile, r0, grid, control, validate_regime=True):
    """Integrate the PDE from sphere data under ``control`` and compare its
    radius trajectory with the sphere ODE, RK4 at steps of at most ODE_DT,
    at every record.

    Sphere data starts round, so a sphericity stop would end the run at
    tau = 0; it is ignored and the run goes to t_end (or max_steps).
    validate_regime is passed to ``initial_state``.

    Returns (max relative radius deviation, max spatial oscillation).
    """
    state = initial_state(profile, sphere_graph(grid, r0), validate_regime)
    result = run(state, replace(control, sphericity_stop=0.0))
    taus = result.series.column("tau")
    r_pde = result.series.column("r_max")
    r_ode = sphere_ode_at(profile, r0, taus, max_dt=ODE_DT)
    deviation = float(np.max(np.abs(r_pde - r_ode) / r_ode))
    nonuniformity = float(result.series.column("osc").max())
    return deviation, nonuniformity


# ---------------------------------------------------------------------------
# suite registry

SUITES = {
    "symfunc": identity_suite,
    "oracle": oracle_suite,
    "profiles": profile_suite,
    "sphere-ode": sphere_ode_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name]()


def run_all():
    return [run_suite(name) for name in SUITE_NAMES]
