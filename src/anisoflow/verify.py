"""Property suites: algebraic identities, curvature-oracle agreement,
profile-validator matrix, and sphere-ODE closed-form cross-checks, plus the
full PDE engine against the sphere ODE (``pde_vs_ode_check``), a run's
records against its sphere barriers (``sphere_barriers``, AC-15's C^0
estimate), the round-measure mean of phi (``round_mean``), AC-14's invariant,
and exponential-rate fits of a run's records (``fit_exponential``).

Each suite returns a SuiteResult and is safe to run repeatedly (fixed seeds,
no state).  The CLI's ``verify`` subcommand prints one line per suite; the
test suite asserts on the same results.

A round sphere r(tau) under the normalized flow obeys the scalar ODE

    dr/dtau = -gamma r^(beta - k alpha)
              - gamma lam^beta g(r/lam) r^(-k alpha) + gamma r,

with lam = exp(gamma*tau).  For beta > 1 + k*alpha and g == 0 this has the
closed form ``closed_form_r2``; bounding the g term by C*lam^(q) r^(beta-ka)
with q = beta - floor(beta) - 1 gives the comparison solution
``closed_form_r1`` (a Bernoulli equation, solved exactly here).  Both tend to
1, sandwiching the true radius.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import speed_profile
from . import symfunc as sf
from .flow_engine import run
from .speed_profile import (
    ExpFlatG,
    MonomialG,
    SpeedProfile,
    ZeroG,
    eval_scaled,
    validate_for_regime,
)
from .sphere_geometry import RadialGraph, SphericalGrid, embedding_oracle, weingarten

IDENTITY_TOL = 1e-10
IDENTITY_SAMPLES = 2000  # cone samples per (n, k) in identity_suite
IDENTITY_SEED = 20240817
GRAPH_AMPLITUDE = 0.08  # bound on each mode's coefficient in random_graph_function
R1_RK4_STEPS = 4000  # RK4 steps of the bounding ODE in the sphere-ODE suite
ODE_DT = 1e-3  # the largest RK4 step of the sphere ODE in sphere_ode_at, by default


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
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
    """Exact symmetric-polynomial identities on random cone samples, n = 1..5."""
    rng = np.random.default_rng(IDENTITY_SEED)
    worst = 0.0
    worst_what = ""
    total = 0

    def track(resid, what):
        nonlocal worst, worst_what
        r = float(np.max(resid)) if np.size(resid) else 0.0
        if r > worst:
            worst, worst_what = r, what

    for n in range(1, 6):
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
    return SuiteResult("symfunc", ok, details)


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
    return SuiteResult("oracle", ok, f"worst slope {worst_slope:.2f}; ellipse max err {err:.2e}; " + "; ".join(details))


# ---------------------------------------------------------------------------
# profile-validator matrix


def profile_matrix():
    """(label, validate_for_regime's report, expected_ok, expected_condition)
    for the standard cases."""
    rows = []

    def add(label, profile, expected_ok, expected_condition=None):
        rows.append((label, validate_for_regime(profile), expected_ok, expected_condition))

    add("zero", SpeedProfile(1, 1, 1.0, 2.0, ZeroG()), True)
    for p in (1.0, 2.0):
        add(f"expflat(eps=0.5,p={p:g})", SpeedProfile(1, 1, 1.0, 2.0, ExpFlatG(p=p, epsilon=0.5)), True)
    for p in (1.0, 2.0):
        add(f"expflat(p={p:g})", SpeedProfile(1, 1, 1.0, 3.0, ExpFlatG(p=p)), True)
    # epsilon = 0: positive on (0, inf), so not zero near the origin
    add("expflat(p=1),beta=2", SpeedProfile(1, 1, 1.0, 2.0, ExpFlatG(p=1.0)), False, "zero_near_origin")
    add("monomial(l=4),beta=3", SpeedProfile(1, 1, 1.0, 3.0, MonomialG(l=4)), True)
    add(
        "monomial(l=1),beta=2",  # g = r in the equality regime
        SpeedProfile(1, 1, 1.0, 2.0, MonomialG(l=1)),
        False,
        "scaling",
    )
    add(
        "monomial(l=3),beta=3",  # l = floor(beta): not flat enough at the origin
        SpeedProfile(1, 1, 1.0, 3.0, MonomialG(l=3)),
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
    return SuiteResult("profiles", ok, details)


# ---------------------------------------------------------------------------
# exponential fits


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit value ~ amplitude * exp(rate * tau)."""

    rate: float
    amplitude: float


def fit_exponential(tau, values, window=None):
    """Fit log(values) linearly in tau over the window (default: last half)."""
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.shape != values.shape or tau.ndim != 1:
        raise ValueError("tau and values must be matching 1-d arrays")
    if window is None:
        window = (tau[0] + 0.5 * (tau[-1] - tau[0]), tau[-1])
    lo, hi = float(window[0]), float(window[1])
    mask = (tau >= lo) & (tau <= hi)
    if int(mask.sum()) < 10:
        raise ValueError(f"need >= 10 points in window, got {int(mask.sum())}")
    vals = values[mask]
    if np.any(vals <= 0.0):
        raise ValueError("fit window contains nonpositive values")
    slope, intercept = np.polyfit(tau[mask], np.log(vals), 1)
    return DecayFit(rate=float(slope), amplitude=float(math.exp(intercept)))


# ---------------------------------------------------------------------------
# the sphere-ODE oracle and its closed forms


def sphere_ode_rhs(profile, r, t):
    """dr/dtau for round spheres of radius r, a float or an array, at normalized
    time t; a radius <= 0 or NaN anywhere in r is eval_scaled's
    NonPositiveRadiusError, a ValueError, raised before any power of r."""
    gamma, ka = profile.gamma, profile.ka
    gs = speed_profile.eval_scaled(profile, speed_profile.lambda_of_tau(profile, t), r)
    return -gamma * r ** (profile.beta - ka) - gamma * gs * r ** (-ka) + gamma * r


def rk4_step(fun, t, y, h):
    k1 = fun(t, y)
    k2 = fun(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = fun(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = fun(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_at(fun, y0, times, max_dt):
    """RK4-integrate dy/dt = fun(t, y) from y(0) = y0, a float or an array,
    reporting y at the given increasing times, one row per time; each span
    between them is cut into equal steps of at most max_dt."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be increasing and start at >= 0")
    t, y = 0.0, np.array(y0, dtype=float)
    out = np.empty(times.shape + y.shape)
    for i, target in enumerate(times):
        span = target - t
        if span > 0.0:
            steps = max(1, math.ceil(span / max_dt - 1e-12))
            h = span / steps
            for _ in range(steps):
                y = rk4_step(fun, t, y, h)
                t += h
            t = target
        out[i] = y
    return out


def sphere_ode_at(profile, r0, times, max_dt=ODE_DT):
    """RK4-integrate the sphere ODE from r0, a float or a 1-d array of radii,
    reporting r at the given increasing times, one row per time."""
    return rk4_at(lambda t, r: sphere_ode_rhs(profile, r, t), r0, times, max_dt)


def _require_shrinking_regime(profile):
    p = 1.0 + profile.ka - profile.beta
    if p >= -1e-12:
        raise ValueError("closed forms require beta > 1 + k*alpha")
    return p


def closed_form_r2(profile, r0, t):
    """Exact sphere-ODE solution for g == 0 (beta > 1 + k*alpha)."""
    p = _require_shrinking_regime(profile)
    if r0 <= 0.0:
        raise ValueError(f"r0 must be positive, got {r0}")
    w = 1.0 + (r0**p - 1.0) * math.exp(p * profile.gamma * t)
    return w ** (1.0 / p)


def closed_form_r1(profile, r0, C_bound, t):
    """Exact solution of the comparison ODE with the g term bounded by
    C * lam^(beta - floor(beta) - 1) * r^(beta - k alpha).

    Two branches depending on whether the two exponents p = 1 + k*alpha - beta
    and q = beta - floor(beta) - 1 coincide (Bernoulli linearization in r^p).
    """
    p = _require_shrinking_regime(profile)
    if r0 <= 0.0 or C_bound < 0.0:
        raise ValueError("need r0 > 0 and C_bound >= 0")
    gamma = profile.gamma
    q = profile.beta - math.floor(profile.beta) - 1.0
    w0 = r0**p
    if abs(q - p) <= 1e-12:
        w = (w0 - 1.0 - p * C_bound * t) * math.exp(p * gamma * t) + 1.0
    else:
        D = p * C_bound / ((q - p) * gamma)
        w = (w0 - 1.0 + D) * math.exp(p * gamma * t) + 1.0 - D * math.exp(q * gamma * t)
    if w <= 0.0:
        raise ArithmeticError(f"comparison solution left its domain (w={w:.3e} at t={t:.6g})")
    return w ** (1.0 / p)


def r1_comparison_rhs(profile, C_bound, r, t):
    """dr/dt of the bounding ODE that closed_form_r1 solves exactly."""
    gamma = profile.gamma
    q = profile.beta - math.floor(profile.beta) - 1.0
    lam_q = math.exp(q * gamma * t)
    return -(gamma + C_bound * lam_q) * r ** (profile.beta - profile.ka) + gamma * r


def _r1_vs_rk4(profile, r0, C_bound, t_end):
    fun = lambda t, r: r1_comparison_rhs(profile, C_bound, r, t)
    (r,) = rk4_at(fun, r0, [t_end], max_dt=t_end / R1_RK4_STEPS)
    return abs(closed_form_r1(profile, r0, C_bound, t_end) - float(r))


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

    return SuiteResult("sphere-ode", ok, "; ".join(notes))


def sphere_radius(state):
    """The radius of a round state at tau = 0, where the sphere ODE starts; ValueError for any other state."""
    r = state.field.r
    if state.tau != 0.0 or r.min() != r.max():
        raise ValueError(f"the sphere ODE starts from round data at tau = 0, got radii in [{r.min():.6g}, {r.max():.6g}] at tau={state.tau:.6g}")
    return float(r.max())


def pde_vs_ode_check(state, control):
    """Run the PDE from a round state at tau = 0 under ``control`` and compare
    its radius trajectory with the sphere ODE from the state's radius
    (``sphere_radius``, which refuses any other state), RK4 at steps of at
    most ODE_DT, at every record.

    A round start would meet a sphericity stop at tau = 0; it is ignored and
    the run goes to t_end (or max_steps).

    Returns (max relative radius deviation, max spatial oscillation).
    """
    r0 = sphere_radius(state)
    result = run(state, replace(control, sphericity_stop=0.0))
    taus = result.series.column("tau")
    r_pde = result.series.column("r_max")
    r_ode = sphere_ode_at(state.profile, r0, taus)
    deviation = float(np.max(np.abs(r_pde - r_ode) / r_ode))
    nonuniformity = float(result.series.column("osc").max())
    return deviation, nonuniformity


def sphere_barriers(profile, series):
    """(lower, upper): the worst margins of a run's records against its sphere
    barriers, the least r_min(tau) - R-(tau) and R+(tau) - r_max(tau) over the
    records after the first, where R- and R+ follow the sphere ODE
    (``sphere_ode_at``) from the first record's r_min and r_max.

    Spheres centred at the origin solve the flow, and inside the cone the
    radial-graph equation is a scalar parabolic PDE, so the comparison
    principle keeps both margins >= 0; a step that loses the discrete maximum
    principle shows as a negative margin.  The ODE starts at tau = 0, so a
    series whose first record is elsewhere, or that has no second record,
    is refused with a ValueError.
    """
    tau = series.column("tau")
    if len(tau) < 2 or tau[0] != 0.0:
        raise ValueError(f"sphere barriers need two or more records from tau = 0, got {len(tau)} from tau {tau[:1].tolist()}")
    r_min, r_max = series.column("r_min"), series.column("r_max")
    lower, upper = sphere_ode_at(profile, [r_min[0], r_max[0]], tau[1:]).T
    return float((r_min[1:] - lower).min()), float((upper - r_max[1:]).min())


# ---------------------------------------------------------------------------
# the round-measure mean (AC-14's invariant)


def fejer_weights(grid):
    """Fejer's first-rule weights at an n = 2 grid's cell-centred latitudes
    ``grid.theta``, the rule's nodes in x = cos(theta): sum_i w_i f(cos theta_i)
    integrates f over [-1, 1], spectrally for smooth f, where the midpoint
    rule against sin(theta) is second order."""
    n_lat = grid.n_lat
    j = np.arange(1, n_lat // 2 + 1)
    terms = np.cos(2.0 * np.outer(grid.theta, j)) / (4.0 * j * j - 1.0)
    return (2.0 / n_lat) * (1.0 - 2.0 * terms.sum(axis=1))


def round_mean(graph):
    """The mean of phi over the round S^n: the plain mean on a circle (spectral
    for periodic data); on S^2, Fejer's first rule in cos(theta) over each
    latitude's longitude mean, on a full grid or a zonal column alike."""
    if graph.grid.n == 1:
        return float(graph.phi.mean())
    return 0.5 * float(fejer_weights(graph.grid) @ graph.phi.mean(axis=1))


# ---------------------------------------------------------------------------
# suite registry

SUITES = {
    "symfunc": identity_suite,
    "oracle": oracle_suite,
    "profiles": profile_suite,
    "sphere-ode": sphere_ode_suite,
}
