"""Run diagnostics, exponential-rate fits, and the exact sphere-ODE oracle.

A round sphere r(tau) under the normalized flow obeys the scalar ODE

    dr/dtau = -gamma r^(beta - k alpha)
              - gamma lam^beta g(r/lam) r^(-k alpha) + gamma r,

with lam = exp(gamma*tau).  For beta > 1 + k*alpha and g == 0 this has the
closed form ``closed_form_r2``; bounding the g term by C*lam^(q) r^(beta-ka)
with q = beta - floor(beta) - 1 gives the comparison solution
``closed_form_r1`` (a Bernoulli equation, solved exactly here).  Both tend to
1, sandwiching the true radius.  ``verify.pde_vs_ode_check`` closes the loop
against the full PDE engine on sphere data.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import speed_profile

COLUMNS = (
    "tau",
    "r_min",
    "r_max",
    "osc",
    "grad_phi_max",
    "grad_r_max",
    "u_min",
    "phi_min_cap",
    "phi_max_cap",
    "cone_margin",
    "a_max",
    "dt",
)


class DiagnosticsSeries:
    """Fixed-column time series of per-record reductions; tau finite and strictly increasing."""

    def __init__(self):
        self._data = {name: [] for name in COLUMNS}

    def __len__(self):
        return len(self._data["tau"])

    def append(self, **row):
        if set(row) != set(COLUMNS):
            missing = set(COLUMNS) - set(row)
            extra = set(row) - set(COLUMNS)
            raise ValueError(f"bad record: missing {sorted(missing)}, extra {sorted(extra)}")
        tau = float(row["tau"])
        last = self._data["tau"][-1] if self._data["tau"] else -math.inf
        if not last < tau < math.inf:  # NaN fails too
            raise ValueError(f"tau must be finite and strictly increasing, got {tau} after {last}")
        if not row["osc"] >= 0.0:
            raise ValueError(f"oscillation must be >= 0, got {row['osc']}")
        for name in COLUMNS:
            self._data[name].append(float(row[name]))

    def column(self, name):
        if name not in self._data:
            raise KeyError(name)
        return np.array(self._data[name])

    def last(self, name):
        return self._data[name][-1]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(COLUMNS) + "\n")
            for i in range(len(self)):
                fh.write(
                    ",".join(format(self._data[name][i], ".17g") for name in COLUMNS) + "\n"
                )

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines or lines[0] != ",".join(COLUMNS):
            raise ValueError("bad diagnostics CSV header")
        series = cls()
        for ln in lines[1:]:
            vals = [float(tok) for tok in ln.split(",")]
            if len(vals) != len(COLUMNS):
                raise ValueError(f"bad diagnostics CSV row: {ln!r}")
            series.append(**dict(zip(COLUMNS, vals)))
        return series

    def __eq__(self, other):
        return isinstance(other, DiagnosticsSeries) and self._data == other._data


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit value ~ amplitude * exp(rate * tau)."""

    rate: float
    amplitude: float
    residual: float
    window: tuple

    def __post_init__(self):
        if not self.window[1] > self.window[0]:
            raise ValueError(f"degenerate fit window {self.window}")
        if self.residual < 0.0:
            raise ValueError("residual must be >= 0")


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
    logs = np.log(vals)
    slope, intercept = np.polyfit(tau[mask], logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * tau[mask] + intercept)) ** 2)))
    return DecayFit(rate=float(slope), amplitude=float(math.exp(intercept)), residual=resid, window=(lo, hi))


# ---------------------------------------------------------------------------
# sphere ODE oracle


def sphere_ode_rhs(profile, r, t):
    """dr/dtau for a round sphere of radius r at normalized time t."""
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    gamma, ka = profile.gamma, profile.ka
    gs = speed_profile.eval_scaled(profile, speed_profile.lambda_of_tau(profile, t), float(r))
    return -gamma * r ** (profile.beta - ka) - gamma * gs * r ** (-ka) + gamma * r


def rk4_scalar_step(fun, t, y, h):
    k1 = fun(t, y)
    k2 = fun(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = fun(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = fun(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_scalar_at(fun, y0, times, max_dt):
    """RK4-integrate dy/dt = fun(t, y) from y(0) = y0, reporting y at the given
    increasing times; each span between them is cut into equal steps of at
    most max_dt."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be increasing and start at >= 0")
    out = np.empty_like(times)
    t, y = 0.0, float(y0)
    for i, target in enumerate(times):
        span = target - t
        if span > 0.0:
            steps = max(1, math.ceil(span / max_dt - 1e-12))
            h = span / steps
            for _ in range(steps):
                y = rk4_scalar_step(fun, t, y, h)
                t += h
            t = target
        out[i] = y
    return out


def sphere_ode_at(profile, r0, times, max_dt=1e-3):
    """RK4-integrate the sphere ODE, reporting r at the given increasing times."""
    return rk4_scalar_at(lambda t, r: sphere_ode_rhs(profile, r, t), r0, times, max_dt)


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
