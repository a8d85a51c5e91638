"""Radial speed weights f(r) = r^beta + g(r) and their admissibility checks.

The flow speed is f(r) * sigma_k^alpha.  The normalized equation never needs g
itself, only the rescaled term lam^beta * g(r/lam); ``eval_scaled`` evaluates
it in a form that stays finite for arbitrarily large lam (log-space for the
exponentially flat families, exponent arithmetic for monomials).  g' is needed
only by the validators, through ``eval_g``.

This module is the one place that knows the g kinds: ``G_KINDS`` maps each
kind's name to its class, and the fields of a dataclass kind are its
parameters, which the config and checkpoint codecs read and write by name.

Two validator entry points mirror the two convergence regimes:

* equality regime beta = 1 + k*alpha: g must vanish identically near the origin
  and satisfy (1 + k*alpha) * g(r) / r <= g'(r);
* strict regime beta > 1 + k*alpha: same differential inequality, plus g must be
  flat at the origin through order floor(beta) (checked by a decade ratio test).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline

#: exp(-1/x) is flushed to exactly 0 once 1/x > EXP_FLUSH (avoids subnormals)
EXP_FLUSH = 745.0

#: hard cap on the rescaling factor for direct (tabulated) evaluation
LAMBDA_CAP = 1e100

_TOL = 1e-12


class ScaleOverflowError(ArithmeticError):
    """Rescaled speed evaluation left the representable range."""


class TableRangeError(ValueError):
    """A tabulated g was queried outside its table."""


class NonPositiveRadiusError(ValueError):
    """The rescaled speed was asked for at a radius <= 0."""


@dataclass(frozen=True)
class ZeroG:
    """g identically zero (pure r^beta speed)."""

    KIND = "zero"


@dataclass(frozen=True)
class BumpG:
    """g = 0 on [0, epsilon], then r^(1+k*alpha) * exp(-1/(r-epsilon)^p).

    Identically zero near the origin, so it is admissible in the equality
    regime; the exponent 1 + k*alpha is supplied by the owning profile.
    """

    epsilon: float
    p: float
    KIND = "bump"

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")


@dataclass(frozen=True)
class ExpFlatG:
    """g = r^(1+k*alpha) * exp(-1/r^p): positive for r > 0, flat to all orders at 0."""

    p: float
    KIND = "expflat"

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")


@dataclass(frozen=True)
class MonomialG:
    """g = r^l for an integer l >= 1 (r^l is smooth at 0 only for integer l).

    Admissibility (l >= floor(beta) + 1) is the validators' business.
    """

    l: float
    KIND = "monomial"

    def __post_init__(self):
        if not (self.l >= 1 and float(self.l).is_integer()):
            raise ValueError(f"monomial exponent must be an integer >= 1, got {self.l}")


class TabulatedG:
    """g given by sample points with values and derivatives, Hermite-interpolated.

    Queries outside [points[0], points[-1]] raise ValueError.
    """

    KIND = "tabulated"

    def __init__(self, points, values, derivs):
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise ValueError("need at least two sample points")
        if self.values.shape != self.points.shape or self.derivs.shape != self.points.shape:
            raise ValueError("points, values and derivs must have equal shapes")
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("sample points must be strictly increasing")
        self._spline = CubicHermiteSpline(self.points, self.values, self.derivs)
        self._dspline = self._spline.derivative()

    def value(self, r):
        """g(r) alone: the flow reads no g'."""
        r = np.asarray(r, dtype=float)
        if (r < self.points[0]).any() or (r > self.points[-1]).any():
            raise TableRangeError(
                f"tabulated g queried outside [{self.points[0]}, {self.points[-1]}]"
            )
        return self._spline(r)

    def __call__(self, r):
        """(g(r), g'(r))."""
        return self.value(r), self._dspline(np.asarray(r, dtype=float))

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedG)
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.derivs, other.derivs)
        )

    def __repr__(self):
        return f"TabulatedG(<{self.points.size} rows on [{self.points[0]}, {self.points[-1]}]>)"


G_KINDS = {c.KIND: c for c in (ZeroG, BumpG, ExpFlatG, MonomialG, TabulatedG)}


@dataclass(frozen=True)
class SpeedProfile:
    """Problem data (n, k, alpha, beta, g) for one flow.

    gamma = binom(n, k)^alpha is the value of sigma_k^alpha on the unit sphere
    and the source term of the normalized scalar equation.

    The constructor checks structural constraints only: the alpha family
    ((k = 1, alpha > 0) or (k >= 2, alpha = 1/k or alpha >= 1)) and
    beta >= 1 + k*alpha.  Whether g is admissible for the regime selected by
    beta is decided by validate_theorem1/validate_theorem2.
    """

    n: int
    k: int
    alpha: float
    beta: float
    g: object = field(default_factory=ZeroG)
    gamma: float = field(init=False)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"surface dimension n must be 1 or 2, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}")
        if self.k == 1:
            if not self.alpha > 0:
                raise ValueError(f"k=1 requires alpha > 0, got {self.alpha}")
        else:
            inv = abs(self.alpha * self.k - 1.0) <= _TOL
            if not (inv or self.alpha >= 1.0 - _TOL):
                raise ValueError(
                    f"k={self.k} requires alpha = 1/k or alpha >= 1, got {self.alpha}"
                )
        if self.beta < 1.0 + self.k * self.alpha - _TOL:
            raise ValueError(
                f"beta must be >= 1 + k*alpha = {1 + self.k * self.alpha}, got {self.beta}"
            )
        if not isinstance(self.g, tuple(G_KINDS.values())):
            raise TypeError(f"unrecognized g specification: {self.g!r}")
        object.__setattr__(self, "gamma", float(math.comb(self.n, self.k) ** self.alpha))

    @property
    def ka(self):
        return self.k * self.alpha

    @property
    def pure_power(self):
        """True when g is identically zero, so f(r) = r^beta and lam^beta g(r/lam) = 0."""
        return isinstance(self.g, ZeroG)

    @property
    def equality_regime(self):
        """True when beta = 1 + k*alpha (fixed-sphere regime)."""
        return abs(self.beta - (1.0 + self.ka)) <= _TOL


def _as_float_or_array(*vals):
    out = tuple(float(v) if np.ndim(v) == 0 else v for v in vals)
    return out if len(out) > 1 else out[0]


def eval_g(profile, r):
    """g(r) and g'(r) for the profile's g specification, unscaled (lam = 1).

    The one source of g', which only the admissibility validators read.
    Accepts scalars or arrays; r must be >= 0 (and within the table for
    tabulated g).  Returns (g, gp) with the input's shape.
    """
    g = profile.g
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("g is only defined for r >= 0")
    if isinstance(g, ZeroG):
        z = np.zeros_like(r)
        return _as_float_or_array(z, z.copy())
    if isinstance(g, MonomialG):
        return _as_float_or_array(r**g.l, g.l * r ** (g.l - 1.0))
    if isinstance(g, TabulatedG):
        val, der = g(r)
        return _as_float_or_array(val, der)
    # the flat families: the rescaled formula at lam = 1, times the log-derivative
    # g'/g = (1 + k*alpha)/r + p*(r - shift)^(-p-1) where g > 0
    shift = g.epsilon if isinstance(g, BumpG) else 0.0
    gs = _scaled_flat_family(profile, 1.0, r, shift)
    live = gs > 0.0
    slope = np.where(
        live,
        (1.0 + profile.ka) / np.where(live, r, 1.0)
        + g.p * np.where(live, r - shift, 1.0) ** (-g.p - 1.0),
        0.0,
    )
    return _as_float_or_array(gs, gs * slope)


def _scaled_flat_family(profile, lam, r, shift):
    """lam^beta * g(r/lam) for the bump (shift=epsilon) / expflat (shift=0) kinds.

    A node is live where base = r/lam - shift > 0 and the barrier base^-p is
    at most EXP_FLUSH; a dead node's value is exactly 0.  The masks that keep
    dead nodes out of the power, the exponent and the overflow check are
    applied only when some node is dead (``live`` is None when none is):
    when every node is live, the normal case, np.where(live, x, fill) is x
    bit for bit.
    """
    g = profile.g
    one_ka = 1.0 + profile.ka
    base = r / lam - shift
    live = base > 0
    with np.errstate(divide="ignore", over="ignore"):
        barrier = (base if live.all() else np.where(live, base, 1.0)) ** (-g.p)
    live &= barrier <= EXP_FLUSH
    if live.all():
        live = None
    w = (profile.beta - one_ka) * math.log(lam) - _live_or(live, barrier, 0.0)
    w_live = _live_or(live, w, -np.inf)
    if (w_live > 700.0).any():
        bad = int(np.argmax(w_live))
        raise ScaleOverflowError(
            f"rescaled g overflows: lam={lam!r}, r={np.ravel(r)[bad]!r}"
        )
    return _live_or(live, r**one_ka * np.exp(_live_or(live, w, 0.0)), 0.0)


def _live_or(live, x, fill):
    """x where live, fill elsewhere; x itself when live is None (all live)."""
    return x if live is None else np.where(live, x, fill)


def eval_scaled(profile, lam, r):
    """The rescaled speed term lam^beta * g(r/lam), the one g term the flow reads.

    lam is a scalar >= 1; r a scalar or array of radii > 0.  Returns a float
    for scalar r, else an array of r's shape.  The full weight is
    r^beta + eval_scaled(...), which equals lam^beta * f(r/lam).
    """
    lam = float(lam)
    if not lam >= 1.0 - 1e-12:
        raise ValueError(f"rescaling factor must be >= 1, got {lam}")
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
        raise NonPositiveRadiusError("rescaled speed needs r > 0")
    g = profile.g
    beta = profile.beta

    if isinstance(g, ZeroG):
        gs = np.zeros_like(r)
    elif isinstance(g, MonomialG):
        gs = lam ** (beta - g.l) * r**g.l
    elif isinstance(g, BumpG):
        gs = _scaled_flat_family(profile, lam, r, g.epsilon)
    elif isinstance(g, ExpFlatG):
        gs = _scaled_flat_family(profile, lam, r, 0.0)
    else:  # TabulatedG: direct evaluation behind the lam cap
        if lam > LAMBDA_CAP:
            raise ScaleOverflowError(
                f"lam={lam!r} exceeds the tabulated-speed cap {LAMBDA_CAP:g} (r={r!r})"
            )
        val = g.value(r / lam)
        with np.errstate(over="ignore"):
            gs = np.where(val == 0.0, 0.0, lam**beta * val)
        if not np.isfinite(gs).all():
            bad = int(np.argmax(~np.isfinite(np.ravel(gs))))
            raise ScaleOverflowError(
                f"rescaled tabulated g overflows: lam={lam!r}, r={np.ravel(r)[bad]!r}"
            )
    return _as_float_or_array(gs)


# ---------------------------------------------------------------------------
# admissibility validators


@dataclass(frozen=True)
class ConditionReport:
    name: str
    ok: bool
    worst_violation: float
    location: float


@dataclass(frozen=True)
class ProfileReport:
    """Validator outcome: ok iff every condition holds on the sample grid.

    worst_violation/location/condition describe the worst failing condition
    (or the least comfortable passing one when ok).
    """

    ok: bool
    worst_violation: float
    location: float
    condition: str
    conditions: tuple

    def failed(self):
        return tuple(c.name for c in self.conditions if not c.ok)


def _default_grid():
    return np.geomspace(0.01, 3.0, 600)


def _condition_nonneg(profile, r_grid, gval):
    i = int(np.argmin(gval))
    return ConditionReport("nonnegative", gval[i] >= -_TOL, float(-gval[i]), float(r_grid[i]))


def _condition_scaling(profile, r_grid, gval, gder):
    viol = (1.0 + profile.ka) * gval / r_grid - gder
    i = int(np.argmax(viol))
    ok = viol[i] <= _TOL * (1.0 + abs(gder[i]))
    return ConditionReport("scaling", bool(ok), float(viol[i]), float(r_grid[i]))


def _finish(conditions):
    bad = [c for c in conditions if not c.ok]
    pick = max(bad, key=lambda c: c.worst_violation) if bad else max(
        conditions, key=lambda c: c.worst_violation
    )
    return ProfileReport(
        ok=not bad,
        worst_violation=pick.worst_violation,
        location=pick.location,
        condition=pick.name,
        conditions=tuple(conditions),
    )


def validate_theorem1(profile, r_grid=None):
    """Check g for the equality regime beta = 1 + k*alpha.

    Conditions: g >= 0, g identically zero near the origin, and
    (1 + k*alpha) g(r)/r <= g'(r) at every sample.
    """
    if not profile.equality_regime:
        raise ValueError("equality-regime validator called with beta != 1 + k*alpha")
    r_grid = _default_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    gval, gder = eval_g(profile, r_grid)
    gval, gder = np.atleast_1d(gval), np.atleast_1d(gder)

    conds = [_condition_nonneg(profile, r_grid, gval)]

    g = profile.g
    if isinstance(g, ZeroG):
        conds.append(ConditionReport("zero_near_origin", True, 0.0, 0.0))
    elif isinstance(g, BumpG):
        inside = r_grid <= g.epsilon
        worst = float(np.max(np.abs(gval[inside]))) if np.any(inside) else 0.0
        conds.append(ConditionReport("zero_near_origin", worst <= _TOL, worst, float(g.epsilon)))
    else:
        near = r_grid <= 10.0 * r_grid[0]
        worst = float(np.max(np.abs(gval[near])))
        i = int(np.argmax(np.abs(np.where(near, gval, 0.0))))
        conds.append(ConditionReport("zero_near_origin", worst <= _TOL, worst, float(r_grid[i])))

    conds.append(_condition_scaling(profile, r_grid, gval, gder))
    return _finish(conds)


def validate_theorem2(profile, r_grid=None):
    """Check g for the strict regime beta > 1 + k*alpha.

    Conditions: g >= 0, g(0) = 0, flatness at the origin through order
    floor(beta) (decade ratio test on g / r^(floor(beta)+1)), and the same
    differential inequality as the equality regime.
    """
    if profile.equality_regime or profile.beta < 1.0 + profile.ka:
        raise ValueError("strict-regime validator called with beta = 1 + k*alpha")
    r_grid = _default_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    gval, gder = eval_g(profile, r_grid)
    gval, gder = np.atleast_1d(gval), np.atleast_1d(gder)

    conds = [_condition_nonneg(profile, r_grid, gval)]

    g = profile.g
    if isinstance(g, TabulatedG):
        origin = float(g.points[0])
    else:
        origin = 0.0
    g0, _ = eval_g(profile, origin)
    conds.append(ConditionReport("vanishes_at_origin", abs(g0) <= _TOL, abs(float(g0)), origin))

    m = math.floor(profile.beta) + 1
    lo, hi = 1e-3, 1e-1
    if isinstance(g, TabulatedG):
        lo = max(lo, float(g.points[0]) or 1e-3)
        hi = min(hi, float(g.points[-1]))
    if hi > lo * 10.0:
        mid = math.sqrt(lo * hi)
        d1 = np.geomspace(lo, mid, 40)
        d2 = np.geomspace(mid, hi, 40)
        q1, _ = eval_g(profile, d1)
        q2, _ = eval_g(profile, d2)
        q1 = np.atleast_1d(q1) / d1**m
        q2 = np.atleast_1d(q2) / d2**m
        K1, K2 = float(np.max(q1)), float(np.max(q2))
        ok = K1 <= 1.2 * K2 + 1e-300
        conds.append(
            ConditionReport("flatness", ok, K1 - 1.2 * K2, float(d1[int(np.argmax(q1))]))
        )
    else:
        conds.append(ConditionReport("flatness", True, 0.0, lo))

    conds.append(_condition_scaling(profile, r_grid, gval, gder))
    return _finish(conds)


def validate_for_regime(profile, r_grid=None):
    """Dispatch to the validator matching the profile's beta."""
    if profile.equality_regime:
        return validate_theorem1(profile, r_grid)
    return validate_theorem2(profile, r_grid)
