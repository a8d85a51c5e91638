"""Radial speed weights f(r) = r^beta + g(r) and their admissibility checks.

The flow speed is f(r) * sigma_k^alpha.  The normalized equation never needs g
itself, only the rescaled term lam^beta * g(r/lam), with lam = exp(gamma*tau)
(``lambda_of_tau``); ``eval_scaled`` evaluates it in a form that stays finite
for arbitrarily large lam (log-space for the exponentially flat families,
exponent arithmetic for monomials).  g' is needed only by the validators,
through ``eval_g``.

This module is the one place that knows the g kinds: ``G_KINDS`` maps each
kind's name to its class, and each kind answers for itself: ``scaled``
(lam^beta * g(r/lam)), ``derivative`` (g' given g), ``support``, the equality
regime's ``zero_near_origin`` check, and its text, ``params`` by name or, for
a ``TABLE`` kind, 'r,value,derivative' ``rows``.

Two validator entry points mirror the two convergence regimes:

* equality regime beta = 1 + k*alpha: g must vanish identically near the origin
  and satisfy (1 + k*alpha) * g(r) / r <= g'(r);
* strict regime beta > 1 + k*alpha: same differential inequality, plus g must be
  flat at the origin through order floor(beta) (checked by a decade ratio test).
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

#: exp(-1/x) is flushed to exactly 0 once 1/x > EXP_FLUSH (avoids subnormals)
EXP_FLUSH = 745.0
# p log(base) above this keeps base^-p below EXP_FLUSH with room for rounding
_LIVE_LOG = 1e-9 - math.log(EXP_FLUSH)

#: an exponent past EXP_MAX is an overflow (e^700 ~ 1e304)
EXP_MAX = 700.0

#: hard cap on the rescaling factor for direct (tabulated) evaluation
LAMBDA_CAP = 1e100

_TOL = 1e-12


class ScaleOverflowError(ArithmeticError):
    """Rescaled speed evaluation left the representable range."""


class TableRangeError(ValueError):
    """A tabulated g was queried outside its table."""


class NonPositiveRadiusError(ValueError):
    """The rescaled speed was asked for at a radius <= 0."""


def _positive_finite(name, value):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def _sampled_zero_near_origin(g, r_grid, gval):
    """The equality regime's 'g vanishes near the origin', on the samples within
    a decade of the first, for a kind with no interval of its own to check."""
    near = r_grid <= 10.0 * r_grid[0]
    worst = float(np.max(np.abs(gval[near])))
    i = int(np.argmax(np.abs(np.where(near, gval, 0.0))))
    return ConditionReport("zero_near_origin", worst <= _TOL, worst, float(r_grid[i]))


class _Analytic:
    """What the analytic kinds share: parameters (the dataclass fields) and no
    table rows, g defined for every r >= 0, and the sampled zero_near_origin."""

    TABLE = False
    support = (0.0, math.inf)
    params = property(dataclasses.asdict)
    zero_near_origin = _sampled_zero_near_origin

    def rows(self):
        return ()


@dataclass(frozen=True)
class ZeroG(_Analytic):
    """g identically zero (pure r^beta speed)."""

    KIND = "zero"

    def scaled(self, profile, lam, r):
        return np.zeros_like(r)

    def derivative(self, profile, r, g):
        return np.zeros_like(r)

    def zero_near_origin(self, r_grid, gval):
        return ConditionReport("zero_near_origin", True, 0.0, 0.0)


class _FlatFamily(_Analytic):
    """g = r^(1+k*alpha) * exp(-1/(r - shift)^p) where r > shift, else 0."""

    def scaled(self, profile, lam, r):
        """lam^beta * g(r/lam) = exp(L), L = (1+k*alpha) log r + w with the
        exponent w = (beta-1-k*alpha) log lam - barrier.

        A node is live where base = r/lam - shift > 0 and the barrier base^-p
        is at most EXP_FLUSH; a dead node's value is exactly 0.  Masks keep
        dead nodes out of the power and the exponent.  The normal case, every
        node live, is told by one min and builds no mask (np.where(live, x,
        fill) would be x bit for bit): the largest barrier is the smallest
        base's, so the log of that base tells it, with a margin that leaves
        the nodes within rounding of the threshold to the masks, and then no
        barrier can overflow.  One max bounds the rest: with w <= log_scale, no
        factor and no value can pass e^EXP_MAX while log_scale +
        (1+k*alpha) log max(r, 1) does not, and the value is
        r^(1+k*alpha) e^w; otherwise it is exp(L), after a check that no live
        L passes EXP_MAX.
        """
        one_ka = 1.0 + profile.ka
        log_scale = (profile.beta - one_ka) * math.log(lam)
        bounded = log_scale + one_ka * math.log(r.max(initial=1.0)) <= EXP_MAX
        base = np.asarray(r / lam)  # an array (0-d for a scalar r) to work in
        if self.shift:  # x - 0.0 is x: ExpFlatG skips it
            base -= self.shift
        low = base.min(initial=math.inf)  # NaN fails the test below
        if low > 0 and self.p * math.log(low) > _LIVE_LOG:
            base **= -self.p
            w = np.subtract(log_scale, base, out=base)
            if bounded:
                return np.multiply(r**one_ka, np.exp(w, out=w), out=w)
            return _exp_checked(one_ka * np.log(r) + w, lam, r)
        positive = base > 0
        with np.errstate(divide="ignore", over="ignore"):
            barrier = np.where(positive, base, 1.0) ** (-self.p)
        live = positive & (barrier <= EXP_FLUSH)
        w = log_scale - np.where(live, barrier, 0.0)
        if bounded:
            return np.where(live, r**one_ka * np.exp(w), 0.0)
        return _exp_checked(np.where(live, one_ka * np.log(np.where(live, r, 1.0)) + w, -np.inf), lam, r)

    def derivative(self, profile, r, g):
        """g times its log-derivative (1 + k*alpha)/r + p*(r - shift)^(-p-1) where g > 0."""
        live = g > 0.0
        slope = np.where(
            live,
            (1.0 + profile.ka) / np.where(live, r, 1.0)
            + self.p * np.where(live, r - self.shift, 1.0) ** (-self.p - 1.0),
            0.0,
        )
        return g * slope


@dataclass(frozen=True)
class BumpG(_FlatFamily):
    """g = 0 on [0, epsilon], then r^(1+k*alpha) * exp(-1/(r-epsilon)^p).

    Identically zero near the origin, so it is admissible in the equality
    regime; the exponent 1 + k*alpha is supplied by the owning profile.
    """

    epsilon: float
    p: float
    KIND = "bump"

    def __post_init__(self):
        _positive_finite("epsilon", self.epsilon)
        _positive_finite("p", self.p)

    @property
    def shift(self):
        return self.epsilon

    def zero_near_origin(self, r_grid, gval):
        """g on the samples in [0, epsilon]."""
        inside = r_grid <= self.epsilon
        worst = float(np.max(np.abs(gval[inside]))) if np.any(inside) else 0.0
        return ConditionReport("zero_near_origin", worst <= _TOL, worst, float(self.epsilon))


@dataclass(frozen=True)
class ExpFlatG(_FlatFamily):
    """g = r^(1+k*alpha) * exp(-1/r^p): positive for r > 0, flat to all orders at 0."""

    p: float
    KIND = "expflat"
    shift = 0.0

    def __post_init__(self):
        _positive_finite("p", self.p)


@dataclass(frozen=True)
class MonomialG(_Analytic):
    """g = r^l for an integer l >= 1 (r^l is smooth at 0 only for integer l).

    Admissibility (l >= floor(beta) + 1) is the validators' business.
    """

    l: float
    KIND = "monomial"

    def __post_init__(self):
        if not (self.l >= 1 and float(self.l).is_integer()):
            raise ValueError(f"monomial exponent must be an integer >= 1, got {self.l}")

    def scaled(self, profile, lam, r):
        """lam^(beta-l) r^l.  One max bounds the log of every value by
        (beta - l) log lam + l log max(r, 1): at most EXP_MAX, the product is
        formed as such; above it, exp(l log r + (beta - l) log lam) behind
        the overflow check."""
        log_scale = (profile.beta - self.l) * math.log(lam)
        if log_scale + self.l * math.log(r.max(initial=1.0)) <= EXP_MAX:
            return lam ** (profile.beta - self.l) * r**self.l
        with np.errstate(divide="ignore"):  # r = 0 (eval_g's origin): L = -inf, a value of 0
            return _exp_checked(self.l * np.log(r) + log_scale, lam, r)

    def derivative(self, profile, r, g):
        return self.l * r ** (self.l - 1.0)


class TabulatedG:
    """g given by sample points with values and derivatives, Hermite-interpolated.

    Queries outside ``support``, [points[0], points[-1]], raise ValueError.
    Inside, g and g' are bit for bit those of scipy's ``CubicHermiteSpline``
    and its derivative: the same power-basis coefficients per interval, the
    same interval for a query at a node (the one it starts), and the same
    order of summation.
    """

    KIND = "tabulated"
    TABLE = True
    params = property(lambda self: {})  # the rows are all of it
    zero_near_origin = _sampled_zero_near_origin

    def __init__(self, points, values, derivs):
        self.points = np.asarray(points, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.derivs = np.asarray(derivs, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise ValueError("need at least two sample points")
        if self.values.shape != self.points.shape or self.derivs.shape != self.points.shape:
            raise ValueError("points, values and derivs must have equal shapes")
        if not np.isfinite([self.points, self.values, self.derivs]).all():
            raise ValueError("table entries must be finite")
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("sample points must be strictly increasing")
        h = np.diff(self.points)
        d0 = self.derivs[:-1]
        slope = np.diff(self.values) / h
        t = (d0 + self.derivs[1:] - 2 * slope) / h
        # one contiguous column per power of s = r - points[i], gathered by take
        self._c = (self.values[:-1], d0, (slope - d0) / h - t, t / h)

    @classmethod
    def from_rows(cls, lines):
        """The table of 'r,value,derivative' lines; '#' starts a comment and
        blank lines are skipped."""
        rows = []
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"bad table row {line!r} (want 'r,value,derivative')")
            rows.append([float(tok) for tok in parts])
        if len(rows) < 2:
            raise ValueError("table needs at least 2 rows")
        return cls(*zip(*rows))

    def rows(self):
        """The 'r,value,derivative' lines, 17 significant digits (bit-exact)."""
        table = zip(self.points.tolist(), self.values.tolist(), self.derivs.tolist())
        return [",".join(format(v, ".17g") for v in row) for row in table]

    @property
    def support(self):
        return float(self.points[0]), float(self.points[-1])

    def _gather(self, r):
        """s = r - points[i] and the coefficients of r's interval i (the last
        interval for r == points[-1])."""
        i = np.minimum(np.searchsorted(self.points, r, side="right") - 1, self.points.size - 2)
        return r - self.points.take(i), *(c.take(i) for c in self._c)

    def value(self, r):
        """g(r) alone: the flow reads no g'."""
        r = np.asarray(r, dtype=float)
        if (r < self.points[0]).any() or (r > self.points[-1]).any():
            raise TableRangeError(
                f"tabulated g queried outside [{self.points[0]}, {self.points[-1]}]"
            )
        s, c0, c1, c2, c3 = self._gather(r)
        return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

    def derivative(self, profile, r, g):
        s, _, c1, c2, c3 = self._gather(np.asarray(r, dtype=float))
        return 0.0 + c1 + (2 * c2) * s + (3 * c3) * (s * s)

    def __call__(self, r):
        """(g(r), g'(r))."""
        return self.value(r), self.derivative(None, r, None)

    def scaled(self, profile, lam, r):
        """lam^beta * g(r/lam) by direct evaluation, behind the lam cap."""
        if lam > LAMBDA_CAP:
            raise ScaleOverflowError(
                f"lam={lam!r} exceeds the tabulated-speed cap {LAMBDA_CAP:g} (largest r={float(r.max(initial=0.0))!r})"
            )
        val = self.value(r / lam)
        with np.errstate(over="ignore"):
            gs = np.where(val == 0.0, 0.0, lam**profile.beta * val)
        if not np.isfinite(gs).all():
            bad = int(np.argmax(~np.isfinite(np.ravel(gs))))
            raise ScaleOverflowError(
                f"rescaled tabulated g overflows: lam={lam!r}, r={float(np.ravel(r)[bad])!r}"
            )
        return gs

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
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
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


def lambda_of_tau(profile, tau):
    """The normalization factor lam = exp(gamma*tau), the one place it is computed."""
    return math.exp(profile.gamma * tau)


def eval_g(profile, r):
    """g(r) and g'(r) for the profile's g specification, unscaled (lam = 1).

    The one source of g', which only the admissibility validators read.
    Accepts scalars or arrays; r must be >= 0 (and within the table for
    tabulated g).  Returns (g, gp) with the input's shape.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("g is only defined for r >= 0")
    g = profile.g.scaled(profile, 1.0, r)
    gp = profile.g.derivative(profile, r, g)
    return (g, gp) if r.ndim else (float(g), float(gp))


def _exp_checked(L, lam, r):
    """exp(L), or ScaleOverflowError naming the radius of the largest L if it
    passes EXP_MAX."""
    if (L > EXP_MAX).any():
        bad = int(np.argmax(L))
        raise ScaleOverflowError(f"rescaled g overflows: lam={lam!r}, r={float(np.ravel(r)[bad])!r}")
    return np.exp(L)


def eval_scaled(profile, lam, r):
    """The rescaled speed term lam^beta * g(r/lam), the one g term the flow reads.

    lam is a scalar >= 1; r a scalar or array of radii > 0 (a NaN radius
    raises NonPositiveRadiusError like a radius <= 0).  Returns a float
    for scalar r, else an array of r's shape.  The full weight is
    r^beta + eval_scaled(...), which equals lam^beta * f(r/lam).
    """
    lam = float(lam)
    if not lam >= 1.0 - 1e-12:
        raise ValueError(f"rescaling factor must be >= 1, got {lam}")
    r = np.asarray(r, dtype=float)
    if not r.min(initial=math.inf) > 0:  # NaN fails too; an empty r passes
        raise NonPositiveRadiusError("rescaled speed needs r > 0")
    gs = profile.g.scaled(profile, lam, r)
    return gs if r.ndim else float(gs)


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
    return ConditionReport("nonnegative", bool(gval[i] >= -_TOL), float(-gval[i]), float(r_grid[i]))


def _condition_scaling(profile, r_grid, gval, gder):
    """(1 + k*alpha) g(r)/r <= g'(r) on the samples r > 0, where g/r is defined."""
    live = r_grid > 0
    r_grid, gval, gder = r_grid[live], gval[live], gder[live]
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

    conds = [
        _condition_nonneg(profile, r_grid, gval),
        profile.g.zero_near_origin(r_grid, gval),
        _condition_scaling(profile, r_grid, gval, gder),
    ]
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

    origin, end = profile.g.support
    g0, _ = eval_g(profile, origin)
    conds.append(ConditionReport("vanishes_at_origin", abs(g0) <= _TOL, abs(float(g0)), origin))

    m = math.floor(profile.beta) + 1
    lo, hi = max(1e-3, origin), min(1e-1, end)
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
