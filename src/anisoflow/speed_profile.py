"""Radial speed weights f(r) = r^beta + g(r) and their admissibility checks.

The flow speed is f(r) * sigma_k^alpha.  The normalized equation never needs g
itself, only the rescaled term lam^beta * g(r/lam), with lam = exp(gamma*tau)
(``lambda_of_tau``); ``eval_scaled`` evaluates it in a form that stays finite
for arbitrarily large lam (log-space for the exponentially flat families,
exponent arithmetic for monomials).  g' is needed only by the validator.

This module is the one place that knows the g kinds: ``G_KINDS`` maps each
kind's name to its class, and each kind answers for itself: ``scaled``
(lam^beta * g(r/lam)), ``derivative`` (g' given g) and ``conditions`` (its
admissibility for a profile).  Its text is ``textform``'s: an analytic kind
is its dataclass fields, a table its 'r,value,derivative' rows.

One validator, ``validate_for_regime``, judges g for the convergence regime
that beta selects, at every r > 0.  Both regimes ask g >= 0
(``nonnegative``) and (1 + k*alpha) * g(r) / r <= g'(r) (``scaling``);
besides,

* the equality regime beta = 1 + k*alpha asks g to vanish identically near
  the origin (``zero_near_origin``);
* the strict regime beta > 1 + k*alpha asks g to be flat at the origin
  through order floor(beta) (``flatness``).

A run reads g at radii no sample grid foresees, ever closer to 0 as lam grows,
so each kind decides all three exactly, in ``conditions``: an analytic kind
from its formula, a table from its cubics (``origin_interval`` at the origin).
"""

import math
from dataclasses import dataclass, field

import numpy as np

#: exp(-1/x) is flushed to exactly 0 once 1/x > EXP_FLUSH (avoids subnormals)
EXP_FLUSH = 745.0
# p log(base) above this keeps base^-p below EXP_FLUSH with room for rounding
_LIVE_LOG = 1e-9 - math.log(EXP_FLUSH)

#: an exponent past EXP_MAX is an overflow (e^700 ~ 1e304)
EXP_MAX = 700.0

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


class _Analytic:
    """What the analytic kinds share: g defined for every r >= 0 with g(0) = 0,
    and ``conditions``."""

    zero_interval = False  # g = 0 on some [0, epsilon]; else g > 0 on (0, inf)
    flat_order = math.inf  # g vanishes through this order at 0

    def conditions(self, profile):
        """The three conditions, decided exactly from the two facts above: g >= 0;
        g'/g is l/r for r^l, (1 + k*alpha)/r plus a positive term for the flat
        families, so 'scaling' holds iff flat_order >= k*alpha; a g that is 0
        on some [0, epsilon] passes either origin condition, any other fails
        'zero_near_origin' and passes 'flatness' iff flat_order >= floor(beta).
        A failure shows its violation at r = 1 ((1 + k*alpha) g - g', or g =
        g/r^(floor(beta)+1)), a pass 0 at r = 0."""
        g, gp = eval_g(profile, 1.0)
        if profile.equality_regime:
            origin = "zero_near_origin", self.zero_interval
        else:
            origin = "flatness", self.flat_order >= math.floor(profile.beta)
        verdicts = (
            ("nonnegative", True, 0.0),
            ("scaling", self.flat_order >= profile.ka - _TOL, (1.0 + profile.ka) * g - gp),
            (*origin, g),
        )
        return tuple(ConditionReport(name, ok, 0.0 if ok else v, 0.0 if ok else 1.0) for name, ok, v in verdicts)


@dataclass(frozen=True)
class ZeroG(_Analytic):
    """g identically zero (pure r^beta speed)."""

    KIND = "zero"
    zero_interval = True

    def scaled(self, profile, lam, r):
        return np.zeros_like(r)

    def derivative(self, profile, r, g):
        return np.zeros_like(r)


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
    zero_interval = True

    def __post_init__(self):
        _positive_finite("epsilon", self.epsilon)
        _positive_finite("p", self.p)

    @property
    def shift(self):
        return self.epsilon


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

    It vanishes through order l - 1 at 0, so it is flat enough for the strict
    regime iff l >= floor(beta) + 1.
    """

    l: float
    KIND = "monomial"
    flat_order = property(lambda self: self.l - 1)

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

    Queries outside [points[0], points[-1]] raise ValueError.
    Inside, g and g' are bit for bit those of scipy's ``CubicHermiteSpline``
    and its derivative: the same power-basis coefficients per interval, the
    same interval for a query at a node (the one it starts), and the same
    order of summation.
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
        if not np.isfinite([self.points, self.values, self.derivs]).all():
            raise ValueError("table entries must be finite")
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("sample points must be strictly increasing")
        if self.points[0] < 0.0:
            raise ValueError("g is only defined for r >= 0")
        h = np.diff(self.points)
        d0 = self.derivs[:-1]
        slope = np.diff(self.values) / h
        t = (d0 + self.derivs[1:] - 2 * slope) / h
        # one contiguous column per power of s = r - points[i], gathered by take
        self._c = (self.values[:-1], d0, (slope - d0) / h - t, t / h)

    def conditions(self, profile):
        """The three conditions, decided exactly on the cubics.  g and
        r g' - (1 + k*alpha) g (the scaling inequality times r, allowing
        1e-12 (1 + max |g'| at the nodes) for rounding) are cubics on each
        interval, so each is >= 0 there iff it is at the interval's ends and
        interior critical points.  'origin_interval': once lam is large the
        flow reads only the first cubic, so the table must start at 0 and that
        cubic's power coefficients must vanish through order min(3,
        floor(beta)) in the strict regime, and all of them in the equality
        regime."""
        r, g = self._extremes(self._c)
        i = int(np.argmin(g))
        nonnegative = ConditionReport("nonnegative", bool(g[i] >= -_TOL), float(-g[i]), float(r[i]))
        m, x, (c0, c1, c2, c3) = 1.0 + profile.ka, self.points[:-1], self._c
        tol = _TOL * (1.0 + np.abs(self.derivs).max())
        # r g' - m g + tol r, in s = r - x
        d = (x * c1 - m * c0 + tol * x, 2.0 * x * c2 + (1.0 - m) * c1 + tol, 3.0 * x * c3 + (2.0 - m) * c2, (3.0 - m) * c3)
        r, q = self._extremes(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            viol = tol - q / r  # (1 + k*alpha) g/r - g'; NaN at r = 0 if g(0) = 0
        i = int(np.nanargmax(viol))
        scaling = ConditionReport("scaling", bool(q.min() >= 0.0), float(viol[i]), float(r[i]))
        origin = float(self.points[0])
        order = 3 if profile.equality_regime else min(3, math.floor(profile.beta))
        worst = origin if origin > 0.0 else max(abs(float(c[0])) for c in self._c[: order + 1])
        return nonnegative, scaling, ConditionReport("origin_interval", worst == 0.0, worst, origin)

    def _extremes(self, c):
        """The radii where the piecewise cubic of power coefficients c (in
        s = r - points[i] on interval i, as ``_c``) has its extremes, and its
        values there: the nodes and each cubic's interior critical points,
        the roots in (0, h) of c1 + 2 c2 s + 3 c3 s^2."""
        a, b = 3.0 * c[3], 2.0 * c[2]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the roots q/a and c1/q, free of cancellation; a complex pair
            # (NaN) and the root that a = 0 sends to infinity fall out below
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c[1]), b))
            s = np.concatenate((q / a, c[1] / q))
        i = np.tile(np.arange(a.size), 2)
        inside = (s > 0.0) & (s < np.diff(self.points).take(i))
        s, i = s[inside], i[inside]
        node_i, node_s = self._interval(self.points)
        r = np.concatenate((self.points, self.points.take(i) + s))
        return r, _cubic_at(c, np.concatenate((node_i, i)), np.concatenate((node_s, s)))

    def _interval(self, r):
        """r's interval i (the last one for r == points[-1]) and s = r - points[i]."""
        i = np.minimum(np.searchsorted(self.points, r, side="right") - 1, self.points.size - 2)
        return i, r - self.points.take(i)

    def value(self, r):
        """g(r) alone: the flow reads no g'."""
        r = np.asarray(r, dtype=float)
        if (r < self.points[0]).any() or (r > self.points[-1]).any():
            raise TableRangeError(
                f"tabulated g queried outside [{self.points[0]}, {self.points[-1]}]"
            )
        return _cubic_at(self._c, *self._interval(r))

    def derivative(self, profile, r, g):
        i, s = self._interval(np.asarray(r, dtype=float))
        c1, c2, c3 = (c.take(i) for c in self._c[1:])
        return 0.0 + c1 + (2 * c2) * s + (3 * c3) * (s * s)

    def scaled(self, profile, lam, r):
        """lam^beta * g(r/lam) by direct evaluation; a value past the float
        range is a ScaleOverflowError naming its r."""
        val = self.value(r / lam)
        # lam^beta in numpy, so that it overflows to inf, not to OverflowError;
        # inf * 0 is formed before the where drops it
        with np.errstate(over="ignore", invalid="ignore"):
            gs = np.where(val == 0.0, 0.0, np.power(lam, profile.beta) * val)
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


def _cubic_at(c, i, s):
    """The piecewise cubic of power coefficients c at s in intervals i."""
    return 0.0 + c[0].take(i) + c[1].take(i) * s + c[2].take(i) * (s * s) + c[3].take(i) * (s * s * s)


G_KINDS = {c.KIND: c for c in (ZeroG, BumpG, ExpFlatG, MonomialG, TabulatedG)}


@dataclass(frozen=True)
class SpeedProfile:
    """Problem data (n, k, alpha, beta, g) for one flow.

    gamma = binom(n, k)^alpha is the value of sigma_k^alpha on the unit sphere
    and the source term of the normalized scalar equation.

    The constructor checks structural constraints only: the alpha family
    ((k = 1, alpha > 0) or (k >= 2, alpha = 1/k or alpha >= 1)) and
    beta >= 1 + k*alpha.  Whether g is admissible for the regime selected by
    beta is decided by validate_for_regime.
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
    """The normalization factor lam = exp(gamma*tau), the one place it is
    computed; ScaleOverflowError once it passes the float range."""
    try:
        return math.exp(profile.gamma * tau)
    except OverflowError:
        raise ScaleOverflowError(f"normalization factor lam = exp(gamma*tau) overflows at tau={tau!r}") from None


def eval_g(profile, r):
    """g(r) and g'(r) for the profile's g specification, unscaled (lam = 1).

    The flow reads no g': an analytic kind's ``conditions`` reads it here, at
    r = 1, and a table's reads its cubics directly.  Accepts scalars or
    arrays; r must be >= 0 (a NaN radius raises ValueError like r < 0) and
    within the table for tabulated g.  Returns (g, gp) with the input's shape.
    """
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():  # NaN fails too
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
# admissibility validator


@dataclass(frozen=True)
class ConditionReport:
    name: str
    ok: bool
    worst_violation: float
    location: float


@dataclass(frozen=True)
class ProfileReport:
    """Validator outcome: ok iff every condition holds.

    worst_violation/location/condition describe the first failing condition
    (nonnegative, scaling, the origin condition), or the first one when ok.
    """

    ok: bool
    worst_violation: float
    location: float
    condition: str
    conditions: tuple

    def failed(self):
        return tuple(c.name for c in self.conditions if not c.ok)


def validate_for_regime(profile):
    """Judge g by the conditions of the regime that beta selects, at every r > 0.

    Both regimes ask g >= 0 ('nonnegative') and (1 + k*alpha) g(r)/r <= g'(r)
    ('scaling').  Besides, the equality regime beta = 1 + k*alpha asks that g
    vanish identically near the origin, the strict regime beta > 1 + k*alpha
    that g be flat there through order floor(beta).  g's kind decides each
    exactly (``conditions``); the report names the first that fails.
    """
    conds = profile.g.conditions(profile)
    pick = next((c for c in conds if not c.ok), conds[0])
    return ProfileReport(
        ok=pick.ok, worst_violation=pick.worst_violation, location=pick.location, condition=pick.name, conditions=conds
    )
