"""Radial speed weights f(r) = r^beta + g(r) and their admissibility checks.

The flow speed is f(r) * sigma_k^alpha.  The normalized equation never needs g
itself, only the rescaled term lam^beta * g(r/lam), with lam = exp(gamma*tau)
(``lambda_of_tau``); ``eval_scaled`` evaluates it in a form that stays finite
for arbitrarily large lam (log-space for the exponentially flat families,
exponent arithmetic for monomials).  g' is needed only by the validator,
through ``eval_g``.

This module is the one place that knows the g kinds: ``G_KINDS`` maps each
kind's name to its class, and each kind answers for itself: ``scaled``
(lam^beta * g(r/lam)), ``derivative`` (g' given g), ``support``, ``germ`` (its
regime's condition at the origin) and its text, ``params`` by name or, for a
``TABLE`` kind, 'r,value,derivative' ``rows``.

One validator, ``validate_for_regime``, checks g for the convergence regime
that beta selects.  Both regimes ask g >= 0 and (1 + k*alpha) * g(r) / r <=
g'(r), on samples of [0.01, 3] inside g's support (a table's g >= 0 on every
cubic); besides,

* the equality regime beta = 1 + k*alpha asks g to vanish identically near
  the origin (``zero_near_origin``);
* the strict regime beta > 1 + k*alpha asks g to be flat at the origin
  through order floor(beta) (``flatness``).

A long run reads g ever closer to 0, below every sample, so each kind decides
its regime's origin condition exactly, in ``germ``: an analytic kind from its
formula, a table from its first cubic (``origin_interval``).
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
    """What the analytic kinds share: parameters (the dataclass fields) and no
    table rows, g defined for every r >= 0 with g(0) = 0, and ``germ``."""

    TABLE = False
    support = (0.0, math.inf)
    params = property(dataclasses.asdict)
    zero_interval = False  # g = 0 on some [0, epsilon]; else g > 0 on (0, inf)
    flat_order = math.inf  # g vanishes through this order at 0

    def rows(self):
        return ()

    def germ(self, profile, r, gval):
        """The regime's origin condition, decided exactly from the two facts
        above and shown on the samples: a g that is 0 on some [0, epsilon]
        passes either regime; any other g fails 'zero_near_origin', at the
        first sample where g > 0, and is flat iff flat_order >= floor(beta),
        else failing 'flatness' with g/r^(floor(beta)+1) at the first sample."""
        if self.zero_interval:
            return ConditionReport("zero_near_origin" if profile.equality_regime else "flatness", True, 0.0, 0.0)
        if profile.equality_regime:
            i = int(np.argmax(gval > 0.0))
            return ConditionReport("zero_near_origin", False, float(gval[i]), float(r[i]))
        m = math.floor(profile.beta) + 1
        if self.flat_order >= m - 1:
            return ConditionReport("flatness", True, 0.0, 0.0)
        return ConditionReport("flatness", False, float(gval[0] / r[0] ** m), float(r[0]))


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

    Queries outside ``support``, [points[0], points[-1]], raise ValueError.
    Inside, g and g' are bit for bit those of scipy's ``CubicHermiteSpline``
    and its derivative: the same power-basis coefficients per interval, the
    same interval for a query at a node (the one it starts), and the same
    order of summation.
    """

    KIND = "tabulated"
    TABLE = True
    params = property(lambda self: {})  # the rows are all of it

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

    def germ(self, profile, r, gval):
        """The origin interval, checked exactly: once lam is large the flow's
        lam^beta g(r/lam) reads only the first cubic, so the table must start
        at 0 and that cubic's power coefficients must vanish through order
        min(3, floor(beta)) in the strict regime, and all of them in the
        equality regime."""
        origin = float(self.points[0])
        if origin > 0.0:
            return ConditionReport("origin_interval", False, origin, origin)
        order = 3 if profile.equality_regime else min(3, math.floor(profile.beta))
        worst = max(abs(float(c[0])) for c in self._c[: order + 1])
        return ConditionReport("origin_interval", worst == 0.0, worst, origin)

    def extrema(self):
        """The radii where g's extremes lie, and g there: the nodes and each
        cubic's interior critical points, the roots in (0, h) of
        c1 + 2 c2 s + 3 c3 s^2."""
        c0, c1, c2, c3 = self._c
        a, b = 3.0 * c3, 2.0 * c2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the roots q/a and c1/q, free of cancellation; a complex pair
            # (NaN) and the root that a = 0 sends to infinity fall out below
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c1), b))
            s = np.concatenate((q / a, c1 / q))
        i = np.tile(np.arange(c0.size), 2)
        inside = (s > 0.0) & (s < np.diff(self.points).take(i))
        s, i = s[inside], i[inside]
        inner = c0.take(i) + c1.take(i) * s + c2.take(i) * (s * s) + c3.take(i) * (s * s * s)
        r = np.concatenate((self.points, self.points.take(i) + s))
        return r, np.concatenate((self.value(self.points), inner))

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

    The one source of g', which only the admissibility validator reads.
    Accepts scalars or arrays; r must be >= 0 (a NaN radius raises
    ValueError like r < 0) and within the table for tabulated g.  Returns
    (g, gp) with the input's shape.
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


#: the validator's samples; it reads those inside g's support
_SAMPLES = np.geomspace(0.01, 3.0, 600)


def _condition_nonneg(g, r, gval):
    """g >= 0 on the samples; a table's at its extrema, where every cubic's
    minimum lies."""
    if g.TABLE:
        r, gval = g.extrema()
    i = int(np.argmin(gval))
    return ConditionReport("nonnegative", bool(gval[i] >= -_TOL), float(-gval[i]), float(r[i]))


def _condition_scaling(profile, r, gval, gder):
    """(1 + k*alpha) g(r)/r <= g'(r) on the samples."""
    viol = (1.0 + profile.ka) * gval / r - gder
    i = int(np.argmax(viol))
    ok = viol[i] <= _TOL * (1.0 + abs(gder[i]))
    return ConditionReport("scaling", bool(ok), float(viol[i]), float(r[i]))


def validate_for_regime(profile):
    """Check g against the conditions of the regime that beta selects.

    Both regimes: g >= 0 and (1 + k*alpha) g(r)/r <= g'(r), on the samples
    in [0.01, 3] that lie inside g's support (g >= 0 on a table's every
    cubic).  Between them comes the regime's origin condition, which g's kind
    decides exactly (``germ``): the equality regime beta = 1 + k*alpha asks
    that g vanish identically near the origin, the strict regime
    beta > 1 + k*alpha that g be flat there through order floor(beta).  A g
    whose support holds no sample fails, as condition 'support'.
    """
    origin, end = profile.g.support
    r = _SAMPLES[(origin <= _SAMPLES) & (_SAMPLES <= end)]
    if r.size:
        gval, gder = eval_g(profile, r)
        conds = (_condition_nonneg(profile.g, r, gval), profile.g.germ(profile, r, gval), _condition_scaling(profile, r, gval, gder))
    else:
        conds = (ConditionReport("support", False, math.inf, origin),)
    bad = [c for c in conds if not c.ok]
    pick = max(bad or conds, key=lambda c: c.worst_violation)
    return ProfileReport(
        ok=not bad, worst_violation=pick.worst_violation, location=pick.location, condition=pick.name, conditions=conds
    )
