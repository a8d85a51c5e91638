"""Time integration of the normalized curvature-flow PDE on the sphere grid.

The evolving unknown is phi = log r with

    d(phi)/d(tau) = -(e^{(beta-1)phi} rho + (rho/r) lam^beta g(r/lam))
                      * sigma_k(kappa)^alpha  +  gamma,

where lam = exp(gamma*tau) is the normalization factor, advanced analytically
(never integrated).  Stepping is explicit, second order in time: four rhs
calls per step in a two-register form, whose stability polynomial swings
between +eta and -eta, RKC(4)'s damping, over a real interval 1.21x RKC(4)'s,
with dt the fixed fraction ``STEP_FRACTION`` of that real stability limit,
recomputed from the current curvature field every step; all reductions are
fixed-order numpy reductions so repeated runs are bit-identical.

The engine does not branch on the kind of grid: a state is stepped and
recorded on its graph's grid.  Zonality is decided once, where a state is
made from outside data (``initial_state``, which configs and checkpoints go
through): a bit-exactly zonal graph on S^2 becomes the same surface on one
latitude column (``reduce_zonal``), where the run then lives.  A state's
curvature field and speed coefficient are built once, on the state, and read
from it by a record, the dt bound and the next step's first stage alike.
A run's records, one ``diagnostics_row`` each, make its ``DiagnosticsSeries``.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import speed_profile
from .speed_profile import (
    NonPositiveRadiusError,
    ScaleOverflowError,
    SpeedProfile,
    TableRangeError,
    lambda_of_tau,
    validate_for_regime,
)
from .sphere_geometry import RadialGraph, SingularMetricError, reduce_zonal, weingarten
from .symfunc import CONE_EPS

_MIN_DT = 1e-14
_T_END_SLACK = 1e-15  # a state this close to t_end has reached it
_ALPHA_TOL = 1e-12

# The damped optimal four-stage second-order stability polynomial (after Abdulle
# & Medovikov, Numer. Math. 90 (2001) 1): R(z) = 1 + z + z^2/2 + a3 z^3 + a4 z^4.
# Of the three extrema of R(-x) on x > 0 (near x = 1.457, 4.7199 and 9.8247), a3
# and a4 put the last two at exactly +eta and -eta, eta = 0.954182 the damping of
# RKC(4) (Verwer, Hundsdorfer & Sommeijer, Numer. Math. 57 (1990) 157): the four
# equations R(-x1) = eta, R(-x2) = -eta, R'(-x1) = R'(-x2) = 0 in (a3, a4, x1, x2).
# |R(-x)| <= 1 on [0, REAL_LIMIT], the real root of a4 x^3 - a3 x^2 + x/2 - 1
# (where R(-x) climbs back to 1), and <= eta on [1, x2]: 11.8693, 1.21x RKC(4)'s
# 9.80426 and 2.30x SSPRK(4,3)'s 5.1495.  ``step``'s stage coefficients are
# c1 = a4/a3 and c2 = 2 a3.  Any step fraction up to x2 / REAL_LIMIT = 0.828,
# STEP_FRACTION among them, keeps every mode past x = 1 damped by eta.
_A3, _A4 = 0.07894655096054984, 0.0037002440195151153
REAL_LIMIT = 11.869290077999935
STEP_FRACTION = 0.8
STAGE_C1, STAGE_C2 = _A4 / _A3, 2.0 * _A3


class FlowError(Exception):
    """Base class for run-terminating integration errors; carries the failing tau.

    Once raised out of ``run`` it also carries the run's evidence: ``series``,
    the records made before the failure, and ``state``, the last state the
    run reached (the start of the failing step or record).
    """

    def __init__(self, message, tau=None, series=None, state=None):
        super().__init__(message)
        self.tau = tau
        self.series = series
        self.state = state

    def __str__(self):
        base = super().__str__()
        if self.tau is not None:
            return f"{base} (at tau={self.tau:.6g})"
        return base


class ConeViolationError(FlowError):
    """A node's curvature left the k-convexity cone."""

    def __init__(self, node, margin, tau=None):
        super().__init__(f"cone margin {margin:.3e} <= {CONE_EPS:g} at node {node}", tau)
        self.node = node
        self.margin = margin


class NonFiniteRHSError(FlowError):
    """The PDE right-hand side produced a non-finite value."""


class StepTooSmallError(FlowError):
    """The stable step size collapsed below 1e-14; carries the smallest radius
    ``r_min`` and its ``node``, where a collapsing surface shows first."""

    def __init__(self, dt, r_min, node, tau=None):
        super().__init__(f"stable step {dt:.3e} below {_MIN_DT:g}; smallest radius {r_min:.3e} at node {node}", tau)
        self.r_min = r_min
        self.node = node


class SpeedRangeError(FlowError):
    """The speed's g term could not be evaluated: a radius <= 0, radii outside a
    tabulated g's table, or a rescaled value beyond the floating-point range."""


class DegenerateMetricError(FlowError):
    """The graph's metric lost positive definiteness, e.g. where a radius reached 0."""


class AdmissibilityError(ValueError):
    """Profile/initial-data combination fails its theorem-regime validator."""


@dataclass(frozen=True)
class FlowState:
    """One instant of the normalized flow, on its graph's grid: a zonal
    column for a zonal surface, else the grid the graph was given on.  Made
    from outside data (a config, a checkpoint) by ``initial_state`` alone;
    its products ``field`` and ``speed_coefficient`` are built on first read."""

    tau: float
    graph: RadialGraph
    step_count: int
    last_dt: float
    profile: SpeedProfile

    @cached_property
    def field(self):
        """weingarten(graph)."""
        return weingarten(self.graph)

    @cached_property
    def speed_coefficient(self):
        """rhs's coefficient A at this state."""
        return _speed_coefficient(self.profile, self.graph, self.field, self.tau)


@dataclass(frozen=True)
class StepControl:
    """Integration controls.  sphericity_stop = 0 disables that termination.

    A step takes STEP_FRACTION of the linear stability limit
    (``stable_dt_bound``), and dt_max caps it: the one way to ask for a
    smaller step.  max_steps and record_every are integers.
    """

    t_end: float
    dt_max: float = 1.0
    sphericity_stop: float = 0.0
    max_steps: int = 10_000_000
    record_every: int = 10

    def __post_init__(self):
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not self.sphericity_stop >= 0.0:  # also rejects nan, which would disable the stop
            raise ValueError(f"sphericity_stop must be >= 0 (0 disables), got {self.sphericity_stop}")
        if not all(isinstance(v, numbers.Integral) and v >= 1 for v in (self.max_steps, self.record_every)):
            raise ValueError(f"max_steps and record_every must be integers >= 1, got {self.max_steps!r}, {self.record_every!r}")


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
        return np.array(self._data[name])

    def last(self, name):
        return self._data[name][-1]

    def __eq__(self, other):
        return isinstance(other, DiagnosticsSeries) and self._data == other._data


@dataclass(frozen=True)
class RunResult:
    state: FlowState
    series: DiagnosticsSeries
    reason: str  # "t_end" | "sphericity_stop" | "max_steps"


# ---------------------------------------------------------------------------
# right-hand side


def _cone_gate(profile, field, tau):
    """Abort on cone exit, except for (k, alpha) = (1, 1) where the operator
    stays uniformly parabolic for any curvature sign."""
    if profile.k == 1 and abs(profile.alpha - 1.0) <= _ALPHA_TOL:
        return
    margin = field.sigma[..., : profile.k].min()
    if margin <= CONE_EPS:
        raise ConeViolationError(node=_argmin_node(field.sigma[..., : profile.k].min(axis=-1)), margin=float(margin), tau=tau)


def _argmin_node(values):
    """The node of values' smallest entry: an index on a curve, (i, j) on a surface."""
    node = tuple(int(i) for i in np.unravel_index(int(np.argmin(values)), values.shape))
    return node[0] if len(node) == 1 else node


def _sigma_pow(sig, alpha):
    if abs(alpha - 1.0) <= _ALPHA_TOL:
        return sig
    return np.power(sig, alpha)


def _speed_coefficient(profile, graph, field, tau):
    """A = f rho / r, the coefficient of sigma_k^alpha in the rhs, where
    f = r^beta + lam^beta g(r/lam) is the rescaled speed weight at tau."""
    A = (profile.beta - 1.0) * graph.phi
    np.exp(A, out=A)
    A *= field.rho
    if not profile.pure_power:  # else A + 0.0 == A: the flow's A is >= 0
        # looked up per call, so that a wrapper installed on the module name
        # (perfbench/layers.py's tracer) sees every evaluation
        lam = lambda_of_tau(profile, tau)
        g_term = field.rho / field.r
        A += np.multiply(g_term, speed_profile.eval_scaled(profile, lam, field.r), out=g_term)
    return A


def rhs(profile, graph, tau, field=None, A=None):
    """d(phi)/d(tau) per node at normalized time tau; field and A, when given,
    are a state's own weingarten(graph) and speed coefficient at tau."""
    if field is None:
        field = weingarten(graph)
    _cone_gate(profile, field, tau)
    sig = field.sigma[..., profile.k - 1]
    if A is None:
        A = _speed_coefficient(profile, graph, field, tau)
    out = A * _sigma_pow(sig, profile.alpha)
    np.subtract(profile.gamma, out, out=out)
    if not np.isfinite(out).all():
        raise NonFiniteRHSError("non-finite right-hand side", tau)
    return out


def stable_dt_bound(state):
    """The linear stability limit at a state: REAL_LIMIT, the stability
    polynomial's real interval, over the spectral radius of the linearized
    principal part D * Laplacian, which the graph's grid gives from its
    stencils and spacings (``SphericalGrid.principal_radius``, with the
    stencil's D2_RADIUS, both in ``sphere_geometry``).

    D = alpha * A * sigma_k^(alpha-1) * maxeig(d sigma_k / d kappa) / (r rho)
    is the diffusivity per node, read from the state's field and A.

    For k = 1 the partials are all 1 and A * 1.0 is A, so D = A / (r rho)
    needs no kappa (no eigen solve on a surface).  For k = 2 (so n = 2) the
    partials are (kappa_2, kappa_1), and the larger is kappa_1, the first of
    the descending kappa columns.
    """
    k, alpha = state.profile.k, state.profile.alpha
    field, A = state.field, state.speed_coefficient
    if k == 1:
        D = A / (field.r * field.rho)
    else:
        D = A * field.kappa[..., 0] / (field.r * field.rho)
    if abs(alpha - 1.0) > _ALPHA_TOL:
        D = alpha * np.power(field.sigma[..., k - 1], alpha - 1.0) * D
    return float(REAL_LIMIT / state.graph.grid.principal_radius(D))


def step(state, control):
    """One explicit step; dt = min(dt_max, STEP_FRACTION * stability limit, t_end - tau).

    The limit is ``stable_dt_bound``, so any fraction in (0, 1] is linearly stable.
    With c = (0, STAGE_C1, STAGE_C2, 1/2, 1) and u_0 = phi0, each stage restarts
    from phi0: u_j = phi0 + c_j dt F(u_{j-1}, tau0 + c_{j-1} dt), and phi1 = u_4,
    whose stability polynomial is R above.  That is second order in time; a
    third-order four-stage method such as SSPRK(4,3) reaches only 5.15 on the
    real axis.  The stages run on state.graph's grid as given, the first from
    the state's field and A.  A state that ``run`` stops has no step: ValueError.
    """
    profile, graph = state.profile, state.graph
    tau0, phi0, grid = state.tau, graph.phi, graph.grid
    if tau0 >= control.t_end - _T_END_SLACK:
        raise ValueError(f"no time left to step: tau={tau0!r} reaches t_end={control.t_end!r}")
    k = rhs(profile, graph, tau0, state.field, state.speed_coefficient)
    dt = min(control.dt_max, STEP_FRACTION * stable_dt_bound(state), control.t_end - tau0)
    if dt < _MIN_DT:
        raise StepTooSmallError(dt, float(state.field.r.min()), _argmin_node(state.field.r), tau0)
    # two registers, phi0 and k: each stage turns the last rhs output, a fresh
    # array, into the next stage in place (k * h + phi0 has the bits of phi0 + h * k)
    for h in (STAGE_C1 * dt, STAGE_C2 * dt, 0.5 * dt):
        k *= h
        k += phi0
        k = rhs(profile, RadialGraph._unchecked(grid, k), tau0 + h)
    k *= dt
    k += phi0
    return FlowState(tau=tau0 + dt, graph=RadialGraph(grid, k), step_count=state.step_count + 1, last_dt=dt, profile=profile)


# ---------------------------------------------------------------------------
# runs


def initial_state(profile, graph, validate_regime=True):
    """FlowState at tau = 0 on ``reduce_zonal(graph)``, the one maker of a
    state from outside data (``textform``'s configs and checkpoints).  The
    radius exp(phi) must be finite everywhere, and unless disabled, the profile
    must pass its theorem-regime validator (override knob for deliberately
    inadmissible runs)."""
    if graph.grid.n != profile.n:
        raise ValueError(f"grid dimension {graph.grid.n} != profile n {profile.n}")
    with np.errstate(over="ignore"):
        if not np.isfinite(graph.r()).all():
            raise ValueError(f"initial radius exp(phi) overflows (max phi = {graph.phi.max():.6g})")
    if validate_regime:
        report = validate_for_regime(profile)
        if not report.ok:
            raise AdmissibilityError(
                f"profile fails its regime validator: condition {report.condition!r}, "
                f"worst violation {report.worst_violation:.3e} at r={report.location:.6g}"
            )
    return FlowState(tau=0.0, graph=reduce_zonal(graph), step_count=0, last_dt=0.0, profile=profile)


def diagnostics_row(state):
    """The per-record reduction vector (see DiagnosticsSeries for the order),
    reduced over state.field and state.speed_coefficient, which the next
    step's first stage reuses.

    The speed factor Phi = f sigma_k^alpha, f = r^beta + lam^beta g(r/lam),
    is taken as u (A sigma_k^alpha), the support function times the rhs's
    speed term, so it stays finite where r^beta overflows but Phi does not
    (a large sphere: r^beta sigma_k^alpha ~ r^(beta - k alpha)).  A record
    may precede the cone gate, so the power is formed of |sigma_k| and takes
    sigma_k's sign: a node outside the cone gives a negative Phi, not a NaN.
    """
    profile = state.profile
    field = state.field
    sig = field.sigma[..., profile.k - 1]
    sig_pow = np.copysign(_sigma_pow(np.abs(sig), profile.alpha), sig)
    big_phi = field.u * (state.speed_coefficient * sig_pow)
    r_min = float(field.r.min())
    r_max = float(field.r.max())
    grad_phi = field.grad_phi_norm()
    return {
        "tau": state.tau,
        "r_min": r_min,
        "r_max": r_max,
        "osc": r_max - r_min,
        "grad_phi_max": float(grad_phi.max()),
        "grad_r_max": float((field.r * grad_phi).max()),
        "u_min": float(field.u.min()),
        "phi_min_cap": float(big_phi.min()),
        "phi_max_cap": float(big_phi.max()),
        "cone_margin": float(field.sigma[..., : profile.k].min()),
        "a_max": float(np.abs(field.kappa).max()),
        "dt": state.last_dt,
    }


def run(state, control):
    """Advance until t_end, sphericity_stop, or max_steps (checked in that
    order), recording diagnostics every record_every steps plus the final state.

    Every failure ends as a FlowError that carries its tau, the series
    recorded so far and the last state reached.  A state whose tau is not a
    finite number >= 0 (one built in code) is refused first, with a ValueError.
    """
    if not 0.0 <= state.tau < math.inf:  # NaN fails too
        raise ValueError(f"state tau must be finite and >= 0, got {state.tau!r}")
    series = DiagnosticsSeries()
    last_recorded = -1
    try:
        while True:
            if state.step_count % control.record_every == 0:
                series.append(**diagnostics_row(state))
                last_recorded = state.step_count
            if state.tau >= control.t_end - _T_END_SLACK:
                reason = "t_end"
                break
            if control.sphericity_stop > 0.0:
                r = state.field.r  # exp(phi), built anyway for the next k1 stage
                if float(r.max() - r.min()) < control.sphericity_stop:
                    reason = "sphericity_stop"
                    break
            if state.step_count >= control.max_steps:
                reason = "max_steps"
                break
            state = step(state, control)
        if state.step_count != last_recorded:
            series.append(**diagnostics_row(state))
    except FlowError as err:
        err.series, err.state = series, state
        raise
    except (NonPositiveRadiusError, TableRangeError, ScaleOverflowError) as err:
        # from a record or a step that starts at state.tau
        raise SpeedRangeError(str(err), state.tau, series, state) from err
    except SingularMetricError as err:
        raise DegenerateMetricError(str(err), state.tau, series, state) from err
    return RunResult(state=state, series=series, reason=reason)
