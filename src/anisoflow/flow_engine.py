"""Time integration of the normalized curvature-flow PDE on the sphere grid.

The evolving unknown is phi = log r with

    d(phi)/d(tau) = -(e^{(beta-1)phi} rho + (rho/r) lam^beta g(r/lam))
                      * sigma_k(kappa)^alpha  +  gamma,

where lam = exp(gamma*tau) is the normalization factor, advanced analytically
(never integrated).  Stepping is explicit, second order in time: four rhs
calls per step in a two-register form, whose stability polynomial swings
between +eta and -eta, RKC(4)'s damping, over a real interval 1.21x RKC(4)'s,
with dt a fraction ``cfl`` of that real stability limit, recomputed from the
current curvature field every step; all reductions are fixed-order numpy
reductions so repeated runs are bit-identical.

The engine does not branch on the kind of grid: a state is stepped and
recorded on its grid's stage of its graph (``SphericalGrid.stage``), which
for a bit-exactly zonal state on S^2 is one latitude column, and ``step``
has the stage grid broadcast the result back.  A step keeps a zonal state
zonal, so it hands the column it computed on to the state it returns: the
zonality scan runs once per run.  A state's curvature field is built once,
for a record and the next step's first stage alike.

The physical-time picture: the unnormalized surface shrinks toward the origin,
r_phys = exp(phi - gamma*tau); ``unnormalize`` reconstructs it together with
the physical time t(tau).
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import speed_profile
from .diagnostics import DiagnosticsSeries
from .speed_profile import (
    NonPositiveRadiusError,
    ScaleOverflowError,
    SpeedProfile,
    TableRangeError,
    lambda_of_tau,
    validate_for_regime,
)
from .sphere_geometry import RadialGraph, SingularMetricError, weingarten
from .symfunc import CONE_EPS

_MIN_DT = 1e-14
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
# c1 = a4/a3 and c2 = 2 a3.  A cfl up to x2 / REAL_LIMIT = 0.828, the default 0.8
# among them, keeps every mode past x = 1 damped by eta.
_A3, _A4 = 0.07894655096054984, 0.0037002440195151153
REAL_LIMIT = 11.869290077999935
STAGE_C1, STAGE_C2 = _A4 / _A3, 2.0 * _A3
# h^2 times the spectral radius of the 4th-order second-difference stencil:
# its symbol (30 - 32 cos(xi) + 2 cos(2 xi)) / 12 peaks at xi = pi.
D2_RADIUS = 16.0 / 3.0


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
    """The stable step size collapsed below 1e-14."""


class SpeedRangeError(FlowError):
    """The speed's g term could not be evaluated: a radius <= 0, radii outside a
    tabulated g's table, or a rescaled value beyond the floating-point range."""


class DegenerateMetricError(FlowError):
    """The graph's metric lost positive definiteness, e.g. where a radius reached 0."""


class AdmissibilityError(ValueError):
    """Profile/initial-data combination fails its theorem-regime validator."""


@dataclass(frozen=True)
class FlowState:
    """One instant of the normalized flow.

    stage_graph is built from graph on first read, unless ``step`` handed on
    the zonal column it computed, of which graph is the broadcast.
    """

    tau: float
    graph: RadialGraph
    step_count: int
    last_dt: float
    profile: SpeedProfile

    @property
    def lam(self):
        """The normalization factor exp(gamma*tau)."""
        return lambda_of_tau(self.profile, self.tau)

    @cached_property
    def stage_graph(self):
        """The graph the RK stages, the dt bound and the record evaluate: the
        grid's stage of the graph."""
        return self.graph.grid.stage(self.graph)

    @cached_property
    def field(self):
        """weingarten(stage_graph), shared by a record and the next step's k1 stage."""
        return weingarten(self.stage_graph)


@dataclass(frozen=True)
class StepControl:
    """Integration controls.  sphericity_stop = 0 disables that termination.

    cfl is the fraction of the linear stability limit (``stable_dt_bound``) a
    step takes; cfl = 1 steps at the limit itself and is still stable.
    max_steps and record_every are integers.
    """

    t_end: float
    cfl: float = 0.8
    dt_max: float = 1.0
    sphericity_stop: float = 0.0
    max_steps: int = 10_000_000
    record_every: int = 10

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not self.sphericity_stop >= 0.0:  # also rejects nan, which would disable the stop
            raise ValueError(f"sphericity_stop must be >= 0 (0 disables), got {self.sphericity_stop}")
        if not all(isinstance(v, numbers.Integral) and v >= 1 for v in (self.max_steps, self.record_every)):
            raise ValueError(f"max_steps and record_every must be integers >= 1, got {self.max_steps!r}, {self.record_every!r}")


@dataclass(frozen=True)
class RunResult:
    state: FlowState
    series: DiagnosticsSeries
    reason: str  # "t_end" | "sphericity_stop" | "max_steps"


# ---------------------------------------------------------------------------
# normalization maps


def lambda_maps(profile, t):
    """(lambda(t), tau(t)) for physical time t >= 0."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    gamma = profile.gamma
    if profile.equality_regime:
        return lambda_of_tau(profile, t), t
    p = profile.beta - profile.ka - 1.0
    lam = (1.0 + p * gamma * t) ** (1.0 / p)
    tau = math.log1p(p * gamma * t) / (p * gamma)
    return lam, tau


def t_of_tau(profile, tau):
    """Physical time for normalized time tau; inverse of lambda_maps' tau(t)."""
    if profile.equality_regime:
        return tau
    p = profile.beta - profile.ka - 1.0
    return math.expm1(p * profile.gamma * tau) / (p * profile.gamma)


def unnormalize(state):
    """(t, graph) of the original shrinking flow: r_phys = r * lambda^-1."""
    t = t_of_tau(state.profile, state.tau)
    phi_phys = state.graph.phi - state.profile.gamma * state.tau
    return t, RadialGraph(state.graph.grid, phi_phys)


# ---------------------------------------------------------------------------
# right-hand side


def _cone_gate(profile, field, tau):
    """Abort on cone exit, except for (k, alpha) = (1, 1) where the operator
    stays uniformly parabolic for any curvature sign."""
    if profile.k == 1 and abs(profile.alpha - 1.0) <= _ALPHA_TOL:
        return
    margin = field.sigma[..., : profile.k].min()
    if margin <= CONE_EPS:
        node_margin = field.sigma[..., : profile.k].min(axis=-1)
        node = tuple(int(i) for i in np.unravel_index(int(np.argmin(node_margin)), node_margin.shape))
        node = node[0] if len(node) == 1 else node
        raise ConeViolationError(node=node, margin=float(margin), tau=tau)


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


def rhs(profile, graph, tau, field=None):
    """d(phi)/d(tau) per node at normalized time tau, plus the curvature field
    and coefficient A.

    field, when given, is weingarten(graph), already built.
    """
    if field is None:
        field = weingarten(graph)
    _cone_gate(profile, field, tau)
    sig = field.sigma[..., profile.k - 1]
    A = _speed_coefficient(profile, graph, field, tau)
    out = A * _sigma_pow(sig, profile.alpha)
    np.subtract(profile.gamma, out, out=out)
    if not np.isfinite(out).all():
        raise NonFiniteRHSError("non-finite right-hand side", tau)
    return out, field, A


def stable_dt_bound(profile, graph, field, A):
    """The linear stability limit: REAL_LIMIT, the stability polynomial's
    real interval, over the largest spectral radius of the linearized
    principal part, D2_RADIUS * D / h^2 per node and stencil direction.

    D = alpha * A * sigma_k^(alpha-1) * maxeig(d sigma_k / d kappa) / (r rho)
    is the diffusivity per node.  The graph's grid sums the inverse squared
    spacings h^-2 over the directions its stencils run
    (``SphericalGrid.max_d_over_h2``): a full S^2 grid's longitude adds
    1 / (h_phi^2 sin^2(theta)), a zonal column's does not.

    For k = 1 the partials are all 1 and A * 1.0 is A, so D = A / (r rho)
    needs no kappa (no eigen solve on a surface).  For k = 2 (so n = 2) the
    partials are (kappa_2, kappa_1), and the larger is kappa_1, the first of
    the descending kappa columns.
    """
    k, alpha = profile.k, profile.alpha
    if k == 1:
        D = A / (field.r * field.rho)
    else:
        D = A * field.kappa[..., 0] / (field.r * field.rho)
    if abs(alpha - 1.0) > _ALPHA_TOL:
        sig = field.sigma[..., k - 1]
        D = alpha * np.power(sig, alpha - 1.0) * D
    return float(REAL_LIMIT / (D2_RADIUS * graph.grid.max_d_over_h2(D)))


def step(state, control, dt_cap=math.inf):
    """One explicit step; dt = min(dt_max, cfl * stability limit, dt_cap).

    The limit is ``stable_dt_bound``, so any cfl in (0, 1] is linearly stable.
    With c = (0, STAGE_C1, STAGE_C2, 1/2, 1) and u_0 = phi0, each stage restarts
    from phi0: u_j = phi0 + c_j dt F(u_{j-1}, tau0 + c_{j-1} dt), and phi1 = u_4,
    whose stability polynomial is R above.  That is second order in time; a
    third-order four-stage method such as SSPRK(4,3) reaches only 5.15 on the
    real axis.  The stages run on state.stage_graph, whose grid broadcasts the
    result back onto the state's grid.  Only the stage's values are checked
    for finiteness; when the stage is not the state's graph (a zonal column),
    the broadcast graph is built unchecked and the column is handed on as the
    new state's stage_graph, since a step keeps a zonal state zonal.
    """
    profile, grid = state.profile, state.graph.grid
    graph = state.stage_graph
    tau0, phi0, stage_grid = state.tau, graph.phi, graph.grid
    k, field0, A0 = rhs(profile, graph, tau0, state.field)
    dt = min(control.dt_max, control.cfl * stable_dt_bound(profile, graph, field0, A0), dt_cap)
    if dt < _MIN_DT:
        raise StepTooSmallError(f"stable step {dt:.3e} below {_MIN_DT:g}", tau0)
    # two registers, phi0 and k: each stage turns the last rhs output, a fresh
    # array, into the next stage in place (k * h + phi0 has the bits of phi0 + h * k)
    for h in (STAGE_C1 * dt, STAGE_C2 * dt, 0.5 * dt):
        k *= h
        k += phi0
        k, _, _ = rhs(profile, RadialGraph._unchecked(stage_grid, k), tau0 + h)
    k *= dt
    k += phi0
    stage = RadialGraph(stage_grid, k)
    if stage_grid is grid:
        return FlowState(tau=tau0 + dt, graph=stage, step_count=state.step_count + 1, last_dt=dt, profile=profile)
    graph1 = RadialGraph._unchecked(grid, stage_grid.broadcast(k, grid))
    state1 = FlowState(tau=tau0 + dt, graph=graph1, step_count=state.step_count + 1, last_dt=dt, profile=profile)
    vars(state1)["stage_graph"] = stage  # fills the cached property: no zonality scan
    return state1


# ---------------------------------------------------------------------------
# runs


def initial_state(profile, graph, validate_regime=True):
    """FlowState at tau = 0.  The radius exp(phi) must be finite everywhere,
    and unless disabled, the profile must pass its theorem-regime validator
    (override knob for deliberately inadmissible runs)."""
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
    return FlowState(tau=0.0, graph=graph, step_count=0, last_dt=0.0, profile=profile)


def diagnostics_row(state):
    """The per-record reduction vector (see DiagnosticsSeries for the order),
    reduced over state.field, which the next step's first stage reuses.

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
    big_phi = field.u * (_speed_coefficient(profile, state.stage_graph, field, state.tau) * sig_pow)
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
            if state.step_count % control.record_every == 0 and state.step_count != last_recorded:
                series.append(**diagnostics_row(state))
                last_recorded = state.step_count
            if state.tau >= control.t_end - 1e-15:
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
            state = step(state, control, dt_cap=control.t_end - state.tau)
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
