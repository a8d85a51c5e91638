"""Normalized anisotropic curvature flow of star-shaped hypersurfaces.

The flow speed is f(r) * sigma_k(kappa)^alpha with f(r) = r^beta + g(r);
surfaces are radial graphs over S^1 or S^2.  See the README for the module
map and the command-line interface.
"""

from .diagnostics import (
    COLUMNS,
    DecayFit,
    DiagnosticsSeries,
    closed_form_r1,
    closed_form_r2,
    fit_exponential,
    sphere_ode_at,
    sphere_ode_rhs,
)
from .flow_engine import (
    AdmissibilityError,
    ConeViolationError,
    DegenerateMetricError,
    FlowError,
    FlowState,
    NonFiniteRHSError,
    RunResult,
    SpeedRangeError,
    StepControl,
    StepTooSmallError,
    initial_state,
    lambda_maps,
    lambda_of_tau,
    rhs,
    run,
    step,
    t_of_tau,
    unnormalize,
)
from .speed_profile import (
    BumpG,
    ExpFlatG,
    MonomialG,
    NonPositiveRadiusError,
    ProfileReport,
    ScaleOverflowError,
    SpeedProfile,
    TableRangeError,
    TabulatedG,
    ZeroG,
    eval_g,
    eval_scaled,
    validate_for_regime,
    validate_theorem1,
    validate_theorem2,
)
from .sphere_geometry import (
    RadialGraph,
    SingularMetricError,
    SphericalGrid,
    WeingartenField,
    covariant_derivatives,
    embedding_oracle,
    sphere_graph,
    weingarten,
)
from .symfunc import (
    CONE_EPS,
    cone_margin,
    in_gamma_k_plus,
    sigma_k,
    sigma_k_partials,
)
from .textform import load_checkpoint, load_graph, save_checkpoint, save_graph
from .verify import pde_vs_ode_check

__version__ = "0.1.0"
