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
    integrate_sphere_ode,
    pde_vs_ode_check,
    sphere_ode_at,
    sphere_ode_rhs,
)
from .flow_engine import (
    AdmissibilityError,
    ConeViolationError,
    FlowError,
    FlowState,
    NonFiniteRHSError,
    RunResult,
    StepControl,
    StepTooSmallError,
    initial_state,
    lambda_maps,
    lambda_of_tau,
    load_checkpoint,
    rhs,
    run,
    save_checkpoint,
    step,
    t_of_tau,
    unnormalize,
)
from .speed_profile import (
    BumpG,
    ExpFlatG,
    MonomialG,
    ProfileReport,
    ScaleOverflowError,
    SpeedProfile,
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
    load_graph,
    save_graph,
    sphere_graph,
    weingarten,
)
from .symfunc import (
    CONE_EPS,
    cone_margin,
    eigenvalues_sym,
    in_gamma_k_plus,
    sigma_k,
    sigma_k_of_matrix,
    sigma_k_partials,
)

__version__ = "0.1.0"
