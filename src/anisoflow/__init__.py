"""Normalized anisotropic curvature flow of star-shaped hypersurfaces.

The flow speed is f(r) * sigma_k(kappa)^alpha with f(r) = r^beta + g(r);
surfaces are radial graphs over S^1 or S^2.  See the README for the module
map and the command-line interface.
"""

from .flow_engine import (
    COLUMNS,
    AdmissibilityError,
    ConeViolationError,
    DegenerateMetricError,
    DiagnosticsSeries,
    FlowError,
    FlowState,
    NonFiniteRHSError,
    RunResult,
    SpeedRangeError,
    StepControl,
    StepTooSmallError,
    initial_state,
    lambda_of_tau,
    rhs,
    run,
    step,
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
)
from .sphere_geometry import RadialGraph, SingularMetricError, SphericalGrid, sphere_graph
from .symfunc import CONE_EPS
from .textform import load_checkpoint, load_graph, load_series, save_checkpoint, save_graph, save_series
from .verify import pde_vs_ode_check

__version__ = "0.1.0"
