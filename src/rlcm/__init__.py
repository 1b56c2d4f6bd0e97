"""Q-restricted latent class models: identifiability, marginal-table
algebra, counterexample generation, simulation and EM fitting."""

from types import ModuleType as _Module

from .core import (
    DimensionError,
    ProportionVector,
    QMatrix,
    SizeLimitError,
    ThetaMatrix,
    bit_matrix,
    dominates,
    enumerate_profiles,
    weight_graded_order,
)
from .identifiability import (
    C1Result,
    C2Result,
    CompletenessResult,
    ConstructionInfeasibleError,
    IdentifiabilityReport,
    InternalConsistencyError,
    NonIdentifiablePair,
    NotApplicableError,
    Verdict,
    c1_only_counterexample,
    c1_only_design,
    check_c1,
    check_c2,
    distributions_equal,
    incomplete_counterexample,
    is_complete,
    parameter_distance,
    verdict,
)
from .inference import (
    EmConfig,
    EmError,
    ExperimentTable,
    FitResult,
    ReplicationRecord,
    ResponseData,
    consistency_experiment,
    em_fit,
    empirical_gamma,
    loglik,
    simulate,
)
from .models import (
    DinaParams,
    DinoParams,
    GdinaParams,
    InvalidParameterError,
    ItemParams,
    LlmParams,
    MonotonicityReport,
    MonotonicityViolation,
    RrumParams,
    check_monotonicity,
    dina_params_from_theta,
    theta_from_params,
)
from .tmatrix import (
    TMatrix,
    TransformMatrix,
    apply_shift,
    build_tmatrix,
    build_transform,
    marginal_vector,
    mobius_from_marginals,
    response_distribution,
    superset_sums,
)

# every name imported above, less the submodules those imports bind
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]

__version__ = "0.1.0"
