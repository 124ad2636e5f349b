"""subell: subgradient and ellipsoid cutting-plane methods with certificates."""

from .certificates import (
    Semicertificate,
    augment,
    certify_from_preliminary,
    gap,
    residual,
    residual_bound_from_gap,
)
from .linalg import dual_norm, top_eigenpair
from .oracles import (
    OracleResponse,
    Problem,
    ProblemFormatError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .solver import (
    VARIANT_ELLIPSOID,
    VARIANT_ELLIPSOID_CERT,
    VARIANT_SUBGRAD_ELLIPSOID,
    VARIANT_SUBGRADIENT,
    VARIANTS,
    History,
    HistoryRecord,
    RunResult,
    Schedule,
    SolverState,
    StrategyConfig,
    avg_radius,
    delta_from_target,
    gamma_opt,
    q_and_zeta,
    run,
    sliding_gap,
    step,
)
from .support import HalfspaceCut, dual_multipliers, support_value_xi

__version__ = "0.1.0"

__all__ = [
    "Semicertificate", "augment", "certify_from_preliminary",
    "gap", "residual", "residual_bound_from_gap",
    "dual_norm", "top_eigenpair",
    "OracleResponse", "Problem", "ProblemFormatError",
    "load_problem", "problem_from_dict", "problem_to_dict", "save_problem",
    "VARIANTS", "VARIANT_SUBGRADIENT", "VARIANT_ELLIPSOID",
    "VARIANT_ELLIPSOID_CERT", "VARIANT_SUBGRAD_ELLIPSOID",
    "History", "HistoryRecord", "RunResult", "Schedule", "SolverState", "StrategyConfig",
    "avg_radius", "delta_from_target", "gamma_opt", "q_and_zeta",
    "run", "sliding_gap", "step",
    "HalfspaceCut", "dual_multipliers", "support_value_xi",
    "__version__",
]
