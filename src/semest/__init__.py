"""semest: efficient semiparametric estimation in multisample models via
reparametrized least-favorable submodels."""

from .analysis import METHODS, bench_methods, compare_methods, fit_method
from .data import (
    MultisampleDataset,
    Observation,
    Weights,
    compute_weights,
    load_casecontrol_csv,
    load_long_csv,
)
from .errors import (
    ConvergenceError,
    DataError,
    EvaluationError,
    SemestError,
    SingularInformationError,
)
from .inference import (
    EfficiencyReport,
    InfoBlocks,
    centered_scores,
    efficient_information,
    efficient_score,
    info_blocks_moments,
    info_blocks_observed,
    relative_efficiency,
    standard_errors,
)
from .likelihood import (
    ModelSpec,
    aggregate_hessian,
    aggregate_score,
    log_likelihood,
)
from .logistic import (
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
    leprosy_dataset,
    transform_age,
)
from .optimize import FitConfig, FitResult, maximize
from .reparam import (
    ConditionalFamily,
    FStarEstimate,
    QVector,
    ReparamModel,
    WeightFunctionSpec,
    check_normalization,
    fixed_point_q,
    fstar_empirical,
)
from .validate import (
    FDConfig,
    MonteCarloReport,
    ToyInstance,
    brute_force_info,
    check_stationarity,
    fd_gradient,
    fd_hessian,
    monte_carlo_variance,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "bench_methods",
    "compare_methods",
    "fit_method",
    "MultisampleDataset",
    "Observation",
    "Weights",
    "compute_weights",
    "load_casecontrol_csv",
    "load_long_csv",
    "ConvergenceError",
    "DataError",
    "EvaluationError",
    "SemestError",
    "SingularInformationError",
    "EfficiencyReport",
    "InfoBlocks",
    "centered_scores",
    "efficient_information",
    "efficient_score",
    "info_blocks_moments",
    "info_blocks_observed",
    "relative_efficiency",
    "standard_errors",
    "ModelSpec",
    "aggregate_hessian",
    "aggregate_score",
    "log_likelihood",
    "build_full_mle_model",
    "build_identifiable_model",
    "build_nonidentifiable_model",
    "leprosy_dataset",
    "transform_age",
    "FitConfig",
    "FitResult",
    "maximize",
    "ConditionalFamily",
    "FStarEstimate",
    "QVector",
    "ReparamModel",
    "WeightFunctionSpec",
    "check_normalization",
    "fixed_point_q",
    "fstar_empirical",
    "FDConfig",
    "MonteCarloReport",
    "ToyInstance",
    "brute_force_info",
    "check_stationarity",
    "fd_gradient",
    "fd_hessian",
    "monte_carlo_variance",
    "simulate",
    "__version__",
]
