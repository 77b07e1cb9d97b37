"""semest: efficient semiparametric estimation in multisample models via
reparametrized least-favorable submodels."""

import os as _os

# Cap linear-algebra thread pools before numpy is first imported ("0" or
# unset means automatic).
_threads = _os.environ.get("SEMEST_THREADS")
if _threads and _threads != "0":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .analysis import METHODS, bench_methods, compare_methods, fit_method
from .data import (
    MultisampleDataset,
    Observation,
    Params,
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
    FixedSubsetModel,
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
    g_hat,
    log_density_star,
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
    "Params",
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
    "FixedSubsetModel",
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
    "g_hat",
    "log_density_star",
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
