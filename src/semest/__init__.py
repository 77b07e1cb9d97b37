"""semest: efficient semiparametric estimation in multisample models via
reparametrized least-favorable submodels.  ``__all__`` is the documented
API; everything else is imported from its own module."""

from .analysis import METHODS, compare_methods, fit_method
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
from .inference import EfficiencyReport, efficient_information, standard_errors
from .likelihood import (
    ModelSpec,
    aggregate_hessian,
    aggregate_score,
    log_likelihood,
)
from .logistic import leprosy_dataset, transform_age
from .optimize import FitConfig, FitResult, maximize
from .reparam import (
    ConditionalFamily,
    ReparamModel,
    WeightFunctionSpec,
    check_normalization,
    fixed_point_q,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
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
    "efficient_information",
    "standard_errors",
    "ModelSpec",
    "aggregate_hessian",
    "aggregate_score",
    "log_likelihood",
    "leprosy_dataset",
    "transform_age",
    "FitConfig",
    "FitResult",
    "maximize",
    "ConditionalFamily",
    "ReparamModel",
    "WeightFunctionSpec",
    "check_normalization",
    "fixed_point_q",
    "__version__",
]
