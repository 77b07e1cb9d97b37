import os
import pathlib
import subprocess
import sys

import semest

# the documented API: what README.md's Library section names
EXPORTED = {
    "METHODS", "compare_methods", "fit_method",
    "MultisampleDataset", "Observation", "Weights", "compute_weights",
    "load_casecontrol_csv", "load_long_csv",
    "ConvergenceError", "DataError", "EvaluationError", "SemestError",
    "SingularInformationError",
    "EfficiencyReport", "efficient_information", "standard_errors",
    "ModelSpec", "aggregate_hessian", "aggregate_score", "log_likelihood",
    "leprosy_dataset", "transform_age",
    "FitConfig", "FitResult", "maximize",
    "ReparamModel", "check_normalization", "fixed_point_q",
    "__version__",
}


def test_all_names_exist_once_and_star_import_works():
    names = semest.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(semest, name)]
    assert not missing
    namespace = {}
    exec("from semest import *", namespace)
    assert set(names) <= set(namespace)


def test_exported_names_are_the_documented_api():
    assert set(semest.__all__) == EXPORTED


def test_import_leaves_the_oracles_unloaded():
    src = pathlib.Path(semest.__file__).resolve().parent.parent
    code = "import sys, semest; print('semest.validate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr
