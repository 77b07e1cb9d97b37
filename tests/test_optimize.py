import numpy as np
import pytest

from semest import (
    EvaluationError,
    FitConfig,
    build_identifiable_model,
    build_nonidentifiable_model,
    log_likelihood,
    maximize,
)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(max_iter=0)


def test_converges_quickly(leprosy, leprosy_weights):
    model = build_identifiable_model(leprosy_weights)
    fit = maximize(model, leprosy)
    assert fit.converged
    assert fit.iterations < 20
    assert fit.grad_norm <= 1e-8
    assert fit.hessian.shape == (3, 3)


def test_deterministic(leprosy, leprosy_weights):
    model = build_identifiable_model(leprosy_weights)
    a = maximize(model, leprosy)
    b = maximize(model, leprosy)
    assert np.array_equal(a.params, b.params)
    assert a.loglik == b.loglik
    assert a.iterations == b.iterations


def test_objective_never_decreases(leprosy, leprosy_weights):
    model = build_identifiable_model(leprosy_weights)
    init = model.init_params(leprosy)
    f0 = log_likelihood(model, init, leprosy)
    fit = maximize(model, leprosy, init=init)
    assert fit.loglik >= f0


def test_nonconvergence_reported(leprosy, leprosy_weights):
    model = build_identifiable_model(leprosy_weights)
    fit = maximize(model, leprosy, cfg=FitConfig(max_iter=1, grad_tol=1e-12))
    assert not fit.converged
    assert fit.warnings
    with pytest.raises(EvaluationError, match="did not converge"):
        fit.require_converged()


def test_flat_ridge_still_converges(leprosy, leprosy_weights):
    model = build_nonidentifiable_model(leprosy_weights)
    fit = maximize(model, leprosy)
    assert fit.converged
    # shifting along the ridge leaves the optimum value unchanged
    shifted = fit.params + np.array([0.5, 0.0, 0.0, -0.5])
    assert log_likelihood(model, shifted, leprosy) == pytest.approx(
        fit.loglik, abs=1e-9
    )


def test_nonfinite_start_is_error(leprosy, leprosy_weights):
    model = build_identifiable_model(leprosy_weights)
    with pytest.raises((EvaluationError, FloatingPointError)):
        maximize(model, leprosy, init=np.array([np.inf, 0.0, 0.0]))


def test_custom_init_respected(leprosy, leprosy_weights):
    model = build_identifiable_model(leprosy_weights)
    fit = maximize(model, leprosy, init=np.array([1.2, -0.3, -4.3]))
    assert fit.converged
    ref = maximize(model, leprosy)
    np.testing.assert_allclose(fit.params, ref.params, atol=1e-7)
