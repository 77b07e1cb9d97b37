import copy

import numpy as np
import pytest

from semest import EvaluationError, FitConfig, log_likelihood, maximize
from semest.logistic import build_identifiable_model, build_nonidentifiable_model


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(max_iter=0)
    with pytest.raises(ValueError):
        FitConfig(grad_tol=float("nan"))


def test_converges_quickly(leprosy):
    model = build_identifiable_model(leprosy)
    fit = maximize(model, leprosy)
    assert fit.converged
    assert fit.iterations < 20
    assert fit.grad_norm <= 1e-8
    assert fit.hessian.shape == (3, 3)


def test_deterministic(leprosy):
    model = build_identifiable_model(leprosy)
    a = maximize(model, leprosy)
    b = maximize(model, leprosy)
    assert np.array_equal(a.params, b.params)
    assert a.loglik == b.loglik
    assert a.iterations == b.iterations


def test_objective_never_decreases(leprosy):
    model = build_identifiable_model(leprosy)
    init = model.init_params(leprosy)
    f0 = log_likelihood(model, init, leprosy)
    fit = maximize(model, leprosy, init=init)
    assert fit.loglik >= f0


def test_nonconvergence_reported(leprosy):
    model = build_identifiable_model(leprosy)
    fit = maximize(model, leprosy, cfg=FitConfig(max_iter=1, grad_tol=1e-12))
    assert not fit.converged
    assert fit.warnings
    with pytest.raises(EvaluationError, match="did not converge"):
        fit.require_converged()


def test_flat_ridge_still_converges(leprosy):
    model = build_nonidentifiable_model(leprosy)
    fit = maximize(model, leprosy)
    assert fit.converged
    # shifting along the ridge leaves the optimum value unchanged
    shifted = fit.params + np.array([0.5, 0.0, 0.0, -0.5])
    assert log_likelihood(model, shifted, leprosy) == pytest.approx(
        fit.loglik, abs=1e-9
    )


def test_nonfinite_start_is_error(leprosy):
    model = build_identifiable_model(leprosy)
    with pytest.raises((EvaluationError, FloatingPointError)):
        maximize(model, leprosy, init=np.array([np.inf, 0.0, 0.0]))


def test_custom_init_respected(leprosy):
    model = build_identifiable_model(leprosy)
    fit = maximize(model, leprosy, init=np.array([1.2, -0.3, -4.3]))
    assert fit.converged
    ref = maximize(model, leprosy)
    np.testing.assert_allclose(fit.params, ref.params, atol=1e-7)


def test_batch_isolates_a_failed_fit(leprosy):
    """In a batch, the fit whose start is not finite fails alone; every other
    fit is bit-identical to the same fit run by itself."""
    from semest.validate import default_mc_design, replicate_fits

    model = build_nonidentifiable_model(leprosy)
    init = np.array([[0.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [2.0, -1.0, -3.0, -1.0]])
    fit = maximize(model, leprosy, init=init)
    assert fit.converged.tolist() == [True, False, True]
    assert fit.warnings[1][-1].startswith("objective is not finite")
    for r in (0, 2):
        alone = maximize(model, leprosy, init=init[r])
        np.testing.assert_array_equal(fit.params[r], alone.params)
        np.testing.assert_array_equal(fit.hessian[r], alone.hessian)
        assert (fit.loglik[r], fit.iterations[r], fit.grad_norm[r]) == (
            alone.loglik, alone.iterations, alone.grad_norm
        )
    # per-fit row weights: the Monte Carlo replicates, one of them broken
    model, cells, _ = replicate_fits(default_mc_design(), n_rep=5, seed=1)
    init = np.tile(model.init_params(cells), (5, 1))
    init[3, 1] = np.nan
    fit = maximize(model, cells, init=init)
    assert fit.converged.tolist() == [True, True, True, False, True]
    for r in (0, 1, 2, 4):
        one = copy.copy(cells)
        one.multiplicity = cells.multiplicity[r : r + 1]
        alone = maximize(model, one, init=init[r : r + 1])
        np.testing.assert_array_equal(fit.params[r], alone.params[0])
        assert fit.iterations[r] == alone.iterations[0]
