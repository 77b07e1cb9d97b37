import numpy as np
import pytest

from semest import (
    EvaluationError,
    ModelSpec,
    MultisampleDataset,
    Observation,
    aggregate_hessian,
    aggregate_score,
    log_likelihood,
)


class GaussianLocation(ModelSpec):
    """Tiny test model: x ~ N(theta_s, 1) within sample s, two samples."""

    param_labels = ("m1", "m2")
    interest_idx = (0,)

    def evaluate(self, params, data, order):
        s = data.sample - 1
        resid = data.X[:, 0] - np.asarray(params)[s]
        if order == 0:
            return -0.5 * resid**2
        if order == 1:
            return resid[:, None] * (s[:, None] == np.arange(2))
        return -np.diag(np.bincount(s, weights=data.multiplicity, minlength=2))


@pytest.fixture
def gauss_data():
    return MultisampleDataset(
        [
            Observation(1, [0.3], multiplicity=2),
            Observation(1, [-1.0]),
            Observation(2, [2.0], multiplicity=3),
        ]
    )


def test_multiplicity_weighting(gauss_data):
    model = GaussianLocation()
    params = np.array([0.1, 1.5])
    m = gauss_data.multiplicity
    exp = MultisampleDataset.from_columns(
        np.repeat(gauss_data.X, m, axis=0), np.repeat(gauss_data.sample, m), np.ones(m.sum())
    )
    assert log_likelihood(model, params, gauss_data) == pytest.approx(
        log_likelihood(model, params, exp), abs=1e-14
    )
    np.testing.assert_allclose(
        aggregate_score(model, params, gauss_data),
        aggregate_score(model, params, exp),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        aggregate_hessian(model, params, gauss_data),
        aggregate_hessian(model, params, exp),
        atol=1e-14,
    )


def test_hessian_symmetrized(gauss_data):
    h = aggregate_hessian(GaussianLocation(), np.zeros(2), gauss_data)
    np.testing.assert_array_equal(h, h.T)


class NonFinite(GaussianLocation):
    def evaluate(self, params, data, order):
        return np.where(data.sample == 2, np.nan, 0.0)


def test_nonfinite_reports_observation(gauss_data):
    with pytest.raises(EvaluationError) as exc:
        log_likelihood(NonFinite(), np.zeros(2), gauss_data)
    assert exc.value.observation is not None
    assert exc.value.observation.sample == 2


class NaNAtRow3(ModelSpec):
    """Array model whose log-density and score are NaN at row 3 only."""

    param_labels = ("a",)

    def evaluate(self, params, data, order):
        rows = np.zeros((len(data.sample), 1))
        rows[3] = np.nan
        return rows[:, 0] if order == 0 else rows if order == 1 else np.zeros((1, 1))


@pytest.mark.parametrize("quantity", [log_likelihood, aggregate_score])
def test_array_model_nonfinite_names_the_row(leprosy, quantity):
    with pytest.raises(EvaluationError) as exc:
        quantity(NaNAtRow3(), np.zeros(1), leprosy)
    got, want = exc.value.observation, leprosy.observations[3]
    assert (got.sample, got.x.tolist(), got.multiplicity) == (
        want.sample, want.x.tolist(), want.multiplicity
    )


def test_nuisance_idx_complement():
    m = GaussianLocation()
    assert m.nuisance_idx == (1,)
    assert m.n_params == 2


def test_evaluate_is_the_one_contract():
    assert ModelSpec.__abstractmethods__ == frozenset({"evaluate"})
