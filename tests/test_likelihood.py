import numpy as np
import pytest

from semest import (
    EvaluationError,
    FixedSubsetModel,
    ModelSpec,
    MultisampleDataset,
    Observation,
    aggregate_hessian,
    aggregate_score,
    build_identifiable_model,
    compute_weights,
    log_likelihood,
)


class GaussianLocation(ModelSpec):
    """Tiny test model: x ~ N(theta_s, 1) within sample s, two samples."""

    param_labels = ("m1", "m2")
    interest_idx = (0,)

    def log_density(self, obs, params):
        m = params[obs.sample - 1]
        return -0.5 * float((obs.x[0] - m) ** 2)

    def score(self, obs, params):
        g = np.zeros(2)
        g[obs.sample - 1] = obs.x[0] - params[obs.sample - 1]
        return g

    def hessian(self, obs, params):
        h = np.zeros((2, 2))
        h[obs.sample - 1, obs.sample - 1] = -1.0
        return h


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
    def log_density(self, obs, params):
        return float("nan") if obs.sample == 2 else 0.0


def test_nonfinite_reports_observation(gauss_data):
    with pytest.raises(EvaluationError) as exc:
        log_likelihood(NonFinite(), np.zeros(2), gauss_data)
    assert exc.value.observation is not None
    assert exc.value.observation.sample == 2


def test_fixed_subset_model(leprosy, leprosy_weights):
    base = build_identifiable_model(leprosy_weights)
    full = np.array([1.0, -0.3, -4.0])
    sub = FixedSubsetModel(base, free_idx=(1, 2), fixed_values=full)
    free = np.array([-0.3, -4.0])
    obs = leprosy.observations[0]
    assert sub.log_density(obs, free) == pytest.approx(
        base.log_density(obs, full), abs=1e-15
    )
    np.testing.assert_allclose(
        sub.score(obs, free), base.score(obs, full)[1:], atol=1e-15
    )
    np.testing.assert_allclose(
        sub.hessian(obs, free), base.hessian(obs, full)[1:, 1:], atol=1e-15
    )
    assert sub.param_labels == ("Scar", "Age")


def test_nuisance_idx_complement():
    m = GaussianLocation()
    assert m.nuisance_idx == (1,)
    assert m.n_params == 2
    p = m.make_params([1.0, 2.0])
    assert p.interest_idx == (0,)
