import copy
import pathlib

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
from semest.data import load_casecontrol_csv
from semest.likelihood import evaluate
from semest.logistic import (
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
    transform_age,
)
from semest.structured import StructuredHessian, dense
from semest.validate import default_mc_design, replicate_fits

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


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


class FirstVectorOnly(GaussianLocation):
    """Reads the first vector of a stack only: its results lack the stack's
    leading axis, which the default totals would sum into one number."""

    def evaluate(self, params, data, order):
        return super().evaluate(np.reshape(params, (-1, 2))[0], data, order)


@pytest.mark.parametrize("model", [GaussianLocation(), FirstVectorOnly()])
def test_stack_contract_is_named(gauss_data, model):
    """Models written for one vector, handed a (3, 2) stack: GaussianLocation
    fails inside numpy's broadcasting, FirstVectorOnly returns one vector's
    rows.  Every aggregate names the contract either way."""
    stack = np.zeros((3, 2))
    for aggregate in (log_likelihood, aggregate_score, aggregate_hessian):
        with pytest.raises(ValueError, match="stack contract"):
            aggregate(model, stack, gauss_data)
    with pytest.raises(ValueError, match="stack contract"):
        evaluate(model, stack, gauss_data, 1)


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


class NaNHessianInSample2(ModelSpec):
    """Finite log-densities and scores; the summed Hessian is NaN where the
    rows include one of sample 2."""

    param_labels = ("a",)

    def evaluate(self, params, data, order):
        if order < 2:
            rows = np.zeros(len(data.sample))
            return rows if order == 0 else rows[:, None]
        return np.full((1, 1), np.nan if (data.sample == 2).any() else 0.0)


def test_nonfinite_hessian_names_the_row(leprosy):
    with pytest.raises(EvaluationError, match="non-finite Hessian") as exc:
        aggregate_hessian(NaNHessianInSample2(), np.zeros(1), leprosy)
    first = int(np.flatnonzero(leprosy.sample == 2)[0])
    assert exc.value.observation.sample == 2
    assert exc.value.observation.x.tolist() == leprosy.X[first].tolist()


def test_nuisance_idx_complement():
    m = GaussianLocation()
    assert m.nuisance_idx == (1,)
    assert m.n_params == 2


def test_evaluate_is_the_one_contract():
    assert ModelSpec.__abstractmethods__ == frozenset({"evaluate"})


def _long_dataset(rows, seed=3):
    """``rows`` unit rows, half controls and half cases, two covariates."""
    rng = np.random.default_rng(seed)
    sample = np.repeat([1, 2], rows // 2)
    X = rng.standard_normal((rows, 2)) + 0.5 * (sample[:, None] - 1)
    return MultisampleDataset.from_columns(X, sample, np.ones(rows, dtype=int))


def _mle_datasets(leprosy):
    stall = load_casecontrol_csv(
        str(FIXTURES / "wide_support_ridge_stall.csv"), transform=transform_age
    )
    return {"leprosy": leprosy, "ridge-stall": stall, "long-200": _long_dataset(200)}


@pytest.mark.parametrize("name", ["leprosy", "ridge-stall", "long-200"])
def test_mle_totals_match_row_sums(leprosy, name):
    """The mle's totals from its (2, K) count table equal the
    multiplicity-weighted sums of its per-row values (the default
    ``ModelSpec.totals``), for one vector and for a stack; a vector of the
    stack gets the same bits as alone."""
    dataset = _mle_datasets(leprosy)[name]
    model = build_full_mle_model(dataset)
    rng = np.random.default_rng(11)
    stack = rng.uniform(-0.5, 0.5, size=(4, model.n_params))
    stack[0] = model.init_params(dataset)
    for params in (*stack, stack):
        for order in (0, 1):
            got = model.totals(params, dataset, order)
            want = ModelSpec.totals(model, params, dataset, order)
            assert np.shape(got) == np.shape(want)
            scale = np.abs(want).max(axis=-1) if order == 1 else np.abs(want)
            np.testing.assert_array_less(
                np.abs(got - want).max(axis=-1) if order == 1 else np.abs(got - want),
                1e-12 * scale + 1e-300,
            )
    for order in (0, 1):
        stacked = model.totals(stack, dataset, order)
        for params, total in zip(stack, stacked):
            np.testing.assert_array_equal(model.totals(params, dataset, order), total)


def test_mle_nonfinite_row_names_the_observation(leprosy):
    """A one-vector total that is not finite is re-evaluated row by row, and
    the error names the first row whose value is not finite."""
    model = build_full_mle_model(leprosy)
    rows = np.flatnonzero(leprosy.support_index == 3)
    params = model.init_params(leprosy)
    params[model.n_theta + 3] = -1e4  # g_4 underflows to 0: log g_4 = -inf
    with pytest.raises(EvaluationError) as exc:
        log_likelihood(model, params, leprosy)
    want = leprosy.observations[rows[0]]
    got = exc.value.observation
    assert (got.sample, got.x.tolist()) == (want.sample, want.x.tolist())
    params = model.init_params(leprosy)
    params[1] = 1e5  # Age > 0: f(0 | v) underflows at every v, the control rows are 0 / 0
    with pytest.raises(EvaluationError) as exc:
        aggregate_score(model, params, leprosy)
    assert exc.value.observation.sample == 1
    assert "score" in str(exc.value)


BUILDERS = {
    "mle": build_full_mle_model,
    "reparam-id": build_identifiable_model,
    "reparam-nonid": build_nonidentifiable_model,
}


def _hessian_bits(hess):
    return dense(hess) if isinstance(hess, StructuredHessian) else hess


@pytest.mark.parametrize("method", sorted(BUILDERS))
def test_intermediate_cache_keeps_shapes(leprosy, method):
    """The same parameter bytes as one vector (d,) and as a stack (1, d) give
    results of their own shape."""
    build = BUILDERS[method]
    model = build(leprosy)
    x = model.init_params(leprosy) + 0.1
    log_likelihood(model, x[None], leprosy)
    score = aggregate_score(model, x, leprosy)
    hess = aggregate_hessian(model, x[None], leprosy)
    fresh = build(leprosy)
    np.testing.assert_array_equal(score, aggregate_score(fresh, x, leprosy))
    assert score.shape == (model.n_params,)
    np.testing.assert_array_equal(
        _hessian_bits(hess), _hessian_bits(aggregate_hessian(build(leprosy), x[None], leprosy))
    )
    assert _hessian_bits(hess).shape == (1, model.n_params, model.n_params)
    score = aggregate_score(model, x[None], leprosy)
    assert score.shape == (1, model.n_params)
    assert _hessian_bits(aggregate_hessian(model, x, leprosy)).shape == (
        model.n_params, model.n_params
    )


@pytest.mark.parametrize("method", sorted(BUILDERS))
def test_intermediate_cache_sees_mutation_and_new_data(leprosy, method):
    """Parameters changed in place after the score, and a second dataset
    at the same point, give the Hessian of a freshly built model."""
    build = BUILDERS[method]
    model = build(leprosy)
    x = model.init_params(leprosy) + 0.1
    aggregate_score(model, x, leprosy)
    x[1] -= 0.25
    np.testing.assert_array_equal(
        _hessian_bits(aggregate_hessian(model, x, leprosy)),
        _hessian_bits(aggregate_hessian(build(leprosy), x, leprosy)),
    )
    order = np.arange(len(leprosy.sample))[::-1]
    other = MultisampleDataset.from_columns(
        leprosy.X[order], leprosy.sample[order], 2 * leprosy.multiplicity[order]
    )
    for quantity in (log_likelihood, aggregate_score, aggregate_hessian):
        got, want = quantity(model, x, other), quantity(build(leprosy), x, other)
        np.testing.assert_array_equal(_hessian_bits(got), _hessian_bits(want))


def test_intermediate_cache_on_the_monte_carlo_batch():
    """The batch fit's Hessians, taken at per-replicate multiplicities
    (R, N), equal those of a freshly built model."""
    model, cells, fit = replicate_fits(default_mc_design(), n_rep=6, seed=2)
    fresh = build_identifiable_model(cells)
    np.testing.assert_array_equal(fit.hessian, aggregate_hessian(fresh, fit.params, cells))
    first = copy.copy(cells)  # the same covariate rows, other multiplicities
    first.multiplicity = cells.multiplicity[:3]
    np.testing.assert_array_equal(
        aggregate_hessian(model, fit.params[:3], first),
        aggregate_hessian(build_identifiable_model(cells), fit.params[:3], first),
    )
