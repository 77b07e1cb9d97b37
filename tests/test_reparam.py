import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semest import (
    DataError,
    EvaluationError,
    Weights,
    check_normalization,
    fixed_point_q,
    log_likelihood,
)
from semest.data import positions
from semest.likelihood import aggregate_hessian, aggregate_score, evaluate
from semest.logistic import casecontrol_weight_spec
from semest.reparam import (
    ConditionalFamily, FStarEstimate, QVector, ReparamModel, WeightFunctionSpec, fstar_empirical,
)
from semest.validate import (
    ToyInstance,
    casecontrol_reparam_model,
    check_stationarity,
    fd_gradient,
    fd_hessian,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
RECORDED = pathlib.Path(__file__).parent / "fixtures" / "reparam_generic_leprosy.json"


def test_qvector_validation():
    with pytest.raises(DataError):
        QVector([0.5, 2.0])  # last must be 1
    with pytest.raises(DataError):
        QVector([-0.5, 1.0])
    q = QVector.from_free([0.7])
    np.testing.assert_array_equal(q.q, [0.7, 1.0])
    np.testing.assert_array_equal(q.free, [0.7])


def test_fstar_is_pooled_frequency(leprosy, leprosy_weights):
    # with the exact plug-in weights the weighted mixture of within-sample
    # marginals collapses to the pooled relative frequency
    fstar = fstar_empirical(leprosy, leprosy_weights)
    np.testing.assert_allclose(fstar.values, leprosy.pooled_freq, atol=1e-15)
    assert fstar.values.sum() == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    alpha=finite,
    b1=finite,
    b2=finite,
    logq=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
def test_normalization_identity(leprosy, leprosy_weights, alpha, b1, b2, logq):
    model = casecontrol_reparam_model(leprosy)
    theta = np.array([alpha, b1, b2])
    q = QVector.from_free([np.exp(logq)])
    total = check_normalization(model.wspec, theta, q, model.fstar, leprosy_weights)
    assert abs(total - 1.0) < 1e-12


def test_reparam_derivatives_match_fd(leprosy, rng):
    model = casecontrol_reparam_model(leprosy)
    from semest.likelihood import aggregate_hessian, aggregate_score

    for _ in range(5):
        params = rng.uniform(-0.8, 0.8, size=model.n_params)
        f = lambda p: log_likelihood(model, p, leprosy)
        g = aggregate_score(model, params, leprosy)
        g_fd = fd_gradient(f, params)
        scale = max(1.0, np.max(np.abs(g_fd)))
        assert np.max(np.abs(g - g_fd)) / scale < 1e-6
        h = aggregate_hessian(model, params, leprosy)
        h_fd = fd_hessian(f, params)
        scale = max(1.0, np.max(np.abs(h_fd)))
        assert np.max(np.abs(h - h_fd)) / scale < 1e-5


def test_fixed_point_matches_enumeration():
    # at theta_0 with the population covariate distribution, the profiled q
    # must equal the enumerated stratum probabilities (normalized to q_S=1)
    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )
    wspec = casecontrol_weight_spec()
    fstar = toy.population_fstar()
    qhat = fixed_point_q(wspec, toy.theta, fstar, toy.weights)
    expected = np.array([toy.stratum_prob(1), toy.stratum_prob(2)])
    expected = expected / expected[-1]
    np.testing.assert_allclose(qhat.q, expected, atol=1e-10)


def test_stationarity_after_inner_profile(leprosy):
    model = casecontrol_reparam_model(leprosy)
    resid = check_stationarity(model, np.array([1.0, -0.3, -4.0]), leprosy)
    assert resid < 1e-8


def test_score_q_aggregate_identity(leprosy, leprosy_weights):
    # the model's per-observation indicator form and the weight form agree
    # in the sample aggregate because w_j = n_j / n exactly
    model = casecontrol_reparam_model(leprosy)
    wspec = model.wspec
    theta = np.array([0.8, -0.4, -2.0])
    q = QVector.from_free([0.6])
    params = np.concatenate([theta, np.log(q.free)])
    # chain rule back from u = log q_1 to q_1
    total_exact = aggregate_score(model, params, leprosy)[model.n_theta :] / q.free
    total_wform = np.zeros(1)
    w = leprosy_weights.w
    for obs in leprosy.observations:
        (Q,) = wspec.evaluate(obs.x, theta, 0)
        denom = float(np.sum(w * Q / q.q))
        wform = (w[0] * Q[0] / q.q[0] ** 2) / denom - w[0] / q.q[0]
        total_wform += obs.multiplicity * wform
    np.testing.assert_allclose(total_exact, total_wform, atol=1e-10)


def test_zero_mass_errors(leprosy_weights):
    wspec = WeightFunctionSpec(
        n_strata=2, evaluate=lambda x, t, order: (np.zeros(np.shape(x)[:-1] + (2,)),)
    )
    fstar = FStarEstimate(np.array([[0.0]]), np.array([1.0]))
    q = QVector.from_free([1.0])
    with pytest.raises(EvaluationError, match="zero selection mass"):
        check_normalization(wspec, np.zeros(1), q, fstar, leprosy_weights)


def _inconsistent_model(leprosy, weights):
    """One parameter t, Q_{1|X} = max(t, 0) and Q_{2|X} = 1 on every row,
    log f = 0: at t <= 0 every control (stratum 1) is inconsistent."""

    def q_weight(x, t, order):
        q1 = np.maximum(t[..., :1], 0.0)  # (..., 1): one value for all N rows
        q1 = np.broadcast_to(q1, t.shape[:-1] + np.shape(x)[:-1])
        return (np.stack([q1, np.ones_like(q1)], axis=-1),)

    wspec = WeightFunctionSpec(n_strata=2, evaluate=q_weight)
    family = ConditionalFamily(lambda y, x, t, order: (0.0,))
    return ReparamModel(wspec, family, fstar_empirical(leprosy, weights), weights, ("t",))


def test_inconsistent_stratum_error(leprosy, leprosy_weights):
    model = _inconsistent_model(leprosy, leprosy_weights)
    with pytest.raises(EvaluationError, match="inconsistent with its stratum"):
        log_likelihood(model, np.zeros(2), leprosy)


def test_lookup_unknown_covariate(leprosy):
    with pytest.raises(EvaluationError, match="not in the support"):
        positions(leprosy.support, [123.0, 456.0])


def test_normalization_linearity_and_single_stratum(leprosy, leprosy_weights):
    # a deliberately broken plug-in that sums to 0.9 is detected linearly
    model = casecontrol_reparam_model(leprosy)
    broken = FStarEstimate(model.fstar.support, 0.9 * model.fstar.values)
    theta = np.array([0.4, -0.3, -2.0])
    q = QVector.from_free([0.8])
    total = check_normalization(model.wspec, theta, q, broken, leprosy_weights)
    assert total == pytest.approx(0.9, abs=1e-12)

    # degenerate single-stratum design: the identity is exactly 1
    wspec1 = WeightFunctionSpec(
        n_strata=1, evaluate=lambda x, t, order: (np.ones(np.shape(x)[:-1] + (1,)),)
    )
    total1 = check_normalization(
        wspec1, np.zeros(1), QVector([1.0]), model.fstar, Weights([1.0])
    )
    assert total1 == pytest.approx(1.0, abs=1e-14)


def test_fixed_point_matches_direct_maximization(leprosy, leprosy_weights):
    """Profiling q by direct likelihood maximization and by the
    self-consistency fixed point must agree at the fitted theta."""
    from semest import maximize

    model = casecontrol_reparam_model(leprosy)
    fit = maximize(model, leprosy).require_converged()
    theta_hat = fit.params[: model.n_theta]
    q_direct = np.exp(fit.params[model.n_theta :])
    fstar = fstar_empirical(leprosy, leprosy_weights)
    qhat = fixed_point_q(model.wspec, theta_hat, fstar, leprosy_weights)
    np.testing.assert_allclose(qhat.free, q_direct, atol=1e-8)


def test_stacked_order0_matches_single_vectors(leprosy):
    model = casecontrol_reparam_model(leprosy)
    points = np.array(json.loads(RECORDED.read_text())["points"])
    rows = evaluate(model, points, leprosy, 0)
    totals = log_likelihood(model, points, leprosy)
    for p, stacked_rows, total in zip(points, rows, totals):
        np.testing.assert_array_equal(stacked_rows, evaluate(model, p, leprosy, 0))
        single = log_likelihood(model, p, leprosy)
        assert abs(total - single) <= 1e-14 * abs(single)


def test_generic_model_matches_recorded_values(leprosy):
    """Loglik, total score and Hessian at 20 points equal the values the
    per-derivative spec callables gave, to 1e-12 relative."""
    model = casecontrol_reparam_model(leprosy)
    rec = json.loads(RECORDED.read_text())
    for i, p in enumerate(np.array(rec["points"])):
        for got, want in (
            (log_likelihood(model, p, leprosy), rec["loglik"][i]),
            (aggregate_score(model, p, leprosy), rec["score"][i]),
            (aggregate_hessian(model, p, leprosy), rec["hessian"][i]),
        ):
            want = np.asarray(want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_stack_with_inadmissible_vector(leprosy, leprosy_weights):
    model = _inconsistent_model(leprosy, leprosy_weights)
    stack = np.array([[0.5, 0.1], [0.0, 0.1], [0.3, -0.2]])
    totals = log_likelihood(model, stack, leprosy)
    assert np.isfinite(totals).tolist() == [True, False, True]
    for p, total in zip(stack[[0, 2]], totals[[0, 2]]):
        assert total == pytest.approx(log_likelihood(model, p, leprosy), rel=1e-14)
    with pytest.raises(EvaluationError, match="inconsistent with its stratum"):
        log_likelihood(model, stack[1], leprosy)


def test_fd_oracles_evaluate_generic_model_once_per_stack(leprosy):
    model = casecontrol_reparam_model(leprosy)
    calls = []
    inner = model.evaluate

    def counting(params, data, order):
        calls.append(np.shape(params))
        return inner(params, data, order)

    model.evaluate = counting
    x = np.array([0.2, -0.3, -1.0, 0.1])
    f = lambda p: log_likelihood(model, p, leprosy)
    fd_hessian(f, x)
    fd_gradient(f, x)
    assert calls == [(40, 4), (8, 4)]
