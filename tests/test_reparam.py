import copy
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
from semest.logistic import (
    build_nonidentifiable_model, casecontrol_family, casecontrol_reparam_model,
    casecontrol_weight_spec,
)
from semest.reparam import FStarEstimate, QVector, ReparamModel, fstar_empirical
from semest.validate import (
    ToyInstance,
    check_stationarity,
    default_mc_design,
    fd_gradient,
    fd_hessian,
    replicate_fits,
)
from oracles import casecontrol_reparam_rows

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
    fstar = toy.population_fstar()
    qhat = fixed_point_q(casecontrol_weight_spec, toy.theta, fstar, toy.weights)
    expected = np.array([toy.response_probs(s - 1) @ toy.g for s in (1, 2)])
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
        (Q,) = wspec(np.concatenate([[1.0], obs.x]) @ theta, 0)
        denom = float(np.sum(w * Q / q.q))
        wform = (w[0] * Q[0] / q.q[0] ** 2) / denom - w[0] / q.q[0]
        total_wform += obs.multiplicity * wform
    np.testing.assert_allclose(total_exact, total_wform, atol=1e-10)


def test_zero_mass_errors(leprosy_weights):
    wspec = lambda eta, order: (np.zeros(np.shape(eta) + (2,)),)
    fstar = FStarEstimate(np.array([[0.0]]), np.array([1.0]))
    q = QVector.from_free([1.0])
    with pytest.raises(EvaluationError, match="zero selection mass"):
        check_normalization(wspec, np.zeros(2), q, fstar, leprosy_weights)


def _inconsistent_model(leprosy, weights):
    """theta = (t, b1, b2), Q_{1|X} = max(eta, 0) and Q_{2|X} = 1, log f =
    0: with b = 0, eta = t on every row, and at t <= 0 every control
    (stratum 1) is inconsistent."""

    def q_weight(eta, order):
        q1 = np.maximum(eta, 0.0)
        return (np.stack([q1, np.ones_like(q1)], axis=-1),)

    family = lambda y, eta, order: (0.0,)
    labels = ("t", "b1", "b2")
    return ReparamModel(q_weight, family, fstar_empirical(leprosy, weights), weights, labels)


def test_inconsistent_stratum_error(leprosy, leprosy_weights):
    model = _inconsistent_model(leprosy, leprosy_weights)
    with pytest.raises(EvaluationError, match="inconsistent with its stratum"):
        log_likelihood(model, np.zeros(4), leprosy)


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
    wspec1 = lambda eta, order: (np.ones(np.shape(eta) + (1,)),)
    total1 = check_normalization(
        wspec1, np.zeros(3), QVector([1.0]), model.fstar, Weights([1.0])
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
    stack = np.array([[0.5, 0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1], [0.3, 0.0, 0.0, -0.2]])
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
    stack = np.array([x, x + 0.1, x - 0.2])
    aggregate_score(model, stack, leprosy)
    aggregate_hessian(model, stack, leprosy)
    assert calls == [(40, 4), (8, 4), (3, 4), (3, 4)]


def test_stacked_orders_1_and_2_match_single_vectors(leprosy):
    model = casecontrol_reparam_model(leprosy)
    points = np.array(json.loads(RECORDED.read_text())["points"])
    for order in (1, 2):
        stacked = evaluate(model, points, leprosy, order)
        assert stacked.shape[0] == len(points)
        for p, got in zip(points, stacked):
            np.testing.assert_array_equal(got, evaluate(model, p, leprosy, order))


def test_order2_takes_per_vector_multiplicities():
    """A stack at order 2 reads one set of row multiplicities per vector,
    (P, N), laid out as the Monte Carlo cells hold the replicates: each
    Hessian has the bits of its vector alone with its own multiplicities,
    and matches the per-row oracle."""
    toy = default_mc_design()
    _, cells, _ = replicate_fits(toy, n_rep=4, seed=3)
    model = ReparamModel(
        casecontrol_weight_spec, casecontrol_family, toy.population_fstar(),
        Weights(cells.sample_sizes / cells.n), ("alpha",) + toy.labels,
    )
    stack = np.random.default_rng(4).uniform(-0.5, 0.5, size=(4, model.n_params))
    hessians = evaluate(model, stack, cells, 2)
    assert hessians.shape == (4, model.n_params, model.n_params)
    for p, got, m in zip(stack, hessians, cells.multiplicity):
        one = copy.copy(cells)
        one.multiplicity = m
        np.testing.assert_array_equal(got, evaluate(model, p, one, 2))
        want = casecontrol_reparam_rows(cells.X, cells.sample, m, model.weights.w, p)[2]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_large_eta_matches_the_specialised_model(leprosy):
    """At eta = 40 on every row, Q_{1|X} = 1 - mu is about 4e-18: taken as
    1.0 - mu it rounds to 0 and every control looks inconsistent with its
    stratum."""
    x = np.array([40.0, 0.0, 0.0, 0.0])
    generic = log_likelihood(casecontrol_reparam_model(leprosy), x, leprosy)
    specialised = log_likelihood(build_nonidentifiable_model(leprosy), x, leprosy)
    assert abs(generic - specialised) <= 1e-12 * abs(specialised)
