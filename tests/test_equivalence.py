"""The array passes against plain per-row loops, and invariance of every
estimator under row order and multiplicity grouping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semest import (
    MultisampleDataset,
    aggregate_hessian,
    aggregate_score,
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
    compute_weights,
    efficient_information,
    info_blocks_observed,
    log_likelihood,
    maximize,
    standard_errors,
)
from semest.analysis import METHODS, fit_method
from semest.likelihood import evaluate
from semest.validate import casecontrol_reparam_model
from oracles import casecontrol_logistic_rows, casecontrol_reparam_rows, full_mle_rows

MODELS = ("identifiable", "non-identifiable", "full-mle", "reparam-generic")


def _model(name, dataset, weights):
    if name == "identifiable":
        return build_identifiable_model(weights)
    if name == "non-identifiable":
        return build_nonidentifiable_model(weights)
    if name == "full-mle":
        return build_full_mle_model(dataset)
    return casecontrol_reparam_model(dataset, weights)


def _reference(name, dataset, weights, params):
    cols = (dataset.X, dataset.sample, dataset.multiplicity)
    if name == "full-mle":
        return full_mle_rows(dataset.support, *cols, params)
    if name == "reparam-generic":
        return casecontrol_reparam_rows(*cols, weights.w, params)
    return casecontrol_logistic_rows(
        *cols, weights.w, params, duplicated_intercept=name == "non-identifiable"
    )


def _rel_diff(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("name", MODELS)
def test_array_pass_matches_row_loop(name, leprosy, leprosy_weights, rng):
    model = _model(name, leprosy, leprosy_weights)
    for _ in range(5):
        params = rng.uniform(-1.0, 1.0, size=model.n_params)
        loglik, scores, hess = _reference(name, leprosy, leprosy_weights, params)
        assert _rel_diff(log_likelihood(model, params, leprosy), loglik) < 1e-12
        assert _rel_diff(evaluate(model, params, leprosy, 1), scores) < 1e-12
        total = scores.T @ leprosy.multiplicity
        assert _rel_diff(aggregate_score(model, params, leprosy), total) < 1e-12
        assert _rel_diff(aggregate_hessian(model, params, leprosy), hess) < 1e-12
        # the per-observation methods are one-row slices of the same pass
        rows = np.array([model.score(o, params) for o in leprosy.observations])
        assert _rel_diff(rows, scores) < 1e-12


def _regrouped(dataset, seed):
    """The same units as ``dataset`` with every multiplicity above 1 split
    over two rows at a random point, and all rows shuffled.  ``dataset`` is
    this one with its rows merged back."""
    rng = np.random.default_rng(seed)
    m = dataset.multiplicity
    first = np.where(m > 1, rng.integers(1, np.maximum(m, 2)), m)
    keep = first < m
    X = np.vstack([dataset.X, dataset.X[keep]])
    sample = np.concatenate([dataset.sample, dataset.sample[keep]])
    mult = np.concatenate([first, (m - first)[keep]])
    order = rng.permutation(len(sample))
    return MultisampleDataset.from_columns(X[order], sample[order], mult[order])


def _generic_fit(dataset):
    weights = compute_weights(dataset)
    model = casecontrol_reparam_model(dataset, weights)
    fit = maximize(model, dataset).require_converged()
    istar = efficient_information(info_blocks_observed(model, fit, dataset))
    se, _, _ = standard_errors(istar, dataset.n)
    return fit.params[1 : model.n_theta], se[1:]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_row_order_and_grouping_invariance(leprosy, leprosy_weights, seed):
    other = _regrouped(leprosy, seed)
    assert other.n == leprosy.n
    np.testing.assert_array_equal(other.support, leprosy.support)
    params_rng = np.random.default_rng(seed)
    for name in MODELS:
        a = _model(name, leprosy, leprosy_weights)
        b = _model(name, other, compute_weights(other))
        params = params_rng.uniform(-1.0, 1.0, size=a.n_params)
        for quantity in (log_likelihood, aggregate_score, aggregate_hessian):
            assert _rel_diff(quantity(b, params, other), quantity(a, params, leprosy)) < 1e-10
    for method in METHODS:
        _, ra, _ = fit_method(leprosy, method)
        _, rb, _ = fit_method(other, method)
        np.testing.assert_allclose(rb.coef, ra.coef, rtol=1e-10, atol=0)
        np.testing.assert_allclose(rb.se, ra.se, rtol=1e-10, atol=0)
    for got, ref in zip(_generic_fit(other), _generic_fit(leprosy)):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)
