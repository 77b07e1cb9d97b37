"""The array passes against plain per-row loops, the stacked passes against
one parameter vector at a time, and invariance of every estimator under row
order and multiplicity grouping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from semest.data import observation_rows
from semest.likelihood import evaluate
from semest.validate import (
    casecontrol_reparam_model,
    default_mc_design,
    fd_gradient,
    fd_hessian,
    replicate_fits,
    simulate,
)
from oracles import (
    casecontrol_logistic_rows,
    casecontrol_reparam_rows,
    full_mle_rows,
    irls_logistic,
)

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
        # a one-row dataset gives that row of the same pass
        rows = np.array([
            evaluate(model, params, observation_rows(o), 1)[0] for o in leprosy.observations
        ])
        assert _rel_diff(rows, scores) < 1e-12


def test_stacked_loglik_matches_each_fd_point(leprosy, leprosy_weights):
    """At every point the validate suite's finite differences evaluate (its
    20 random points per model, seed 0), the one stacked log-likelihood call
    gives each point's own value."""
    rng = np.random.default_rng(0)
    for name in MODELS:
        model = _model(name, leprosy, leprosy_weights)
        stacks = []

        def f(points):
            stacks.append(points)
            return log_likelihood(model, points, leprosy)

        for _ in range(20):
            x = 0.5 * rng.uniform(-1.0, 1.0, size=model.n_params)
            fd_gradient(f, x)
            fd_hessian(f, x)
        points = np.vstack(stacks)
        assert len(points) == 20 * 2 * model.n_params * (1 + model.n_params + 1)
        stacked = log_likelihood(model, points, leprosy)
        single = np.array([log_likelihood(model, p, leprosy) for p in points])
        np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def mc_batch():
    """40 Monte Carlo replicates fitted as one batch."""
    design = default_mc_design()
    return design, replicate_fits(design, n_rep=40, seed=3)


def test_batched_replicates_match_single_fits(mc_batch):
    """Each replicate of the batch equals the ordinary fit of its own
    dataset (the same stream drawn by ``simulate``): parameters, iteration
    count and Hessian."""
    design, (model, cells, fit) = mc_batch
    assert fit.converged.all()
    seeds = np.random.SeedSequence(3).spawn(40)
    for r in range(40):
        dataset = simulate(design, (260, 260), np.random.default_rng(seeds[r]))
        alone = maximize(build_identifiable_model(compute_weights(dataset), design.labels), dataset)
        assert fit.iterations[r] == alone.iterations
        assert _rel_diff(fit.params[r], alone.params) <= 1e-12
        assert _rel_diff(fit.hessian[r], alone.hessian) <= 1e-12
        assert fit.loglik[r] == pytest.approx(alone.loglik, rel=1e-12, abs=0)


def test_batched_replicates_match_irls(mc_batch):
    """The batch's (alpha*, slopes) are the prospective logistic fit of each
    count table with the fixed offset log(w1 / w0), by IRLS."""
    _, (model, cells, fit) = mc_batch
    Z = np.column_stack([np.ones(len(cells.X)), cells.X])
    offset = np.log(cells.sample_sizes[1] / cells.sample_sizes[0])
    for r in range(len(fit.params)):
        beta, _ = irls_logistic(Z, cells.y, cells.multiplicity[r].astype(float), offset)
        np.testing.assert_allclose(fit.params[r], beta, rtol=0, atol=1e-8)


def test_own_support_index_matches_support_lookup(leprosy, rng):
    """A model built on a dataset reads its support_index directly; on a copy
    with its own support array it looks the points up.  Same numbers."""
    copy = MultisampleDataset.from_columns(leprosy.X, leprosy.sample, leprosy.multiplicity)
    mle = build_full_mle_model(leprosy)
    assert copy.support is not mle.support is leprosy.support
    params = rng.uniform(-1.0, 1.0, size=mle.n_params)
    for order in (0, 1, 2):
        np.testing.assert_array_equal(
            evaluate(mle, params, leprosy, order), evaluate(mle, params, copy, order)
        )


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


@settings(max_examples=10, deadline=None)
@given(
    j=st.sampled_from([0, 1]),
    log10_c=st.floats(min_value=-1.0, max_value=4.0),
    negative=st.booleans(),
)
@example(j=0, log10_c=4.0, negative=True)
@example(j=1, log10_c=4.0, negative=False)
def test_covariate_rescaling(leprosy, leprosy_reports, j, log10_c, negative):
    """Scaling covariate j by c scales its slope by 1/c and its standard
    error by 1/|c|, and leaves the other slope unchanged, for every method."""
    c = 10.0**log10_c * (-1 if negative else 1)
    X = leprosy.X.copy()
    X[:, j] *= c
    scaled = MultisampleDataset.from_columns(X, leprosy.sample, leprosy.multiplicity)
    factor = np.ones(2)
    factor[j] = c
    for method in METHODS:
        ref = leprosy_reports[0][method]
        _, got, _ = fit_method(scaled, method)
        np.testing.assert_allclose(got.coef * factor, ref.coef, rtol=1e-8, atol=0)
        np.testing.assert_allclose(got.se * np.abs(factor), ref.se, rtol=1e-8, atol=0)


@settings(max_examples=10, deadline=None)
@given(j=st.sampled_from([0, 1]), shift=st.floats(min_value=-1e3, max_value=1e3))
@example(j=0, shift=1e3)
@example(j=1, shift=-1e3)
def test_covariate_shift(leprosy, leprosy_reports, j, shift):
    """Moving covariate j's origin leaves the slopes, their standard errors
    and which rows are identified unchanged, for every method (the raw
    intercept and slope directions grow collinear, the standardized ones do
    not); precision falls with the shift, as the raw Hessian's conditioning
    does."""
    X = leprosy.X.copy()
    X[:, j] += shift
    shifted = MultisampleDataset.from_columns(X, leprosy.sample, leprosy.multiplicity)
    for method in METHODS:
        ref = leprosy_reports[0][method]
        _, got, _ = fit_method(shifted, method)
        np.testing.assert_allclose(got.coef, ref.coef, rtol=1e-8, atol=0)
        np.testing.assert_allclose(got.se, ref.se, rtol=1e-7, atol=0)
        markers = {k: v[2] for k, v in got.extra_rows.items()}
        assert markers == {k: v[2] for k, v in ref.extra_rows.items()}
