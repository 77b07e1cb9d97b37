"""The array passes against plain per-row loops, the stacked passes against
one parameter vector at a time, and invariance of every estimator under row
order and multiplicity grouping."""

import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semest import (
    MultisampleDataset,
    SingularInformationError,
    aggregate_hessian,
    aggregate_score,
    efficient_information,
    log_likelihood,
    maximize,
    standard_errors,
)
from semest.analysis import METHODS, compare_methods, fit_method
from semest.data import load_casecontrol_csv, load_long_csv, observation_rows
from semest.inference import InfoBlocks, info_blocks_observed, low_rank_spectrum, partition, spectrum
from semest.likelihood import evaluate
from semest.logistic import (
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
    casecontrol_reparam_model,
    transform_age,
)
from semest.structured import DiagPlusLowRank, StructuredHessian, dense
from semest.validate import (
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
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# wide-support files, 100 cells each, made by perfbench/gen.py:
# wide_support_csv(5, 0), (63, 85) and (1, 12)
WIDE_SUPPORT = (
    "wide_support.csv", "wide_support_indefinite.csv", "wide_support_ridge_stall.csv"
)


def _model(name, dataset):
    if name == "identifiable":
        return build_identifiable_model(dataset)
    if name == "non-identifiable":
        return build_nonidentifiable_model(dataset)
    if name == "full-mle":
        return build_full_mle_model(dataset)
    return casecontrol_reparam_model(dataset)


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
    """Largest difference relative to max(1, max |b|); structured Hessians
    are densified."""
    a, b = dense(a).astype(float), dense(b).astype(float)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("name", MODELS)
def test_array_pass_matches_row_loop(name, leprosy, leprosy_weights, rng):
    model = _model(name, leprosy)
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


def test_stacked_loglik_matches_each_fd_point(leprosy):
    """At every point the validate suite's finite differences evaluate (its
    20 random points per model, seed 0), the one stacked log-likelihood call
    gives each point's own value."""
    rng = np.random.default_rng(0)
    for name in MODELS:
        model = _model(name, leprosy)
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
        alone = maximize(build_identifiable_model(dataset), dataset)
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
            dense(evaluate(mle, params, leprosy, order)), dense(evaluate(mle, params, copy, order))
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
    model = casecontrol_reparam_model(dataset)
    fit = maximize(model, dataset).require_converged()
    istar = efficient_information(info_blocks_observed(model, fit, dataset))
    se, _, _ = standard_errors(istar, dataset.n)
    return fit.params[1 : model.n_theta], se[1:]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_row_order_and_grouping_invariance(leprosy, seed):
    other = _regrouped(leprosy, seed)
    assert other.n == leprosy.n
    np.testing.assert_array_equal(other.support, leprosy.support)
    params_rng = np.random.default_rng(seed)
    for name in MODELS:
        a = _model(name, leprosy)
        b = _model(name, other)
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
    log10_c=st.floats(min_value=-4.0, max_value=4.0),
    negative=st.booleans(),
)
@example(j=0, log10_c=4.0, negative=True)
@example(j=1, log10_c=4.0, negative=False)
@example(j=0, log10_c=-4.0, negative=False)
@example(j=1, log10_c=-4.0, negative=True)
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
@given(j=st.sampled_from([0, 1]), shift=st.floats(min_value=-1e4, max_value=1e4))
@example(j=0, shift=1e4)
@example(j=1, shift=-1e4)
def test_covariate_shift(leprosy, leprosy_reports, j, shift):
    """Moving covariate j's origin leaves the slopes, their standard errors
    and which rows are identified unchanged, for every method: the raw
    intercept and slope directions grow collinear, but the fit steps in,
    and reads the information in, standardized coordinates, which do
    not."""
    X = leprosy.X.copy()
    X[:, j] += shift
    shifted = MultisampleDataset.from_columns(X, leprosy.sample, leprosy.multiplicity)
    for method in METHODS:
        ref = leprosy_reports[0][method]
        _, got, _ = fit_method(shifted, method)
        np.testing.assert_allclose(got.coef, ref.coef, rtol=1e-8, atol=0)
        np.testing.assert_allclose(got.se, ref.se, rtol=1e-8, atol=0)
        markers = {k: v[2] for k, v in got.extra_rows.items()}
        assert markers == {k: v[2] for k, v in ref.extra_rows.items()}


def _rank_verdict(rule, M):
    """'full' or 'null' from ``low_rank_spectrum`` on M or from ``spectrum``
    on its dense form, else the leading words of the error raised."""
    try:
        if rule is spectrum:
            return "full" if spectrum(M.dense(), "M")[2].all() else "null"
        return "full" if low_rank_spectrum(M, "M") is None else "null"
    except SingularInformationError as exc:
        return str(exc).split(" (")[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), m=st.integers(1, 12))
def test_diag_plus_low_rank_matches_dense(seed, m):
    """On random diagonal-plus-rank-2 matrices of either sign of coef: the
    eigenvalue counts, the rank verdict and the Woodbury and
    block-elimination solves agree with the dense matrix.  The shifted
    diagonal stays at least 0.3 from zero, where Woodbury divides by it."""
    rng = np.random.default_rng(seed)
    coef = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
    diag = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
    M = DiagPlusLowRank(diag, rng.normal(size=(m, 2)), coef)
    values = np.linalg.eigvalsh(M.dense())
    for sigma in rng.normal(size=4):
        gap = min(np.abs(values - sigma).min(), np.abs(diag - sigma).min())
        if gap > 1e-8:  # a count at an eigenvalue or a pole is a tie
            assert M.count_below(sigma) == np.count_nonzero(values < sigma)
    # the verdict of low_rank_spectrum is spectrum's, on M and on two
    # matrices made from its draws: D - c f f' with a null direction D^-1 f,
    # and D - 2c f f', indefinite
    d, f = np.abs(diag), np.column_stack([M.factor[:, 0], np.zeros(m)])
    c = 1.0 / (f[:, 0] @ (f[:, 0] / d))
    for case in (M, DiagPlusLowRank(d, f, -c), DiagPlusLowRank(d, f, -2.0 * c)):
        assert _rank_verdict(low_rank_spectrum, case) == _rank_verdict(spectrum, case)
    shift = rng.uniform(-0.2, 0.2)
    # magnitudes summed into each system: both solves' rounding scales with
    # ||system^-1|| ||parts||, near-cancelling entries included
    parts = abs(coef) * np.abs(M.factor) @ np.abs(M.factor).T + np.diag(np.abs(diag) + abs(shift))
    system = M.dense() + shift * np.eye(m)
    rhs = rng.normal(size=(m, 3))
    ref = np.linalg.solve(system, rhs)
    kappa = np.linalg.norm(np.linalg.inv(system), 2) * np.linalg.norm(parts, 2)
    assert np.abs(M.solve(rhs, shift) - ref).max() <= 1e-12 * kappa * np.abs(ref).max()
    head, cross = rng.normal(size=(3, 3)), rng.normal(size=(3, m))
    H = StructuredHessian(head + head.T, cross, M)
    parts = np.block([[np.abs(head + head.T) + abs(shift) * np.eye(3), np.abs(cross)],
                      [np.abs(cross).T, parts]])
    system = H.dense() + shift * np.eye(3 + m)
    b = rng.normal(size=3 + m)
    ref = np.linalg.solve(system, b)
    kappa = np.linalg.norm(np.linalg.inv(system), 2) * np.linalg.norm(parts, 2)
    assert np.abs(H.solve(b, shift) - ref).max() <= 1e-12 * kappa * np.abs(ref).max()


@pytest.mark.parametrize("source", ("leprosy",) + WIDE_SUPPORT)
def test_structured_mle_solves_match_dense(leprosy, rng, source):
    """At random points, the mle's structured Hessian gives the damped
    Newton direction of ``np.linalg.solve`` on the row-loop oracle's dense
    Hessian, and its I* the explicit Schur complement, both to 1e-10."""
    if source == "leprosy":
        dataset = leprosy
    else:
        dataset = load_casecontrol_csv(str(FIXTURES / source), transform=transform_age)
    model = build_full_mle_model(dataset)
    q = model.n_theta
    for _ in range(2):
        params = rng.uniform(-1.0, 1.0, size=model.n_params)
        cols = (dataset.X, dataset.sample, dataset.multiplicity)
        _, _, dense_h = full_mle_rows(dataset.support, *cols, params)
        hess = aggregate_hessian(model, params, dataset)
        grad = aggregate_score(model, params, dataset)
        for lam in (1e-8, 1.0):  # (-H + lam I) d = g, as the Newton step solves it
            ref = np.linalg.solve(-dense_h + lam * np.eye(model.n_params), grad)
            assert np.abs(hess.solve(-grad, -lam) - ref).max() < 1e-10 * np.abs(ref).max()
        info = -dense_h / dataset.n
        ref = info[:q, :q] - info[:q, q:] @ np.linalg.solve(info[q:, q:], info[q:, :q])
        blocks = partition(hess / -dataset.n, model.interest_idx, model.nuisance_idx)
        assert np.abs(efficient_information(blocks) - ref).max() < 1e-10 * np.abs(ref).max()


def _separated_fit_blocks(tmp_path):
    """Observed information blocks of the mle fit of a completely separated
    table: age 2.5 has no cases, age 7.5 no controls."""
    path = tmp_path / "separated.csv"
    path.write_text("age,scar,cases,controls\n2.5,0,0,10\n2.5,1,0,12\n7.5,0,9,0\n7.5,1,11,0\n")
    dataset = load_casecontrol_csv(str(path), transform=transform_age)
    model = build_full_mle_model(dataset)
    fit = maximize(model, dataset)
    return info_blocks_observed(model, fit, dataset)


def _near_singular_g_blocks(leprosy, phi):
    """Observed information blocks at a point where every phi_k is ``phi``:
    the last support point's mass e^-phi / (1 + 13 e^-phi) nearly vanishes
    for large phi, and I22 with it."""
    model = build_full_mle_model(leprosy)
    params = np.zeros(model.n_params)
    params[0], params[model.n_theta :] = 0.5, phi
    hess = aggregate_hessian(model, params, leprosy)
    return partition(hess / -leprosy.n, model.interest_idx, model.nuisance_idx)


@pytest.mark.parametrize("case", ["separated", "phi=5", "phi=20", "phi=40"])
def test_structured_null_direction_matches_spectrum(leprosy, tmp_path, case):
    """The structured I22 rank verdict is ``spectrum``'s on the dense block,
    and a null direction is the same eigenvector (up to sign)."""
    if case == "separated":
        blocks = _separated_fit_blocks(tmp_path)
    else:
        blocks = _near_singular_g_blocks(leprosy, float(case[4:]))
    I22 = blocks.I22
    _, vectors, keep = spectrum(dense(I22), "I22")
    null = low_rank_spectrum(I22, "I22")
    assert (null is not None) == (not keep.all()) == (case in ("separated", "phi=20", "phi=40"))
    if null is None:
        return
    assert min(np.abs(null - vectors[:, 0]).max(), np.abs(null + vectors[:, 0]).max()) < 1e-6
    # efficient_information raises with that direction on either path
    for b in (blocks, InfoBlocks(blocks.I11, blocks.I12, dense(I22))):
        with pytest.raises(SingularInformationError, match="I22 is numerically singular") as exc:
            efficient_information(b)
        v = exc.value.null_direction
        assert min(np.abs(v - null).max(), np.abs(v + null).max()) < 1e-6


@pytest.mark.parametrize("p", [1, 3])
def test_methods_fit_long_data_of_any_width(tmp_path, p):
    """``fit_method`` and ``compare_methods`` on a long file with p != 2
    covariates label the slopes x1..xp, and the three methods agree."""
    rng = np.random.default_rng(p)
    beta = np.array([0.5, -0.3, 0.2])[:p]
    X = np.vstack([rng.standard_normal((120, p)), rng.standard_normal((120, p)) + beta])
    sample = np.repeat([1, 2], 120)
    labels = tuple(f"x{i + 1}" for i in range(p))
    rows = [f"{s},{s - 1}," + ",".join(map(repr, x)) for s, x in zip(sample, X.tolist())]
    f = tmp_path / "long.csv"
    f.write_text("\n".join(["sample,y," + ",".join(labels), *rows]) + "\n")
    dataset = load_long_csv(f)
    fits = {m: fit_method(dataset, m)[1] for m in METHODS}
    reports, releff = compare_methods(dataset)
    for m in METHODS:
        assert fits[m].labels == reports[m].labels == labels
        np.testing.assert_allclose(fits[m].coef, fits["mle"].coef, rtol=0, atol=1e-6)
        np.testing.assert_allclose(fits[m].se, fits["mle"].se, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(reports[m].coef, fits[m].coef)
    assert all(tuple(eff) == labels for eff in releff.values())
