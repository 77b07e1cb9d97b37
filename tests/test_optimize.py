import copy
import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest

from semest import (
    EvaluationError, FitConfig, FitResult, ModelSpec, MultisampleDataset, aggregate_hessian,
    aggregate_score, leprosy_dataset, load_casecontrol_csv, log_likelihood, maximize,
)
from semest.analysis import (
    METHODS, build_method, compare_methods, fit_method, fit_methods, standardizing_basis,
)
from semest.likelihood import hessian_entries
from semest.logistic import (
    build_full_mle_model, build_identifiable_model, build_nonidentifiable_model, transform_age,
)
from test_likelihood import NaNAtRow3

ONE_ROW = MultisampleDataset(np.zeros((1, 1)), [1], [1])
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
WIDE_SUPPORT = (
    "wide_support.csv", "wide_support_indefinite.csv", "wide_support_ridge_stall.csv"
)


class OneParameter(ModelSpec):
    """The log-likelihood f(x) of one parameter x on a one-row dataset,
    given as f and its first two derivatives, each on an array of x."""

    param_labels = ("x",)
    interest_idx = (0,)

    def __init__(self, *derivatives):
        self.derivatives = derivatives

    def evaluate(self, params, data, order):
        value = self.derivatives[order](params[..., 0])
        return value[..., None] if order == 0 else value[..., None, None]


def _first_of_batch(fit):
    """Fit 0 of a batch, as the ``FitResult`` of one fit."""
    fields = dataclasses.fields(FitResult)
    return FitResult(*(getattr(fit, f.name)[0] for f in fields[:-1]), fit.runtime)


def _alone_and_as_a_batch_of_one(model, dataset, start):
    """``maximize`` from one start (d,), run alone, then as a batch of one."""
    yield maximize(model, dataset, init=start)
    yield _first_of_batch(maximize(model, dataset, init=start[None]))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(max_iter=0)
    with pytest.raises(ValueError):
        FitConfig(grad_tol=float("nan"))
    with pytest.raises(ValueError):  # every fit would stop at once, "converged"
        FitConfig(grad_tol=float("inf"))
    with pytest.raises(ValueError):  # not an iteration count
        FitConfig(max_iter=2.5)
    with pytest.raises(ValueError):  # would run one iteration
        FitConfig(max_iter=True)


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


def test_require_converged_on_a_batch(leprosy):
    """A batch whose fits all converged is returned, and its observed
    information is the stack of each fit's; one that did not names the
    fits that failed."""
    from semest.inference import info_blocks_observed

    model = build_identifiable_model(leprosy)
    batch = maximize(model, leprosy, init=np.zeros((2, 3)))
    assert batch.require_converged() is batch
    stacked = info_blocks_observed(model, batch, leprosy)
    single = info_blocks_observed(model, maximize(model, leprosy, init=np.zeros(3)), leprosy)
    for name in ("I11", "I12", "I22"):
        for r in (0, 1):
            np.testing.assert_array_equal(getattr(stacked, name)[r], getattr(single, name))
    init = np.zeros((3, 3))
    init[1, 0] = np.inf
    with pytest.raises(EvaluationError, match=r"^1 of 3 fits did not converge: fit 1: "
                       r"objective is not finite at params \[inf"):
        maximize(model, leprosy, init=init).require_converged()


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


def test_nonfinite_start_is_raised_from_the_row_naming_error(leprosy):
    """A single fit's start error carries its params, and as its cause the
    error that names the first non-finite row."""
    with pytest.raises(EvaluationError, match="objective is not finite at params") as err:
        maximize(NaNAtRow3(), leprosy)
    assert err.value.params.tolist() == [0.0]
    cause = err.value.__cause__
    assert isinstance(cause, EvaluationError)
    got, want = cause.observation, leprosy.observations[3]
    assert (got.sample, got.x.tolist(), got.multiplicity) == (
        want.sample, want.x.tolist(), want.multiplicity
    )


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


def test_mle_fit_memory_does_not_grow_with_rows_times_support():
    """The mle fit of 2000 unit rows (K = 2000 support points, 2002
    parameters) needs no per-row score array, (N, d) = 32 MB: its traced
    peak stays below 4 MB."""
    rng = np.random.default_rng(5)
    sample = np.repeat([1, 2], 1000)
    X = rng.standard_normal((2000, 2)) + 0.5 * (sample[:, None] - 1)
    dataset = MultisampleDataset(X, sample, np.ones(2000, dtype=int))
    model = build_full_mle_model(dataset)
    assert model.K == 2000
    tracemalloc.start()
    try:
        fit = maximize(model, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_line_search_that_never_passes_stops_at_maximum_damping():
    """Finite only at its start: every trial step is rejected, the damping
    rises tenfold per iteration from 1e-8 to its cap 1e2, and the fit then
    stops, unconverged."""
    model = OneParameter(
        lambda x: np.where(x == 0.0, 0.0, -np.inf), np.ones_like, lambda x: -np.ones_like(x)
    )
    for fit in _alone_and_as_a_batch_of_one(model, ONE_ROW, np.zeros(1)):
        assert not fit.converged
        assert fit.iterations == 11
        assert fit.params.tolist() == [0.0]
        assert fit.warnings[0] == "line search stalled at maximum damping"


def test_damping_rises_until_the_direction_ascends():
    """x^2 - 0.1 x^4 is convex at 0.1: the undamped Newton direction
    descends, so the damping rises until it ascends, and the fit reaches
    the maximum at sqrt(5)."""
    model = OneParameter(
        lambda x: x**2 - 0.1 * x**4, lambda x: 2 * x - 0.4 * x**3, lambda x: 2 - 1.2 * x**2
    )
    for fit in _alone_and_as_a_batch_of_one(model, ONE_ROW, np.array([0.1])):
        assert fit.converged
        assert fit.params[0] == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_steepest_ascent_where_no_damping_gives_an_ascent_direction():
    """x + 500 x^2 - x^4 / 4 has curvature 1000 at 0, beyond the damping
    cap 1e2: every damped Newton direction descends, so the fit steps along
    the gradient until the curvature turns negative, and reaches the
    maximum, the root of 1 + 1000 x - x^3 near 31.6."""
    model = OneParameter(
        lambda x: x + 500 * x**2 - 0.25 * x**4,
        lambda x: 1 + 1000 * x - x**3,
        lambda x: 1000 - 3 * x**2,
    )
    for fit in _alone_and_as_a_batch_of_one(model, ONE_ROW, np.zeros(1)):
        assert fit.converged
        x = fit.params[0]
        assert x > 31 and 1 + 1000 * x - x**3 == pytest.approx(0.0, abs=1e-6)


def test_batch_with_one_singular_newton_system():
    """x + 1e-8 x^2 / 2 - x^4 / 4 has curvature 1e-8 at 0, the initial
    damping: the damped system of the fit started there is exactly
    singular.  It is solved one fit at a time, and each fit of the batch
    is bit-identical to the same fit run alone, or as a batch of one."""
    model = OneParameter(
        lambda x: x + 0.5e-8 * x**2 - 0.25 * x**4,
        lambda x: 1 + 1e-8 * x - x**3,
        lambda x: 1e-8 - 3 * x**2,
    )
    init = np.array([[0.0], [0.5]])
    fit = maximize(model, ONE_ROW, init=init)
    assert fit.converged.all()
    for r in range(2):
        for alone in _alone_and_as_a_batch_of_one(model, ONE_ROW, init[r]):
            np.testing.assert_array_equal(fit.params[r], alone.params)
            assert fit.iterations[r] == alone.iterations
    np.testing.assert_allclose(fit.params[:, 0], 1.0, rtol=1e-8)  # the root of the score


def _quartic_with_a_nan_band(order):
    """-x^4 / 4, whose score (``order`` 1) or Hessian (``order`` 2) is NaN
    on 1.5 < x < 2.5 (the objective stays finite): Newton steps x -> 2x / 3,
    so a fit from 3 lands on 2 after its first step, and a fit from 1 never
    enters the band."""
    derivatives = [lambda x: -0.25 * x**4, lambda x: -(x**3), lambda x: -3.0 * x**2]
    exact = derivatives[order]
    derivatives[order] = lambda x: np.where(np.abs(x - 2.0) < 0.5, np.nan, exact(x))
    return OneParameter(*derivatives)


def test_nonfinite_gradient_after_a_step_stops_the_fit():
    """A single fit raises, carrying the params and, as its cause, the error
    naming the row; in a batch that fit stops, unconverged, with the error
    as its last warning, and the others go on.  The NaN is in the score,
    then in the Hessian alone."""
    for order, what in ((1, "score"), (2, "Hessian")):
        model = _quartic_with_a_nan_band(order)
        with pytest.raises(EvaluationError, match="non-finite gradient at params") as err:
            maximize(model, ONE_ROW, init=np.array([3.0]))
        assert err.value.params[0] == pytest.approx(2.0, rel=1e-6)
        assert str(err.value.__cause__).startswith(f"non-finite {what}")
        init = np.array([[3.0], [1.0]])
        fit = maximize(model, ONE_ROW, init=init)
        assert fit.converged.tolist() == [False, True]
        assert fit.iterations[0] == 1
        assert fit.warnings[0][-1].startswith("non-finite gradient at params")
        alone = maximize(model, ONE_ROW, init=init[1])
        np.testing.assert_array_equal(fit.params[1], alone.params)
        np.testing.assert_array_equal(fit.hessian[1], alone.hessian)
        assert (fit.loglik[1], fit.iterations[1], fit.grad_norm[1]) == (
            alone.loglik, alone.iterations, alone.grad_norm
        )


@pytest.mark.parametrize("name", ("leprosy",) + WIDE_SUPPORT)
@pytest.mark.parametrize("method", METHODS)
def test_single_fit_is_bit_identical_to_a_batch_of_one(name, method):
    """The single-fit loop and the batch loop take the same iterates: every
    field of a fit run alone equals fit 0 of the same start run as a batch
    of one, bit for bit (the ``mle``'s structured Hessian entry by entry)."""
    dataset = (
        leprosy_dataset() if name == "leprosy" else load_casecontrol_csv(str(FIXTURES / name))
    )
    model = build_method(dataset, method, standardizing_basis(dataset)[0])
    start = model.init_params(dataset)
    alone = maximize(model, dataset, init=start)
    batch = _first_of_batch(maximize(model, dataset, init=start[None]))
    np.testing.assert_array_equal(alone.params, batch.params)
    np.testing.assert_array_equal(hessian_entries(alone.hessian), hessian_entries(batch.hessian))
    assert (alone.loglik, alone.iterations, alone.grad_norm, alone.converged) == (
        batch.loglik, batch.iterations, batch.grad_norm, batch.converged
    )
    assert isinstance(alone.iterations, int) and alone.warnings == batch.warnings


def _fixture(name):
    if name == "leprosy":
        return leprosy_dataset()
    return load_casecontrol_csv(str(FIXTURES / name), transform=transform_age)


@pytest.mark.parametrize("name", ("leprosy",) + WIDE_SUPPORT)
def test_mle_starts_at_the_image_of_the_reparam_id_fit(name):
    """``fit_method``'s ``mle`` starts at the image of the converged
    ``reparam-id`` fit, a stationary point of the joint likelihood: it takes
    no Newton step and lands on a cold ``mle`` fit run to grad_tol 1e-12."""
    dataset = _fixture(name)
    fit, report, _ = fit_method(dataset, "mle")
    model = build_method(dataset, "mle", standardizing_basis(dataset)[0])
    cold = maximize(model, dataset, cfg=FitConfig(grad_tol=1e-12))
    assert fit.converged and fit.iterations == report.iterations == 0
    np.testing.assert_allclose(fit.params[: model.n_theta], cold.params[: model.n_theta],
                               rtol=1e-12, atol=0)
    assert np.max(np.abs(fit.params - cold.params)) <= 1e-12 * np.max(np.abs(cold.params))


def test_mle_starts_cold_when_the_reparam_id_fit_did_not_converge(leprosy):
    """At max_iter=5 the leprosy ``reparam-id`` fit (6 steps) does not
    converge, so the ``mle`` starts from ``init_params``: the cold fit's 5
    steps and its params, bit for bit."""
    cfg = FitConfig(max_iter=5)
    fit, _, _ = fit_method(leprosy, "mle", cfg)
    model = build_method(leprosy, "mle", standardizing_basis(leprosy)[0])
    cold = maximize(model, leprosy, cfg=cfg)
    assert fit.converged and fit.iterations == cold.iterations == 5
    np.testing.assert_array_equal(fit.params, cold.params)


def test_mle_runtime_includes_its_start_fit(leprosy):
    """In ``compare`` the ``mle``'s runtime is its own fit's plus that of
    the ``reparam-id`` fit it started from, so it exceeds the latter."""
    reports, _ = compare_methods(leprosy)
    assert reports["mle"].runtime_ms > reports["reparam-id"].runtime_ms


@pytest.mark.parametrize("name", ("leprosy",) + WIDE_SUPPORT)
def test_reparam_nonid_is_the_reparam_id_fit_mapped(name):
    """``reparam-nonid`` is the ``reparam-id`` fit at z mapped to (z, 0) through
    M = [I | e0], with no step of its own: the nonid model's own loglik, score
    (M'g, on the scale of n) and Hessian (M'HM) there match the mapped ones to
    1e-12 relative.  Its report has the ``reparam-id`` slopes bit for bit and
    its SEs to 4 ulp (the Schur complement over log_rho1 leaves rounding of
    1e-19 in the null alpha row of I*), Intercept alpha* and log_rho1 0."""
    dataset = _fixture(name)
    (fit_id, report_id, model_id), (fit, report, model) = fit_methods(
        dataset, ("reparam-id", "reparam-nonid")
    )
    assert fit.converged and fit.iterations == report.iterations == 0
    assert fit.runtime == fit_id.runtime and fit.grad_norm == fit_id.grad_norm
    np.testing.assert_array_equal(fit.params, np.append(fit_id.params, 0.0))
    M = np.eye(model_id.n_params, model.n_params)
    M[0, -1] = 1.0
    assert log_likelihood(model, fit.params, dataset) == pytest.approx(fit.loglik, rel=1e-12)
    score = aggregate_score(model, fit.params, dataset)
    mapped = M.T @ aggregate_score(model_id, fit_id.params, dataset)
    assert np.max(np.abs(score - mapped)) <= 1e-12 * dataset.n
    hessian = aggregate_hessian(model, fit.params, dataset)
    assert np.max(np.abs(hessian - fit.hessian)) <= 1e-12 * np.max(np.abs(hessian))
    np.testing.assert_array_equal(report.coef, report_id.coef)
    np.testing.assert_array_max_ulp(report.se, report_id.se, maxulp=4)
    assert report.extra_rows["Intercept"] == (report_id.extra_rows["Intercept*"][0], None, "!")
    assert report.extra_rows["log_rho1"] == (0.0, None, "!")


def test_reparam_nonid_fails_with_the_reparam_id_fit(leprosy):
    """When the shared ``reparam-id`` fit does not converge, ``reparam-nonid``
    fails with that fit's message: its gradient norm and its 5 iterations."""
    cfg = FitConfig(max_iter=5)
    with pytest.raises(EvaluationError) as id_error:
        fit_method(leprosy, "reparam-id", cfg)
    with pytest.raises(EvaluationError, match="after 5 iterations") as nonid_error:
        fit_method(leprosy, "reparam-nonid", cfg)
    assert str(nonid_error.value) == str(id_error.value)
