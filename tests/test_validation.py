import functools
import json
import pathlib
import re

import numpy as np
import pytest

import semest.logistic
import semest.reparam
import semest.validate
from semest import ConvergenceError, EvaluationError, FitConfig, Weights
from semest.analysis import build_method
from semest.cli import main
from semest.inference import efficient_information, info_blocks_moments
from semest.logistic import FullMLELogisticModel, casecontrol_reparam_model
from semest.validate import (
    MAX_OUTCOMES,
    ToyInstance,
    _row_sum_loglik,
    brute_force_info,
    check_stationarity,
    default_mc_design,
    enumerated_centered_scores,
    fd_gradient,
    fd_hessian,
    monte_carlo_variance,
    simulate,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def toy():
    return ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )


def test_fd_exact_on_quadratic():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([0.5, -1.0])
    f = lambda x: 0.5 * np.sum((x @ A) * x, -1) + x @ b  # one value per row of a stack
    x0 = np.array([0.7, -0.2])
    np.testing.assert_allclose(fd_gradient(f, x0), A @ x0 + b, atol=1e-8)
    np.testing.assert_allclose(fd_hessian(f, x0), A, atol=1e-6)


@pytest.mark.parametrize("name", ["mle", "reparam-nonid", "reparam-id", "generic"])
def test_fd_on_a_stack_equals_single_points(leprosy, name):
    """Stacked fd_gradient and fd_hessian give, at each point of an (R, d)
    stack, the bits of the call at that point alone; a non-finite sample
    names its point."""
    model = (casecontrol_reparam_model(leprosy) if name == "generic"
             else build_method(leprosy, name))
    f = lambda p: _row_sum_loglik(model, p, leprosy)
    x = 0.5 * np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, model.n_params))
    for fd in (fd_gradient, fd_hessian):
        stacked = fd(f, x)
        assert stacked.shape == (3,) + fd(f, x[0]).shape
        for r in range(3):
            np.testing.assert_array_equal(stacked[r], fd(f, x[r]))
        poisoned = lambda p: np.where(np.all(p[:, :1] == x[1, 0], axis=1), np.nan, f(p))
        with pytest.raises(EvaluationError, match=re.escape(str(x[1]))):
            fd(poisoned, x)


def test_toy_probabilities(toy):
    for s in (1, 2):
        assert toy.cond_probs(s).sum() == pytest.approx(1.0, abs=1e-14)
    stratum_probs = [toy.response_probs(s - 1) @ toy.g for s in (1, 2)]
    assert sum(stratum_probs) == pytest.approx(1.0, abs=1e-14)
    assert toy.population_fstar().values.sum() == pytest.approx(1.0, abs=1e-14)


def test_brute_force_matches_complex_step_fixture(toy):
    """Cross-implementation check: enumeration with analytic scores vs the
    committed fixture computed by complex-step differentiation of an
    independently written log-density (tests/make_toy_fixtures.py)."""
    fx = json.loads((FIXTURES / "toy_info.json").read_text())
    blocks, istar = brute_force_info(toy)
    assert np.max(np.abs(blocks.full() - np.array(fx["full_info"]))) < 1e-12
    assert np.max(np.abs(istar - np.array(fx["istar"]))) < 1e-12


def test_enumerated_moments_path_agrees(toy):
    """Second route to the same matrices through the inference formulas."""
    blocks_bf, istar_bf = brute_force_info(toy)
    cs = enumerated_centered_scores(toy)
    blocks = info_blocks_moments(cs, toy.weights)
    istar = efficient_information(blocks)
    assert np.max(np.abs(blocks.full() - blocks_bf.full())) < 1e-12
    assert np.max(np.abs(istar - istar_bf)) < 1e-12


def test_brute_force_size_guard():
    K = MAX_OUTCOMES // 2 + 1  # one support point more than the guard allows
    big = ToyInstance(
        support=np.arange(K, dtype=float)[:, None],
        g=np.full(K, 1.0 / K),
        alpha=0.0,
        beta=[0.0],
        weights=Weights([0.5, 0.5]),
    )
    with pytest.raises(ValueError, match=f"too large: {2 * K} outcomes"):
        brute_force_info(big)


def test_simulate_deterministic_and_sized(toy):
    a = simulate(toy, (50, 70), np.random.default_rng(3))
    b = simulate(toy, (50, 70), np.random.default_rng(3))
    assert list(a.sample_sizes) == [50, 70]
    assert len(a.observations) == len(b.observations)
    for oa, ob in zip(a.observations, b.observations):
        assert oa.sample == ob.sample
        assert oa.multiplicity == ob.multiplicity
        assert np.array_equal(oa.x, ob.x)


def test_stationarity_negative_control(leprosy):
    """A sloppy profile of q must be caught by the likelihood's q-score."""
    model = casecontrol_reparam_model(leprosy)
    theta = np.array([1.0, -0.3, -4.0])
    tight = check_stationarity(model, theta, leprosy)
    # a tolerance so loose that the fixed point stops after its first
    # iterate: the score must expose the unprofiled nuisance
    loose = check_stationarity(model, theta, leprosy, tol=10.0)
    assert tight < 1e-8
    assert loose > 1e-8
    assert loose > 100 * max(tight, 1e-16)


def test_monte_carlo_smoke_and_determinism():
    design = default_mc_design()
    a = monte_carlo_variance(design, sizes=(260, 260), n_rep=30, seed=11)
    b = monte_carlo_variance(design, sizes=(260, 260), n_rep=30, seed=11)
    assert a.to_dict() == b.to_dict()
    assert a.n_failed == 0
    # loose sanity band for 30 replicates
    assert np.all(a.sd_se_ratio > 0.6) and np.all(a.sd_se_ratio < 1.6)


def test_monte_carlo_aborts_on_failures(monkeypatch):
    capped = functools.partial(semest.validate.maximize, cfg=FitConfig(max_iter=1, grad_tol=1e-12))
    monkeypatch.setattr(semest.validate, "maximize", capped)
    with pytest.raises(ConvergenceError, match="replicate fits failed"):
        monte_carlo_variance(default_mc_design(), sizes=(260, 260), n_rep=10, seed=0)


def test_toy_validation():
    with pytest.raises(ValueError, match="probability vector"):
        ToyInstance(
            support=[[0.0], [1.0]],
            g=[0.5, 0.6],
            alpha=0.0,
            beta=[1.0],
            weights=Weights([0.5, 0.5]),
        )


def test_brute_force_zero_slope_symmetry():
    """Symmetric design with zero slope: cross-information vanishes and
    I* reduces to the interest block."""
    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.5, 0.5],
        alpha=0.0,
        beta=[0.0],
        weights=Weights([0.5, 0.5]),
    )
    blocks, istar = brute_force_info(toy)
    assert np.max(np.abs(blocks.I12)) < 1e-14
    np.testing.assert_allclose(istar, blocks.I11, atol=1e-14)


def _stretched(link):
    """``link`` (a weight spec or a family) read at 1.1 eta, with its eta
    derivatives scaled to match: a wrong model that is still coherent."""
    def stretched(*args):
        *head, eta, order = args
        return tuple(v * 1.1**k for k, v in enumerate(link(*head, 1.1 * eta, order)))
    return stretched


def _scaled_phi_scores(evaluate):
    """The mle's ``evaluate`` with the phi block of its per-row scores
    scaled by 1.01."""
    def scaled(self, params, data, order):
        out = evaluate(self, params, data, order)
        if order == 1:
            out = out.copy()
            out[..., self.n_theta :] *= 1.01
        return out
    return scaled


def _broken_score(aggregate_score):
    """``aggregate_score`` with 0.1 per unit added to component 0 of the
    reparam-id model's score (the model whose first parameter is alpha*)."""
    def broken(model, params, dataset):
        out = aggregate_score(model, params, dataset)
        if model.param_labels[0] == "alpha*":
            out = out.copy()
            out[..., 0] += 0.1 * np.sum(dataset.multiplicity)
        return out
    return broken


def _shifted_image(profile_image):
    """``profile_image`` with g times 1.01 on alternate support points."""
    def shifted(self, data, z_id):
        out = profile_image(self, data, z_id).copy()
        out[self.n_theta :: 2] += np.log(1.01)
        return out
    return shifted


def _corrupt(check, monkeypatch):
    if check == "fd-score[identifiable]":
        monkeypatch.setattr(
            semest.validate, "aggregate_score", _broken_score(semest.validate.aggregate_score)
        )
    elif check == "normalization":
        monkeypatch.setattr(semest.validate, "check_normalization", lambda *args: np.nan)
    elif check == "generic-vs-specialised":
        for name in ("casecontrol_weight_spec", "casecontrol_family"):
            monkeypatch.setattr(semest.logistic, name, _stretched(getattr(semest.logistic, name)))
    elif check == "profile-image[mle]":
        shifted = _shifted_image(FullMLELogisticModel.profile_image)
        monkeypatch.setattr(FullMLELogisticModel, "profile_image", shifted)
    elif check == "stationarity":
        monkeypatch.setattr(semest.reparam, "FIXED_POINT_MAX_ITER", 1)
    else:
        scaled = _scaled_phi_scores(FullMLELogisticModel.evaluate)
        monkeypatch.setattr(FullMLELogisticModel, "evaluate", scaled)


# the one FAIL line's detail under each corruption, at seeds 0 and 3
_FAILS = {
    "fd-score[identifiable]": ("max rel err 2.45e+00", "max rel err 2.31e+00"),
    "normalization": ("max |sum - 1| = nan",) * 2,
    "generic-vs-specialised": ("slopes max rel diff 9.09e-02",) * 2,
    "totals-vs-rows[full-mle]": ("max rel gap 9.90e-03",) * 2,
    "profile-image[mle]": ("max |score| / n 5.75e-04",) * 2,
    "stationarity": ("fixed-point iteration did not converge in 1 iterations",) * 2,
}


@pytest.mark.parametrize("check", list(_FAILS))
def test_suite_fails_on_corrupted_code(monkeypatch, capsys, check):
    """Each corruption of the code makes ``validate`` fail the check named,
    and no other, and exit 3: a score with 0.1 per unit added to reparam-id's
    alpha* component, a NaN normalization, a generic model with a wrong but
    self-consistent link (1.1 eta), the mle's per-row phi scores scaled
    by 1.01, the image of the reparam-id fit with g off by 1% on
    alternate support points, and a fixed point of q cut off after one
    iteration: a check that raises fails with its message, and the suite
    goes on."""
    _corrupt(check, monkeypatch)
    for seed, detail in zip((0, 3), _FAILS[check]):
        assert main(["validate", "--seed", str(seed)]) == 3
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert fails == [f"FAIL  {check}: {detail}"]
