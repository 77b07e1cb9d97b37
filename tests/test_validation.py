import json
import pathlib

import numpy as np
import pytest

import semest.logistic
import semest.validate
from semest import ConvergenceError, FitConfig, Weights
from semest.cli import main
from semest.inference import efficient_information, info_blocks_moments
from semest.logistic import FullMLELogisticModel, casecontrol_reparam_model
from semest.validate import (
    MAX_OUTCOMES,
    ToyInstance,
    brute_force_info,
    check_stationarity,
    default_mc_design,
    enumerated_centered_scores,
    fd_gradient,
    fd_hessian,
    monte_carlo_variance,
    run_suite,
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


def test_toy_probabilities(toy):
    for s in (1, 2):
        assert toy.cond_probs(s).sum() == pytest.approx(1.0, abs=1e-14)
    assert toy.stratum_prob(1) + toy.stratum_prob(2) == pytest.approx(1.0, abs=1e-14)
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


def test_monte_carlo_aborts_on_failures():
    design = default_mc_design()
    with pytest.raises(ConvergenceError, match="replicate fits failed"):
        monte_carlo_variance(
            design,
            sizes=(260, 260),
            n_rep=10,
            seed=0,
            cfg=FitConfig(max_iter=1, grad_tol=1e-12),
        )


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


def _corrupt(check, monkeypatch):
    if check == "normalization":
        monkeypatch.setattr(semest.validate, "check_normalization", lambda *args: np.nan)
    elif check == "generic-vs-specialised":
        for name in ("casecontrol_weight_spec", "casecontrol_family"):
            monkeypatch.setattr(semest.logistic, name, _stretched(getattr(semest.logistic, name)))
    else:
        scaled = _scaled_phi_scores(FullMLELogisticModel.evaluate)
        monkeypatch.setattr(FullMLELogisticModel, "evaluate", scaled)


@pytest.mark.parametrize(
    "check", ["normalization", "generic-vs-specialised", "totals-vs-rows[full-mle]"]
)
def test_suite_fails_on_corrupted_code(monkeypatch, capsys, check):
    """Each corruption of the code makes the suite fail the check named,
    and ``validate`` exit 3: a NaN normalization, a generic model with a
    wrong but self-consistent link (1.1 eta), and the mle's per-row phi
    scores scaled by 1.01."""
    _corrupt(check, monkeypatch)
    failed = [r.name for r in run_suite(seed=0) if not r.passed]
    assert check in failed
    assert main(["validate", "--seed", "0"]) == 3
    assert f"FAIL  {check}:" in capsys.readouterr().out
