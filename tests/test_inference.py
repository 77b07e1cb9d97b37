import numpy as np
import pytest

from semest import (
    EfficiencyReport,
    InfoBlocks,
    SingularInformationError,
    build_identifiable_model,
    centered_scores,
    efficient_information,
    efficient_score,
    info_blocks_moments,
    info_blocks_observed,
    maximize,
    relative_efficiency,
    standard_errors,
)
from semest.validate import schur_identity_gap


def test_centered_scores_have_zero_sample_means(leprosy, leprosy_weights, leprosy_id_fit):
    fit, _, model = leprosy_id_fit
    cs = centered_scores(model, fit.params, leprosy)
    for s in (1, 2):
        mask = cs.sample == s
        mean = (cs.multiplicity[mask, None] * cs.scores[mask]).sum(axis=0)
        mean /= leprosy.sample_sizes[s - 1]
        assert np.max(np.abs(mean)) < 1e-12
    assert cs.l1c.shape[1] == 2
    assert cs.l2c.shape[1] == 1


def test_observed_blocks(leprosy, leprosy_id_fit):
    fit, _, model = leprosy_id_fit
    blocks = info_blocks_observed(model, fit, leprosy)
    assert blocks.source == "observed-hessian"
    assert blocks.n == 520
    full = blocks.full()
    np.testing.assert_array_equal(full, full.T)
    # positive definite at the identifiable optimum
    assert np.min(np.linalg.eigvalsh(full)) > 0


def test_moment_blocks_close_to_observed(leprosy, leprosy_weights, leprosy_id_fit):
    fit, _, model = leprosy_id_fit
    cs = centered_scores(model, fit.params, leprosy)
    mom = info_blocks_moments(cs, leprosy_weights, n=leprosy.n)
    obs = info_blocks_observed(model, fit, leprosy)
    assert mom.source == "centered-moments"
    # two consistent estimators of the same efficient information; the raw
    # blocks differ (centering removes between-stratum variation) but the
    # implied standard errors agree to sampling accuracy
    se_mom, _, _ = standard_errors(efficient_information(mom), leprosy.n)
    se_obs, _, _ = standard_errors(efficient_information(obs), leprosy.n)
    np.testing.assert_allclose(se_mom, se_obs, rtol=0.05)


def test_standard_errors_match_irls_oracle(leprosy, leprosy_id_fit, oracle_prospective):
    fit, report, model = leprosy_id_fit
    beta_oracle, cov_oracle = oracle_prospective
    # slopes and their standard errors against the independent IRLS fit
    np.testing.assert_allclose(report.coef, beta_oracle[1:], atol=1e-8)
    np.testing.assert_allclose(report.se, np.sqrt(np.diag(cov_oracle)[1:]), atol=1e-8)


def test_loglik_matches_independent_cell_sum(leprosy_id_fit, oracle_prospective):
    # the identifiable objective equals the grouped prospective
    # log-likelihood shifted by the constant -n log w0 (here n log 2)
    from oracles import prospective_loglik

    fit, _, _ = leprosy_id_fit
    beta_oracle, _ = oracle_prospective
    expected = prospective_loglik(beta_oracle) + 520 * np.log(2.0)
    assert fit.loglik == pytest.approx(expected, abs=1e-8)


def test_efficient_score_orthogonality(leprosy, leprosy_weights, leprosy_id_fit):
    fit, _, model = leprosy_id_fit
    cs = centered_scores(model, fit.params, leprosy)
    blocks = info_blocks_moments(cs, leprosy_weights, n=leprosy.n)
    lstar = efficient_score(cs, blocks)
    w_obs = (
        leprosy_weights.w[cs.sample - 1]
        * cs.multiplicity
        / leprosy.sample_sizes[cs.sample - 1]
    )
    cov = (lstar * w_obs[:, None]).T @ cs.l2c
    assert np.max(np.abs(cov)) < 1e-10


def test_schur_identity_all_methods(leprosy, leprosy_reports):
    from semest.analysis import fit_method

    for method in ("mle", "reparam-nonid", "reparam-id"):
        fit, _, model = fit_method(leprosy, method)
        blocks = info_blocks_observed(model, fit, leprosy)
        assert schur_identity_gap(blocks) < 1e-10, method


def test_no_nuisance_block():
    I11 = np.array([[2.0, 0.1], [0.1, 1.0]])
    blocks = InfoBlocks(I11, np.empty((2, 0)), np.empty((0, 0)), 10, "observed-hessian")
    np.testing.assert_array_equal(efficient_information(blocks), I11)


def test_singular_nuisance_raises():
    I22 = np.array([[1.0, 1.0], [1.0, 1.0]])  # exactly singular
    blocks = InfoBlocks(
        np.eye(1), np.array([[0.3, 0.2]]), I22, 10, "observed-hessian"
    )
    with pytest.raises(SingularInformationError) as exc:
        efficient_information(blocks)
    v = exc.value.null_direction
    assert v is not None
    np.testing.assert_allclose(I22 @ v, 0.0, atol=1e-12)


def test_standard_errors_paths():
    se, warnings, cond = standard_errors(np.diag([4.0, 1.0]), n=100)
    np.testing.assert_allclose(se, [0.05, 0.1])
    assert not warnings
    # nearly singular: warning, finite output
    se, warnings, cond = standard_errors(np.diag([1.0, 1e-16]), n=100)
    assert warnings and np.all(np.isfinite(se))
    assert cond > 1e10
    # indefinite: error
    with pytest.raises(SingularInformationError, match="indefinite"):
        standard_errors(np.diag([1.0, -0.5]), n=100)


def test_report_json_roundtrip(leprosy_id_fit):
    _, report, _ = leprosy_id_fit
    back = EfficiencyReport.from_json(report.to_json())
    assert back.method == report.method
    assert back.labels == report.labels
    np.testing.assert_allclose(back.coef, report.coef, atol=1e-15)
    np.testing.assert_allclose(back.se, report.se, atol=1e-15)
    np.testing.assert_array_equal(back.eff_info, report.eff_info)
    assert back.extra_rows.keys() == report.extra_rows.keys()


def test_render_table_mentions_labels(leprosy_id_fit):
    _, report, _ = leprosy_id_fit
    text = report.render_table()
    assert "Scar" in text and "Age" in text and "reparam-id" in text


def test_relative_efficiency_kinds(leprosy_reports):
    reports, releff = leprosy_reports
    eff = relative_efficiency(reports["reparam-id"], reports["mle"])
    for lab in ("Scar", "Age"):
        assert eff[lab] == pytest.approx(1.0, abs=1e-4)
    eff_se = relative_efficiency(reports["reparam-id"], reports["mle"], kind="se")
    assert eff_se["Scar"] == pytest.approx(np.sqrt(eff["Scar"]), abs=1e-12)


def test_relative_efficiency_label_mismatch(leprosy_reports):
    reports, _ = leprosy_reports
    other = EfficiencyReport(
        method="x",
        labels=("Foo",),
        coef=np.array([1.0]),
        se=np.array([1.0]),
        eff_info=np.eye(1),
        cond_number=1.0,
        loglik=0.0,
        iterations=1,
        runtime_ms=0.0,
    )
    with pytest.raises(ValueError, match="common coefficient labels"):
        relative_efficiency(other, reports["mle"])


def test_efficient_information_arithmetic():
    blocks = InfoBlocks(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[2.0]]), 1, "observed-hessian"
    )
    np.testing.assert_allclose(efficient_information(blocks), [[1.5]])
    zero_cross = InfoBlocks(
        np.array([[2.0]]), np.array([[0.0]]), np.array([[2.0]]), 1, "observed-hessian"
    )
    np.testing.assert_allclose(efficient_information(zero_cross), [[2.0]])


def test_istar_dominated_by_interest_block(leprosy, leprosy_weights, leprosy_id_fit):
    fit, _, model = leprosy_id_fit
    blocks = info_blocks_observed(model, fit, leprosy)
    istar = efficient_information(blocks)
    # I* is symmetric PSD and I11 - I* is PSD
    assert np.min(np.linalg.eigvalsh(istar)) > 0
    assert np.min(np.linalg.eigvalsh(blocks.I11 - istar)) > -1e-12


def test_efficient_score_second_moment_equals_istar(
    leprosy, leprosy_weights, leprosy_id_fit
):
    fit, _, model = leprosy_id_fit
    cs = centered_scores(model, fit.params, leprosy)
    blocks = info_blocks_moments(cs, leprosy_weights, n=leprosy.n)
    lstar = efficient_score(cs, blocks)
    w_obs = (
        leprosy_weights.w[cs.sample - 1]
        * cs.multiplicity
        / leprosy.sample_sizes[cs.sample - 1]
    )
    second_moment = (lstar * w_obs[:, None]).T @ lstar
    np.testing.assert_allclose(
        second_moment, efficient_information(blocks), atol=1e-10
    )


def test_centered_scores_kill_sample_constants(leprosy):
    class PerSampleConstant:
        param_labels = ("a", "b")
        interest_idx = (0,)
        nuisance_idx = (1,)

        def score(self, obs, params):
            return np.array([float(obs.sample), -2.0 * obs.sample])

    cs = centered_scores(PerSampleConstant(), np.zeros(2), leprosy)
    assert np.max(np.abs(cs.scores)) < 1e-14


def test_moment_blocks_single_sample_unit_variance():
    from semest.inference import CenteredScores
    from semest import Weights

    cs = CenteredScores(
        scores=np.array([[1.0], [-1.0]]),
        sample=np.array([1, 1]),
        multiplicity=np.array([1.0, 1.0]),
        interest_idx=(0,),
        nuisance_idx=(),
    )
    blocks = info_blocks_moments(cs, Weights([1.0]))
    np.testing.assert_allclose(blocks.I11, [[1.0]])


def test_blocks_paths_converge_with_n():
    """Moment and observed-Hessian blocks are different estimators of the
    same limit: their gap must shrink along n = 500, 5000, 50000."""
    from semest import ToyInstance, Weights, simulate, compute_weights
    from semest.logistic import FullMLELogisticModel

    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )
    model = FullMLELogisticModel(toy.support, toy.labels)
    params = toy.mle_params()
    from semest.likelihood import aggregate_hessian

    gaps = []
    rng = np.random.default_rng(5)
    for n in (500, 5000, 50000):
        ds = simulate(toy, (n // 2, n // 2), rng)
        w = compute_weights(ds)
        cs = centered_scores(model, params, ds)
        mom = info_blocks_moments(cs, w, n=ds.n)
        obs_full = -aggregate_hessian(model, params, ds) / ds.n
        gaps.append(np.max(np.abs(mom.full() - obs_full)))
    assert gaps[2] < gaps[0]


def test_istar_lln_against_enumeration():
    """Empirical efficient information on a huge simulated sample matches
    the exactly enumerated population value within 1%."""
    from semest import ToyInstance, Weights, brute_force_info, simulate, compute_weights
    from semest.logistic import FullMLELogisticModel

    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )
    _, istar_exact = brute_force_info(toy)
    ds = simulate(toy, (500_000, 500_000), np.random.default_rng(17))
    model = FullMLELogisticModel(toy.support, toy.labels)
    cs = centered_scores(model, toy.mle_params(), ds)
    blocks = info_blocks_moments(cs, compute_weights(ds), n=ds.n)
    istar_emp = efficient_information(blocks)
    assert np.max(np.abs(istar_emp - istar_exact)) / np.max(np.abs(istar_exact)) < 0.01
