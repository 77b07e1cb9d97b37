import json

import numpy as np
import pytest

from semest import (
    EfficiencyReport,
    SingularInformationError,
    efficient_information,
    maximize,
    standard_errors,
)
from semest.inference import (
    RANK_TOL,
    InfoBlocks,
    centered_scores,
    efficient_score,
    info_blocks_moments,
    info_blocks_observed,
    relative_efficiency,
    spectral_variance,
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
    full = blocks.full()
    # -H / n at the fit, interest coordinates first
    order = list(model.interest_idx) + list(model.nuisance_idx)
    np.testing.assert_array_equal(full, (-fit.hessian / 520)[np.ix_(order, order)])
    np.testing.assert_array_equal(full, full.T)
    # positive definite at the identifiable optimum
    assert np.min(np.linalg.eigvalsh(full)) > 0


def test_moment_blocks_close_to_observed(leprosy, leprosy_weights, leprosy_id_fit):
    fit, _, model = leprosy_id_fit
    cs = centered_scores(model, fit.params, leprosy)
    mom = info_blocks_moments(cs, leprosy_weights)
    obs = info_blocks_observed(model, fit, leprosy)
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
    blocks = info_blocks_moments(cs, leprosy_weights)
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
    blocks = InfoBlocks(I11, np.empty((2, 0)), np.empty((0, 0)))
    np.testing.assert_array_equal(efficient_information(blocks), I11)


def test_singular_nuisance_raises():
    I22 = np.array([[1.0, 1.0], [1.0, 1.0]])  # exactly singular
    blocks = InfoBlocks(np.eye(1), np.array([[0.3, 0.2]]), I22)
    with pytest.raises(SingularInformationError) as exc:
        efficient_information(blocks)
    v = exc.value.null_direction
    assert v is not None
    np.testing.assert_allclose(I22 @ v, 0.0, atol=1e-12)


def test_standard_errors_paths():
    se, identified, cond = standard_errors(np.diag([4.0, 1.0]), n=100)
    np.testing.assert_allclose(se, [0.05, 0.1])
    assert identified.all() and cond == pytest.approx(4.0)
    # a null direction: that coordinate is not identified and has no SE;
    # the condition number is taken over the non-null spectrum
    se, identified, cond = standard_errors(np.diag([1.0, 1e-16]), n=100)
    assert se[0] == pytest.approx(0.1) and np.isnan(se[1])
    assert identified.tolist() == [True, False]
    assert cond == 1.0
    # rounding noise below zero, inside the rank tolerance, is a null
    # direction, not an indefinite matrix
    se, identified, _ = standard_errors(np.diag([4.9e-2, 7.4e-3, -1.1e-13]), n=1)
    assert identified.tolist() == [True, True, False]
    assert se[:2] == pytest.approx(np.sqrt([1 / 4.9e-2, 1 / 7.4e-3]))
    # indefinite: error
    with pytest.raises(SingularInformationError, match="indefinite"):
        standard_errors(np.diag([1.0, -0.5]), n=100)
    with pytest.raises(SingularInformationError, match="indefinite"):
        standard_errors(np.diag([1.0, -2 * RANK_TOL]), n=100)


def test_null_direction_loading_marks_coordinates():
    # one null direction along (1, -1, 0) / sqrt(2): coordinates 0 and 1
    # load on it, coordinate 2 does not, and its SE is the plain inverse
    v = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    info = np.eye(3) - np.outer(v, v)
    se, identified, cond = standard_errors(info, n=4)
    assert identified.tolist() == [False, False, True]
    assert np.isnan(se[:2]).all() and se[2] == pytest.approx(0.5)
    assert cond == pytest.approx(1.0)


def test_standard_errors_in_a_standardizing_basis():
    # a coordinate measured in large units: its raw eigenvalue 1e-10 falls
    # under RANK_TOL, but the information in the coordinates t of
    # theta = basis t, which rescale it by 1e5, is as well determined in
    # it as in the other one
    info = np.diag([1.0, 1e-10])
    se, identified, _ = standard_errors(info, n=100)
    assert identified.tolist() == [True, False]
    basis = np.diag([1.0, 1e5])
    var, identified = spectral_variance(basis.T @ info @ basis, basis)
    assert identified.all()
    np.testing.assert_allclose(np.sqrt(var / 100), [0.1, 1e4], rtol=1e-12)
    # a basis that mixes coordinates: the null direction (1, -1) of the
    # information [[2, 2], [2, 2]] in t loads on both of its coordinates but
    # maps back to theta's first coordinate only
    info = np.full((2, 2), 2.0)
    basis = np.array([[1.0, 0.0], [1.0, 1.0]])
    var, identified = spectral_variance(info, basis)
    se = np.where(identified, np.sqrt(var / 2), np.nan)
    assert identified.tolist() == [False, True]
    assert np.isnan(se[0]) and se[1] == pytest.approx(0.5)


def test_report_json_roundtrip(leprosy_id_fit):
    """The report's JSON text reads back to its fields."""
    _, report, _ = leprosy_id_fit
    back = json.loads(report.to_json())
    assert back["method"] == report.method
    assert tuple(back["labels"]) == report.labels == ("Scar", "Age")
    np.testing.assert_allclose(back["coef"], report.coef, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back["se"], report.se, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(back["eff_info"], report.eff_info)
    assert back["extra_rows"] == {k: list(v) for k, v in report.extra_rows.items()}
    assert (back["loglik"], back["iterations"], back["n"]) == (
        report.loglik, report.iterations, report.n
    )


def test_render_table_mentions_labels(leprosy_id_fit):
    _, report, _ = leprosy_id_fit
    text = report.render_table()
    assert "Scar" in text and "Age" in text and "reparam-id" in text


def test_relative_efficiency_kinds(leprosy_reports):
    reports, releff = leprosy_reports
    eff = relative_efficiency(reports["reparam-id"], reports["mle"])
    for lab in ("Scar", "Age"):
        assert eff[lab] == pytest.approx(1.0, abs=1e-4)
    # the variance ratio is the square of the SE ratio
    se_mle, se_id = reports["mle"].se_by_label(), reports["reparam-id"].se_by_label()
    assert eff["Scar"] == pytest.approx((se_mle["Scar"] / se_id["Scar"]) ** 2, abs=1e-12)


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
    blocks = InfoBlocks(np.array([[2.0]]), np.array([[1.0]]), np.array([[2.0]]))
    np.testing.assert_allclose(efficient_information(blocks), [[1.5]])
    zero_cross = InfoBlocks(np.array([[2.0]]), np.array([[0.0]]), np.array([[2.0]]))
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
    blocks = info_blocks_moments(cs, leprosy_weights)
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

        def evaluate(self, params, data, order):
            return np.column_stack([data.sample, -2.0 * data.sample])

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
    from semest import Weights, compute_weights
    from semest.validate import ToyInstance, simulate

    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )
    model = toy.mle_model()
    params = toy.mle_params()
    from semest.likelihood import aggregate_hessian
    from semest.structured import dense

    gaps = []
    rng = np.random.default_rng(5)
    for n in (500, 5000, 50000):
        ds = simulate(toy, (n // 2, n // 2), rng)
        w = compute_weights(ds)
        cs = centered_scores(model, params, ds)
        mom = info_blocks_moments(cs, w)
        obs_full = -dense(aggregate_hessian(model, params, ds)) / ds.n
        gaps.append(np.max(np.abs(mom.full() - obs_full)))
    assert gaps[2] < gaps[0]


def test_istar_lln_against_enumeration():
    """Empirical efficient information on a huge simulated sample matches
    the exactly enumerated population value within 1%."""
    from semest import Weights, compute_weights
    from semest.validate import ToyInstance, brute_force_info, simulate

    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )
    _, istar_exact = brute_force_info(toy)
    ds = simulate(toy, (500_000, 500_000), np.random.default_rng(17))
    model = toy.mle_model()
    cs = centered_scores(model, toy.mle_params(), ds)
    blocks = info_blocks_moments(cs, compute_weights(ds))
    istar_emp = efficient_information(blocks)
    assert np.max(np.abs(istar_emp - istar_exact)) / np.max(np.abs(istar_exact)) < 0.01


def test_mle_linear_algebra_stays_interest_sized(monkeypatch):
    """``fit_method(..., "mle")`` on 1500 unit rows (K = 1500 support points)
    hands numpy's dense linear algebra no matrix larger than (1+p) x (1+p),
    the 2 x 2 capacitance aside: the nuisance block is never solved or
    decomposed densely.  Counted by shape, not timed.  Slopes and standard
    errors are those of ``reparam-id``."""
    from semest import MultisampleDataset
    from semest.analysis import fit_method

    shapes = []
    for name in ("solve", "eigh", "eigvalsh", "inv"):
        def recording(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a)[-2:])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    rng = np.random.default_rng(7)
    p = 3
    controls = rng.standard_normal((750, p))
    cases = rng.standard_normal((750, p)) + [0.5, -0.3, 0.2]
    dataset = MultisampleDataset.from_columns(
        np.vstack([controls, cases]), np.repeat([1, 2], 750), np.ones(1500, dtype=int)
    )
    _, mle, _ = fit_method(dataset, "mle")
    assert shapes and max(max(s) for s in shapes) <= 1 + p
    _, ref, _ = fit_method(dataset, "reparam-id")
    assert mle.labels == ref.labels == ("x1", "x2", "x3")
    np.testing.assert_allclose(mle.coef, ref.coef, rtol=0, atol=1e-6)
    np.testing.assert_allclose(mle.se, ref.se, rtol=0, atol=1e-6)
