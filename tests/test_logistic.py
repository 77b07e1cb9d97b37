import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semest import (
    DataError,
    MultisampleDataset,
    Weights,
    log_likelihood,
    transform_age,
)
from semest.data import observation_rows
from semest.likelihood import evaluate
from semest.logistic import (
    CaseControlLogisticModel,
    DiscreteG,
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
)
from semest.validate import fd_gradient

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def test_transform_age_values():
    assert transform_age(2.5) == pytest.approx(1.0)
    assert transform_age(32.5) == pytest.approx(100.0 / 1600.0)
    with pytest.raises(DataError):
        transform_age(-7.5)
    np.testing.assert_allclose(transform_age(np.array([2.5, 12.5])), [1.0, 0.25])


@settings(max_examples=50, deadline=None)
@given(c=finite, alpha=finite, b1=finite)
def test_ridge_invariance(leprosy, c, alpha, b1):
    """The non-identifiable likelihood is exactly flat along
    (alpha + c, log_rho1 - c)."""
    model = build_nonidentifiable_model(leprosy)
    base = np.array([alpha, b1, -2.0, 0.4])
    shifted = base + np.array([c, 0.0, 0.0, -c])
    f0 = log_likelihood(model, base, leprosy)
    f1 = log_likelihood(model, shifted, leprosy)
    assert abs(f1 - f0) <= 1e-12 * max(1.0, abs(f0))


def test_identifiable_equals_prospective_offset(leprosy):
    """With weights (w0, w1) the identifiable log-density is the prospective
    logistic log-density with intercept offset log(w1/w0), minus log w0."""
    w = Weights([0.6, 0.4])
    model = CaseControlLogisticModel(w, ("alpha*",) + leprosy.labels, (1, 2), np.eye(3))
    params = np.array([0.7, -0.2, -3.0])
    offset = np.log(w.w[1] / w.w[0])
    for obs in leprosy.observations[:6]:
        y = obs.sample - 1
        u = params[0] + obs.x @ params[1:]
        expected = (
            y * (u + offset)
            - np.logaddexp(0.0, u + offset)
            - np.log(w.w[0])
            - y * offset
        )
        got = evaluate(model, params, observation_rows(obs), 0)[0]
        assert got == pytest.approx(expected, abs=1e-12)


def test_discrete_g_roundtrip(rng):
    g = rng.dirichlet(np.ones(6))
    phi = DiscreteG.from_g(g)
    np.testing.assert_allclose(DiscreteG.to_g(phi), g, atol=1e-12)
    with pytest.raises(DataError):
        DiscreteG.from_g([0.5, 0.5, 0.1])
    with pytest.raises(DataError):
        DiscreteG.from_g([1.0, 0.0])


def test_full_mle_requires_two_support_points():
    with pytest.raises(DataError):
        from semest.logistic import FullMLELogisticModel

        FullMLELogisticModel(np.array([[1.0]]), ("x1",), np.eye(2)[:, 1:])


def test_model_scores_match_fd(leprosy, rng):
    models = {
        "id": build_identifiable_model(leprosy),
        "nonid": build_nonidentifiable_model(leprosy),
        "mle": build_full_mle_model(leprosy),
    }
    from semest.likelihood import aggregate_score

    for model in models.values():
        params = rng.uniform(-0.5, 0.5, size=model.n_params)
        g = aggregate_score(model, params, leprosy)
        g_fd = fd_gradient(lambda p: log_likelihood(model, p, leprosy), params)
        scale = max(1.0, np.max(np.abs(g_fd)))
        assert np.max(np.abs(g - g_fd)) / scale < 1e-6


def test_builders_validate_strata():
    """Every builder needs the two samples of a case-control design, and
    says how many it got."""
    for samples in ([1, 1, 1], [1, 2, 3]):
        dataset = MultisampleDataset.from_columns([[0.0], [1.0], [2.0]], samples, [1, 1, 1])
        builders = (build_identifiable_model, build_nonidentifiable_model, build_full_mle_model)
        for build in builders:
            with pytest.raises(DataError, match=f"need S=2 samples, got S={max(samples)}"):
                build(dataset)


def test_leprosy_dataset_integrity(leprosy):
    # stratum totals and the youngest-age covariate value
    assert list(leprosy.sample_sizes) == [260, 260]
    assert any(
        obs.x[1] == pytest.approx(1.0) and obs.x[0] == 0.0
        for obs in leprosy.observations
    )
    # responses encode the stratum
    assert all(obs.y == float(obs.sample - 1) for obs in leprosy.observations)


def test_all_methods_agree_on_slopes(leprosy_reports):
    reports, _ = leprosy_reports
    for lab in ("Scar", "Age"):
        vals = [reports[m].coef_by_label()[lab] for m in reports]
        assert max(vals) - min(vals) < 1e-6
        ses = [reports[m].se_by_label()[lab] for m in reports]
        assert max(ses) - min(ses) < 1e-6

