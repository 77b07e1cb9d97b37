import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semest import (
    DataError,
    MultisampleDataset,
    Observation,
    Params,
    Weights,
    compute_weights,
    load_casecontrol_csv,
    load_long_csv,
    transform_age,
)
from semest.data import as_vector
from oracles import support_reference


def test_observation_validation():
    with pytest.raises(DataError):
        Observation(0, [1.0])
    with pytest.raises(DataError):
        Observation(1, [1.0], multiplicity=0)
    obs = Observation(2, 3.0, y=1.0, multiplicity=5)
    assert obs.x.shape == (1,)


def test_dataset_basics(leprosy):
    assert leprosy.n == 520
    assert list(leprosy.sample_sizes) == [260, 260]
    assert leprosy.n_samples == 2
    assert len(leprosy.support) == 14
    assert leprosy.p == 2
    np.testing.assert_allclose(leprosy.pooled_freq.sum(), 1.0, atol=1e-15)


def test_support_lexicographic(leprosy):
    rows = [tuple(v) for v in leprosy.support]
    assert rows == sorted(rows)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=2, max_size=2),
        min_size=1,
        max_size=30,
    )
)
def test_support_matches_row_loop(rows):
    """Bit-exact distinct rows (0.0 and -0.0 apart), lexicographic order."""
    X = np.array(rows)
    ds = MultisampleDataset.from_columns(X, np.ones(len(X)), np.ones(len(X)))
    support, idx, freq = support_reference(X)
    assert support.tobytes() == ds.support.tobytes()
    np.testing.assert_array_equal(ds.support_index, idx)
    np.testing.assert_array_equal(ds.pooled_freq, freq)


def test_support_index_consistent(leprosy):
    for obs, k in zip(leprosy.observations, leprosy.support_index):
        assert np.array_equal(leprosy.support[k], obs.x)


def test_expanded_preserves_totals(leprosy):
    exp = leprosy.expanded()
    assert exp.n == leprosy.n
    assert all(o.multiplicity == 1 for o in exp.observations)
    np.testing.assert_array_equal(exp.sample_sizes, leprosy.sample_sizes)
    np.testing.assert_allclose(exp.pooled_freq, leprosy.pooled_freq, atol=1e-15)


def test_restricted_to_sample(leprosy):
    s1 = leprosy.restricted_to_sample(1)
    assert s1.n == 260
    assert all(o.sample == 1 for o in s1.observations)


def test_empty_sample_rejected():
    with pytest.raises(DataError, match="empty sample"):
        MultisampleDataset([Observation(2, [1.0])], n_samples=2)


def test_dimension_mismatch_rejected():
    with pytest.raises(DataError, match="dimension"):
        MultisampleDataset([Observation(1, [1.0]), Observation(1, [1.0, 2.0])])


def test_weights_validation():
    with pytest.raises(DataError):
        Weights([0.5, 0.6])
    with pytest.raises(DataError):
        Weights([1.2, -0.2])
    w = compute_weights(
        MultisampleDataset([Observation(1, [0.0], multiplicity=3), Observation(2, [0.0])])
    )
    np.testing.assert_allclose(w.w, [0.75, 0.25])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=6))
def test_weights_from_any_sizes(sizes):
    obs = [Observation(s + 1, [0.0], multiplicity=m) for s, m in enumerate(sizes)]
    w = compute_weights(MultisampleDataset(obs))
    assert abs(w.w.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(w.w, np.array(sizes) / sum(sizes), atol=1e-15)


def test_params_partition():
    p = Params(np.arange(5.0), interest_idx=(0, 2), labels=("a", "b", "c", "d", "e"))
    assert p.nuisance_idx == (1, 3, 4)
    np.testing.assert_array_equal(p.interest, [0.0, 2.0])
    np.testing.assert_array_equal(as_vector(p), np.arange(5.0))
    np.testing.assert_array_equal(as_vector([1.0, 2.0]), [1.0, 2.0])
    with pytest.raises(DataError):
        Params(np.arange(3.0), (0,), labels=("a", "b"))


def test_load_long_csv(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("sample,y,x1,x2\n1,0,1.5,2.0\n1,0,1.5,2.0\n2,1,0.5,1.0\n")
    ds = load_long_csv(f)
    assert ds.n == 3
    assert ds.p == 2
    assert ds.n_samples == 2


def test_load_long_csv_zero_based(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("sample,y,x1\n0,0,1.0\n1,1,2.0\n")
    ds = load_long_csv(f, sample_base=0)
    assert ds.n_samples == 2
    with pytest.raises(DataError):
        load_long_csv(f, sample_base=2)


def test_load_long_csv_errors(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("foo,bar\n1,2\n")
    with pytest.raises(DataError, match="header"):
        load_long_csv(f)
    f.write_text("sample,y,x1\n1,0,1.0\n1,notanumber,2.0\n")
    with pytest.raises(DataError, match="line 3"):
        load_long_csv(f)
    f.write_text("sample,y,x1\n1,0\n")
    with pytest.raises(DataError, match="line 2"):
        load_long_csv(f)
    f.write_text("sample,y,x1\n")
    with pytest.raises(DataError, match="no observations"):
        load_long_csv(f)


def test_load_casecontrol_csv(tmp_path):
    f = tmp_path / "cc.csv"
    f.write_text("age,scar,cases,controls\n2.5,0,1,24\n2.5,1,0,31\n")
    ds = load_casecontrol_csv(f)
    # the zero-cases row contributes controls only
    assert ds.sample_sizes[0] == 55
    assert ds.sample_sizes[1] == 1
    # covariate order is (scar, age-or-transform)
    assert ds.observations[0].x[0] in (0.0, 1.0)
    with pytest.raises(DataError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n")
        load_casecontrol_csv(bad)


def test_observations_view(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("sample,y,x1\n1,0,1.5\n2,1,0.5\n")
    ds = load_long_csv(f)
    assert len(ds.observations) == 2
    obs = ds.observations[1]
    assert (obs.sample, obs.x.tolist(), obs.y, obs.multiplicity) == (2, [0.5], 1.0, 1)
    assert [o.y for o in ds.observations[:]] == [0.0, 1.0]


def test_casecontrol_negative_count_rejected(tmp_path):
    f = tmp_path / "cc.csv"
    f.write_text("age,scar,cases,controls\n2.5,0,1,24\n2.5,1,1,-24\n")
    with pytest.raises(DataError, match="line 3: .*>= 0"):
        load_casecontrol_csv(f)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_covariate_rejected(tmp_path, value):
    f = tmp_path / "d.csv"
    f.write_text(f"sample,y,x1,x2\n1,0,1.0,2.0\n2,1,0.5,{value}\n")
    with pytest.raises(DataError, match="line 3: non-finite covariate"):
        load_long_csv(f)
    for row in (f"{value},1,1,31", f"2.5,{value},1,31"):
        f.write_text(f"age,scar,cases,controls\n2.5,0,1,24\n{row}\n")
        with pytest.raises(DataError, match="line 3: non-finite covariate"):
            load_casecontrol_csv(f, transform=transform_age)


def test_long_y_must_match_sample(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("sample,y,x1\n1,0,1.0\n2,0,2.0\n")
    with pytest.raises(DataError, match="line 3: y must be"):
        load_long_csv(f)
    f.write_text("sample,y,x1\n0,0,1.0\n1,1,2.0\n0,1,3.0\n")
    with pytest.raises(DataError, match="line 4: y must be"):
        load_long_csv(f, sample_base=0)
