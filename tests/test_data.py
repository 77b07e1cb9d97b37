import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semest.data
from semest import (
    DataError,
    MultisampleDataset,
    Observation,
    Weights,
    compute_weights,
    load_casecontrol_csv,
    load_long_csv,
    transform_age,
)
from semest.cli import main
from oracles import (
    Rejected,
    casecontrol_csv_reference,
    long_csv_reference,
    support_reference,
)


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
    ds = MultisampleDataset(X, np.ones(len(X)), np.ones(len(X)))
    support, idx, freq = support_reference(X)
    assert support.tobytes() == ds.support.tobytes()
    np.testing.assert_array_equal(ds.support_index, idx)
    np.testing.assert_array_equal(ds.pooled_freq, freq)


def test_support_index_consistent(leprosy):
    for obs, k in zip(leprosy.observations, leprosy.support_index):
        assert np.array_equal(leprosy.support[k], obs.x)


def test_support_computed_once_and_only_when_read(tmp_path, monkeypatch):
    import semest.data
    from semest.analysis import fit_method

    calls = []
    support = semest.data._support
    monkeypatch.setattr(semest.data, "_support", lambda X: calls.append(1) or support(X))
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(40, 2)), 1)
    f = tmp_path / "d.csv"
    rows = (f"{1 + (i % 2)},{i % 2},{a!r},{b!r}" for i, (a, b) in enumerate(X.tolist()))
    f.write_text("sample,y,x1,x2\n" + "\n".join(rows) + "\n")
    ds = load_long_csv(f)
    for method in ("reparam-id", "reparam-nonid"):
        fit_method(ds, method)
    assert len(calls) == 0
    want = support_reference(X)
    for _ in range(2):
        got = (ds.support, ds.support_index, ds.pooled_freq)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(calls) == 1


def test_empty_sample_rejected():
    with pytest.raises(DataError, match="empty sample"):
        MultisampleDataset([[1.0]], [2], [1], n_samples=2)


def test_dimension_mismatch_rejected():
    """X is (N, p), with one sample index and one multiplicity per row."""
    for X, sample in [([1.0, 2.0], [1, 2]), ([[1.0], [2.0]], [1, 2, 2])]:
        with pytest.raises(DataError, match=r"X must be \(N, p\), with a sample and"):
            MultisampleDataset(X, sample, np.ones(len(sample)))


def test_observation_y_must_match_sample():
    """y is the stratum indicator sample - 1: the dataset's y column and
    its observations agree."""
    d = MultisampleDataset([[0.0], [1.0]], [1, 2], [1, 1])
    assert d.y.tolist() == [0.0, 1.0]
    assert [o.y for o in d.observations] == [0.0, 1.0]


def test_weights_validation():
    with pytest.raises(DataError):
        Weights([0.5, 0.6])
    with pytest.raises(DataError):
        Weights([1.2, -0.2])
    w = compute_weights(MultisampleDataset([[0.0], [0.0]], [1, 2], [3, 1]))
    np.testing.assert_allclose(w.w, [0.75, 0.25])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=6))
def test_weights_from_any_sizes(sizes):
    S = len(sizes)
    w = compute_weights(MultisampleDataset(np.zeros((S, 1)), np.arange(1, S + 1), sizes))
    assert abs(w.w.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(w.w, np.array(sizes) / sum(sizes), atol=1e-15)


def test_zero_covariate_columns_rejected_at_construction():
    with pytest.raises(DataError, match="at least one covariate column"):
        MultisampleDataset(np.zeros((3, 0)), [1, 2, 2], [1, 1, 1])


def test_load_long_csv(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("sample,y,x1,x2\n1,0,1.5,2.0\n1,0,1.5,2.0\n2,1,0.5,1.0\n")
    ds = load_long_csv(f)
    assert ds.n == 3
    assert ds.p == 2
    assert ds.n_samples == 2


def test_labels_travel_with_the_dataset(tmp_path, leprosy):
    X = [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]
    assert MultisampleDataset(X, [1, 2], [1, 1]).labels == ("x1", "x2", "x3")
    named = MultisampleDataset(X, [1, 2], [1, 1], labels=["a", "b", "c"])
    assert named.labels == ("a", "b", "c")
    assert MultisampleDataset([[0.0], [1.0]], [1, 2], [1, 1]).labels == ("x1",)
    assert leprosy.labels == ("Scar", "Age")
    f = tmp_path / "cc.csv"
    f.write_text("age,scar,cases,controls\n2.5,0,1,24\n7.5,1,11,22\n")
    assert load_casecontrol_csv(f, transform=transform_age).labels == ("Scar", "Age")
    f.write_text("sample,y,x1,x2,x3\n1,0,1.0,2.0,3.0\n2,1,0.5,1.0,1.5\n")
    assert load_long_csv(f).labels == ("x1", "x2", "x3")


def test_dataset_rejects_labels_of_wrong_length():
    X = np.zeros((2, 3))
    for labels in (("a", "b"), ("a", "b", "c", "d"), (), ("a", "b", "a")):
        with pytest.raises(DataError, match="expected 3 distinct covariate labels, got"):
            MultisampleDataset(X, [1, 2], [1, 1], labels=labels)


@pytest.mark.parametrize("name", ["Intercept", "Intercept*", "log_rho1", "Intercept!"])
def test_dataset_rejects_a_report_row_name_as_label(name):
    """A covariate named like a report's intercept-type row (marked '!' or
    not) would print two rows of one name."""
    with pytest.raises(DataError, match=f"covariate label '{re.escape(name)}' is the name of"):
        MultisampleDataset(np.zeros((2, 2)), [1, 2], [1, 1], labels=("Age", name))


def test_load_long_csv_zero_based(tmp_path):
    """Samples are 1-based: a file that numbers them from 0 is rejected at
    its first row."""
    f = tmp_path / "d.csv"
    f.write_text("sample,y,x1\n0,0,1.0\n1,1,2.0\n")
    with pytest.raises(DataError, match="line 2: sample index must be >= 1"):
        load_long_csv(f)


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
    f.write_text("sample,y,x1\n1,0,1.0\n2,1,2.0\n1,1,3.0\n")
    with pytest.raises(DataError, match="line 4: y must be"):
        load_long_csv(f)


def _outcome(load):
    """The dataset ``load`` returns, or the message of the error it raises."""
    try:
        return load()
    except (DataError, Rejected) as exc:
        return str(exc)


def _assert_same_load(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.X.dtype == want.X.dtype == np.float64
    np.testing.assert_array_equal(got.X.view(np.int64), want.X.view(np.int64))
    for name in ("sample", "multiplicity", "support_index"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# Tokens the csv module and int()/float() may treat differently from a C
# parser: underscores, non-finite and junk values, a quote (also after a
# blank), a comma or a line end inside quotes.
_JUNK = (
    "1.0", "1_0", "nan", "inf", "-inf", "Infinity", "", " ", "x", "1e3", "+1", "-0",
    "01", "0x1", '"', '1"', ' "1"', '""', '"1,0"', '"1\n"', '"1\r\n2"', "\u0663", "1\x0c",
)
# how a field is written: padded with whitespace, quoted, or both
_LAYOUT = st.sampled_from(
    ["{}"] * 6 + [" {}", "{}\t", "\xa0{}\xa0", '"{}"', '" {}\t"', '"{}" ', '"\xa0{}"']
)
_FLOAT = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(-1e3, 1e3).map("{:.3f}".format),
    st.floats(allow_nan=False).map("{:.17g}".format),
    st.sampled_from(["0", "-0.0", "2.5", ".5", "5.", "+1e-300", "1E400"]),
)


@st.composite
def _long_row(draw):
    sample = draw(st.sampled_from([1] * 4 + [2] * 4 + [0, 3]))
    y = sample - 1 if draw(st.integers(0, 9)) else 1 - sample
    return [str(sample), str(y), draw(_FLOAT), draw(_FLOAT)]


@st.composite
def _casecontrol_row(draw):
    age = st.floats(-10, 60).map(repr) | st.sampled_from(["2.5", "-0.0"])
    count = st.integers(-1, 30).map(str)
    scar = st.sampled_from(["0", "1", "0.0", "1.5"])
    return [draw(age), draw(scar), draw(count), draw(count)]


@st.composite
def _csv_text(draw, header, headers, row):
    """A CSV file with laid-out fields, blank lines and LF or CRLF line
    ends; five files in six carry one defect: a junk field, a wrong field
    count or a bare-CR line end."""
    rows = [draw(row) for _ in range(draw(st.integers(1, 8)))]
    defect = draw(st.sampled_from(["none", "junk", "junk", "junk", "count", "cr"]))
    i = draw(st.integers(0, len(rows) - 1))
    if defect == "junk":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_JUNK))
    elif defect == "count":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    lines = [draw(st.sampled_from([header] * 6 + headers))]
    for fields in rows:
        if draw(st.integers(0, 4)) == 0:  # blank: skipped
            lines.append(draw(st.sampled_from([""] * 9 + [" ", "\t", ",,", '""'])))
        lines.append(",".join(draw(_LAYOUT).format(token) for token in fields))
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    if defect == "cr":
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


_LONG_TEXT = _csv_text(
    "sample,y,x1,x2",
    [" sample , y ,x1,x2", '"sample","y",x1,"x2"', "sample,y", "y,sample,x1"],
    _long_row(),
)
_CASECONTROL_TEXT = _csv_text(
    "age,scar,cases,controls",
    [" age,scar , cases,controls", '"age","scar","cases","controls"', "age,scar,cases"],
    _casecontrol_row(),
)


@settings(max_examples=200, deadline=None)
@given(text=_LONG_TEXT)
def test_long_loader_matches_row_reader(tmp_path_factory, text):
    """Every file either loads to the reference's columns, bit for bit, or
    is rejected with the reference's message."""
    f = tmp_path_factory.getbasetemp() / "long.csv"
    f.write_bytes(text.encode("utf-8"))
    want = _outcome(lambda: MultisampleDataset(*long_csv_reference(f)))
    _assert_same_load(_outcome(lambda: load_long_csv(f)), want)


@settings(max_examples=200, deadline=None)
@given(text=_CASECONTROL_TEXT, transform=st.sampled_from([None, transform_age]))
def test_casecontrol_loader_matches_row_reader(tmp_path_factory, text, transform):
    f = tmp_path_factory.getbasetemp() / "cc.csv"
    f.write_bytes(text.encode("utf-8"))
    want = _outcome(
        lambda: MultisampleDataset(*casecontrol_csv_reference(f, transform))
    )
    _assert_same_load(_outcome(lambda: load_casecontrol_csv(f, transform)), want)



@settings(max_examples=200, deadline=None)
@given(text=_LONG_TEXT, cc_text=_CASECONTROL_TEXT)
def test_loaders_reading_by_path_match_row_reader(tmp_path_factory, text, cc_text):
    """The files of the two tests above, read by numpy from their path as a
    large file is, load or are rejected as the reference has it."""
    f, g = (tmp_path_factory.getbasetemp() / name for name in ("long.csv", "cc.csv"))
    f.write_bytes(text.encode("utf-8"))
    g.write_bytes(cc_text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semest.data, "_LOADTXT_BY_PATH", 0)
        want = _outcome(lambda: MultisampleDataset(*long_csv_reference(f)))
        _assert_same_load(_outcome(lambda: load_long_csv(f)), want)
        want = _outcome(lambda: MultisampleDataset(*casecontrol_csv_reference(g, transform_age)))
        _assert_same_load(_outcome(lambda: load_casecontrol_csv(g, transform_age)), want)

@pytest.mark.parametrize("blank", ["", "  \t"])
def test_blank_lines_skipped_and_later_lines_named(tmp_path, blank):
    """Empty lines (one loadtxt pass) and whitespace-only lines (the
    row-by-row pass) are skipped; errors still name the file line."""
    f = tmp_path / "d.csv"
    head = f"sample,y,x1\n1,0,1.0\n{blank}\n\n2,1,2.0\n{blank}\n"
    f.write_text(head)
    assert load_long_csv(f).n == 2
    f.write_text(head + "2,0,3.0\n")
    with pytest.raises(DataError, match="line 7: y must be"):
        load_long_csv(f)
    f.write_text(head + "2,1,oops\n")
    with pytest.raises(DataError, match="line 7: could not convert"):
        load_long_csv(f)


def test_quoted_line_break_names_the_file_line(tmp_path):
    """A quoted field spread over two lines is one record; the row after it
    and a blank line is named by the file line it starts on, 5."""
    f = tmp_path / "d.csv"
    f.write_text('sample,y,x1\n1,0,"1.0\n"\n\n2,0,2.0\n2,1,3.0\n')
    with pytest.raises(DataError, match="line 5: y must be"):
        load_long_csv(f)


def test_quoted_fields_and_crlf_load(tmp_path):
    f = tmp_path / "d.csv"
    f.write_bytes(b'"sample","y","x1"\r\n"1", 0 ,"1.5"\r\n2,"1", 2.5 \r\n')
    ds = load_long_csv(f)
    assert ds.sample.tolist() == [1, 2]
    assert ds.X[:, 0].tolist() == [1.5, 2.5]
    f.write_bytes(b'age,scar,cases,controls\r\n"2.5",0,"1",24\r\n2.5,"1",0, 31\r\n')
    ds = load_casecontrol_csv(f)
    assert ds.X.tolist() == [[0.0, 2.5], [0.0, 2.5], [1.0, 2.5]]
    assert ds.multiplicity.tolist() == [24, 1, 31]


def test_casecontrol_transform_on_age_array_matches_per_row(tmp_path):
    ages = np.random.default_rng(0).uniform(-7, 80, 200)
    f = tmp_path / "cc.csv"
    f.write_text(
        "age,scar,cases,controls\n" + "".join(f"{a:.17g},{i % 2},3,2\n" for i, a in enumerate(ages))
    )
    X, _, _ = casecontrol_csv_reference(f, transform_age)
    got = load_casecontrol_csv(f, transform=transform_age).X
    np.testing.assert_array_equal(got.view(np.int64), X.view(np.int64))


def test_bad_age_names_its_line(tmp_path):
    """An age the transform rejects names its file line; the transform
    called on its own raises the same DataError without one."""
    f = tmp_path / "cc.csv"
    f.write_text("age,scar,cases,controls\n2.5,0,1,24\n\n-8,1,11,22\n7.5,1,1,2\n")
    with pytest.raises(DataError, match=r"^line 4: age must exceed -7\.5$"):
        load_casecontrol_csv(f, transform=transform_age)
    with pytest.raises(DataError, match=r"^age must exceed -7\.5$"):
        transform_age(-8)
    assert load_casecontrol_csv(f).X[2].tolist() == [1.0, -8.0]  # no transform, no check


def test_constructors_reject_non_integral_rows():
    """A sample index or multiplicity that is not a whole number is an
    error naming its row, never truncated; integral floats and integer
    dtypes are taken."""
    for sample, multiplicity, what in [
        ([1, 2], [2.7, 1], "row 0: multiplicity must be a whole number, got 2.7"),
        ([1.9, 2], [1, 1], "row 0: sample index must be a whole number, got 1.9"),
        ([1, 2], [1, np.inf], "row 1: multiplicity must be a whole number, got inf"),
        ([1, np.nan], [1, 1], "row 1: sample index must be a whole number, got nan"),
    ]:
        with pytest.raises(DataError, match=f"^{what}$"):
            MultisampleDataset(np.zeros((2, 1)), sample, multiplicity)
    d = MultisampleDataset(np.zeros((2, 1)), [1.0, 2.0], np.array([3.0, 1.0]))
    assert d.multiplicity.tolist() == [3, 1] and d.n == 4
    assert d.sample.dtype == d.multiplicity.dtype == np.dtype(int)
    d = MultisampleDataset(
        np.zeros((2, 1)), np.array([1, 2], np.int32), np.array([3, 1], np.uint8)
    )
    assert d.sample.dtype == d.multiplicity.dtype == np.dtype(int)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_constructors_reject_a_nonfinite_covariate(value):
    X = [[0.0, 1.0], [2.0, value]]
    with pytest.raises(DataError, match="^row 1: non-finite covariate$"):
        MultisampleDataset(X, [1, 2], [1, 1])


def _unit_long_rows(n=10000, seed=29):
    """Data rows of a unit-row ``sample,y,x1,x2,x3`` file: n/2 controls,
    then n/2 cases, floats written as repr."""
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return [f"{1 + (i >= n // 2)},{int(i >= n // 2)}," + ",".join(map(repr, row))
            for i, row in enumerate(x.tolist())]


def test_bad_utf8_in_the_last_row_of_a_long_file_cannot_be_read(tmp_path, capsys):
    """A byte that is not UTF-8 at the end of a 10000-row file is 'cannot
    read' naming the path, exit 1, wherever the file is decoded."""
    rows = _unit_long_rows()
    f = tmp_path / "long.csv"
    f.write_bytes("\n".join(["sample,y,x1,x2,x3", *rows[:-1]]).encode() + b"\n2,1,0.5,\xff,1\n")
    with pytest.raises(DataError, match=f"^cannot read {re.escape(str(f))}: 'utf-8' codec"):
        load_long_csv(f)
    assert main(["fit", "--input", str(f), "--schema", "long"]) == 1
    assert f"error: cannot read {f}: " in capsys.readouterr().err


@pytest.mark.parametrize("blank", [False, True])
def test_bad_row_of_a_long_file_names_its_line(tmp_path, blank):
    """y wrong on data row 9000 of 10000 is named by its file line: 9001,
    or 9002 after a blank line before it."""
    rows = _unit_long_rows()
    rows[8999] = rows[8999].replace("2,1,", "2,0,", 1)
    if blank:
        rows.insert(8999, "")
    f = tmp_path / "long.csv"
    f.write_text("\n".join(["sample,y,x1,x2,x3", *rows]) + "\n")
    with pytest.raises(DataError, match=f"^line {9001 + blank}: y must be 0 in the first"):
        load_long_csv(f)


def test_header_over_two_lines_counts_both(tmp_path):
    """A quoted line break in the header moves every data row down a file
    line, in the line an error names."""
    f = tmp_path / "d.csv"
    f.write_text('"sample\n",y,x1\n1,0,1.0\n2,0,2.0\n')
    with pytest.raises(DataError, match="^line 4: y must be"):
        load_long_csv(f)
    f.write_text('"sample\n",y,x1\n1,0,1.0\n2,1,2.0\n')
    assert load_long_csv(f).X[:, 0].tolist() == [1.0, 2.0]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_loads_like_the_file(tmp_path):
    """A pipe, which cannot be read again by its path, loads from the one
    read to the same dataset as a file of the same text."""
    text = "sample,y,x1\n1,0,1.5\n\n2,1,2.5\n"
    f = tmp_path / "d.csv"
    f.write_text(text)
    r, w = os.pipe()
    with os.fdopen(w, "w") as fh:
        fh.write(text)
    try:
        got = load_long_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    _assert_same_load(got, load_long_csv(f))
