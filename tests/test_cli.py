import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import semest.data
from semest.analysis import METHODS
from semest.cli import main
from test_validation import _corrupt

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_fit_table(capsys):
    assert main(["fit", "--builtin", "leprosy", "--method", "reparam-id"]) == 0
    out = capsys.readouterr().out
    assert "Scar" in out and "Age" in out
    assert "-0.30212" in out and "-4.31017" in out


def test_fit_json(capsys):
    assert main(["fit", "--builtin", "leprosy", "--method", "mle", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "mle"
    assert payload["labels"] == ["Scar", "Age"]
    assert payload["coef"][0] == pytest.approx(-0.30212, abs=5e-5)


def test_successive_calls_parse_independently(tmp_path, capsys):
    """The parser is built once per process; one call's subcommand and flags
    leave no trace in the next call's defaults."""
    out = tmp_path / "report.json"
    argv = ["fit", "--builtin", "leprosy", "--method", "mle", "--format", "json"]
    assert main(argv + ["--out", str(out), "--max-iter", "1"]) == 2
    assert not out.exists()  # the capped fit failed before writing
    capsys.readouterr()
    assert main(["compare", "--builtin", "leprosy"]) == 0
    assert "Coefficients (standard errors)" in capsys.readouterr().out
    assert main(["fit", "--builtin", "leprosy"]) == 0
    table = capsys.readouterr().out
    assert table.startswith("method: reparam-id") and "-0.30212" in table


def test_fit_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "fit",
            "--builtin",
            "leprosy",
            "--method",
            "reparam-nonid",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["method"] == "reparam-nonid"


def test_fit_custom_csv(tmp_path, capsys, leprosy):
    # round-trip the bundled table through the case-control loader
    rows = {}
    for obs in leprosy.observations:
        key = tuple(obs.x)
        rows.setdefault(key, [0, 0])
        rows[key][obs.sample - 1] = obs.multiplicity
    # reconstruct age from the transform: x2 = 100/(age+7.5)^2
    lines = ["age,scar,cases,controls"]
    for (scar, x2), (controls, cases) in sorted(rows.items()):
        age = (100.0 / x2) ** 0.5 - 7.5
        lines.append(f"{age},{int(scar)},{cases},{controls}")
    f = tmp_path / "cc.csv"
    f.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--input", str(f), "--method", "reparam-id"]) == 0
    out = capsys.readouterr().out
    assert "-0.30212" in out and "-4.31017" in out


def test_mle_converges_off_the_intercept_ridge(capsys):
    """A wide-support dataset on which damped Newton walked the intercept of
    an mle that had one far along its flat ridge (alpha near 31), where
    1 - mu rounds to a few ulps.  The mle has no intercept now; its slopes
    must still be reparam-id's.  Generated by perfbench/gen.py:
    wide_support_csv(1, 12)."""
    path = str(FIXTURES / "wide_support_ridge_stall.csv")
    slopes = {}
    for method in ("mle", "reparam-id"):
        assert main(["fit", "--input", path, "--method", method, "--format", "json"]) == 0
        slopes[method] = json.loads(capsys.readouterr().out)["coef"]
    np.testing.assert_allclose(slopes["mle"], slopes["reparam-id"], rtol=0, atol=1e-6)


def test_compare(capsys):
    assert main(["compare", "--builtin", "leprosy"]) == 0
    out = capsys.readouterr().out
    assert "Relative efficiency" in out
    assert "reparam-nonid" in out and "reparam-id" in out and "mle" in out


def test_compare_json(capsys):
    assert main(["compare", "--builtin", "leprosy", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["reports"]) == {"mle", "reparam-nonid", "reparam-id"}
    eff = payload["relative_efficiency"]["reparam-id"]
    assert eff["Scar"] == pytest.approx(1.0, abs=1e-3)


def test_bench(capsys):
    assert main(["bench", "--builtin", "leprosy", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "median ms" in out and "mle" in out


def test_bench_json(capsys):
    assert main(["bench", "--builtin", "leprosy", "--repeats", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["methods"]) == {"mle", "reparam-nonid", "reparam-id"}
    for row in payload["methods"].values():
        assert row["median_ms"] > 0 and row["iterations"] > 0 and row["n_params"] >= 3
    assert payload["nproc"] >= 1
    assert payload["python"] and payload["numpy"]
    # null only on numpy < 1.26, which has no show_config(mode="dicts")
    if np.lib.NumpyVersion(np.__version__) < "1.26.0":
        assert payload["blas"] is None
    else:
        assert set(payload["blas"]) == {"name", "version"} and payload["blas"]["name"]


def test_missing_input_exits_1(capsys):
    assert main(["fit", "--input", "/no/such/file.csv"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["directory", "unreadable", "not UTF-8"])
def test_unreadable_input_exits_1_naming_the_path(tmp_path, capsys, monkeypatch, case):
    path = tmp_path / "in.csv"
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b"age,scar,cases,controls\n2.5,0,1,24\n\xff,1,1,31\n")
    else:
        path.write_text("age,scar,cases,controls\n2.5,0,1,24\n")
        path.chmod(0)
        if os.access(path, os.R_OK):  # permission bits do not bind this user

            def refuse(file, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(file))

            monkeypatch.setattr(semest.data, "open", refuse, raising=False)
    assert main(["fit", "--input", str(path)]) == 1
    assert f"error: cannot read {path}: " in capsys.readouterr().err


def test_bad_csv_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("not,a,valid,header\n1,2,3,4\n")
    assert main(["fit", "--input", str(f)]) == 1


@pytest.mark.parametrize(
    "schema, text",
    [
        ("casecontrol", "age,scar,cases,controls\n2.5,0,1,24\n2.5,1,1,-24\n"),
        ("casecontrol", "age,scar,cases,controls\n2.5,0,1,24\nnan,1,1,31\n"),
        ("long", "sample,y,x1\n1,0,1.0\n2,1,inf\n"),
        ("long", "sample,y,x1\n1,0,1.0\n2,0,2.0\n"),
    ],
)
def test_bad_rows_exit_1_naming_the_line(tmp_path, capsys, schema, text):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    assert main(["fit", "--input", str(f), "--schema", schema]) == 1
    assert "error: line 3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "schema, row",
    [("long", "2,1,{big},2.0"), ("casecontrol", "{big},1,1,31")],
)
def test_oversize_field_exits_1_naming_the_line(tmp_path, capsys, schema, row):
    # longer than the csv module's field limit, and not a number loadtxt takes
    header = "sample,y,x1,x2" if schema == "long" else "age,scar,cases,controls"
    first = "1,0,1.0,2.0" if schema == "long" else "2.5,0,1,24"
    f = tmp_path / "big.csv"
    f.write_text(f"{header}\n{first}\n{row.format(big='x' * 200000)}\n")
    assert main(["fit", "--input", str(f), "--schema", schema]) == 1
    assert "error: line 3: field larger than field limit" in capsys.readouterr().err


def test_nonconvergence_exits_2(capsys):
    assert main(["fit", "--builtin", "leprosy", "--max-iter", "1", "--tol", "1e-12"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "compare", "bench"])
@pytest.mark.parametrize("option", [("--max-iter", "0"), ("--tol", "-1")])
def test_nonpositive_fit_option_exits_1_naming_it(capsys, command, option):
    assert main([command, "--builtin", "leprosy", *option]) == 1
    assert capsys.readouterr().err.startswith(f"error: {option[0]} must be")


def test_nan_tol_exits_1_naming_it(capsys):
    assert main(["fit", "--builtin", "leprosy", "--tol", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: --tol must be finite and > 0")


def test_bench_zero_repeats_exits_1_naming_it(capsys):
    assert main(["bench", "--builtin", "leprosy", "--repeats", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --repeats must be >= 1") and captured.out == ""


@pytest.mark.parametrize("reps", ["0", "1"])
def test_monte_carlo_reps_below_2_exit_1_naming_it(capsys, reps):
    assert main(["validate", "--mc", "--reps", reps]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --reps must be >= 2") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--method", "bogus"],
        ["fit", "--max-iter", "abc"],
        ["validate", "--bogus"],
        ["fit", "--builtin", "leprosy", "--input", "x.csv"],
        [],
    ],
    ids=["bad-choice", "bad-int", "unknown-option", "exclusive-sources", "no-command"],
)
def test_usage_error_exits_1_with_usage(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: semest") and "error:" in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    assert main(["fit", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: semest fit")


def test_validate_broken_score_exits_3(monkeypatch, capsys):
    _corrupt("fd-score[identifiable]", monkeypatch)
    rc = main(["validate", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL  fd-score[identifiable]" in out


def test_validate_broken_score_fails_only_its_fd_score(monkeypatch, capsys):
    _corrupt("fd-score[identifiable]", monkeypatch)
    assert main(["validate", "--seed", "0"]) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL  fd-score[identifiable]: max rel err 2.45e+00"]


def test_validate_passes(capsys):
    rc = main(["validate", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "all checks passed" in out
    assert out.count("PASS") >= 15


def test_fit_all_methods_table(capsys):
    assert main(["fit", "--builtin", "leprosy", "--method", "all"]) == 0
    out = capsys.readouterr().out
    for method in ("mle", "reparam-nonid", "reparam-id"):
        assert f"method: {method}" in out
    # unreliable ridge rows are flagged; the identified combination is shown
    assert "Intercept!" in out
    assert "log_rho1!" in out
    assert "Intercept*" in out
    assert "--" in out
    assert "unreliable" in out


def test_fit_all_methods_json(capsys):
    assert main(["fit", "--builtin", "leprosy", "--method", "all", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mle", "reparam-nonid", "reparam-id"}
    rows = payload["reparam-id"]["extra_rows"]
    assert rows["Intercept*"][0] == pytest.approx(1.22669, abs=1e-4)
    assert rows["Intercept"] == [None, None, ""]
    # ridge rows carry no standard error, and the mle has no intercept; the
    # slopes' condition number is the same for every method
    assert payload["mle"]["extra_rows"]["Intercept"] == [None, None, ""]
    nonid = payload["reparam-nonid"]["extra_rows"]
    assert nonid["Intercept"][1:] == nonid["log_rho1"][1:] == [None, "!"]
    cond = payload["reparam-id"]["cond_number"]
    for method in ("mle", "reparam-nonid"):
        assert payload[method]["cond_number"] == pytest.approx(cond, rel=1e-8)
        assert not any("ill-conditioned" in w for w in payload[method]["warnings"])


def test_indefinite_rounding_is_a_null_direction(capsys):
    """An efficient information of (alpha, slopes) has an exactly null
    alpha direction whose computed eigenvalue is rounding noise of either
    sign (-1.06e-13 against a largest 4.87e-2 on this file, when the mle
    had an intercept); it must count as a null direction, not as an
    indefinite matrix.  The mle, without an intercept, matches reparam-id.
    Generated by perfbench/gen.py: wide_support_csv(63, 85)."""
    path = str(FIXTURES / "wide_support_indefinite.csv")
    slopes = {}
    for method in ("mle", "reparam-id"):
        assert main(["fit", "--input", path, "--method", method, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        slopes[method] = report["coef"]
    assert report["extra_rows"]["Intercept*"][1] is not None
    np.testing.assert_allclose(slopes["mle"], slopes["reparam-id"], rtol=0, atol=1e-6)
    assert main(["compare", "--input", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    mle = payload["reports"]["mle"]
    assert mle["extra_rows"]["Intercept"] == [None, None, ""]
    assert payload["reports"]["reparam-nonid"]["extra_rows"]["Intercept"][1:] == [None, "!"]
    assert mle["cond_number"] == pytest.approx(
        payload["reports"]["reparam-id"]["cond_number"], rel=1e-8
    )


def test_quasi_separated_table_fits_one_way_in_both_reparametrizations(capsys):
    """Scar 0 only in a row without cases: a quasi-separated table, with a
    flat direction along Scar.  Both reparametrized methods report the one
    ``reparam-id`` fit, Scar 38.9, where a separate ``reparam-nonid`` fit
    once stopped elsewhere on its ridge and exited 2."""
    path = str(FIXTURES / "quasi_separated_scar.csv")
    slopes = []
    for method in ("reparam-id", "reparam-nonid"):
        assert main(["fit", "--input", path, "--method", method, "--format", "json"]) == 0
        slopes.append(json.loads(capsys.readouterr().out)["coef"])
    assert slopes[0] == slopes[1]
    assert slopes[0][0] == pytest.approx(38.9, abs=0.05)


@pytest.mark.parametrize("method", ["mle", "reparam-nonid", "reparam-id"])
def test_duplicated_covariate_exits_2_naming_the_slopes(tmp_path, capsys, method):
    # x2 is a copy of x1, so only x1 + x2 is identified
    y = np.repeat([0, 1], 20)
    x = np.random.default_rng(3).standard_normal(40) + 0.5 * y
    lines = ["sample,y,x1,x2"] + [f"{1 + t},{t},{v:.17g},{v:.17g}" for t, v in zip(y, x)]
    f = tmp_path / "dup.csv"
    f.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--input", str(f), "--schema", "long", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: slopes x1, x2 are not identified" in captured.err


@pytest.mark.parametrize("method", ["mle", "reparam-nonid", "reparam-id"])
def test_income_scale_covariate_fits_as_its_standardized_copy(tmp_path, capsys, method):
    """A binary covariate next to one on an income scale (sd 3e4, mean 1e4):
    the raw information's eigenvalues span ten orders of magnitude, but the
    fit is the unit-scale fit with x2's slope and standard error divided by
    3e4, and the same rows are identified."""
    rng = np.random.default_rng(5)
    y = np.repeat([0, 1], 40)
    x1 = (rng.random(80) < 0.4 + 0.3 * y).astype(int)
    x2 = rng.standard_normal(80) + 0.4 * y
    reports = []
    for scale, origin in ((1.0, 0.0), (3e4, 1e4)):
        rows = [f"{1 + t},{t},{a},{origin + scale * b:.17g}" for t, a, b in zip(y, x1, x2)]
        f = tmp_path / f"x{scale:g}.csv"
        f.write_text("\n".join(["sample,y,x1,x2"] + rows) + "\n")
        argv = ["fit", "--input", str(f), "--schema", "long", "--method", method]
        assert main(argv + ["--format", "json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    unit, income = reports
    factor = np.array([1.0, 3e4])
    np.testing.assert_allclose(np.multiply(income["coef"], factor), unit["coef"], rtol=1e-8)
    np.testing.assert_allclose(np.multiply(income["se"], factor), unit["se"], rtol=1e-7)
    assert [r[2] for r in income["extra_rows"].values()] == [
        r[2] for r in unit["extra_rows"].values()
    ]
    assert income["warnings"] == unit["warnings"]


def test_shifted_covariate_fits_like_its_centred_copy(tmp_path, capsys):
    """A 200-row long file whose x2 sits at 1e4 + N(0.4 y, 1): every method
    exits 0 with the slopes of the file with x2 centred, in at most 2 more
    Newton steps, since the fit steps in standardized coordinates."""
    rng = np.random.default_rng(0)
    y = np.repeat([0, 1], 100)
    x1 = (rng.random(200) < 0.4 + 0.3 * y).astype(int)
    x2 = 1e4 + rng.standard_normal(200) + 0.4 * y
    for method in METHODS:
        reports = []
        for origin in (0.0, x2.mean()):
            rows = [f"{1 + t},{t},{a},{b - origin:.17g}" for t, a, b in zip(y, x1, x2)]
            f = tmp_path / f"x{origin:g}.csv"
            f.write_text("\n".join(["sample,y,x1,x2"] + rows) + "\n")
            argv = ["fit", "--input", str(f), "--schema", "long", "--method", method]
            assert main(argv + ["--format", "json"]) == 0, method
            reports.append(json.loads(capsys.readouterr().out))
        shifted, centred = reports
        np.testing.assert_allclose(shifted["coef"], centred["coef"], rtol=1e-8, atol=0)
        assert shifted["iterations"] <= centred["iterations"] + 2, method


def test_closed_stdout_exits_1_without_traceback():
    # the read end is closed before the child writes, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(semest.data.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "semest.cli", "compare", "--builtin", "leprosy"],
        stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
    )
    os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "schema, text",
    [
        ("casecontrol", "age,scar,cases,controls\n2.5,0,0,5\n7.5,1,0,4\n"),
        ("long", "sample,y,x1\n1,0,0.5\n1,0,1.5\n"),
    ],
    ids=["casecontrol", "long"],
)
def test_one_sample_exits_1_naming_s(tmp_path, capsys, schema, text):
    f = tmp_path / "one.csv"
    f.write_text(text)
    for argv in (["fit", "--method", "mle"], ["fit", "--method", "reparam-nonid"],
                 ["fit", "--method", "reparam-id"], ["compare"]):
        assert main(argv + ["--input", str(f), "--schema", schema]) == 1, argv
        assert capsys.readouterr().err == "error: case-control models need S=2 samples, got S=1\n"


@pytest.mark.parametrize(
    "schema, text",
    [
        ("casecontrol", "age,scar,cases,controls\n2.5,1,3,4\n"),
        ("casecontrol", "age,scar,cases,controls\n2.5,1,3,0\n2.5,1,0,4\n"),
        ("long", "sample,y,x1\n1,0,0.0\n2,1,-0.0\n"),
    ],
    ids=["one-row", "two-rows", "long-signed-zero"],
)
def test_one_covariate_vector_exits_1_from_every_method(tmp_path, capsys, schema, text):
    """A table whose rows all hold one covariate vector (compared by value)
    has no slope to fit: every method, ``compare`` and ``bench`` exit 1
    with one message."""
    f = tmp_path / "one.csv"
    f.write_text(text)
    for argv in (*(["fit", "--method", m] for m in METHODS + ("all",)), ["compare"], ["bench"]):
        assert main(argv + ["--input", str(f), "--schema", schema]) == 1, argv
        assert capsys.readouterr().err == "error: need at least 2 distinct covariate vectors\n"


def test_negative_seed_exits_1_naming_it(capsys):
    assert main(["validate", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_unwritable_out_exits_1_naming_the_path(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        assert main(["fit", "--builtin", "leprosy", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()
