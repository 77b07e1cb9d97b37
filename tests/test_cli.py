import json
import os

import numpy as np
import pytest

import semest.data
from semest.cli import main


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


def test_validate_broken_score_exits_3(capsys):
    rc = main(["validate", "--seed", "3", "--inject-broken-score"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL  fd-score[identifiable]" in out


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
