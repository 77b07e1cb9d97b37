"""The spans a traced benchmark run reads from every fit, and their count.

``perfbench/tracing.py`` rebinds package functions by module attribute, and
its per-layer metrics need, inside each ``reparam-*`` fit, a span of each
likelihood aggregate and of ``optimize.maximize`` with its iteration count.
A fit that reaches the likelihood by another route leaves those metrics
unmeasured, and the traced run fails.
"""

import pathlib
import sys
from collections import Counter

import pytest

import semest.cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
METHODS = ("reparam-id", "reparam-nonid")
AGGREGATES = ("likelihood.log_likelihood", "likelihood.aggregate_score",
              "likelihood.aggregate_hessian")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def _traced_fits(tracing, tmp_path, methods):
    """Span counts and the ``maximize`` span of a traced leprosy fit of each
    method."""
    tracer = tracing.Tracer()
    assert tracer.missing == []
    for op, method in enumerate(methods):
        argv = ["fit", "--builtin", "leprosy", "--method", method, "--format", "json",
                "--out", str(tmp_path / f"{method}.json")]
        tracer.install(op)
        try:
            assert semest.cli.main(argv) == 0
        finally:
            tracer.uninstall()
    for op, method in enumerate(methods):
        spans = [s for s in tracer.spans if s.op == op]
        fits = [s for s in spans if s.name == "optimize.maximize"]
        yield method, Counter(s.name for s in spans), fits


def test_reparam_fits_record_the_traced_spans(tracing, tmp_path):
    for method, counts, fits in _traced_fits(tracing, tmp_path, METHODS):
        for name in AGGREGATES + ("optimize.maximize",):
            assert counts[name], f"{method}: no {name} span"
        assert all(isinstance(s.result, int) for s in fits), method
        # likelihood.calls of a traced run: 21
        assert [counts[name] for name in AGGREGATES] == [7, 7, 7], method


def test_mle_fit_takes_one_derivative_pass_per_step(tracing, tmp_path):
    """One score and one Hessian span per accepted Newton step, and one at
    the start.  Every step of the leprosy fit is accepted at full length,
    so the objective too is evaluated once per step."""
    ((_, counts, fits),) = _traced_fits(tracing, tmp_path, ("mle",))
    (fit,) = fits
    assert fit.result == 5
    for name in AGGREGATES:
        assert counts[name] == fit.result + 1, name


def test_traced_validate_reaches_the_generic_model(tracing, capsys):
    """A traced ``validate`` run, as the benchmark's traced ``leprosy``
    workload makes it, sees every target, builds the generic model through
    ``casecontrol_reparam_model`` and takes likelihood spans of it."""
    tracer = tracing.Tracer()
    assert tracer.missing == []
    tracer.install(0)
    try:
        assert semest.cli.main(["validate", "--seed", "0"]) == 0
    finally:
        tracer.uninstall()
    assert "all checks passed" in capsys.readouterr().out
    assert tracer.generic_models
    assert any(s.layer == "likelihood" and tracer.is_generic(s.model) for s in tracer.spans)


def test_validate_builds_and_fits_each_method_once(tracing, capsys):
    """A traced ``validate`` run builds each method's model once and fits
    it once, and fits the generic model once: every check reads those
    models and fits."""
    tracer = tracing.Tracer()
    assert tracer.missing == []
    tracer.install(0)
    try:
        assert semest.cli.main(["validate", "--seed", "0"]) == 0
    finally:
        tracer.uninstall()
    assert "all checks passed" in capsys.readouterr().out
    counts = Counter(s.name for s in tracer.spans)
    builders = {name: n for name, n in counts.items() if name.startswith("logistic.build_")}
    assert builders == {"logistic.build_full_mle_model": 1,
                        "logistic.build_nonidentifiable_model": 1,
                        "logistic.build_identifiable_model": 1}
    assert counts["optimize.maximize"] == 4
