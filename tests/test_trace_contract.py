"""The spans a traced benchmark run reads from every ``reparam-*`` fit.

``perfbench/tracing.py`` rebinds package functions by module attribute, and
its per-layer metrics need, inside each ``reparam-*`` fit, a span of each
likelihood aggregate and of ``optimize.maximize`` with its iteration count.
A fit that reaches the likelihood by another route leaves those metrics
unmeasured, and the traced run fails.
"""

import pathlib
import sys

import pytest

import semest.cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
METHODS = ("reparam-id", "reparam-nonid")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_reparam_fits_record_the_traced_spans(tracing, tmp_path):
    tracer = tracing.Tracer()
    assert tracer.missing == []
    for op, method in enumerate(METHODS):
        argv = ["fit", "--builtin", "leprosy", "--method", method, "--format", "json",
                "--out", str(tmp_path / f"{method}.json")]
        tracer.install(op)
        try:
            assert semest.cli.main(argv) == 0
        finally:
            tracer.uninstall()
    for op, method in enumerate(METHODS):
        spans = [s for s in tracer.spans if s.op == op]
        names = {s.name for s in spans}
        for name in ("likelihood.log_likelihood", "likelihood.aggregate_score",
                     "likelihood.aggregate_hessian", "optimize.maximize"):
            assert name in names, f"{method}: no {name} span"
        fits = [s for s in spans if s.name == "optimize.maximize"]
        assert all(isinstance(s.result, int) for s in fits), method
