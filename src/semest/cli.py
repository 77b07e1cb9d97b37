"""Command-line interface.

Subcommands: ``fit`` (one method), ``compare`` (all methods plus relative
efficiencies), ``validate`` (numerical identity suite, optionally with the
Monte Carlo variance study), ``bench`` (median fit wall time per method,
with the Python, numpy and BLAS versions and CPU count under ``--format json``).

Exit codes: 0 success, 1 input error (a numeric option out of range
included: ``--tol`` must be finite and > 0, ``--max-iter`` and
``--repeats`` >= 1, ``--reps`` >= 2, ``--seed`` >= 0; an ``--out`` that
cannot be written included), 2 solver non-convergence or an
information matrix that does not identify the slopes, 3 validation
failure.  A stdout closed early (``semest compare | head -1``) ends quietly
with exit 1, as in Python's documented ``BrokenPipeError`` recipe.  The
linear-algebra thread pools follow the standard BLAS variables
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .analysis import (
    METHODS,
    bench_methods,
    compare_methods,
    comparison_json,
    fit_method,
    render_comparison,
)
from .data import load_casecontrol_csv, load_long_csv
from .errors import DataError, SemestError
from .optimize import FitConfig


def _add_data_args(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument(
        "--builtin",
        choices=("leprosy",),
        help="use a bundled dataset instead of --input",
    )
    src.add_argument("--input", help="path to a CSV file")
    p.add_argument(
        "--schema",
        choices=("long", "casecontrol"),
        default="casecontrol",
        help="CSV layout: 'long' is sample,y,x1,...,xp; "
        "'casecontrol' is age,scar,cases,controls (default)",
    )


def _add_fit_args(p):
    p.add_argument("--tol", type=float, default=1e-8, help="gradient sup-norm tolerance, "
                   "in standardized coordinates (slopes per sd, intercept at the mean)")
    p.add_argument("--max-iter", type=int, default=200, help="Newton iteration cap")


def _add_output_args(p):
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged, so every ``main`` call reuses it.  Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="semest",
        description="Semiparametric estimation in multisample models via "
        "reparametrized least-favorable submodels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one estimation method")
    _add_data_args(p_fit)
    p_fit.add_argument("--method", choices=METHODS + ("all",), default="reparam-id")
    _add_fit_args(p_fit)
    _add_output_args(p_fit)

    p_cmp = sub.add_parser("compare", help="fit all methods side by side")
    _add_data_args(p_cmp)
    _add_fit_args(p_cmp)
    _add_output_args(p_cmp)

    p_val = sub.add_parser("validate", help="run the numerical identity suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument(
        "--mc", action="store_true", help="also run the Monte Carlo variance study"
    )
    p_val.add_argument("--reps", type=int, default=500, help="Monte Carlo replicates")
    p_val.add_argument(
        "--inject-broken-score", action="store_true", help=argparse.SUPPRESS
    )

    p_bench = sub.add_parser("bench", help="time each method (median of N fits)")
    _add_data_args(p_bench)
    _add_fit_args(p_bench)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--format", choices=("table", "json"), default="table")

    return parser


def _load_dataset(args):
    if args.input is None:
        from .logistic import leprosy_dataset

        return leprosy_dataset()
    if args.schema == "long":
        return load_long_csv(args.input)
    from .logistic import transform_age

    return load_casecontrol_csv(args.input, transform=transform_age)


def _emit(text, out):
    """Print ``text``, or write it to ``out``; DataError names a path that
    cannot be written (a directory, a missing parent, no permission)."""
    if not out:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc.strerror or exc}") from None


# numeric options: (attribute, flag, test, rule)
_RANGES = (
    ("tol", "--tol", lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    ("max_iter", "--max-iter", lambda v: v >= 1, ">= 1"),
    ("repeats", "--repeats", lambda v: v >= 1, ">= 1"),
    ("reps", "--reps", lambda v: v >= 2, ">= 2"),
    ("seed", "--seed", lambda v: v >= 0, ">= 0"),
)


def _check_ranges(args):
    """DataError naming the first numeric option out of its range."""
    for attr, flag, ok, rule in _RANGES:
        value = getattr(args, attr, None)
        if value is not None and not ok(value):
            raise DataError(f"{flag} must be {rule}, got {value}")


def _cfg(args):
    return FitConfig(grad_tol=args.tol, max_iter=args.max_iter)


def _cmd_fit(args):
    dataset = _load_dataset(args)
    methods = METHODS if args.method == "all" else (args.method,)
    reports = [fit_method(dataset, m, cfg=_cfg(args))[1] for m in methods]
    if args.format == "json":
        if len(reports) == 1:
            text = reports[0].to_json()
        else:
            import json

            text = json.dumps(
                {r.method: json.loads(r.to_json()) for r in reports}, indent=2
            )
    else:
        text = "\n\n".join(r.render_table() for r in reports)
    _emit(text, args.out)
    return 0


def _cmd_compare(args):
    reports, releff = compare_methods(_load_dataset(args), cfg=_cfg(args))
    if args.format == "json":
        text = comparison_json(reports, releff)
    else:
        text = render_comparison(reports, releff)
    _emit(text, args.out)
    return 0


def _cmd_validate(args):
    from .validate import run_suite

    results = run_suite(
        seed=args.seed,
        mc=args.mc,
        reps=args.reps,
        inject_broken_score=args.inject_broken_score,
    )
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        failed += not r.passed
    if failed:
        print(f"{failed} check(s) failed")
        return 3
    print("all checks passed")
    return 0


def _cmd_bench(args):
    stats = bench_methods(_load_dataset(args), cfg=_cfg(args), repeats=args.repeats)
    if args.format == "json":
        import json
        import platform

        import numpy

        affinity = getattr(os, "sched_getaffinity", None)
        try:  # mode="dicts" is numpy >= 1.26
            blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = {"name": blas.get("name"), "version": blas.get("version")}
        except TypeError:
            blas = None
        report = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(affinity(0)) if affinity else os.cpu_count(),
            "blas": blas,
            "methods": stats,
        }
        print(json.dumps(report, indent=2))
        return 0
    print(f"{'method':14s}  {'params':>6s}  {'iter':>5s}  {'median ms':>10s}")
    for method, row in stats.items():
        print(
            f"{method:14s}  {row['n_params']:>6d}  {row['iterations']:>5d}  "
            f"{row['median_ms']:>10.3f}"
        )
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "fit": _cmd_fit, "compare": _cmd_compare, "validate": _cmd_validate, "bench": _cmd_bench,
    }
    try:
        _check_ranges(args)
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # https://docs.python.org/3/library/signal.html#note-on-sigpipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SemestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
