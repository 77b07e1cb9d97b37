"""Command-line interface.

Subcommands: ``fit`` (one method), ``compare`` (all methods plus relative
efficiencies), ``validate`` (numerical identity suite, optionally with the
Monte Carlo variance study), ``bench`` (median fit wall time per method,
with the Python and numpy versions and CPU count under ``--format json``).

Exit codes: 0 success, 1 input error, 2 solver non-convergence,
3 validation failure.  The ``SEMEST_THREADS`` environment variable caps the
linear-algebra thread pools (applied at package import).
"""

from __future__ import annotations

import argparse
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
from .errors import ConvergenceError, DataError, EvaluationError, SemestError
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
    p.add_argument("--tol", type=float, default=1e-8, help="gradient sup-norm tolerance")
    p.add_argument("--max-iter", type=int, default=200, help="Newton iteration cap")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed (the deterministic fits ignore it; kept for "
        "interface stability)",
    )


def _add_output_args(p):
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="write the report here instead of stdout")


def build_parser():
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


def _covariate_labels(args, dataset):
    if args.input is None or args.schema == "casecontrol":
        return ("Scar", "Age")
    return tuple(f"x{i + 1}" for i in range(dataset.p))


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cfg(args):
    return FitConfig(grad_tol=args.tol, max_iter=args.max_iter)


def _cmd_fit(args):
    dataset = _load_dataset(args)
    labels = _covariate_labels(args, dataset)
    methods = METHODS if args.method == "all" else (args.method,)
    reports = [
        fit_method(dataset, m, cfg=_cfg(args), covariate_labels=labels)[1]
        for m in methods
    ]
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
    dataset = _load_dataset(args)
    labels = _covariate_labels(args, dataset)
    reports, releff = compare_methods(dataset, cfg=_cfg(args), covariate_labels=labels)
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
    dataset = _load_dataset(args)
    labels = _covariate_labels(args, dataset)
    stats = bench_methods(
        dataset, cfg=_cfg(args), repeats=args.repeats, covariate_labels=labels
    )
    if args.format == "json":
        import json
        import os
        import platform

        import numpy

        affinity = getattr(os, "sched_getaffinity", None)
        report = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(affinity(0)) if affinity else os.cpu_count(),
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
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
