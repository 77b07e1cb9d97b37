"""Fitting orchestration: one entry point per estimation method, plus a
side-by-side comparison with per-coefficient relative efficiencies.

Methods
-------
``mle``
    Joint maximum likelihood over the regression parameters and the
    discrete covariate distribution (largest parameter vector).
``reparam-nonid``
    Reparametrized submodel in (alpha, beta, log rho1); the intercept
    direction is an exactly flat ridge, slopes are identified.
``reparam-id``
    Identifiable reparametrization (alpha*, beta); the smallest and
    best-conditioned of the three.

All three produce the same slope estimates up to solver tolerance; the
comparison table makes that visible, together with the standard errors and
their ratios.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInformationError
from .inference import (
    EfficiencyReport,
    efficient_information,
    info_blocks_observed,
    relative_efficiency,
    standard_errors,
)
from .logistic import (
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
)
from .optimize import FitConfig, maximize

METHODS = ("mle", "reparam-nonid", "reparam-id")

_NOT_IDENTIFIED = (
    "intercept is not identified under case-control sampling; "
    "'!' rows are unreliable: one point on a flat ridge, with no standard error"
)
# display names of the intercept-type parameters, by parameter label
_ROW_NAMES = {"alpha": "Intercept", "log_rho1": "log_rho1", "alpha*": "Intercept*"}


def _build(dataset, method):
    # built per call: a builder rebound on this module (a tracer) is the one called
    builders = {
        "mle": build_full_mle_model,
        "reparam-nonid": build_nonidentifiable_model,
        "reparam-id": build_identifiable_model,
    }
    if method not in builders:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return builders[method](dataset)


def fit_method(dataset, method, cfg=None):
    """Fit one method on a two-stratum case-control dataset.

    Returns (FitResult, EfficiencyReport, model).  The report's ``labels``
    are the dataset's and cover the slope coefficients, with standard errors
    from the efficient information; intercept-type parameters appear in
    ``extra_rows`` because their meaning differs across methods.  Each coordinate's standard error
    and identification come from one matrix: I* for the interest block, the
    full observed information for the nuisance block (computed only when a
    displayed row is a nuisance coordinate, which for ``mle`` none is).  A
    coordinate that loads on a null direction is not identified: an
    intercept-type row is marked '!' and has no standard error, a slope
    raises SingularInformationError.
    """
    cfg = cfg or FitConfig()
    model = _build(dataset, method)
    fit = maximize(model, dataset, cfg=cfg)
    blocks = info_blocks_observed(model, fit, dataset)
    istar = efficient_information(blocks)
    i = list(model.interest_idx)
    shown = {j for j, label in enumerate(model.param_labels) if label in _ROW_NAMES}
    nuisance_shown = not shown <= set(i)
    # the rank rule reads the information with the covariates standardized,
    # free of their units and origins: the slopes (parameters 1..p in every
    # method) per sd, the intercept (parameter 0) at the covariate mean
    slopes = slice(1, 1 + dataset.p)
    mean = dataset.multiplicity @ dataset.X / dataset.n
    sd = np.sqrt(dataset.multiplicity @ (dataset.X - mean) ** 2 / dataset.n)
    sd[sd == 0.0] = 1.0
    basis = np.eye(model.n_params if nuisance_shown else slopes.stop)
    basis[slopes, slopes] = np.diag(1.0 / sd)
    basis[0, slopes] = -mean / sd
    if nuisance_shown:
        se, ok, _ = standard_errors(-fit.hessian / dataset.n, dataset.n, basis)
    else:
        se, ok = np.full(model.n_params, np.nan), np.zeros(model.n_params, dtype=bool)
    se[i], ok[i], cond = standard_errors(istar, dataset.n, basis[np.ix_(i, i)])
    if not ok[slopes].all():
        names = ", ".join(np.asarray(dataset.labels)[~ok[slopes]])
        raise SingularInformationError(
            f"slopes {names} are not identified: they load on a null direction "
            "of the information (collinear covariates?)"
        )
    # the original intercept alpha is not recoverable from alpha*, so its
    # row stays empty unless the model has it
    extra = {"Intercept": (None, None, "")}
    for j, label in enumerate(model.param_labels):
        if label in _ROW_NAMES:
            se_j = float(se[j]) if ok[j] else None
            extra[_ROW_NAMES[label]] = (float(fit.params[j]), se_j, "" if ok[j] else "!")
    warnings = list(fit.warnings)
    if any(marker for _, _, marker in extra.values()):
        warnings.append(_NOT_IDENTIFIED)

    report = EfficiencyReport(
        method=method,
        labels=dataset.labels,
        coef=np.asarray(fit.params[slopes], dtype=float),
        se=se[slopes],
        eff_info=istar,
        cond_number=cond,
        loglik=fit.loglik,
        iterations=fit.iterations,
        runtime_ms=fit.runtime * 1e3,
        warnings=warnings,
        n=dataset.n,
        extra_rows=extra,
    )
    return fit, report, model


def compare_methods(dataset, cfg=None):
    """Fit all methods and compute slope efficiencies relative to the MLE.

    Returns (reports, releff): ``reports`` maps method name to its
    EfficiencyReport, ``releff`` maps method name to the per-slope variance
    ratio (se_mle / se_method)^2.
    """
    reports = {method: fit_method(dataset, method, cfg=cfg)[1] for method in METHODS}
    releff = {
        method: relative_efficiency(reports[method], reports["mle"])
        for method in METHODS
        if method != "mle"
    }
    return reports, releff


def render_comparison(reports, releff):
    """Side-by-side text table: coefficients, standard errors, and
    relative efficiencies."""
    labels = reports["mle"].labels
    methods = [m for m in METHODS if m in reports]
    width = max(14, *(len(m) + 2 for m in methods))
    lines = []
    header = f"{'':14s}" + "".join(f"{m:>{width}s}" for m in methods)
    lines.append("Coefficients (standard errors)")
    lines.append(header)
    for lab in labels:
        cells = []
        for m in methods:
            r = reports[m]
            c = r.coef_by_label()[lab]
            s = r.se_by_label()[lab]
            cells.append(f"{c:.5f} ({s:.5f})")
        lines.append(f"{lab:14s}" + "".join(f"{c:>{width + 6}s}" for c in cells))
    lines.append("")
    lines.append("Relative efficiency vs mle (variance ratio)")
    for m, eff in releff.items():
        cells = "  ".join(f"{lab}={eff[lab]:.5f}" for lab in labels)
        lines.append(f"{m:14s}  {cells}")
    lines.append("")
    lines.append("Fit diagnostics")
    for m in methods:
        r = reports[m]
        lines.append(
            f"{m:14s}  loglik {r.loglik:.6f}  iterations {r.iterations:3d}  "
            f"runtime {r.runtime_ms:.3f} ms"
        )
        for w in r.warnings:
            lines.append(f"{'':14s}  warning: {w}")
    return "\n".join(lines)


def comparison_json(reports, releff):
    import json

    return json.dumps(
        {
            "reports": {m: json.loads(r.to_json()) for m, r in reports.items()},
            "relative_efficiency": {
                m: {lab: float(v) for lab, v in eff.items()} for m, eff in releff.items()
            },
        },
        indent=2,
    )


def bench_methods(dataset, cfg=None, repeats=5):
    """Median-of-``repeats`` fit wall time per method, with parameter
    counts; used by the CLI ``bench`` subcommand."""
    import time

    out = {}
    for method in METHODS:
        model = _build(dataset, method)
        times = []
        iters = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            fit = maximize(model, dataset, cfg=cfg)
            times.append(time.perf_counter() - t0)
            iters = fit.iterations
        out[method] = {
            "median_ms": float(np.median(times) * 1e3),
            "n_params": model.n_params,
            "iterations": iters,
        }
    return out
