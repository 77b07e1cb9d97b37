"""Fitting orchestration: one entry point per estimation method, plus a
side-by-side comparison with per-coefficient relative efficiencies.

Methods
-------
``mle``
    Joint maximum likelihood over the slopes and the discrete covariate
    distribution (largest parameter vector); the intercept is not
    identified under case-control sampling and is not a parameter.  Its
    Newton loop starts where the ``reparam-id`` fit maps to.
``reparam-nonid``
    Reparametrized submodel in (alpha, beta, log rho1); the intercept
    direction is an exactly flat ridge, slopes are identified.  Reported
    at the image (alpha*, beta, 0) of the ``reparam-id`` fit.
``reparam-id``
    Identifiable reparametrization (alpha*, beta); the smallest and
    best-conditioned of the three.

All three produce the same slope estimates up to solver tolerance; the
comparison table makes that visible, together with the standard errors and
their ratios.
"""

from __future__ import annotations

import numpy as np

from .data import REPORT_ROW_NAMES as _ROW_NAMES
from .errors import SingularInformationError
from .inference import (
    EfficiencyReport,
    efficient_information,
    info_blocks_observed,
    relative_efficiency,
    spectral_variance,
)
from .logistic import (
    build_full_mle_model,
    build_identifiable_model,
    build_nonidentifiable_model,
)
from .optimize import FitConfig, FitResult, maximize

METHODS = ("mle", "reparam-nonid", "reparam-id")

_NOT_IDENTIFIED = (
    "intercept is not identified under case-control sampling; "
    "'!' rows are unreliable: one point on a flat ridge, with no standard error"
)


def build_method(dataset, method, basis=None):
    """The model of ``method``, in z with (intercept, slopes) = basis @ z."""
    # built per call: a builder rebound on this module (a tracer) is the one called
    builders = {
        "mle": build_full_mle_model,
        "reparam-nonid": build_nonidentifiable_model,
        "reparam-id": build_identifiable_model,
    }
    if method not in builders:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return builders[method](dataset, basis)


def standardizing_basis(dataset):
    """(B, B^-1) with (intercept, slopes) = B z, parameters 0..p of every
    method: z holds the slopes per sd of their covariate and the intercept
    at the covariate mean (a covariate with sd 0 keeps its units)."""
    mean = dataset.multiplicity @ dataset.X / dataset.n
    sd = np.sqrt(dataset.multiplicity @ (dataset.X - mean) ** 2 / dataset.n)
    sd[sd == 0.0] = 1.0
    B, B_inv = np.eye(1 + dataset.p), np.eye(1 + dataset.p)
    B[0, 1:], B[1:, 1:] = -mean / sd, np.diag(1.0 / sd)
    B_inv[0, 1:], B_inv[1:, 1:] = mean, np.diag(sd)
    return B, B_inv


def fit_method(dataset, method, cfg=None):
    """Fit one method on a two-stratum case-control dataset.

    Returns (FitResult, EfficiencyReport, model).  The fit and the model are
    in the standardized coordinates z of ``standardizing_basis``, where the
    Newton steps and ``cfg.grad_tol`` are free of the covariates' units and
    origins; the report is in the method's parameters, (intercept, slopes) =
    B z.  A model's parameters up to its last slope, its last interest
    coordinate, are the last of these coordinates: all of them, or the
    slopes alone for ``mle``, which has no intercept.  The report's
    ``labels`` are the dataset's and cover the slope coefficients, with
    standard errors from the efficient information; intercept-type
    parameters appear in ``extra_rows`` because their meaning differs
    across methods.  Each coordinate's standard error and
    identification come from one matrix, read in z: I* for the interest
    block, the full observed information for the nuisance block (computed
    only when a displayed row is a nuisance coordinate, which for ``mle``
    none is).  A coordinate that loads on a null direction is not
    identified: an intercept-type row is marked '!' and has no standard
    error, a slope raises SingularInformationError.

    The ``mle`` starts at the ``profile_image`` of a converged ``reparam-id`` fit, else
    at ``init_params``; its ``iterations`` are its own, its ``runtime_ms`` includes that fit.
    ``reparam-nonid`` is that fit at (alpha*, beta, 0), with 0 iterations and its runtime.
    """
    return fit_methods(dataset, (method,), cfg)[0]


def fit_methods(dataset, methods, cfg=None):
    """``fit_method`` of each of ``methods``, in order, from one shared ``reparam-id``
    fit: ``reparam-nonid`` is that fit mapped (see ``_nonid_image``), the ``mle`` a
    Newton fit from its image.  Every model is built before any fit, so the first
    method's errors come first."""
    cfg = cfg or FitConfig()
    B, B_inv = standardizing_basis(dataset)
    models = {m: build_method(dataset, m, B) for m in dict.fromkeys(methods + ("reparam-id",))}
    start = maximize(models["reparam-id"], dataset, cfg=cfg)
    fits = {"reparam-id": start}
    if "mle" in methods:
        init = models["mle"].profile_image(dataset, start.params) if start.converged else None
        fits["mle"] = maximize(models["mle"], dataset, init=init, cfg=cfg)
        fits["mle"].runtime += start.runtime
    if "reparam-nonid" in methods:
        fits["reparam-nonid"] = _nonid_image(start)
    return [_report(dataset, m, models[m], fits[m], B, B_inv) for m in methods]


def _nonid_image(fit):
    """The ``reparam-nonid`` fit at (z, 0), the image of a ``reparam-id`` fit at z in
    the same basis B: with B e0 = e0, loglik_nonid(z, r) = loglik_id(M (z, r)) for
    M = [I | e0], so the score is M'g and the Hessian M'HM, exactly, and the ridge
    point (alpha*, beta, 0) is an optimum when z is.  No Newton step is taken; the
    runtime is that fit's.  A fit that did not converge is returned as it is, so
    the report raises its own message."""
    if not fit.converged:
        return fit
    M = np.eye(len(fit.params), len(fit.params) + 1)
    M[0, -1] = 1.0
    return FitResult(np.append(fit.params, 0.0), fit.loglik, 0, fit.grad_norm, True,
                     M.T @ fit.hessian @ M, list(fit.warnings), fit.runtime)


def _report(dataset, method, model, fit, B, B_inv):
    """``fit_method``'s (fit, report, model) from the fit of ``model``."""
    q = model.interest_idx[-1] + 1
    slopes = slice(q - dataset.p, q)
    B, B_inv = B[-q:, -q:], B_inv[-q:, -q:]
    params = fit.params.copy()
    params[:q] = B @ fit.params[:q]
    blocks = info_blocks_observed(model, fit, dataset)
    istar = efficient_information(blocks)
    i = list(model.interest_idx)
    ii = np.ix_(i, i)
    # intercept-type rows, found by position: a covariate may share their labels
    shown = [j for j, label in enumerate(model.param_labels)
             if label in _ROW_NAMES and not slopes.start <= j < slopes.stop]
    if not set(shown) <= set(i):  # a nuisance row is shown
        basis = np.eye(model.n_params)
        basis[:q, :q] = B
        var, ok = spectral_variance(-fit.hessian / dataset.n, basis)
    else:
        var, ok = np.full(model.n_params, np.nan), np.zeros(model.n_params, dtype=bool)
    var[i], ok[i] = spectral_variance(istar, B[ii])
    se = np.where(ok, np.sqrt(var / dataset.n), np.nan)
    if not ok[slopes].all():
        names = ", ".join(np.asarray(dataset.labels)[~ok[slopes]])
        raise SingularInformationError(
            f"slopes {names} are not identified: they load on a null direction "
            "of the information (collinear covariates?)"
        )
    # I* and its condition number in the method's own parameters
    eff_info = B_inv[ii].T @ istar @ B_inv[ii]
    sub = np.linalg.eigvalsh(eff_info[ok[i]][:, ok[i]])
    # the original intercept alpha is not recoverable from alpha*, nor a
    # parameter of the mle, so its row stays empty unless the model has it
    extra = {"Intercept": (None, None, "")}
    for j in shown:
        se_j = float(se[j]) if ok[j] else None
        extra[_ROW_NAMES[model.param_labels[j]]] = (float(params[j]), se_j, "" if ok[j] else "!")
    warnings = list(fit.warnings)
    if any(marker for _, _, marker in extra.values()):
        warnings.append(_NOT_IDENTIFIED)

    report = EfficiencyReport(
        method=method,
        labels=dataset.labels,
        coef=params[slopes],
        se=se[slopes],
        eff_info=eff_info,
        cond_number=float(sub[-1] / sub[0]),
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
    reports = {m: report for m, (_, report, _) in zip(METHODS, fit_methods(dataset, METHODS, cfg))}
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
            "reports": {m: r.to_dict() for m, r in reports.items()},
            "relative_efficiency": {
                m: {lab: float(v) for lab, v in eff.items()} for m, eff in releff.items()
            },
        },
        indent=2,
    )


def bench_methods(dataset, cfg=None, repeats=5):
    """Median-of-``repeats`` wall time of each model's own fit from ``init_params``
    (the ``mle`` too), with parameter counts; used by the CLI ``bench`` subcommand."""
    import time

    out = {}
    B, _ = standardizing_basis(dataset)
    for method in METHODS:
        model = build_method(dataset, method, B)
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
