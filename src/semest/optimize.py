"""Damped Newton ascent with backtracking line search.

The same Hessian that drives the Newton step is what the observed
information variance recipe needs, so one code path supplies both.
Levenberg-style damping (add lambda I to -H) handles the exactly flat
ridge of the non-identifiable reparametrization: the fit is accepted on
the gradient norm alone, regardless of flat directions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError
from .likelihood import aggregate_hessian, aggregate_score, log_likelihood


# Line search: step halvings per Newton direction, Armijo sufficient-increase
# fraction.  Damping lambda: initial value, cap, and factor per escalation.
MAX_HALVINGS = 40
ARMIJO = 1e-4
DAMPING_INIT = 1e-8
DAMPING_MAX = 1e2
DAMPING_FACTOR = 10.0


@dataclass(frozen=True)
class FitConfig:
    grad_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.grad_tol <= 0 or self.max_iter <= 0:
            raise ValueError("tolerances and iteration caps must be positive")


@dataclass
class FitResult:
    params: np.ndarray
    loglik: float
    iterations: int
    grad_norm: float
    converged: bool
    hessian: np.ndarray
    warnings: list = field(default_factory=list)
    runtime: float = 0.0

    def require_converged(self):
        if not self.converged:
            raise EvaluationError(
                f"fit did not converge (grad_norm={self.grad_norm:.3e} "
                f"after {self.iterations} iterations)"
            )
        return self


def _try_objective(model, params, dataset):
    """Objective value, or -inf when the trial point is inadmissible."""
    try:
        val = log_likelihood(model, params, dataset)
    except (EvaluationError, FloatingPointError, OverflowError):
        return -np.inf
    return val if np.isfinite(val) else -np.inf


def maximize(model, dataset, init=None, cfg: FitConfig | None = None) -> FitResult:
    """Maximize the multisample log-likelihood of ``model`` on ``dataset``.

    Deterministic: identical inputs give bit-identical iterates.  Accepted
    steps never decrease the objective.  Non-convergence is reported in the
    result, never silently; a non-finite objective at the starting point is
    an error.
    """
    cfg = cfg or FitConfig()
    x = np.array(
        model.init_params(dataset) if init is None else np.asarray(init, float),
        dtype=float,
    )
    t0 = time.perf_counter()
    f = log_likelihood(model, x, dataset)
    if not np.isfinite(f):
        raise EvaluationError(f"objective is not finite at params {x}", params=x)
    lam = DAMPING_INIT
    warnings = []
    grad = aggregate_score(model, x, dataset)
    hess = aggregate_hessian(model, x, dataset)
    gnorm = float(np.max(np.abs(grad)))
    it = 0
    while it < cfg.max_iter and gnorm > cfg.grad_tol:
        it += 1
        # Newton direction from (-H + lam I) d = g; escalate damping until
        # the system solves and the direction is an ascent direction.
        d = None
        while True:
            try:
                cand = np.linalg.solve(
                    -hess + lam * np.eye(len(x)), grad
                )
            except np.linalg.LinAlgError:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)) and grad @ cand > 0:
                d = cand
                break
            if lam >= DAMPING_MAX:
                break
            lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)
        if d is None:
            d = grad  # last resort: steepest ascent
        slope = float(grad @ d)

        # Near the optimum the predicted gain can sink below the rounding
        # noise of the summed log-likelihood; a strict Armijo test would
        # then reject exact Newton steps, so allow losses within the noise.
        noise_tol = 1e-11 * max(1.0, abs(f))
        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            trial = x + step * d
            f_trial = _try_objective(model, trial, dataset)
            if f_trial >= f + ARMIJO * step * slope - noise_tol:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if lam >= DAMPING_MAX:
                warnings.append("line search stalled at maximum damping")
                break
            lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)
            continue

        x = trial
        f = f_trial
        lam = max(lam / DAMPING_FACTOR, DAMPING_INIT)
        grad = aggregate_score(model, x, dataset)
        hess = aggregate_hessian(model, x, dataset)
        gnorm = float(np.max(np.abs(grad)))
        if not np.isfinite(gnorm):
            raise EvaluationError(f"non-finite gradient at params {x}", params=x)

    runtime = time.perf_counter() - t0
    converged = gnorm <= cfg.grad_tol
    if not converged:
        warnings.append(
            f"did not reach grad_tol={cfg.grad_tol:g}: grad_norm={gnorm:.3e}"
        )
    return FitResult(
        params=x,
        loglik=f,
        iterations=it,
        grad_norm=gnorm,
        converged=converged,
        hessian=hess,
        warnings=warnings,
        runtime=runtime,
    )

