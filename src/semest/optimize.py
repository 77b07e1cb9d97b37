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
from .likelihood import aggregate_hessian, aggregate_score, hessian_entries, log_likelihood
from .structured import StructuredHessian, _vecmat, solve_or_nan


# Line search: step halvings per Newton direction, Armijo sufficient-increase
# fraction.  Damping lambda: initial value, cap, and factor per escalation.
MAX_HALVINGS = 40
ARMIJO = 1e-4
DAMPING_INIT = 1e-8
DAMPING_MAX = 1e2
DAMPING_FACTOR = 10.0


@dataclass(frozen=True)
class FitConfig:
    """``grad_tol``: the gradient sup-norm bound, in the model's coordinates."""

    grad_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf or self.max_iter <= 0:
            raise ValueError("tolerances and iteration caps must be positive and finite")


@dataclass
class FitResult:
    """One fit, or R fits with a leading R axis on every array field;
    ``warnings`` then holds one list per fit.  ``hessian`` is the model's
    order-2 form at ``params``: a ``StructuredHessian`` for the joint
    ``mle``."""

    params: np.ndarray
    loglik: float
    iterations: int
    grad_norm: float
    converged: bool
    hessian: np.ndarray | StructuredHessian
    warnings: list = field(default_factory=list)
    runtime: float = 0.0

    def require_converged(self):
        if not self.converged:
            raise EvaluationError(
                f"fit did not converge (grad_norm={self.grad_norm:.3e} "
                f"after {self.iterations} iterations)"
            )
        return self


def _objective(model, params, dataset):
    """Objective of each parameter vector of the stack, -inf where the
    point is inadmissible."""
    try:
        vals = log_likelihood(model, params, dataset)
    except (EvaluationError, FloatingPointError, OverflowError):
        return np.full(len(params), -np.inf)
    return np.where(np.isfinite(vals), vals, -np.inf)


def _every(rows):
    """``rows.all()``, cheaper on the short masks of a batch."""
    return np.count_nonzero(rows) == len(rows)


def _damped_solve(hess, grad, lam, eye):
    """d from (-H + lam I) d = g, one system per fit; NaN rows where one is
    singular.  A structured Hessian is solved by block elimination (and
    ``eye`` is None: no dense identity is formed)."""
    if eye is None:
        return hess.solve(-grad, -lam)
    return solve_or_nan(-hess + lam[:, None, None] * eye, grad)


def _newton_directions(hess, grad, lam, rows, eye):
    """Newton direction from (-H + lam I) d = g for each of ``rows``,
    escalating a row's damping lam until its system solves and gives an
    ascent direction, or, at the cap, falling back to steepest ascent.
    Returns (directions, slopes g'd, damping)."""
    d = slope = None
    while True:
        cand = _damped_solve(hess, grad, lam, eye)
        gain = _vecmat(grad, cand[..., None])[..., 0]
        ok = rows & np.isfinite(cand).all(axis=-1) & (gain > 0)
        if _every(ok):
            return cand, gain, lam
        if d is None:  # rows that never get a Newton direction keep steepest ascent
            d, slope = grad, _vecmat(grad, grad[..., None])[..., 0]
        d = np.where(ok[:, None], cand, d)
        slope = np.where(ok, gain, slope)
        rows = (rows ^ ok) & (lam < DAMPING_MAX)
        if not np.count_nonzero(rows):
            return d, slope, lam
        lam = np.where(rows, np.minimum(lam * DAMPING_FACTOR, DAMPING_MAX), lam)


def _line_search(model, dataset, x, f, d, slope, rows):
    """Backtracking from x along d for each of ``rows``: the first step of
    1, 1/2, 1/4, ... (at most MAX_HALVINGS halvings) whose objective passes
    the Armijo test.  Returns (x, f, stuck): the rows where no step passed
    keep their x and f."""
    # Near the optimum the predicted gain can sink below the rounding noise
    # of the summed log-likelihood; a strict Armijo test would then reject
    # exact Newton steps, so allow losses within the noise.
    noise_tol = 1e-11 * np.maximum(1.0, np.abs(f))
    step = 1.0  # the fits still searching share one step length
    for _ in range(MAX_HALVINGS + 1):
        trial = x + step * d
        f_trial = _objective(model, trial, dataset)
        ok = rows & (f_trial >= f + ARMIJO * step * slope - noise_tol)
        if _every(ok):
            return trial, f_trial, ~ok
        x = np.where(ok[:, None], trial, x)
        f = np.where(ok, f_trial, f)
        rows = rows ^ ok
        if not np.count_nonzero(rows):
            break
        step *= 0.5
    return x, f, rows


def maximize(model, dataset, init=None, cfg: FitConfig | None = None) -> FitResult:
    """Maximize the multisample log-likelihood of ``model`` on ``dataset``.

    Deterministic: identical inputs give bit-identical iterates.  Accepted
    steps never decrease the objective.  Non-convergence is reported in the
    result, never silently; a non-finite objective or gradient is an error.

    ``init`` of shape (R, d) runs R fits as one batch, each with its own
    damping, line search, iteration count and stopping rule (``dataset``
    may carry per-fit multiplicities (R, N)), and returns them with a
    leading R axis.  A fit whose objective or gradient is not finite stops
    there, unconverged, with that error as its last warning, and the others
    go on.  Each fit's iterates are bit-identical to those of the same fit
    run alone.
    """
    cfg = cfg or FitConfig()
    start = model.init_params(dataset) if init is None else np.asarray(init, float)
    x = np.array(np.atleast_2d(start), dtype=float)
    R = len(x)
    t0 = time.perf_counter()
    warnings = [[] for _ in range(R)]
    failed = np.zeros(R, dtype=bool)
    live = np.ones(R, dtype=bool)  # neither failed nor stalled at maximum damping

    def stop(rows, why):
        for r in np.flatnonzero(rows):
            warnings[r].append(why.format(x[r]))
        live[rows] = False
        return rows

    def derivatives(rows):
        """Gradient, Hessian and gradient norm at ``x``; fails the ``rows``
        where they are not finite."""
        grad = aggregate_score(model, x, dataset)
        hess = aggregate_hessian(model, x, dataset)
        gnorm = np.abs(grad).max(axis=-1)
        if not np.isfinite(gnorm.sum() + hess.sum()):  # some fit has a non-finite value
            finite = np.isfinite(hessian_entries(hess)).all(axis=-1)
            bad = rows & ~(np.isfinite(gnorm) & finite)
            failed[stop(bad & live, "non-finite gradient at params {}")] = True
        return grad, hess, gnorm

    f = log_likelihood(model, x, dataset)
    if not _every(np.isfinite(f)):
        failed[stop(~np.isfinite(f), "objective is not finite at params {}")] = True
    grad, hess, gnorm = derivatives(np.ones(R, dtype=bool))
    eye = None if isinstance(hess, StructuredHessian) else np.eye(x.shape[1])
    lam = np.full(R, DAMPING_INIT)
    it = np.zeros(R, dtype=int)  # every active fit has run every pass so far
    for _ in range(cfg.max_iter):
        act = live & (gnorm > cfg.grad_tol)
        if not np.count_nonzero(act):
            break
        it += act
        d, slope, lam = _newton_directions(hess, grad, lam, act, eye)
        x, f, stuck = _line_search(model, dataset, x, f, d, slope, act)
        # less damping after a step; without one more, or a stop at the cap
        # (a fit that is no longer active never resumes, so its lam may drift)
        lam_down = np.maximum(lam / DAMPING_FACTOR, DAMPING_INIT)
        if not np.count_nonzero(stuck):
            lam, moved = lam_down, act
        else:
            stop(stuck & (lam >= DAMPING_MAX), "line search stalled at maximum damping")
            lam = np.where(stuck, np.minimum(lam * DAMPING_FACTOR, DAMPING_MAX), lam_down)
            moved = act ^ stuck
            if not np.count_nonzero(moved):
                continue
        # the fits that did not move get back the values they had
        grad, hess, gnorm = derivatives(moved)

    runtime = time.perf_counter() - t0
    converged = live & (gnorm <= cfg.grad_tol)  # a stalled fit had gnorm > grad_tol
    if not _every(converged):
        for r in np.flatnonzero(~converged & ~failed):
            warnings[r].append(
                f"did not reach grad_tol={cfg.grad_tol:g}: grad_norm={gnorm[r]:.3e}"
            )
    if np.ndim(start) > 1:
        return FitResult(x, f, it, gnorm, converged, hess, warnings, runtime)
    if failed[0]:
        raise EvaluationError(warnings[0][-1], params=x[0])
    return FitResult(
        x[0], float(f[0]), int(it[0]), float(gnorm[0]), bool(converged[0]), hess[0],
        warnings[0], runtime,
    )
