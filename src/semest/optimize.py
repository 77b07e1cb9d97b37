"""Damped Newton ascent with backtracking line search.

The same Hessian that drives the Newton step is what the observed
information variance recipe needs, so one code path supplies both.
Levenberg-style damping (add lambda I to -H) handles the exactly flat
ridge of the non-identifiable reparametrization: the fit is accepted on
the gradient norm alone, regardless of flat directions.
"""

from __future__ import annotations

import math
import numbers
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
        count = self.max_iter
        integral = isinstance(count, numbers.Integral) and not isinstance(count, bool)
        if not 0 < self.grad_tol < np.inf or not integral or count <= 0:
            raise ValueError(
                "tolerances must be positive and finite, iteration caps positive integers"
            )


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
        """The result, when every fit converged; EvaluationError names the
        fits of a batch that did not, each with its last warning."""
        if np.ndim(self.converged):
            failed = [f"fit {r}: {self.warnings[r][-1]}" for r in np.flatnonzero(~self.converged)]
            if failed:
                raise EvaluationError(
                    f"{len(failed)} of {len(self.converged)} fits did not converge: "
                    + "; ".join(failed)
                )
        elif not self.converged:
            raise EvaluationError(
                f"fit did not converge (grad_norm={self.grad_norm:.3e} "
                f"after {self.iterations} iterations)"
            )
        return self


# The messages a fit stops with, the same from the single-fit and batch loops
_NOT_FINITE_START = "objective is not finite at params {}"
_NOT_FINITE_GRADIENT = "non-finite gradient at params {}"
_STALLED = "line search stalled at maximum damping"
_NOT_REACHED = "did not reach grad_tol={:g}: grad_norm={:.3e}"

_INADMISSIBLE = (EvaluationError, FloatingPointError, OverflowError)


def _objective(model, x, dataset):
    """Objective at one parameter vector, -inf where it is inadmissible."""
    try:
        f = log_likelihood(model, x, dataset)
    except _INADMISSIBLE:
        return -math.inf
    return f if math.isfinite(f) else -math.inf


def _objectives(model, x, dataset):
    """Objective of each parameter vector of the stack, -inf where the
    point is inadmissible."""
    try:
        vals = log_likelihood(model, x, dataset)
    except _INADMISSIBLE:
        return np.full(len(x), -np.inf)
    return np.where(np.isfinite(vals), vals, -np.inf)


def _finite(gnorm, hess):
    """Whether the gradient norm and every Hessian entry of each fit are
    finite (the exact test, where a sum of them is not finite)."""
    return np.isfinite(gnorm) & np.isfinite(hessian_entries(hess)).all(axis=-1)


def _damped_solve(hess, grad, lam, eye):
    """d from (-H + lam I) d = g, for one fit or one system per fit of a
    batch; NaN where a system is singular.  A structured Hessian is solved
    by block elimination (and ``eye`` is None: no dense identity is formed)."""
    if eye is None:
        return hess.solve(-grad, -lam)
    return solve_or_nan(np.asarray(lam)[..., None, None] * eye - hess, grad)


def _newton_direction(hess, grad, lam, eye):
    """Newton direction of one fit from (-H + lam I) d = g, escalating the
    damping lam until the system solves and gives an ascent direction, or,
    at the cap, falling back to steepest ascent.  Returns (direction,
    slope g'd, damping)."""
    while True:
        d = _damped_solve(hess, grad, lam, eye)
        slope = grad @ d
        # a non-finite entry of d makes the slope non-finite; a finite d
        # can still overflow it
        if slope > 0 and (slope < math.inf or np.isfinite(d).all()):
            return d, slope, lam
        if lam >= DAMPING_MAX:
            return grad, grad @ grad, lam
        lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)


def _line_search(model, dataset, x, f, d, slope):
    """Backtracking from x along d: the first step of 1, 1/2, 1/4, ... (at
    most MAX_HALVINGS halvings) whose objective passes the Armijo test.
    Returns (x, f) there, or None where no step passed."""
    # Near the optimum the predicted gain can sink below the rounding noise
    # of the summed log-likelihood; a strict Armijo test would then reject
    # exact Newton steps, so allow losses within the noise.
    noise_tol = 1e-11 * max(1.0, abs(f))
    step = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial = x + step * d
        f_trial = _objective(model, trial, dataset)
        if f_trial >= f + ARMIJO * step * slope - noise_tol:
            return trial, f_trial
        step *= 0.5
    return None


def _derivatives(model, x, dataset):
    """Gradient, Hessian and gradient norm of one fit at x; EvaluationError
    where they are not finite."""
    try:
        grad = aggregate_score(model, x, dataset)
        hess = aggregate_hessian(model, x, dataset)
    except EvaluationError as exc:
        raise EvaluationError(_NOT_FINITE_GRADIENT.format(x), params=x) from exc
    gnorm = float(np.abs(grad).max())
    if not (math.isfinite(gnorm + hess.sum()) or _finite(gnorm, hess)):
        raise EvaluationError(_NOT_FINITE_GRADIENT.format(x), params=x)
    return grad, hess, gnorm


def _fit_one(model, dataset, x, cfg):
    """``maximize`` for one start x (d,): the damping, objective, gradient
    norm and iteration count are Python numbers."""
    t0 = time.perf_counter()
    f = _objective(model, x, dataset)
    if f == -math.inf:
        raise EvaluationError(_NOT_FINITE_START.format(x), params=x)
    grad, hess, gnorm = _derivatives(model, x, dataset)
    eye = None if isinstance(hess, StructuredHessian) else np.eye(len(x))
    lam, it, stalled = DAMPING_INIT, 0, False
    while it < cfg.max_iter and gnorm > cfg.grad_tol:
        it += 1
        d, slope, lam = _newton_direction(hess, grad, lam, eye)
        step = _line_search(model, dataset, x, f, d, slope)
        if step is None:  # more damping, or a stop at the cap
            stalled = lam >= DAMPING_MAX
            if stalled:
                break
            lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)
            continue
        (x, f), lam = step, max(lam / DAMPING_FACTOR, DAMPING_INIT)
        grad, hess, gnorm = _derivatives(model, x, dataset)

    runtime = time.perf_counter() - t0
    warnings = [_STALLED] if stalled else []
    converged = not stalled and gnorm <= cfg.grad_tol
    if not converged:
        warnings.append(_NOT_REACHED.format(cfg.grad_tol, gnorm))
    return FitResult(x, f, it, gnorm, converged, hess, warnings, runtime)


def _newton_directions(hess, grad, lam, rows, eye):
    """``_newton_direction`` for each of ``rows`` of a batch, each with its
    own damping.  Returns (directions, slopes g'd, damping)."""
    d = slope = None
    while True:
        cand = _damped_solve(hess, grad, lam, eye)
        gain = _vecmat(grad, cand[..., None])[..., 0]
        ok = rows & np.isfinite(cand).all(axis=-1) & (gain > 0)
        if ok.all():
            return cand, gain, lam
        if d is None:  # rows that never get a Newton direction keep steepest ascent
            d, slope = grad, _vecmat(grad, grad[..., None])[..., 0]
        d = np.where(ok[:, None], cand, d)
        slope = np.where(ok, gain, slope)
        rows = (rows ^ ok) & (lam < DAMPING_MAX)
        if not np.count_nonzero(rows):
            return d, slope, lam
        lam = np.where(rows, np.minimum(lam * DAMPING_FACTOR, DAMPING_MAX), lam)


def _line_searches(model, dataset, x, f, d, slope, rows):
    """``_line_search`` for each of ``rows`` of a batch.  Returns (x, f,
    stuck): the rows where no step passed keep their x and f."""
    noise_tol = 1e-11 * np.maximum(1.0, np.abs(f))  # see _line_search
    step = 1.0  # the fits still searching share one step length
    for _ in range(MAX_HALVINGS + 1):
        trial = x + step * d
        f_trial = _objectives(model, trial, dataset)
        ok = rows & (f_trial >= f + ARMIJO * step * slope - noise_tol)
        if ok.all():
            return trial, f_trial, ~ok
        x = np.where(ok[:, None], trial, x)
        f = np.where(ok, f_trial, f)
        rows = rows ^ ok
        if not np.count_nonzero(rows):
            break
        step *= 0.5
    return x, f, rows


def _fit_batch(model, dataset, x, cfg):
    """``maximize`` for a stack of starts x (R, d), with per-fit masks."""
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
            failed[stop(rows & live & ~_finite(gnorm, hess), _NOT_FINITE_GRADIENT)] = True
        return grad, hess, gnorm

    f = log_likelihood(model, x, dataset)
    if not np.isfinite(f).all():
        failed[stop(~np.isfinite(f), _NOT_FINITE_START)] = True
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
        x, f, stuck = _line_searches(model, dataset, x, f, d, slope, act)
        # less damping after a step; without one more, or a stop at the cap
        # (a fit that is no longer active never resumes, so its lam may drift)
        lam_down = np.maximum(lam / DAMPING_FACTOR, DAMPING_INIT)
        if not np.count_nonzero(stuck):
            lam, moved = lam_down, act
        else:
            stop(stuck & (lam >= DAMPING_MAX), _STALLED)
            lam = np.where(stuck, np.minimum(lam * DAMPING_FACTOR, DAMPING_MAX), lam_down)
            moved = act ^ stuck
            if not np.count_nonzero(moved):
                continue
        # the fits that did not move get back the values they had
        grad, hess, gnorm = derivatives(moved)

    runtime = time.perf_counter() - t0
    converged = live & (gnorm <= cfg.grad_tol)  # a stalled fit had gnorm > grad_tol
    for r in np.flatnonzero(~converged & ~failed):
        warnings[r].append(_NOT_REACHED.format(cfg.grad_tol, gnorm[r]))
    return FitResult(x, f, it, gnorm, converged, hess, warnings, runtime)


def maximize(model, dataset, init=None, cfg: FitConfig | None = None) -> FitResult:
    """Maximize the multisample log-likelihood of ``model`` on ``dataset``.

    Deterministic: identical inputs give bit-identical iterates.  Accepted
    steps never decrease the objective.  Non-convergence is reported in the
    result, never silently; a non-finite objective or gradient is an
    EvaluationError carrying the params.

    ``init`` of shape (R, d) runs R fits as one batch, each with its own
    damping, line search, iteration count and stopping rule (``dataset``
    may carry per-fit multiplicities (R, N)), and returns them with a
    leading R axis.  A fit whose objective or gradient is not finite stops
    there, unconverged, with that error as its last warning, and the others
    go on.  A single start (d,) runs a loop without the batch's per-fit
    masks, and its iterates are bit-identical to those of the same start
    run as a batch of one.
    """
    cfg = cfg or FitConfig()
    start = model.init_params(dataset) if init is None else init
    x = np.array(start, dtype=float)
    return (_fit_one if x.ndim == 1 else _fit_batch)(model, dataset, x, cfg)
