"""Reparametrized least-favorable submodels built from per-stratum weight
functions.

The construction: given per-stratum selection weights ``Q_{s|X}(x; theta)``
and a pooled covariate distribution estimate ``fstar``, the nuisance density
is replaced by

    g(x; theta, q) = fstar(x) / sum_s w_s Q_{s|X}(x; theta) / q_s

and each stratum density becomes
``p*_s(y, x; theta, q) = f(y | x; theta) g(x; theta, q) / q_s`` with the
normalization q_S = 1.  The mixture sum_s w_s integral p*_s is identically 1
for every (theta, q), which is the identity the whole variance theory rests
on; ``check_normalization`` recomputes it the long way so tests can verify
the code preserves it.

``fstar`` here is the weighted pooled empirical covariate distribution
(mixture of within-sample empirical marginals with weights w_s).  With the
exact plug-in weights w_s = n_s/n this equals the pooled relative frequency.
The additive log fstar(x) term is constant in (theta, q); the
log-likelihood drops it, which changes no score, Hessian, or standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import MultisampleDataset, Weights
from .errors import ConvergenceError, DataError, EvaluationError
from .likelihood import ModelSpec


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Per-stratum selection weights Q_{s|X}(x; theta).  ``evaluate(x,
    theta, order)`` returns (Q, dQ, d2Q) up to ``order``, shaped (..., S),
    (..., S, d) and (..., S, d, d), where ``...`` is the stack axis of
    ``theta`` (d,) or (P, d), then the row axis of ``x`` (p,) or (N, p)."""

    n_strata: int
    evaluate: Callable


@dataclass(frozen=True)
class ConditionalFamily:
    """Differentiable conditional density f(y|x; theta) of the response:
    ``evaluate(y, x, theta, order)`` returns (log f, gradient, Hessian) up
    to ``order``, shaped (...), (..., d) and (..., d, d) as in
    ``WeightFunctionSpec``."""

    evaluate: Callable


@dataclass(frozen=True)
class FStarEstimate:
    """Pooled covariate distribution over the finite support."""

    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0):
            raise DataError("fstar values must be nonnegative")


@dataclass(frozen=True)
class QVector:
    """q = (q_1, ..., q_{S-1}, 1) with every component positive."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if np.any(self.q <= 0):
            raise DataError("q components must be positive")
        if self.q[-1] != 1.0:
            raise DataError("q_S must be fixed to 1")

    @property
    def free(self):
        return self.q[:-1]

    @staticmethod
    def from_free(free):
        return QVector(np.append(np.asarray(free, dtype=float), 1.0))


def fstar_empirical(dataset: MultisampleDataset, weights: Weights) -> FStarEstimate:
    """Weighted mixture of within-sample empirical covariate marginals."""
    s = dataset.sample - 1
    mass = weights.w[s] * dataset.multiplicity / dataset.sample_sizes[s]
    values = np.bincount(dataset.support_index, weights=mass, minlength=len(dataset.support))
    return FStarEstimate(dataset.support, values)


def check_normalization(wspec, theta, q: QVector, fstar: FStarEstimate, weights):
    """sum_s w_s sum_k p*_s-mass at v_k, with fstar included.  Identically 1
    for any admissible (theta, q) when fstar sums to 1.  ``wspec`` is
    evaluated once, on all support rows."""
    (Q,) = wspec.evaluate(fstar.support, theta, 0)  # (K, S)
    denom = Q @ (weights.w / q.q)  # (K,)
    if np.any(denom <= 0.0):
        raise EvaluationError("x has zero selection mass under all strata")
    ghat = fstar.values / denom
    return float((Q.T @ ghat) @ (weights.w / q.q))


def fixed_point_q(wspec, theta, fstar: FStarEstimate, weights, tol=1e-10, max_iter=500):
    """Solve the self-consistency equations Q_s = sum_k Q_{s|X}(v_k) g(v_k)
    by fixed-point iteration; returns the normalized QVector (last
    component 1).  Raises ConvergenceError on divergence."""
    S = wspec.n_strata
    (Qmat,) = wspec.evaluate(fstar.support, theta, 0)  # (K, S)
    qs = np.ones(S)
    for _ in range(max_iter):
        denom = (Qmat / qs) @ weights.w  # (K,)
        if np.any(denom <= 0.0):
            raise EvaluationError("x has zero selection mass under all strata")
        ghat = fstar.values / denom
        new = Qmat.T @ ghat  # (S,)
        if np.any(new <= 0.0):
            raise ConvergenceError("fixed-point iterate left the positive orthant")
        delta = np.max(np.abs(new - qs))
        qs = new
        if delta < tol:
            return QVector(qs / qs[-1])
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations"
    )


class ReparamModel(ModelSpec):
    """ModelSpec over (theta, log q_1..log q_{S-1}) for the reparametrized
    submodel.  The free nuisance coordinates are log q to keep Newton
    unconstrained; scores and Hessians apply the chain rule accordingly.

    The array pass evaluates the ``wspec`` and ``family`` once, with all
    rows X (N, p), at the order it needs.  Order 0 takes a (P, d) stack in
    the same pass; a vector of the stack that is inadmissible there (a row
    with Q_{s|X} = 0 for its own stratum, or zero selection mass) gets
    non-finite rows instead of the EvaluationError one vector raises.
    """

    stacked_orders = (0,)

    def __init__(self, wspec, family, fstar, weights, theta_labels):
        self.wspec = wspec
        self.family = family
        self.fstar = fstar
        self.weights = weights
        S = wspec.n_strata
        self.n_theta = len(theta_labels)
        self.param_labels = tuple(theta_labels) + tuple(
            f"log_q{j + 1}" for j in range(S - 1)
        )
        self.interest_idx = tuple(range(self.n_theta))

    def split(self, params):
        """theta and q = (q_1, ..., q_{S-1}, 1) of one vector or a stack."""
        free = np.exp(params[..., self.n_theta :])
        q = np.concatenate([free, np.ones(free.shape[:-1] + (1,))], axis=-1)
        return params[..., : self.n_theta], q

    def evaluate(self, params, data, order):
        theta, qv = self.split(params)
        X, s, y = data.X, data.sample - 1, data.y
        w = self.weights.w
        S = self.wspec.n_strata
        Q, *dQ = self.wspec.evaluate(X, theta, order)  # Q (..., N, S), dQ, d2Q
        denom = (Q @ (w / qv)[..., None])[..., 0]  # (..., N)
        if order == 0:
            off = Q[..., np.arange(len(s)), s] <= 0.0
            dead = denom <= 0.0
            if theta.ndim == 1 and np.any(off):
                i = int(np.argmax(off))
                raise EvaluationError(
                    f"observation inconsistent with its stratum: "
                    f"Q_{s[i] + 1}|X = 0 at x={X[i]}"
                )
            if theta.ndim == 1 and np.any(dead):
                raise EvaluationError("x has zero selection mass under all strata")
            (log_f,) = self.family.evaluate(y, X, theta, 0)
            rows = log_f - np.log(denom) - np.log(qv[..., s])
            return np.where(off | dead, np.nan, rows)  # a stack's inadmissible vectors

        r = np.einsum("s,nsd->nd", w / qv, dQ[0]) / denom[:, None]  # d log denom / d theta
        qf, wf, Qf = qv[: S - 1], w[: S - 1], Q[:, : S - 1]
        if order == 1:
            g_theta = self.family.evaluate(y, X, theta, 1)[1] - r
            # q-gradient (w_j Q_j / q_j^2) / denom - 1{s = j} / q_j, then the
            # chain rule to u = log q: d/du_j = q_j d/dq_j
            g_q = (wf * Qf / qf**2) / denom[:, None] - (s[:, None] == np.arange(S - 1)) / qf
            return np.hstack([g_theta, qf * g_q])

        m = data.multiplicity
        h_tt = (
            np.einsum("n,nij->ij", m, self.family.evaluate(y, X, theta, 2)[2])
            - np.einsum("n,s,nsij->ij", m / denom, w / qv, dQ[1])
            + (r * m[:, None]).T @ r
        )
        # u block via B_j = (w_j Q_j / q_j) / denom: H_uu = B B^T - diag(B)
        B = (wf * Qf / qf) / denom[:, None]
        h_uu = (B * m[:, None]).T @ B - np.diag(m @ B)
        # cross block: q_j d2/(dtheta dq_j) = (w_j / q_j) (dQ_j - Q_j r) / denom
        cross = (dQ[0][:, : S - 1] - Qf[:, :, None] * r[:, None, :]) / denom[:, None, None]
        h_tu = np.einsum("n,njd->dj", m, cross) * (wf / qf)
        return np.block([[h_tt, h_tu], [h_tu.T, h_uu]])
