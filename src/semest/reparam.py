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
The additive log fstar(x) term is constant in (theta, q); estimation mode
drops it, which changes no score, Hessian, or standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import MultisampleDataset, Weights, positions
from .errors import ConvergenceError, DataError, EvaluationError
from .likelihood import ArrayModel


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Per-stratum selection weight evaluators.

    ``q_weight(x, theta)`` returns the vector (Q_{1|X}, ..., Q_{S|X}) at x;
    ``q_weight_grad`` its theta-Jacobian with shape (S, d); ``q_weight_hess``
    the stacked theta-Hessians with shape (S, d, d).  ``partition=True``
    asserts sum_s Q_{s|X}(x; theta) = 1 for stratified designs.
    """

    n_strata: int
    q_weight: Callable
    q_weight_grad: Callable
    q_weight_hess: Callable
    partition: bool = False


@dataclass(frozen=True)
class ConditionalFamily:
    """Differentiable conditional density f(y|x; theta) of the response."""

    log_f: Callable
    log_f_grad: Callable
    log_f_hess: Callable


@dataclass(frozen=True)
class FStarEstimate:
    """Pooled covariate distribution over the finite support."""

    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(self.values < 0):
            raise DataError("fstar values must be nonnegative")

    def lookup(self, x):
        return self.values[positions(self.support, x)[0]]


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


def _denominator(wspec, x, theta, q, weights):
    Q = np.asarray(wspec.q_weight(x, theta), dtype=float)
    return Q, float(np.sum(weights.w * Q / q.q))


def g_hat(wspec, x, theta, q: QVector, fstar: FStarEstimate, weights: Weights):
    """Least-favorable nuisance density value at x."""
    _, denom = _denominator(wspec, x, theta, q, weights)
    if denom <= 0.0:
        raise EvaluationError("x has zero selection mass under all strata")
    return fstar.lookup(x) / denom


def log_density_star(
    wspec,
    family: ConditionalFamily,
    s,
    y,
    x,
    theta,
    q: QVector,
    fstar,
    weights,
    include_fstar=False,
):
    """log p*_s(y, x; theta, q).

    ``include_fstar=False`` (estimation mode) drops the parameter-free
    log fstar(x) term; scores and Hessians are unaffected either way.
    """
    Q, denom = _denominator(wspec, x, theta, q, weights)
    if Q[s - 1] <= 0.0:
        raise EvaluationError(
            f"observation inconsistent with its stratum: Q_{s}|X = 0 at x={x}"
        )
    if denom <= 0.0:
        raise EvaluationError("x has zero selection mass under all strata")
    val = family.log_f(y, x, theta) - np.log(denom) - np.log(q.q[s - 1])
    if include_fstar:
        val += np.log(fstar.lookup(x))
    return val


def score_q(wspec, s, x, theta, q: QVector, weights):
    """Analytic q-gradient of log p*_s, components j = 1..S-1.

    This is the exact per-observation derivative
    ``(w_j Q_j / q_j^2) / denom - 1_{s=j} / q_j``; its sample-weighted
    aggregate coincides with the population form that replaces the
    indicator with w_j, because w_j = n_j / n exactly.
    """
    Q, denom = _denominator(wspec, x, theta, q, weights)
    S = wspec.n_strata
    out = np.empty(S - 1)
    for j in range(S - 1):
        out[j] = (weights.w[j] * Q[j] / q.q[j] ** 2) / denom
        if s - 1 == j:
            out[j] -= 1.0 / q.q[j]
    return out


def check_normalization(wspec, theta, q: QVector, fstar: FStarEstimate, weights):
    """sum_s w_s sum_k p*_s-mass at v_k, full mode.  Identically 1 for any
    admissible (theta, q) when fstar sums to 1."""
    total = 0.0
    for k, v in enumerate(fstar.support):
        Q, denom = _denominator(wspec, v, theta, q, weights)
        if denom <= 0.0:
            raise EvaluationError("x has zero selection mass under all strata")
        ghat = fstar.values[k] / denom
        total += float(np.sum(weights.w * Q / q.q)) * ghat
    return total


def fixed_point_q(
    wspec, theta, fstar: FStarEstimate, weights, tol=1e-10, max_iter=500, damping=1.0
):
    """Solve the self-consistency equations Q_s = sum_k Q_{s|X}(v_k) g(v_k)
    by damped fixed-point iteration; returns the normalized QVector
    (last component 1).  Raises ConvergenceError on divergence."""
    S = wspec.n_strata
    Qmat = np.array([wspec.q_weight(v, theta) for v in fstar.support])  # (K, S)
    qs = np.ones(S)
    for _ in range(max_iter):
        denom = (Qmat / qs) @ weights.w  # (K,)
        if np.any(denom <= 0.0):
            raise EvaluationError("x has zero selection mass under all strata")
        ghat = fstar.values / denom
        new = Qmat.T @ ghat  # (S,)
        step = new - qs
        qs_next = qs + damping * step
        if np.any(qs_next <= 0.0):
            raise ConvergenceError("fixed-point iterate left the positive orthant")
        delta = np.max(np.abs(qs_next - qs))
        qs = qs_next
        if delta < tol:
            return QVector(qs / qs[-1])
    raise ConvergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations"
    )


class ReparamModel(ArrayModel):
    """ModelSpec over (theta, log q_1..log q_{S-1}) for the reparametrized
    submodel.  The free nuisance coordinates are log q to keep Newton
    unconstrained; scores and Hessians apply the chain rule accordingly.

    The array pass calls the ``wspec`` and ``family`` evaluators once with
    all rows X (N, p), so they must accept rows as well as one point (as
    ``casecontrol_weight_spec`` and ``casecontrol_family`` do): Q (N, S),
    its Jacobian (N, S, d) and Hessians (N, S, d, d); log f (N,), its
    gradient (N, d) and Hessian (N, d, d).
    """

    def __init__(self, wspec, family, fstar, weights, theta_labels, include_fstar=False):
        self.wspec = wspec
        self.family = family
        self.fstar = fstar
        self.weights = weights
        self.include_fstar = include_fstar
        S = wspec.n_strata
        self.n_theta = len(theta_labels)
        self.param_labels = tuple(theta_labels) + tuple(
            f"log_q{j + 1}" for j in range(S - 1)
        )
        self.interest_idx = tuple(range(self.n_theta))

    def split(self, params):
        theta = np.asarray(params[: self.n_theta], dtype=float)
        q = QVector.from_free(np.exp(params[self.n_theta :]))
        return theta, q

    def evaluate(self, params, data, order):
        theta, q = self.split(params)
        X, s, y = data.X, data.sample - 1, data.y
        w, qv = self.weights.w, q.q
        S = self.wspec.n_strata
        Q = np.asarray(self.wspec.q_weight(X, theta), dtype=float)  # (N, S)
        denom = Q @ (w / qv)  # (N,)
        if order == 0:
            off = Q[np.arange(len(s)), s] <= 0.0
            if np.any(off):
                i = int(np.argmax(off))
                raise EvaluationError(
                    f"observation inconsistent with its stratum: "
                    f"Q_{s[i] + 1}|X = 0 at x={X[i]}"
                )
            if np.any(denom <= 0.0):
                raise EvaluationError("x has zero selection mass under all strata")
            val = self.family.log_f(y, X, theta) - np.log(denom) - np.log(qv[s])
            if self.include_fstar:
                k = positions(self.fstar.support, data.support)[data.support_index]
                val = val + np.log(self.fstar.values[k])
            return val

        dQ = np.asarray(self.wspec.q_weight_grad(X, theta), dtype=float)  # (N, S, d)
        r = np.einsum("s,nsd->nd", w / qv, dQ) / denom[:, None]  # d log denom / d theta
        qf, wf, Qf = qv[: S - 1], w[: S - 1], Q[:, : S - 1]
        if order == 1:
            g_theta = self.family.log_f_grad(y, X, theta) - r
            # q-gradient (w_j Q_j / q_j^2) / denom - 1{s = j} / q_j, then the
            # chain rule to u = log q: d/du_j = q_j d/dq_j
            g_q = (wf * Qf / qf**2) / denom[:, None] - (s[:, None] == np.arange(S - 1)) / qf
            return np.hstack([g_theta, qf * g_q])

        m = data.multiplicity
        d2Q = np.asarray(self.wspec.q_weight_hess(X, theta), dtype=float)  # (N, S, d, d)
        h_tt = (
            np.einsum("n,nij->ij", m, self.family.log_f_hess(y, X, theta))
            - np.einsum("n,s,nsij->ij", m / denom, w / qv, d2Q)
            + (r * m[:, None]).T @ r
        )
        # u block via B_j = (w_j Q_j / q_j) / denom: H_uu = B B^T - diag(B)
        B = (wf * Qf / qf) / denom[:, None]
        h_uu = (B * m[:, None]).T @ B - np.diag(m @ B)
        # cross block: q_j d2/(dtheta dq_j) = (w_j / q_j) (dQ_j - Q_j r) / denom
        cross = (dQ[:, : S - 1] - Qf[:, :, None] * r[:, None, :]) / denom[:, None, None]
        h_tu = np.einsum("n,njd->dj", m, cross) * (wf / qf)
        return np.block([[h_tt, h_tu], [h_tu.T, h_uu]])
