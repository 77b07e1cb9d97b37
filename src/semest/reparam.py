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
import numpy as np

from .data import MultisampleDataset, Weights
from .errors import ConvergenceError, DataError, EvaluationError
from .likelihood import ModelSpec

FIXED_POINT_MAX_ITER = 500


def _design(x):
    """Design (1, x): shape (1 + p,) for one point, (N, 1 + p) for N rows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


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
    (Q,) = wspec(_design(fstar.support) @ theta, 0)  # (K, S)
    denom = Q @ (weights.w / q.q)  # (K,)
    if np.any(denom <= 0.0):
        raise EvaluationError("x has zero selection mass under all strata")
    ghat = fstar.values / denom
    return float((Q.T @ ghat) @ (weights.w / q.q))


def fixed_point_q(wspec, theta, fstar: FStarEstimate, weights, tol=1e-10):
    """Solve the self-consistency equations Q_s = sum_k Q_{s|X}(v_k) g(v_k)
    by fixed-point iteration; returns the normalized QVector (last
    component 1).  Raises ConvergenceError on divergence."""
    (Qmat,) = wspec(_design(fstar.support) @ theta, 0)  # (K, S)
    qs = np.ones(len(weights))
    for _ in range(FIXED_POINT_MAX_ITER):
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
        f"fixed-point iteration did not converge in {FIXED_POINT_MAX_ITER} iterations"
    )


class ReparamModel(ModelSpec):
    """ModelSpec over (theta, log q_1..log q_{S-1}) for the reparametrized
    submodel.  The free nuisance coordinates are log q to keep Newton
    unconstrained; scores and Hessians apply the chain rule accordingly.

    The paper's two functions are plain callables of the linear predictor
    eta = z' theta, z = (1, x), each returning its value and derivatives
    up to ``order``: the selection weights ``wspec(eta, order)`` ->
    (Q, dQ/deta, d2Q/deta2), each (..., S) for eta (...), S = len(weights),
    and the conditional density ``family(y, eta, order)`` ->
    (log f, d/deta, d2/deta2), each shaped like eta.

    One pass builds the design Z = (1, X) of all rows and the linear
    predictor eta = Z theta, and calls ``wspec`` and ``family`` once
    each, at eta: a theta derivative is the eta derivative times z, so the
    Hessian's theta block is Z' diag(h) Z and no per-row d x d array is
    formed.  Z and the values at the last point are kept: a Newton step
    asks for orders 0, 1, 2 at one point, so a score takes them to order
    2.  Every order takes a (P, d) stack, and order 2 per-vector
    multiplicities (P, N).  At order 0 a vector of a stack that is
    inadmissible (a row with Q_{s|X} = 0 for its own stratum, or zero
    selection mass) gets non-finite rows instead of the EvaluationError
    one vector raises.
    """

    def __init__(self, wspec, family, fstar, weights, theta_labels):
        self.wspec = wspec
        self.family = family
        self.fstar = fstar
        self.weights = weights
        self.n_theta = len(theta_labels)
        self.param_labels = tuple(theta_labels) + tuple(
            f"log_q{j + 1}" for j in range(len(weights) - 1)
        )
        self.interest_idx = tuple(range(self.n_theta))
        self._rows = self._Z = self._key = self._point = None  # the last rows and point seen

    def _at(self, params, data, order):
        """Z = (1, X), and q, a = w / q, ``wspec``, ``family`` and Q a at ``params``."""
        rows = (data.X, data.y)
        if self._rows is None or any(new is not old for new, old in zip(rows, self._rows)):
            self._rows, self._Z, self._key = rows, _design(data.X), None
        key = (params.shape, params.tobytes())
        if key != self._key or len(self._point[2]) <= order:
            theta, free = params[..., : self.n_theta], np.exp(params[..., self.n_theta :])
            qv = np.concatenate([free, np.ones(free.shape[:-1] + (1,))], axis=-1)  # q, q_S = 1
            eta = (self._Z @ theta[..., None])[..., 0]  # (..., N)
            a = self.weights.w / qv  # (..., S)
            Q = self.wspec(eta, 2 if order else 0)  # each (..., N, S)
            denom = (Q[0] @ a[..., None])[..., 0]  # (..., N)
            family = self.family(data.y, eta, 2 if order else 0)
            self._key, self._point = key, (qv, a, Q, family, denom)
        return self._Z, self._point

    def evaluate(self, params, data, order):
        Z, (qv, a, (Q, *dQ), (log_f, *df), denom) = self._at(params, data, order)
        X, s = data.X, data.sample - 1
        if order == 0:
            off = Q[..., np.arange(len(s)), s] <= 0.0
            dead = denom <= 0.0
            if params.ndim == 1 and np.any(off):
                i = int(np.argmax(off))
                raise EvaluationError(
                    f"observation inconsistent with its stratum: "
                    f"Q_{s[i] + 1}|X = 0 at x={X[i]}"
                )
            if params.ndim == 1 and np.any(dead):
                raise EvaluationError("x has zero selection mass under all strata")
            rows = log_f - np.log(denom) - np.log(qv[..., s])
            return np.where(off | dead, np.nan, rows)  # a stack's inadmissible vectors

        rho = (dQ[0] @ a[..., None])[..., 0] / denom  # d log denom / d eta
        # B_j = (w_j Q_j / q_j) / denom is the derivative of -log denom in
        # u_j = log q_j, j < S; the u-score is B_j - 1{s = j}
        wq = a[..., None, :-1] / denom[..., None]  # (..., N, S - 1)
        B = Q[..., :-1] * wq
        if order == 1:
            own = s[:, None] == np.arange(B.shape[-1])
            return np.concatenate([(df[0] - rho)[..., None] * Z, B - own], axis=-1)

        m = data.multiplicity  # (N,) or (P, N)
        # d2/deta2 of log f - log denom, each row times its multiplicity
        h = m * (df[1] - (dQ[1] @ a[..., None])[..., 0] / denom + rho**2)
        # d B_j / d eta = (w_j dQ_j / q_j) / denom - B_j rho, and
        # d B_j / d u_k = B_j B_k - 1{j = k} B_j
        C = m[..., None] * (dQ[0][..., :-1] * wq - B * rho[..., None])
        mB = m[..., None] * B
        k = self.n_theta
        out = np.empty(denom.shape[:-1] + (self.n_params, self.n_params))
        out[..., :k, :k] = (Z * h[..., None]).swapaxes(-1, -2) @ Z
        out[..., :k, k:] = Z.T @ C
        out[..., k:, :k] = out[..., :k, k:].swapaxes(-1, -2)
        out[..., k:, k:] = mB.swapaxes(-1, -2) @ B
        j = np.arange(k, self.n_params)
        out[..., j, j] -= (m[..., None, :] @ B)[..., 0, :]
        return out
