"""Case-control (two-stratum stratified) logistic regression models.

Three builders for the same design, each an array model evaluated over all
rows at once:

* ``build_full_mle_model`` -- joint maximum likelihood over the regression
  parameters and the discrete covariate distribution g on the observed
  support (softmax coordinates, last one pinned to 0);
* ``build_nonidentifiable_model`` -- the reparametrized submodel in
  (alpha, beta, log rho1); the likelihood depends on (alpha, log rho1)
  only through their sum, an exactly flat ridge;
* ``build_identifiable_model`` -- the further reparametrization
  alpha_star = alpha + log rho1, which is identifiable and is algebraically
  a prospective logistic fit with a fixed intercept offset.

Each builder takes a two-sample dataset alone: the sample weights
w_s = n_s / n and the covariate labels come from it.  Strata: sample 1 =
controls (y = 0), sample 2 = cases (y = 1).  Covariates are stored as
(scar, transformed age) for the bundled leprosy data.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .data import (
    MultisampleDataset, Weights, _casecontrol_columns, _casecontrol_dataset, compute_weights,
    support_positions,
)
from .errors import DataError
from .likelihood import ModelSpec
from .reparam import ConditionalFamily, WeightFunctionSpec
from .structured import DiagPlusLowRank, StructuredHessian


def transform_age(age):
    """Covariate transform 100 (age + 7.5)^-2."""
    age = np.asarray(age, dtype=float)
    if np.any(age <= -7.5):
        raise DataError("age must exceed -7.5")
    out = 100.0 / (age + 7.5) ** 2
    return float(out) if out.ndim == 0 else out


def _sigmoid(t):
    """Logistic function, stable for any sign of t."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _log1pexp(t):
    return np.logaddexp(0.0, t)


def _design(x):
    """Design (1, x): shape (1 + p,) for one point, (N, 1 + p) for N rows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


def _outer(z):
    """z z^T, row by row for a stack of vectors."""
    return z[..., :, None] * z[..., None, :]


def _t(M):
    return np.swapaxes(M, -1, -2)


class CaseControlLogisticModel(ModelSpec):
    """Reparametrized case-control logistic model.  Estimation-mode
    log-density y u - log(w0 + w1 e^u) with u = z' params.

    Identifiable: parameters (alpha_star, beta), design z = (1, x).
    Non-identifiable: parameters (alpha, beta, log rho1), design
    z = (1, x, 1); the duplicated intercept column makes the log-density
    depend on (alpha, log rho1) only through alpha + log rho1.

    Every order takes a stack of parameter vectors, with per-vector row
    multiplicities at order 2 (the Monte Carlo replicates fitted as one
    batch).
    """

    stacked_orders = (0, 1, 2)

    def __init__(self, weights: Weights, labels, identifiable=True):
        self.weights = weights
        self.identifiable = identifiable
        self._log_w0 = np.log(weights.w[0])
        self._log_w1 = np.log(weights.w[1])
        self._X = self._Z = None  # the last covariate array seen, and its design
        if identifiable:
            self.param_labels = ("alpha*",) + tuple(labels)
            self.interest_idx = tuple(range(1, len(self.param_labels)))
        else:
            self.param_labels = ("alpha",) + tuple(labels) + ("log_rho1",)
            self.interest_idx = tuple(range(len(self.param_labels) - 1))

    def evaluate(self, params, data, order):
        if data.X is not self._X:  # a fit evaluates one dataset many times
            Z = _design(data.X)
            self._Z = Z if self.identifiable else np.hstack([Z, Z[:, :1]])
            self._X = data.X
        Z = self._Z
        u = (Z @ params[..., None])[..., 0]
        if order == 0:
            return data.y * u - np.logaddexp(self._log_w0, self._log_w1 + u)
        # w1 e^u / (w0 + w1 e^u)
        mu = _sigmoid(u + self._log_w1 - self._log_w0)
        if order == 1:
            return (data.y - mu)[..., None] * Z
        weighted = Z * (data.multiplicity * mu * (1.0 - mu))[..., None]
        return -weighted.swapaxes(-1, -2) @ Z

    def init_params(self, dataset):
        init = np.zeros(self.n_params)
        init[0] = np.log(dataset.sample_sizes[1] / dataset.sample_sizes[0])
        return init


class DiscreteG:
    """Softmax coordinates for a discrete distribution on K support points:
    g_k = exp(phi_k) / sum_j exp(phi_j) with phi_K fixed to 0."""

    @staticmethod
    def to_g(phi_free):
        """g from phi_1..phi_{K-1}, along the last axis of ``phi_free``."""
        free = np.asarray(phi_free, dtype=float)
        phi = np.zeros(free.shape[:-1] + (free.shape[-1] + 1,))
        phi[..., :-1] = free
        phi = phi - phi.max(axis=-1, keepdims=True)
        e = np.exp(phi)
        return e / e.sum(axis=-1, keepdims=True)

    @staticmethod
    def from_g(g):
        g = np.asarray(g, dtype=float)
        if np.any(g <= 0) or abs(g.sum() - 1.0) > 1e-10:
            raise DataError("g must be a strictly positive probability vector")
        phi = np.log(g)
        return (phi - phi[-1])[:-1]


class FullMLELogisticModel(ModelSpec):
    """Parameters (alpha, beta, phi_1..phi_{K-1}).  Per-observation
    log-density log f(y|v_k) + log g_k - log sum_j f(y|v_j) g_j.

    Every per-row quantity depends on the row only through its response y
    and support point k, so the pass works on the (2, K) table of them.
    Every order takes a stack of parameter vectors (order 2 with one set of
    row multiplicities).  Order 2 returns a ``StructuredHessian``: the
    phi block is a diagonal plus a rank-2 term, never formed as a K x K
    array."""

    stacked_orders = (0, 1, 2)

    def __init__(self, support, labels):
        support = np.asarray(support, dtype=float)
        if len(support) < 2:
            raise DataError("need at least 2 support points to profile g")
        self.support = support
        self.K = len(support)
        self._Z = np.column_stack([np.ones(self.K), support])  # (K, 1+p)
        self.param_labels = (
            ("alpha",)
            + tuple(labels)
            + tuple(f"phi{k + 1}" for k in range(self.K - 1))
        )
        self.n_theta = 1 + len(labels)
        self.interest_idx = tuple(range(self.n_theta))
        self._rows = self._counts = None  # the last rows counted, and their counts

    def evaluate(self, params, data, order):
        t = params[..., : self.n_theta]
        g = DiscreteG.to_g(params[..., self.n_theta :])
        y = data.sample - 1
        k = support_positions(self.support, data)
        Z = self._Z
        eta = (Z @ t[..., None])[..., 0]
        # mu = f(1 | v_j) and nu = 1 - mu from one exp(-|eta|): the complement
        # keeps its relative precision where mu rounds to 1 (large alpha on
        # the flat intercept ridge), so the score can still reach grad_tol
        e = np.exp(-np.abs(eta))
        up = eta >= 0
        mu = np.where(up, 1.0, e) / (1.0 + e)
        nu = np.where(up, e, 1.0) / (1.0 + e)
        f = np.stack([nu, mu], axis=-2)  # f(y | v_j), (2, K)
        D = (f @ g[..., None])[..., 0]  # (2,)
        if order == 0:
            eta_k = eta.take(k, axis=-1)
            logf_k = y * eta_k - _log1pexp(eta_k)
            return logf_k + np.log(g.take(k, axis=-1)) - np.log(D.take(y, axis=-1))
        a = g[..., None, :] * f / D[..., None]
        b = np.stack([-mu, nu], axis=-2)  # y - mu
        m = (a * b) @ Z  # (2, 1+p)
        if order == 1:  # written in place: (N, 1+p+K-1) is the largest array of a fit
            q = self.n_theta
            out = np.empty(b.shape[:-2] + (len(y), q + self.K - 1))
            out[..., :q] = b[..., y, k, None] * Z[k] - m[..., y, :]
            out[..., q:] = -a[..., :1, :-1]  # broadcast by sample: no (N, K-1) temporary
            out[..., y == 1, q:] = -a[..., 1:, :-1]
            own = np.flatnonzero(k < self.K - 1)
            out[..., own, q + k[own]] += 1.0
            return out
        # sum over rows of the per-row Hessian
        #   h_tt = -c_k z_k z_k' - sum_j a_j (b_j^2 - c_j) z_j z_j' + m m'
        #   h_tphi[:, j] = a_j (m - b_j z_j),  h_phiphi = a a' - diag(a)
        # with M[y, k] the multiplicity of (y, k) and N_y its row sums; the
        # phi block sums to -diag(N a) + F F' with F = (sqrt(N) a)', rank 2
        rows = (data.X, data.sample, data.multiplicity)
        if self._rows is None or any(new is not old for new, old in zip(rows, self._rows)):
            M = np.bincount(
                y * self.K + k, weights=data.multiplicity, minlength=2 * self.K
            ).reshape(2, self.K)
            N = M.sum(axis=1)
            self._rows, self._counts = rows, (M.sum(axis=0), N, np.sqrt(N)[:, None])
        per_point, N, root_N = self._counts  # a fit counts one dataset many times
        c = mu * nu
        diag_w = -c * per_point - N @ (a * (b**2 - c[..., None, :]))
        h_tt = _t(Z * diag_w[..., None]) @ Z + _t(m * N[:, None]) @ m
        a_ = a[..., :-1]
        h_tphi = _t(m) @ (a_ * N[:, None]) - Z[:-1].T * (N @ (a * b))[..., None, :-1]
        tail = DiagPlusLowRank(-(N @ a_), _t(a_ * root_N), 1.0)
        return StructuredHessian(0.5 * (h_tt + _t(h_tt)), h_tphi, tail)

    def init_params(self, dataset):
        init = np.zeros(self.n_params)
        init[0] = np.log(dataset.sample_sizes[1] / dataset.sample_sizes[0])
        return init


def _two_sample_weights(dataset):
    """w_s = n_s / n of a dataset with the S = 2 samples a case-control
    model needs (controls, cases); DataError names S otherwise."""
    weights = compute_weights(dataset)
    if len(weights) != 2:
        raise DataError(f"case-control models need S=2 samples, got S={len(weights)}")
    return weights


def build_identifiable_model(dataset):
    weights = _two_sample_weights(dataset)
    return CaseControlLogisticModel(weights, dataset.labels, identifiable=True)


def build_nonidentifiable_model(dataset):
    weights = _two_sample_weights(dataset)
    return CaseControlLogisticModel(weights, dataset.labels, identifiable=False)


def build_full_mle_model(dataset):
    _two_sample_weights(dataset)
    return FullMLELogisticModel(dataset.support, dataset.labels)


def casecontrol_weight_spec():
    """WeightFunctionSpec for case-control sampling: Q_{s|X}(x; theta) =
    f(s-1 | x; theta) with theta = (alpha, beta), a partition of the
    outcome space."""

    def evaluate(x, theta, order):
        z = _design(x)
        mu = _sigmoid((z @ theta[..., None])[..., 0])
        out = (np.stack([1.0 - mu, mu], axis=-1),)
        if order >= 1:
            c = mu * (1.0 - mu)
            cz = c[..., None] * z
            out += (np.stack([-cz, cz], axis=-2),)
        if order >= 2:
            # d2 mu = c (1 - 2 mu) z z^T
            d2mu = (c * (1.0 - 2.0 * mu))[..., None, None] * _outer(z)
            out += (np.stack([-d2mu, d2mu], axis=-3),)
        return out

    return WeightFunctionSpec(n_strata=2, evaluate=evaluate)


def casecontrol_family():
    """ConditionalFamily for the logistic f(y | x; (alpha, beta))."""

    def evaluate(y, x, theta, order):
        z = _design(x)
        eta = (z @ theta[..., None])[..., 0]
        out = (y * eta - _log1pexp(eta),)
        if order >= 1:
            mu = _sigmoid(eta)
            out += ((y - mu)[..., None] * z,)
        if order >= 2:
            out += (-(mu * (1.0 - mu))[..., None, None] * _outer(z),)
        return out

    return ConditionalFamily(evaluate)


# Leprosy case-control table, 14 rows (7 ages x 2 scar levels), as
# (age, scar, cases, controls).  The packaged CSV must agree bit-exactly.
LEPROSY_TABLE = (
    (2.5, 0, 1, 24),
    (2.5, 1, 1, 31),
    (7.5, 0, 11, 22),
    (7.5, 1, 14, 39),
    (12.5, 0, 28, 23),
    (12.5, 1, 22, 27),
    (17.5, 0, 16, 5),
    (17.5, 1, 28, 22),
    (22.5, 0, 20, 9),
    (22.5, 1, 19, 12),
    (27.5, 0, 36, 17),
    (27.5, 1, 11, 5),
    (32.5, 0, 47, 21),
    (32.5, 1, 6, 3),
)


def leprosy_dataset() -> MultisampleDataset:
    """The bundled leprosy case-control dataset, grouped, with covariates
    (scar, transform_age(age)).  Controls are sample 1, cases sample 2."""
    with resources.as_file(resources.files("semest") / "data" / "leprosy.csv") as path:
        age, scar, counts = _casecontrol_columns(path)
    if not np.array_equal(np.column_stack([age, scar, counts[:, ::-1]]), LEPROSY_TABLE):
        raise DataError("bundled leprosy.csv disagrees with the embedded table")
    return _casecontrol_dataset(age, scar, counts, transform=transform_age)
