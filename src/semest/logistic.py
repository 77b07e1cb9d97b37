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

Strata: sample 1 = controls (y = 0), sample 2 = cases (y = 1).  Covariates
are stored as (scar, transformed age) for the bundled leprosy data.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .data import MultisampleDataset, Weights, _casecontrol_columns, _casecontrol_dataset, positions
from .errors import DataError
from .likelihood import ArrayModel
from .reparam import ConditionalFamily, WeightFunctionSpec


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
    return np.where(np.asarray(t) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log1pexp(t):
    return np.logaddexp(0.0, t)


def logistic_density(y, x, alpha, beta):
    """f(y | x; alpha, beta) for y in {0, 1}."""
    eta = alpha + float(np.dot(np.atleast_1d(x), np.atleast_1d(beta)))
    return float(np.exp(y * eta - _log1pexp(eta)))


def _design(x):
    """Design (1, x): shape (1 + p,) for one point, (N, 1 + p) for N rows."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


def _outer(z):
    """z z^T, row by row for a stack of vectors."""
    return z[..., :, None] * z[..., None, :]


class CaseControlLogisticModel(ArrayModel):
    """Reparametrized case-control logistic model.  Estimation-mode
    log-density y u - log(w0 + w1 e^u) with u = z' params.

    Identifiable: parameters (alpha_star, beta), design z = (1, x).
    Non-identifiable: parameters (alpha, beta, log rho1), design
    z = (1, x, 1); the duplicated intercept column makes the log-density
    depend on (alpha, log rho1) only through alpha + log rho1.
    """

    def __init__(self, weights: Weights, covariate_labels, identifiable=True):
        if len(weights) != 2:
            kind = "identifiable" if identifiable else "non-identifiable"
            raise DataError(f"{kind} case-control model requires S=2")
        self.weights = weights
        self.identifiable = identifiable
        self._log_w0 = np.log(weights.w[0])
        self._log_w1 = np.log(weights.w[1])
        if identifiable:
            self.param_labels = ("alpha*",) + tuple(covariate_labels)
            self.interest_idx = tuple(range(1, len(self.param_labels)))
        else:
            self.param_labels = ("alpha",) + tuple(covariate_labels) + ("log_rho1",)
            self.interest_idx = tuple(range(len(self.param_labels) - 1))

    def evaluate(self, params, data, order):
        Z = _design(data.X)
        if not self.identifiable:
            Z = np.hstack([Z, Z[:, :1]])
        u = Z @ params
        if order == 0:
            return data.y * u - np.logaddexp(self._log_w0, self._log_w1 + u)
        # w1 e^u / (w0 + w1 e^u)
        mu = _sigmoid(u + self._log_w1 - self._log_w0)
        if order == 1:
            return (data.y - mu)[:, None] * Z
        return -(Z * (data.multiplicity * mu * (1.0 - mu))[:, None]).T @ Z

    def init_params(self, dataset):
        init = np.zeros(self.n_params)
        init[0] = np.log(dataset.sample_sizes[1] / dataset.sample_sizes[0])
        return init


class DiscreteG:
    """Softmax coordinates for a discrete distribution on K support points:
    g_k = exp(phi_k) / sum_j exp(phi_j) with phi_K fixed to 0."""

    @staticmethod
    def to_g(phi_free):
        phi = np.append(np.asarray(phi_free, dtype=float), 0.0)
        phi = phi - phi.max()
        e = np.exp(phi)
        return e / e.sum()

    @staticmethod
    def from_g(g):
        g = np.asarray(g, dtype=float)
        if np.any(g <= 0) or abs(g.sum() - 1.0) > 1e-10:
            raise DataError("g must be a strictly positive probability vector")
        phi = np.log(g)
        return (phi - phi[-1])[:-1]


class FullMLELogisticModel(ArrayModel):
    """Parameters (alpha, beta, phi_1..phi_{K-1}).  Per-observation
    log-density log f(y|v_k) + log g_k - log sum_j f(y|v_j) g_j.

    Every per-row quantity depends on the row only through its response y
    and support point k, so the pass works on the (2, K) table of them."""

    def __init__(self, support, covariate_labels):
        support = np.asarray(support, dtype=float)
        if len(support) < 2:
            raise DataError("need at least 2 support points to profile g")
        self.support = support
        self.K = len(support)
        self._Z = np.column_stack([np.ones(self.K), support])  # (K, 1+p)
        self.param_labels = (
            ("alpha",)
            + tuple(covariate_labels)
            + tuple(f"phi{k + 1}" for k in range(self.K - 1))
        )
        self.n_theta = 1 + len(covariate_labels)
        self.interest_idx = tuple(range(self.n_theta))

    def evaluate(self, params, data, order):
        t = params[: self.n_theta]
        g = DiscreteG.to_g(params[self.n_theta :])
        y = data.sample - 1
        k = positions(self.support, data.support)[data.support_index]
        Z = self._Z
        eta = Z @ t
        mu = _sigmoid(eta)
        f = np.stack([1.0 - mu, mu])  # f(y | v_j), (2, K)
        D = f @ g  # (2,)
        if order == 0:
            logf_k = y * eta[k] - _log1pexp(eta[k])
            return logf_k + np.log(g[k]) - np.log(D[y])
        a = g * f / D[:, None]
        b = np.stack([-mu, 1.0 - mu])  # y - mu
        m = (a * b) @ Z  # (2, 1+p)
        if order == 1:
            grad_t = b[y, k][:, None] * Z[k] - m[y]
            grad_phi = -a[y, :-1]
            own = np.flatnonzero(k < self.K - 1)
            grad_phi[own, k[own]] += 1.0
            return np.hstack([grad_t, grad_phi])
        # sum over rows of the per-row Hessian
        #   h_tt = -c_k z_k z_k' - sum_j a_j (b_j^2 - c_j) z_j z_j' + m m'
        #   h_tphi[:, j] = a_j (m - b_j z_j),  h_phiphi = a a' - diag(a)
        # with M[y, k] the multiplicity of (y, k) and N_y its row sums
        M = np.bincount(
            y * self.K + k, weights=data.multiplicity, minlength=2 * self.K
        ).reshape(2, self.K)
        N = M.sum(axis=1)
        c = mu * (1.0 - mu)
        diag_w = -c * M.sum(axis=0) - N @ (a * (b**2 - c))
        h_tt = (Z * diag_w[:, None]).T @ Z + (m * N[:, None]).T @ m
        a_ = a[:, :-1]
        h_tphi = m.T @ (a_ * N[:, None]) - Z[:-1].T * (N @ (a * b))[:-1]
        h_phiphi = (a_ * N[:, None]).T @ a_ - np.diag(N @ a_)
        return np.block([[h_tt, h_tphi], [h_tphi.T, h_phiphi]])

    def init_params(self, dataset):
        init = np.zeros(self.n_params)
        init[0] = np.log(dataset.sample_sizes[1] / dataset.sample_sizes[0])
        return init


def build_identifiable_model(weights, covariate_labels=("Scar", "Age")):
    return CaseControlLogisticModel(weights, covariate_labels, identifiable=True)


def build_nonidentifiable_model(weights, covariate_labels=("Scar", "Age")):
    return CaseControlLogisticModel(weights, covariate_labels, identifiable=False)


def build_full_mle_model(dataset, covariate_labels=("Scar", "Age")):
    return FullMLELogisticModel(dataset.support, covariate_labels)


def casecontrol_weight_spec(p):
    """WeightFunctionSpec for case-control sampling: Q_{s|X}(x; theta) =
    f(s-1 | x; theta) with theta = (alpha, beta), a partition of the
    outcome space.  Accepts one point x (p,) or rows X (N, p)."""

    def q_weight(x, theta):
        mu = _sigmoid(_design(x) @ theta)
        return np.stack([1.0 - mu, mu], axis=-1)

    def q_weight_grad(x, theta):
        z = _design(x)
        mu = _sigmoid(z @ theta)
        cz = (mu * (1.0 - mu))[..., None] * z
        return np.stack([-cz, cz], axis=-2)

    def q_weight_hess(x, theta):
        z = _design(x)
        mu = _sigmoid(z @ theta)
        # d2 mu = c (1 - 2 mu) z z^T
        d2mu = (mu * (1.0 - mu) * (1.0 - 2.0 * mu))[..., None, None] * _outer(z)
        return np.stack([-d2mu, d2mu], axis=-3)

    return WeightFunctionSpec(
        n_strata=2,
        q_weight=q_weight,
        q_weight_grad=q_weight_grad,
        q_weight_hess=q_weight_hess,
        partition=True,
    )


def casecontrol_family():
    """ConditionalFamily for the logistic f(y | x; (alpha, beta)); accepts
    one point or rows, like ``casecontrol_weight_spec``."""

    def log_f(y, x, theta):
        eta = _design(x) @ theta
        return y * eta - _log1pexp(eta)

    def log_f_grad(y, x, theta):
        z = _design(x)
        return (y - _sigmoid(z @ theta))[..., None] * z

    def log_f_hess(y, x, theta):
        z = _design(x)
        mu = _sigmoid(z @ theta)
        return -(mu * (1.0 - mu))[..., None, None] * _outer(z)

    return ConditionalFamily(log_f, log_f_grad, log_f_hess)


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
