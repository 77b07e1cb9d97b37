"""Case-control (two-stratum stratified) logistic regression models.

Three builders for the same design, each an array model evaluated over all
rows at once:

* ``build_full_mle_model`` -- joint maximum likelihood over the slopes and
  the discrete covariate distribution g on the observed support (softmax
  coordinates, last one pinned to 0); the intercept, not identified under
  case-control sampling, is not a parameter;
* ``build_identifiable_model`` -- the reparametrized submodel in
  (alpha_star, beta), alpha_star = alpha + log rho1: identifiable, and
  algebraically a prospective logistic fit with a fixed intercept offset;
* ``build_nonidentifiable_model`` -- (alpha, beta, log rho1): the
  identifiable model through the fixed map A = [I | e0], so the likelihood
  depends on (alpha, log rho1) only through their sum, an exactly flat ridge.

Each builder takes a two-sample dataset alone (the sample weights
w_s = n_s / n and the covariate labels come from it) and an optional
``basis`` B: the parameters are then z, with (alpha, beta) = B z (the
``mle`` pins z_0 = 0), and every closed form reads the design (1, x) B.
Strata: sample 1 = controls (y = 0), sample 2 = cases (y = 1).  Covariates
are stored as (scar, transformed age) for the bundled leprosy data.

``casecontrol_reparam_model`` builds the generic ``ReparamModel`` of the
same design from ``casecontrol_weight_spec`` and ``casecontrol_family``.
"""

from __future__ import annotations

import numpy as np

from .data import (
    MultisampleDataset, Weights, _casecontrol_dataset, compute_weights, support_positions,
)
from .errors import DataError
from .likelihood import ModelSpec
from .reparam import ReparamModel, _design, fstar_empirical
from .structured import DiagPlusLowRank, StructuredHessian, _t, _vecmat


def transform_age(age):
    """Covariate transform 100 (age + 7.5)^-2."""
    age = np.asarray(age, dtype=float)
    if np.any(age <= -7.5):
        raise DataError("age must exceed -7.5")
    out = 100.0 / (age + 7.5) ** 2
    return float(out) if out.ndim == 0 else out


def _sigmoid_pair(t):
    """mu = 1 / (1 + e^-t) and its complement 1 - mu, both from one
    exp(-|t|): each keeps its relative precision where the other rounds
    to 1, for any sign of t."""
    e = np.exp(-np.abs(t))
    up, d = t >= 0, 1.0 + e
    return np.where(up, 1.0, e) / d, np.where(up, e, 1.0) / d


def _log1pexp(t):
    return np.logaddexp(0.0, t)


class CaseControlLogisticModel(ModelSpec):
    """Reparametrized case-control logistic model.  Estimation-mode
    log-density y u - log(w0 + w1 e^u) with u = z' M params, z = (1, x) and
    M a fixed (1+p, d) map from the parameters to (alpha_star, beta): I, A
    (see the module docstring), or either composed with a basis.

    Every order takes a stack of parameter vectors, with per-vector row
    multiplicities (the Monte Carlo replicates fitted as one batch).  The
    linear predictor u, t = u + log w1 - log w0, exp(-|t|) and the fitted
    probabilities of the last point evaluated are kept for the next call at
    the same point.
    """

    def __init__(self, weights: Weights, param_labels, interest_idx, design_map):
        self.param_labels = tuple(param_labels)
        self.interest_idx = tuple(interest_idx)
        self._map = design_map
        self._log_w0 = np.log(weights.w[0])
        self._log_w1 = np.log(weights.w[1])
        self._X = self._Z = None  # the last covariate array seen, and its design
        self._key = self._point = self._mu = None  # the last point on it, (u, t, e) and mu

    def _at(self, params, data):
        """The design Z of ``data`` and u, t and e = exp(-|t|) at ``params``."""
        if data.X is not self._X:  # a fit evaluates one dataset many times
            self._X, self._Z, self._key = data.X, _design(data.X) @ self._map, None
        key = (params.shape, params.tobytes())
        if key != self._key:  # a Newton step evaluates one point at orders 0, 1, 2
            u = (self._Z @ params[..., None])[..., 0]
            t = u + self._log_w1 - self._log_w0
            self._key, self._point, self._mu = key, (u, t, np.exp(-np.abs(t))), None
        return self._Z, self._point

    def _fitted(self, params, data):
        """Z and mu = w1 e^u / (w0 + w1 e^u) at ``params``, from the cached e."""
        Z, (_, t, e) = self._at(params, data)
        if self._mu is None:
            self._mu = np.where(t >= 0, 1.0, e) / (1.0 + e)
        return Z, self._mu

    def evaluate(self, params, data, order):
        if order == 0:  # log(w0 + w1 e^u) = log w0 + max(t, 0) + log(1 + e)
            _, (u, t, e) = self._at(params, data)
            return data.y * u - (self._log_w0 + np.maximum(t, 0.0) + np.log1p(e))
        Z, mu = self._fitted(params, data)
        if order == 1:
            return (data.y - mu)[..., None] * Z
        weighted = Z * (data.multiplicity * mu * (1.0 - mu))[..., None]
        return -weighted.swapaxes(-1, -2) @ Z

    def totals(self, params, data, order):
        """The default totals, with the total score as one product with Z:
        no per-row (N, d) score array."""
        if order != 1:
            return super().totals(params, data, order)
        Z, mu = self._fitted(params, data)
        return _vecmat(data.multiplicity * (data.y - mu), Z)

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
    """Parameters (theta, phi_1..phi_{K-1}), labelled ``theta_labels`` and
    phi1.., with (alpha, beta) = M theta for a fixed (1+p, q) design map M.
    Per-observation log-density log f(y|v_k) + log g_k - log sum_j f(y|v_j) g_j.

    Every per-row quantity depends on the row only through its response y
    and support point k, so the pass works on the (2, K) table of them:
    ``totals`` sums over rows with the table's counts, never forming a
    per-row array, and the (2, K) intermediates of the last point evaluated
    are kept for the next call at the same point.  Every order takes a
    stack of parameter vectors (order 2 with one set of row
    multiplicities).  Order 2 returns a ``StructuredHessian``: the phi
    block is a diagonal plus a rank-2 term, never formed as a K x K
    array."""

    def __init__(self, support, theta_labels, design_map):
        support = np.asarray(support, dtype=float)
        if len(support) < 2:
            raise DataError("need at least 2 support points to profile g")
        self.support = support
        self.K = len(support)
        self._Z = _design(support) @ design_map  # (K, q)
        self.n_theta = design_map.shape[1]
        self.param_labels = tuple(theta_labels) + tuple(f"phi{k + 1}" for k in range(self.K - 1))
        self.interest_idx = tuple(range(self.n_theta))
        self._rows = self._counts = None  # the last rows counted, and their counts
        self._key = self._point = self._slopes = None  # the last point, and its intermediates

    def _table(self, data):
        """M[y, k], the multiplicity of response y at support point k, its
        column sums (K,), row sums N (2,) and sqrt(N) (2, 1)."""
        rows = (data.X, data.sample, data.multiplicity)
        if self._rows is None or any(new is not old for new, old in zip(rows, self._rows)):
            k = support_positions(self.support, data)
            M = np.bincount(
                (data.sample - 1) * self.K + k, weights=data.multiplicity,
                minlength=2 * self.K,
            ).reshape(2, self.K)
            N = M.sum(axis=1)
            self._rows, self._counts = rows, (M, M.sum(axis=0), N, np.sqrt(N)[:, None])
        return self._counts  # a fit counts one dataset many times

    def _at(self, params):
        """g, eta, mu = f(1 | v_j), nu = 1 - mu, f (2, K) and D (2,) at
        ``params``; recomputed only when ``params`` changes."""
        key = (params.shape, params.tobytes())
        if key != self._key:  # a Newton step evaluates one point at orders 0, 1, 2
            g = DiscreteG.to_g(params[..., self.n_theta :])
            eta = (self._Z @ params[..., : self.n_theta, None])[..., 0]
            mu, nu = _sigmoid_pair(eta)
            f = np.stack([nu, mu], axis=-2)  # f(y | v_j), (2, K)
            D = (f @ g[..., None])[..., 0]  # (2,)
            self._key, self._point, self._slopes = key, (g, eta, mu, nu, f, D), None
        return self._point

    def _slopes_at(self, params):
        """a = g f / D (2, K), b = y - mu (2, K) and m = (a b) Z (2, q) at
        ``params``, computed once per point."""
        g, _, mu, nu, f, D = self._at(params)
        if self._slopes is None:
            a = g[..., None, :] * f / D[..., None]
            b = np.stack([-mu, nu], axis=-2)
            self._slopes = (a, b, (a * b) @ self._Z)
        return self._slopes

    def totals(self, params, data, order):
        """The totals over the rows of ``data`` from its count table; per-vector
        row multiplicities (P, N) are summed row by row at orders 0 and 1."""
        if order < 2 and np.ndim(data.multiplicity) == 2:
            return super().totals(params, data, order)
        M, per_point, N, root_N = self._table(data)
        Z = self._Z
        # products with the counts are row-vector products, (1, K) @ (K, .)
        # per stack item, so a vector gets the same bits alone as in a stack
        if order == 0:  # sum M log f + per_point log g - N log D
            g, eta, *_, D = self._at(params)
            return (
                _vecmat(eta, M[1][:, None])
                + _vecmat(np.log(g) - _log1pexp(eta), per_point[:, None])
                - _vecmat(np.log(D), N[:, None])
            )[..., 0]
        a, b, m = self._slopes_at(params)
        if order == 1:  # theta: (b r) Z, phi: r summed over y, r = M - N a
            # (the residual counts first: less cancellation than (M b) Z - N m)
            r = M - N[:, None] * a
            q = self.n_theta
            out = np.empty(b.shape[:-2] + (q + self.K - 1,))
            out[..., :q] = ((b * r).sum(axis=-2)[..., None, :] @ Z)[..., 0, :]
            out[..., q:] = r.sum(axis=-2)[..., :-1]
            return out
        # sum over rows of the per-row Hessian
        #   h_tt = -c_k z_k z_k' - sum_j a_j (b_j^2 - c_j) z_j z_j' + m m'
        #   h_tphi[:, j] = a_j (m - b_j z_j),  h_phiphi = a a' - diag(a)
        # with M[y, k] the multiplicity of (y, k) and N_y its row sums; the
        # phi block sums to -diag(N a) + F F' with F = (sqrt(N) a)', rank 2
        mu, nu = self._at(params)[2:4]
        c = mu * nu
        diag_w = -c * per_point - N @ (a * (b**2 - c[..., None, :]))
        h_tt = _t(Z * diag_w[..., None]) @ Z + _t(m * N[:, None]) @ m
        a_ = a[..., :-1]
        h_tphi = _t(m) @ (a_ * N[:, None]) - Z[:-1].T * (N @ (a * b))[..., None, :-1]
        tail = DiagPlusLowRank(-(N @ a_), _t(a_ * root_N), 1.0)
        return StructuredHessian(0.5 * (h_tt + _t(h_tt)), h_tphi, tail)

    def evaluate(self, params, data, order):
        if order == 2:  # a sum over rows already: the count table gives it
            return self.totals(params, data, 2)
        y = data.sample - 1
        k = support_positions(self.support, data)
        if order == 0:
            g, eta, *_, D = self._at(params)
            eta_k = eta.take(k, axis=-1)
            logf_k = y * eta_k - _log1pexp(eta_k)
            return logf_k + np.log(g.take(k, axis=-1)) - np.log(D.take(y, axis=-1))
        a, b, m = self._slopes_at(params)
        # written in place: (N, q+K-1) is the largest array of this model
        q = self.n_theta
        out = np.empty(b.shape[:-2] + (len(y), q + self.K - 1))
        out[..., :q] = b[..., y, k, None] * self._Z[k] - m[..., y, :]
        out[..., q:] = -a[..., :1, :-1]  # broadcast by sample: no (N, K-1) temporary
        out[..., y == 1, q:] = -a[..., 1:, :-1]
        own = np.flatnonzero(k < self.K - 1)
        out[..., own, q + k[own]] += 1.0
        return out


def _two_sample_weights(dataset):
    """w_s = n_s / n of a dataset with the S = 2 samples a case-control
    model needs (controls, cases); DataError names S otherwise."""
    weights = compute_weights(dataset)
    if len(weights) != 2:
        raise DataError(f"case-control models need S=2 samples, got S={len(weights)}")
    return weights


def build_identifiable_model(dataset, basis=None):
    weights = _two_sample_weights(dataset)
    labels = ("alpha*",) + dataset.labels
    design_map = np.eye(len(labels)) if basis is None else basis
    return CaseControlLogisticModel(weights, labels, range(1, len(labels)), design_map)


def build_nonidentifiable_model(dataset, basis=None):
    weights = _two_sample_weights(dataset)
    labels = ("alpha",) + dataset.labels + ("log_rho1",)
    q = len(labels) - 1
    # A = [I | e0]; with a basis, A diag(B, 1) = [B | e0]
    design_map = np.concatenate([np.eye(q) if basis is None else basis, np.eye(q, 1)], axis=1)
    return CaseControlLogisticModel(weights, labels, range(q), design_map)


def build_full_mle_model(dataset, basis=None):
    _two_sample_weights(dataset)
    # the slope columns of the basis: every intercept on the ridge has the
    # same likelihood, so the intercept is pinned at z_0 = 0
    basis = np.eye(1 + dataset.p) if basis is None else basis
    return FullMLELogisticModel(dataset.support, dataset.labels, basis[:, 1:])


def casecontrol_weight_spec(eta, order):
    """Selection weights of case-control sampling, in the protocol of
    ``ReparamModel``: Q_{s|X}(x; theta) = f(s-1 | x; theta) with
    theta = (alpha, beta), a partition of the outcome space: (1 - mu, mu)
    with mu the logistic function of eta."""
    mu, nu = _sigmoid_pair(eta)
    out = (np.stack([nu, mu], axis=-1),)
    if order >= 1:
        c = mu * nu  # d mu / d eta
        out += (np.stack([-c, c], axis=-1),)
    if order >= 2:
        c2 = c * (nu - mu)  # d2 mu / d eta2 = c (1 - 2 mu)
        out += (np.stack([-c2, c2], axis=-1),)
    return out


def casecontrol_family(y, eta, order):
    """The logistic f(y | x; (alpha, beta)), in the protocol of
    ``ReparamModel``: log f = y eta - log(1 + e^eta)."""
    out = (y * eta - _log1pexp(eta),)
    if order >= 1:
        mu, nu = _sigmoid_pair(eta)
        out += (y - mu,)
    if order >= 2:
        out += (-mu * nu,)
    return out


def casecontrol_reparam_model(dataset):
    """Generic reparametrized model (theta = (alpha, beta), nuisance
    q = (q_1, 1)) for a two-stratum case-control dataset, with the sample
    weights and covariate labels of the dataset."""
    weights = compute_weights(dataset)
    fstar = fstar_empirical(dataset, weights)
    return ReparamModel(
        casecontrol_weight_spec, casecontrol_family, fstar, weights,
        ("alpha",) + dataset.labels,
    )


# Leprosy case-control table, 14 rows (7 ages x 2 scar levels): (age, scar, cases, controls)
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
    age, scar, cases, controls = np.array(LEPROSY_TABLE).T
    counts = np.column_stack([controls, cases]).astype(int)
    return _casecontrol_dataset(transform_age(age), scar, counts)
