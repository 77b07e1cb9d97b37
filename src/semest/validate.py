"""Independent numerical oracles and identity checks.

Everything here deliberately recomputes quantities the long way: central
finite differences for derivatives, exact enumeration on small discrete
instances for expectations, and Monte Carlo replication for the asymptotic
variance claim.  The checks cover the identities the estimation theory
rests on: the mixture normalization, the profile stationarity of the
nuisance block, projection-residual orthogonality, and the Schur-complement
variance formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultisampleDataset, Observation, Weights, compute_weights
from .errors import ConvergenceError, EvaluationError
from .inference import (
    InfoBlocks,
    centered_scores,
    efficient_information,
    efficient_score,
    info_blocks_moments,
    info_blocks_observed,
    standard_errors,
)
from .likelihood import (
    ArrayModel,
    FixedSubsetModel,
    aggregate_hessian,
    aggregate_score,
    evaluate,
    log_likelihood,
)
from .logistic import (
    DiscreteG,
    FullMLELogisticModel,
    casecontrol_family,
    casecontrol_weight_spec,
)
from .optimize import FitConfig, maximize
from .reparam import FStarEstimate, QVector, ReparamModel, fstar_empirical


@dataclass(frozen=True)
class FDConfig:
    """Central finite differences; steps are scaled by max(1, |x_i|)."""

    step: float = 1e-6
    hess_step: float = 1e-4

    def __post_init__(self):
        if self.step <= 0 or self.hess_step <= 0:
            raise ValueError("steps must be positive")


def fd_gradient(f, x, cfg: FDConfig | None = None):
    cfg = cfg or FDConfig()
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(len(x)):
        h = cfg.step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"non-finite sample in finite differences at {x}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def fd_hessian(f, x, cfg: FDConfig | None = None):
    cfg = cfg or FDConfig()
    x = np.asarray(x, dtype=float)
    d = len(x)
    H = np.empty((d, d))
    steps = np.array([cfg.hess_step * max(1.0, abs(xi)) for xi in x])
    for i in range(d):
        for j in range(i, d):
            hi, hj = steps[i], steps[j]
            pts = []
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xx = x.copy()
                xx[i] += si * hi
                xx[j] += sj * hj
                pts.append(f(xx))
            if not np.all(np.isfinite(pts)):
                raise EvaluationError(f"non-finite sample in finite differences at {x}")
            H[i, j] = H[j, i] = (pts[0] - pts[1] - pts[2] + pts[3]) / (4 * hi * hj)
    return H


def check_stationarity(
    model: ReparamModel,
    theta,
    dataset,
    grad_tol=1e-10,
    cfg: FitConfig | None = None,
):
    """Profile the nuisance q at fixed theta and return the sup-norm of the
    self-consistency residual max_j |sum_k Q_j(v_k) g_hat(v_k) - q_j|.

    Vacuously 0 when there is no free q (S = 1)."""
    wspec = model.wspec
    S = wspec.n_strata
    if S == 1:
        return 0.0
    theta = np.asarray(theta, dtype=float)
    full0 = np.concatenate([theta, np.zeros(S - 1)])
    free_idx = tuple(range(model.n_theta, model.n_theta + S - 1))
    inner = FixedSubsetModel(model, free_idx, full0)
    cfg = cfg or FitConfig(grad_tol=grad_tol, max_iter=200)
    fit = maximize(inner, dataset, init=np.zeros(S - 1), cfg=cfg)
    if not fit.converged:
        raise ConvergenceError(
            f"inner q-maximization did not converge (grad_norm={fit.grad_norm:.3e})"
        )
    q = QVector.from_free(np.exp(fit.params))
    fstar = model.fstar
    w = model.weights.w
    Qmat = np.array([wspec.q_weight(v, theta) for v in fstar.support])  # (K, S)
    denom = (Qmat / q.q) @ w
    ghat = fstar.values / denom
    resid = Qmat.T @ ghat - q.q
    return float(np.max(np.abs(resid)))


@dataclass(frozen=True)
class ToyInstance:
    """A fully enumerable two-stratum case-control logistic instance:
    finite covariate support, covariate distribution g, and regression
    truth (alpha, beta)."""

    support: np.ndarray
    g: np.ndarray
    alpha: float
    beta: np.ndarray
    weights: Weights
    labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "support", np.atleast_2d(np.asarray(self.support, float)))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, float)))
        if abs(self.g.sum() - 1.0) > 1e-12 or np.any(self.g <= 0):
            raise ValueError("g must be a strictly positive probability vector")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"x{i+1}" for i in range(self.support.shape[1]))
            )

    @property
    def theta(self):
        return np.concatenate([[self.alpha], self.beta])

    def response_probs(self, y):
        """f(y | v_k; alpha, beta) over the support."""
        eta = self.alpha + self.support @ self.beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        return mu if y == 1 else 1.0 - mu

    def stratum_prob(self, s):
        """Q_s = P(Y = s - 1)."""
        return float(self.response_probs(s - 1) @ self.g)

    def cond_probs(self, s):
        """P(X = v_k | stratum s)."""
        f = self.response_probs(s - 1)
        return f * self.g / (f @ self.g)

    def population_fstar(self):
        values = np.zeros(len(self.g))
        for s in (1, 2):
            values += self.weights.w[s - 1] * self.cond_probs(s)
        return FStarEstimate(self.support, values)

    def mle_params(self):
        """Parameter vector of the discrete-g MLE model at the truth."""
        return np.concatenate([self.theta, DiscreteG.from_g(self.g)])


def brute_force_info(toy: ToyInstance, params=None, max_outcomes=10_000):
    """Exact population information blocks for the discrete-g model on the
    toy instance, by enumeration of every (stratum, support point) outcome,
    with I* from an explicit Schur complement.

    Returns (InfoBlocks, I*)."""
    model = FullMLELogisticModel(toy.support, toy.labels)
    params = toy.mle_params() if params is None else np.asarray(params, dtype=float)
    S, K = 2, len(toy.support)
    if S * K > max_outcomes:
        raise ValueError(f"enumeration too large: {S * K} outcomes")
    d = model.n_params
    full = np.zeros((d, d))
    for s in (1, 2):
        probs = toy.cond_probs(s)
        scores = np.array(
            [model.score(Observation(s, v, float(s - 1)), params) for v in toy.support]
        )
        mean = probs @ scores
        centered = scores - mean
        full += toy.weights.w[s - 1] * (centered * probs[:, None]).T @ centered
    i = list(model.interest_idx)
    j = list(model.nuisance_idx)
    blocks = InfoBlocks(
        full[np.ix_(i, i)], full[np.ix_(i, j)], full[np.ix_(j, j)], 0, "enumeration"
    )
    istar = blocks.I11 - blocks.I12 @ np.linalg.inv(blocks.I22) @ blocks.I12.T
    return blocks, 0.5 * (istar + istar.T)


def enumerated_centered_scores(toy: ToyInstance, params=None):
    """CenteredScores whose 'multiplicities' are the exact outcome
    probabilities, so moment blocks computed from them are population
    expectations (a second route to the same matrices, through the array
    pass over all (stratum, support point) outcomes at once)."""
    from .inference import CenteredScores

    model = FullMLELogisticModel(toy.support, toy.labels)
    params = toy.mle_params() if params is None else np.asarray(params, dtype=float)
    K = len(toy.support)
    outcomes = MultisampleDataset.from_columns(
        np.vstack([toy.support] * 2), np.repeat([1, 2], K), np.ones(2 * K)
    )
    scores = evaluate(model, params, outcomes, 1).reshape(2, K, -1)
    probs = np.array([toy.cond_probs(1), toy.cond_probs(2)])
    centered = scores - np.einsum("sk,skd->sd", probs, scores)[:, None, :]
    return CenteredScores(
        centered.reshape(2 * K, -1),
        outcomes.sample,
        probs.ravel(),
        tuple(model.interest_idx),
        tuple(model.nuisance_idx),
    )


def simulate(toy: ToyInstance, sizes, rng) -> MultisampleDataset:
    """Draw a grouped case-control dataset: ``sizes[s-1]`` units per
    stratum, covariate cells multinomial within stratum."""
    counts = np.array([rng.multinomial(sizes[s], toy.cond_probs(s + 1)) for s in (0, 1)])
    stratum, k = np.nonzero(counts)
    return MultisampleDataset.from_columns(
        toy.support[k], stratum + 1, counts[stratum, k], n_samples=2
    )


@dataclass
class MonteCarloReport:
    labels: tuple
    n_rep: int
    sizes: tuple
    seed: int
    empirical_sd: np.ndarray
    mean_model_se: np.ndarray
    n_failed: int = 0

    @property
    def sd_se_ratio(self):
        return self.empirical_sd / self.mean_model_se

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "n_rep": self.n_rep,
            "sizes": list(self.sizes),
            "seed": self.seed,
            "empirical_sd": [float(v) for v in self.empirical_sd],
            "mean_model_se": [float(v) for v in self.mean_model_se],
            "sd_se_ratio": [float(v) for v in self.sd_se_ratio],
            "n_failed": self.n_failed,
        }


def monte_carlo_variance(
    toy: ToyInstance,
    sizes=(260, 260),
    n_rep=500,
    seed=0,
    cfg: FitConfig | None = None,
    max_failure_rate=0.01,
) -> MonteCarloReport:
    """Replicate the identifiable-reparametrization fit on simulated
    case-control data and compare the empirical spread of the slope
    estimates with the mean model-based standard error.

    Deterministic for a fixed seed (PCG64 with per-replicate spawned
    streams, aggregated in replicate order)."""
    from .logistic import build_identifiable_model

    cfg = cfg or FitConfig()
    seeds = np.random.SeedSequence(seed).spawn(n_rep)
    coefs, ses = [], []
    failures = []
    for r in range(n_rep):
        rng = np.random.default_rng(seeds[r])
        dataset = simulate(toy, sizes, rng)
        weights = compute_weights(dataset)
        model = build_identifiable_model(weights, toy.labels)
        try:
            fit = maximize(model, dataset, cfg=cfg)
        except EvaluationError as exc:
            failures.append((r, str(exc)))
            continue
        if not fit.converged:
            failures.append((r, f"grad_norm={fit.grad_norm:.3e}"))
            continue
        blocks = info_blocks_observed(model, fit, dataset)
        istar = efficient_information(blocks)
        se, _, _ = standard_errors(istar, dataset.n)
        coefs.append(fit.params[list(model.interest_idx)])
        ses.append(se)
    if len(failures) > max_failure_rate * n_rep:
        raise ConvergenceError(
            f"{len(failures)}/{n_rep} replicate fits failed; first: {failures[:3]}"
        )
    coefs = np.array(coefs)
    ses = np.array(ses)
    return MonteCarloReport(
        labels=toy.labels,
        n_rep=n_rep,
        sizes=tuple(sizes),
        seed=seed,
        empirical_sd=coefs.std(axis=0, ddof=1),
        mean_model_se=ses.mean(axis=0),
        n_failed=len(failures),
    )


def casecontrol_reparam_model(dataset, weights=None, include_fstar=False):
    """Generic reparametrized model (theta = (alpha, beta), nuisance
    q = (q_1, 1)) for a two-stratum case-control dataset."""
    weights = weights or compute_weights(dataset)
    wspec = casecontrol_weight_spec(dataset.p)
    family = casecontrol_family()
    fstar = fstar_empirical(dataset, weights)
    labels = ("alpha",) + tuple(f"x{i+1}" for i in range(dataset.p))
    return ReparamModel(wspec, family, fstar, weights, labels, include_fstar=include_fstar)


# ---------------------------------------------------------------------------
# Validation suite (drives the CLI `validate` subcommand)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _BrokenScoreModel(ArrayModel):
    """Negative-control wrapper: corrupts one score component."""

    def __init__(self, base):
        self.base = base
        self.param_labels = base.param_labels
        self.interest_idx = base.interest_idx

    def evaluate(self, params, data, order):
        out = evaluate(self.base, params, data, order)
        if order == 1:
            out = out.copy()
            out[:, 0] += 0.1
        return out


def _random_admissible(rng, dim, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=dim)


def run_suite(seed=0, mc=False, reps=500, inject_broken_score=False, progress=None):
    """Run the full identity/oracle suite on the bundled dataset.  Returns
    a list of CheckResult; the optional Monte Carlo stage appends its
    variance report as a final entry."""
    from .logistic import (
        build_full_mle_model,
        build_identifiable_model,
        build_nonidentifiable_model,
        leprosy_dataset,
    )
    from .reparam import check_normalization

    rng = np.random.default_rng(seed)
    results = []
    dataset = leprosy_dataset()
    weights = compute_weights(dataset)
    fdcfg = FDConfig()

    models = {
        "identifiable": build_identifiable_model(weights),
        "non-identifiable": build_nonidentifiable_model(weights),
        "full-mle": build_full_mle_model(dataset),
        "reparam-generic": casecontrol_reparam_model(dataset, weights),
    }
    if inject_broken_score:
        models["identifiable"] = _BrokenScoreModel(models["identifiable"])

    # 1. finite-difference agreement, 20 random points per model
    for name, model in models.items():
        worst_g, worst_h = 0.0, 0.0
        for _ in range(20):
            x = _random_admissible(rng, model.n_params, scale=0.5)
            f = lambda p: log_likelihood(model, p, dataset)
            g = aggregate_score(model, x, dataset)
            g_fd = fd_gradient(f, x, fdcfg)
            scale_g = max(1.0, float(np.max(np.abs(g_fd))))
            worst_g = max(worst_g, float(np.max(np.abs(g - g_fd))) / scale_g)
            h = aggregate_hessian(model, x, dataset)
            h_fd = fd_hessian(f, x, fdcfg)
            scale_h = max(1.0, float(np.max(np.abs(h_fd))))
            worst_h = max(worst_h, float(np.max(np.abs(h - h_fd))) / scale_h)
        results.append(
            CheckResult(
                f"fd-score[{name}]", worst_g < 1e-6, f"max rel err {worst_g:.2e}"
            )
        )
        results.append(
            CheckResult(
                f"fd-hessian[{name}]", worst_h < 1e-5, f"max rel err {worst_h:.2e}"
            )
        )

    # 2. mixture normalization at 50 random (theta, q)
    reparam = models["reparam-generic"]
    worst = 0.0
    for _ in range(50):
        theta = _random_admissible(rng, reparam.n_theta, scale=2.0)
        q = QVector.from_free(np.exp(rng.uniform(-1.5, 1.5, size=1)))
        val = check_normalization(reparam.wspec, theta, q, reparam.fstar, weights)
        worst = max(worst, abs(val - 1.0))
    results.append(
        CheckResult("normalization", worst < 1e-12, f"max |sum - 1| = {worst:.2e}")
    )

    # 3. nuisance stationarity on a 5-point theta grid
    fit_id = maximize(models["identifiable"] if not inject_broken_score else build_identifiable_model(weights), dataset)
    theta_hat = fit_id.params  # (alpha*, beta): a sensible center for (alpha, beta)
    worst = 0.0
    for delta in (-0.2, -0.1, 0.0, 0.1, 0.2):
        theta = theta_hat + delta
        worst = max(worst, check_stationarity(reparam, theta, dataset))
    results.append(
        CheckResult("stationarity", worst < 1e-8, f"max residual {worst:.2e}")
    )

    # 4 + 5. orthogonality and Schur identity at every fitted model
    from .analysis import METHODS, fit_method

    for method in METHODS:
        fit, report, model = fit_method(dataset, method)
        cs = centered_scores(model, fit.params, dataset)
        blocks = info_blocks_moments(cs, weights, n=dataset.n)
        try:
            lstar = efficient_score(cs, blocks)
            w_obs = (
                weights.w[cs.sample - 1] * cs.multiplicity
                / dataset.sample_sizes[cs.sample - 1]
            )
            cov = (lstar * w_obs[:, None]).T @ cs.l2c
            worst = float(np.max(np.abs(cov))) if cov.size else 0.0
            results.append(
                CheckResult(
                    f"orthogonality[{method}]", worst < 1e-10, f"max |cov| {worst:.2e}"
                )
            )
        except Exception as exc:  # singular nuisance block etc.
            results.append(CheckResult(f"orthogonality[{method}]", False, str(exc)))
        obs_blocks = info_blocks_observed(model, fit, dataset)
        results.append(_schur_check(method, obs_blocks))

    # 6. brute-force enumeration vs inference formulas on a toy instance
    toy = ToyInstance(
        support=[[0.0], [1.0]],
        g=[0.4, 0.6],
        alpha=0.3,
        beta=[np.log(2.0)],
        weights=Weights([0.5, 0.5]),
    )
    blocks_bf, istar_bf = brute_force_info(toy)
    cs_enum = enumerated_centered_scores(toy)
    blocks_inf = info_blocks_moments(cs_enum, toy.weights, n=1)
    istar_inf = efficient_information(blocks_inf)
    diff = max(
        float(np.max(np.abs(blocks_bf.full() - blocks_inf.full()))),
        float(np.max(np.abs(istar_bf - istar_inf))),
    )
    results.append(
        CheckResult("brute-force-info", diff < 1e-12, f"max |diff| {diff:.2e}")
    )

    if mc:
        design = default_mc_design()
        report = monte_carlo_variance(design, sizes=(260, 260), n_rep=reps, seed=seed)
        ratios = report.sd_se_ratio
        ok = bool(np.all((ratios > 0.9) & (ratios < 1.1)))
        results.append(
            CheckResult(
                "monte-carlo sd/SE",
                ok,
                " ".join(f"{lab}={r:.4f}" for lab, r in zip(report.labels, ratios)),
            )
        )
        results.append(CheckResult("monte-carlo report", True, str(report.to_dict())))
    return results


def schur_identity_gap(blocks):
    """Relative gap between inv(Schur complement) and the interest block of
    the inverse of the full information.

    On fits with an exactly flat ridge the full matrix has a null
    direction along which neither inverse is defined; such directions are
    deflated (shifted to the top of the spectrum) first, which leaves the
    identity on the identified subspace intact and exact."""
    full = blocks.full()
    eigvals, eigvecs = np.linalg.eigh(full)
    scale = float(np.max(np.abs(eigvals)))
    null = eigvecs[:, np.abs(eigvals) < 1e-12 * scale]
    deflated = full + scale * null @ null.T
    k = blocks.I11.shape[0]
    d11, d12, d22 = deflated[:k, :k], deflated[:k, k:], deflated[k:, k:]
    def_blocks = InfoBlocks(d11, d12, d22, blocks.n, blocks.source)
    istar = efficient_information(def_blocks)
    inv_schur = np.linalg.inv(istar)
    inv_full = np.linalg.inv(deflated)[:k, :k]
    denom = max(1.0, float(np.max(np.abs(inv_full))))
    return float(np.max(np.abs(inv_schur - inv_full))) / denom


def _schur_check(method, blocks):
    try:
        diff = schur_identity_gap(blocks)
        return CheckResult(
            f"schur-identity[{method}]", diff < 1e-10, f"max rel diff {diff:.2e}"
        )
    except Exception as exc:
        return CheckResult(f"schur-identity[{method}]", False, str(exc))


def default_mc_design() -> ToyInstance:
    """A case-control design shaped like the bundled data (its covariate
    support and pooled covariate distribution) with a fixed known truth.

    The truth is deliberately milder than the fitted slopes: a steep
    coefficient on the inverse-square age covariate empties the young-age
    case cells and skews the slope sampling distribution at n = 520, which
    is small-sample behavior rather than a variance-formula property."""
    from .logistic import leprosy_dataset

    dataset = leprosy_dataset()
    return ToyInstance(
        support=dataset.support,
        g=dataset.pooled_freq,
        alpha=1.0,
        beta=[-0.3, -1.5],
        weights=Weights([0.5, 0.5]),
        labels=("Scar", "Age"),
    )
