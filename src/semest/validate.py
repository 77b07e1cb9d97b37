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

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .analysis import METHODS, build_method
from .data import MultisampleDataset, Observation, Weights, compute_weights, observation_rows
from .errors import ConvergenceError, EvaluationError
from .inference import (
    InfoBlocks,
    centered_scores,
    efficient_information,
    efficient_score,
    info_blocks_moments,
    info_blocks_observed,
    partition,
    spectral_variance,
    spectrum,
)
from .likelihood import (
    ModelSpec,
    aggregate_hessian,
    aggregate_score,
    evaluate,
)
from .logistic import (
    DiscreteG,
    FullMLELogisticModel,
    build_identifiable_model,
    casecontrol_reparam_model,
    leprosy_dataset,
)
from .optimize import maximize
from .reparam import (
    FStarEstimate, QVector, ReparamModel, check_normalization, fixed_point_q,
)
from .structured import dense


FD_STEP = 1e-6  # central-difference step of fd_gradient, times max(1, |x_i|)
FD_HESS_STEP = 1e-4  # the same for fd_hessian
MAX_OUTCOMES = 10_000  # the most (stratum, support point) outcomes brute_force_info enumerates
MAX_FAILURE_RATE = 0.01  # the share of failed Monte Carlo replicate fits that aborts the study


def _require_finite(vals, x):
    """EvaluationError naming the first point of ``x`` with a non-finite sample."""
    ok = np.isfinite(vals.reshape(x.shape[:-1] + (-1,))).all(axis=-1)
    if not np.all(ok):
        at = x[np.argmin(ok)] if x.ndim > 1 else x
        raise EvaluationError(f"non-finite sample in finite differences at {at}")


def fd_gradient(f, x):
    """Central-difference gradient of ``f`` at ``x`` (d,), or at each point
    of a stack (R, d).  ``f`` maps a stack of points (P, d) to their values
    (P,); it is called once, on all 2d points x +- h_i e_i of every x."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    # rows 2i and 2i + 1 move coordinate i by +h_i and -h_i
    i = np.repeat(np.arange(d), 2)
    pts = np.repeat(x[..., None, :], 2 * d, axis=-2)
    pts[..., np.arange(2 * d), i] += np.tile([1.0, -1.0], d) * h[..., i]
    vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(x.shape[:-1] + (d, 2))
    _require_finite(vals, x)
    return (vals[..., 0] - vals[..., 1]) / (2.0 * h)


def fd_hessian(f, x):
    """Central-difference Hessian of ``f`` at ``x`` (d,) or (R, d) from the
    four points x +- h_i e_i +- h_j e_j of every pair i <= j; ``f`` is
    called once, on all of them (see ``fd_gradient``)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    steps = FD_HESS_STEP * np.maximum(1.0, np.abs(x))
    # the pairs i <= j; rows 4p .. 4p + 3 are the four points of pair p,
    # moved by (+, +), (+, -), (-, +) and (-, -) steps along i and j
    i, j = np.triu_indices(d)
    ii, jj, rows = np.repeat(i, 4), np.repeat(j, 4), np.arange(4 * len(i))
    pts = np.repeat(x[..., None, :], len(ii), axis=-2)
    # two updates, so that i == j moves twice
    pts[..., rows, ii] += np.tile([1.0, 1.0, -1.0, -1.0], len(i)) * steps[..., ii]
    pts[..., rows, jj] += np.tile([1.0, -1.0, 1.0, -1.0], len(i)) * steps[..., jj]
    vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(x.shape[:-1] + (-1, 4))
    _require_finite(vals, x)
    H = np.empty(x.shape[:-1] + (d, d))
    H[..., i, j] = H[..., j, i] = (vals[..., 0] - vals[..., 1] - vals[..., 2] + vals[..., 3]) / (
        4 * steps[..., i] * steps[..., j]
    )
    return H


def check_stationarity(model: ReparamModel, theta, dataset, tol=1e-10):
    """Profile the nuisance q at fixed theta by the self-consistency fixed
    point (to ``tol``) and return the likelihood's log-q score there,
    max_j |d loglik / d log q_j| / n.

    The fixed point solves the self-consistency equations, the score comes
    from the model's likelihood: a model whose q-profile is not the
    self-consistency point shows a nonzero score.  Vacuously 0 when there
    is no free q (S = 1)."""
    if len(model.weights) == 1:
        return 0.0
    theta = np.asarray(theta, dtype=float)
    q = fixed_point_q(model.wspec, theta, model.fstar, model.weights, tol=tol)
    score = aggregate_score(model, np.concatenate([theta, np.log(q.free)]), dataset)
    return float(np.max(np.abs(score[model.n_theta :]))) / dataset.n


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

    def cond_probs(self, s):
        """P(X = v_k | stratum s)."""
        f = self.response_probs(s - 1)
        return f * self.g / (f @ self.g)

    def population_fstar(self):
        values = np.zeros(len(self.g))
        for s in (1, 2):
            values += self.weights.w[s - 1] * self.cond_probs(s)
        return FStarEstimate(self.support, values)

    def mle_model(self):
        """The discrete-g MLE model with its intercept free (the identity
        map): the population information at the truth has alpha in it."""
        return FullMLELogisticModel(self.support, ("alpha",) + self.labels, np.eye(len(self.theta)))

    def mle_params(self):
        """Parameter vector of ``mle_model`` at the truth."""
        return np.concatenate([self.theta, DiscreteG.from_g(self.g)])


def brute_force_info(toy: ToyInstance, params=None):
    """Exact population information blocks for the discrete-g model on the
    toy instance, by enumeration of every (stratum, support point) outcome,
    with I* from an explicit Schur complement.

    Returns (InfoBlocks, I*)."""
    S, K = 2, len(toy.support)
    if S * K > MAX_OUTCOMES:
        raise ValueError(f"enumeration too large: {S * K} outcomes")
    model = toy.mle_model()
    params = toy.mle_params() if params is None else np.asarray(params, dtype=float)
    d = model.n_params
    full = np.zeros((d, d))
    for s in (1, 2):
        probs = toy.cond_probs(s)
        scores = np.array([
            evaluate(model, params, observation_rows(Observation(s, v)), 1)[0]
            for v in toy.support
        ])
        mean = probs @ scores
        centered = scores - mean
        full += toy.weights.w[s - 1] * (centered * probs[:, None]).T @ centered
    i = list(model.interest_idx)
    j = list(model.nuisance_idx)
    blocks = InfoBlocks(full[np.ix_(i, i)], full[np.ix_(i, j)], full[np.ix_(j, j)])
    istar = blocks.I11 - blocks.I12 @ np.linalg.inv(blocks.I22) @ blocks.I12.T
    return blocks, 0.5 * (istar + istar.T)


def enumerated_centered_scores(toy: ToyInstance, params=None):
    """CenteredScores whose 'multiplicities' are the exact outcome
    probabilities, so moment blocks computed from them are population
    expectations (a second route to the same matrices, through the array
    pass over all (stratum, support point) outcomes at once)."""
    from .inference import CenteredScores

    model = toy.mle_model()
    params = toy.mle_params() if params is None else np.asarray(params, dtype=float)
    K = len(toy.support)
    outcomes = MultisampleDataset(
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


def _draw_counts(rng, sizes, probs):
    """Case-control count table (2, K): ``sizes[s]`` units of stratum s + 1,
    multinomial over the covariate support with cell probabilities
    ``probs[s]``."""
    return np.array([rng.multinomial(sizes[s], probs[s]) for s in (0, 1)])


def simulate(toy: ToyInstance, sizes, rng) -> MultisampleDataset:
    """Draw a grouped case-control dataset: ``sizes[s-1]`` units per
    stratum, covariate cells multinomial within stratum."""
    counts = _draw_counts(rng, sizes, (toy.cond_probs(1), toy.cond_probs(2)))
    stratum, k = np.nonzero(counts)
    return MultisampleDataset(
        toy.support[k], stratum + 1, counts[stratum, k], n_samples=2, labels=toy.labels
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


def replicate_fits(toy: ToyInstance, sizes=(260, 260), n_rep=500, seed=0):
    """Draw ``n_rep`` case-control count tables from ``toy`` (PCG64, one
    spawned stream per replicate, in replicate order) and fit the
    identifiable reparametrization to all of them as one batch.

    The replicates are held as counts over the shared (stratum, support
    point) cells, where an empty cell contributes nothing.  Returns
    (model, cells, fit): ``cells`` has the cell columns and the per-replicate
    multiplicities (n_rep, 2K), ``fit`` a leading n_rep axis."""
    seeds = np.random.SeedSequence(seed).spawn(n_rep)
    probs = (toy.cond_probs(1), toy.cond_probs(2))
    counts = np.array([_draw_counts(np.random.default_rng(s), sizes, probs) for s in seeds])
    K = len(toy.support)
    cells = SimpleNamespace(
        X=np.vstack([toy.support, toy.support]),
        sample=np.repeat([1, 2], K),
        y=np.repeat([0.0, 1.0], K),
        multiplicity=counts.reshape(n_rep, 2 * K),
        sample_sizes=np.asarray(sizes),
        n=int(np.sum(sizes)),
        labels=toy.labels,
    )
    model = build_identifiable_model(cells)
    init = np.tile(model.init_params(cells), (n_rep, 1))
    return model, cells, maximize(model, cells, init=init)


def monte_carlo_variance(
    toy: ToyInstance, sizes=(260, 260), n_rep=500, seed=0
) -> MonteCarloReport:
    """Replicate the identifiable-reparametrization fit on simulated
    case-control data and compare the empirical spread of the slope
    estimates with the mean model-based standard error.

    Deterministic for a fixed seed (see ``replicate_fits``).  The
    information matrices, Schur complements and standard errors of the
    converged replicates are taken as stacks."""
    model, cells, fit = replicate_fits(toy, sizes, n_rep, seed)
    failures = [(int(r), fit.warnings[r][-1]) for r in np.flatnonzero(~fit.converged)]
    if len(failures) > MAX_FAILURE_RATE * n_rep:
        raise ConvergenceError(
            f"{len(failures)}/{n_rep} replicate fits failed; first: {failures[:3]}"
        )
    kept = fit.converged
    blocks = partition(-fit.hessian[kept] / cells.n, model.interest_idx, model.nuisance_idx)
    variance, identified = spectral_variance(efficient_information(blocks))
    ses = np.where(identified, np.sqrt(variance / cells.n), np.nan)
    coefs = fit.params[kept][:, list(model.interest_idx)]
    return MonteCarloReport(
        labels=toy.labels,
        n_rep=n_rep,
        sizes=tuple(sizes),
        seed=seed,
        empirical_sd=coefs.std(axis=0, ddof=1),
        mean_model_se=ses.mean(axis=0),
        n_failed=len(failures),
    )


# ---------------------------------------------------------------------------
# Validation suite (drives the CLI `validate` subcommand)
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _below(value, bound, what):
    """A check's outcomes when its value must stay below ``bound`` (a NaN fails)."""
    return [(value < bound, f"{what} {value:.2e}")]


def _row_sum_loglik(model, params, dataset):
    """Total log-likelihood of a stack (P, d) as the multiplicity-weighted
    sum of the per-row log-densities (the default ``ModelSpec.totals``), so
    that the finite differences check a model's closed-form totals too."""
    with np.errstate(all="ignore"):
        return ModelSpec.totals(model, params, dataset, 0)


def _rel_err(value, fd):
    """max |value - fd| at each point of a stack, relative to max(1, max |fd|) there."""
    fd = fd.reshape(len(fd), -1)
    gap = np.max(np.abs(value.reshape(fd.shape) - fd), axis=1)
    return gap / np.maximum(1.0, np.max(np.abs(fd), axis=1))


def _totals_gap(model, x, dataset):
    """The relative gap at each point of a stack between ``totals`` at orders
    0 and 1 and the multiplicity-weighted sums of ``evaluate``'s rows."""
    with np.errstate(all="ignore"):
        return np.max([_rel_err(model.totals(x, dataset, k), ModelSpec.totals(model, x, dataset, k))
                       for k in (0, 1)], axis=0)


def _fd_outcomes(model, x, dataset):
    """Finite-difference agreement of the score and Hessian, and closed-form
    totals against the row sums, at a stack of points ``x``, one call per
    quantity; every worst value is an np.max, which keeps a NaN (a failure)."""
    f = lambda p: _row_sum_loglik(model, p, dataset)
    g = aggregate_score(model, x, dataset)
    h = dense(aggregate_hessian(model, x, dataset))
    errs = [_rel_err(g, fd_gradient(f, x)), _rel_err(h, fd_hessian(f, x)),
            _totals_gap(model, x, dataset)]
    worst_g, worst_h, worst_t = np.max(errs, axis=1)
    return [*_below(worst_g, 1e-6, "max rel err"), *_below(worst_h, 1e-5, "max rel err"),
            *_below(worst_t, 1e-12, "max rel gap")]


def _generic_gap(model, nonid_fit, dataset):
    """Relative gap between the slopes of the generic model's fit and those
    of the specialised ``reparam-nonid`` fit."""
    slopes = maximize(model, dataset).require_converged().params[1 : model.n_theta]
    ref = nonid_fit.params[1 : model.n_theta]
    return float(np.max(np.abs(slopes - ref))) / float(np.max(np.abs(ref)))


def _orthogonality_gap(model, params, dataset, weights):
    """max |cov(efficient score, centered nuisance scores)| at ``params``,
    each sample's rows weighted by w_s / n_s."""
    cs = centered_scores(model, params, dataset)
    lstar = efficient_score(cs, info_blocks_moments(cs, weights))
    w_obs = weights.w[cs.sample - 1] * cs.multiplicity / dataset.sample_sizes[cs.sample - 1]
    cov = (lstar * w_obs[:, None]).T @ cs.l2c
    return float(np.max(np.abs(cov))) if cov.size else 0.0


def run_suite(seed=0, mc=False, reps=500):
    """Run the full identity/oracle suite on the bundled dataset.  Returns
    a list of CheckResult; the optional Monte Carlo stage appends its
    variance report as a final entry.

    Each method's model is built and fitted once; the finite-difference,
    stationarity, orthogonality and Schur checks all read those objects.
    A check that raises fails with its message, and the suite goes on."""
    rng = np.random.default_rng(seed)
    results = []
    dataset = leprosy_dataset()
    weights = compute_weights(dataset)

    def run(names, check):
        """Append a CheckResult per name from ``check()``, which gives a
        (passed, detail) pair per name, or, if it raises, a failure carrying its message."""
        try:
            outcomes = check()
        except Exception as exc:  # a singular block, a fixed point that does not converge
            outcomes = [(False, str(exc))] * len(names)
        results.extend(CheckResult(name, *outcome) for name, outcome in zip(names, outcomes))

    models = {method: build_method(dataset, method) for method in METHODS}
    fd_models = {
        "identifiable": models["reparam-id"],
        "non-identifiable": models["reparam-nonid"],
        "full-mle": models["mle"],
        "reparam-generic": casecontrol_reparam_model(dataset),
    }

    # 1. finite differences and totals at a stack of 20 random points per model
    for name, model in fd_models.items():
        x = 0.5 * rng.uniform(-1.0, 1.0, size=(20, model.n_params))
        run([f"fd-score[{name}]", f"fd-hessian[{name}]", f"totals-vs-rows[{name}]"],
            lambda: _fd_outcomes(model, x, dataset))

    # 2. mixture normalization at 50 random (theta, q)
    reparam = fd_models["reparam-generic"]

    def normalization():
        gaps = []
        for _ in range(50):
            theta = 2.0 * rng.uniform(-1.0, 1.0, size=reparam.n_theta)
            q = QVector.from_free(np.exp(rng.uniform(-1.5, 1.5, size=1)))
            gaps.append(check_normalization(reparam.wspec, theta, q, reparam.fstar, weights) - 1.0)
        return _below(np.max(np.abs(gaps)), 1e-12, "max |sum - 1| =")
    run(["normalization"], normalization)

    # 3. nuisance stationarity on a 5-point theta grid around the reparam-id
    # fit's (alpha*, beta), a sensible center for (alpha, beta)
    fits = {method: maximize(model, dataset) for method, model in models.items()}
    center, mle = fits["reparam-id"].params, models["mle"]
    run(["stationarity"], lambda: _below(np.max([check_stationarity(
        reparam, center + delta, dataset) for delta in (-0.2, -0.1, 0.0, 0.1, 0.2)]),
        1e-8, "max |score_log_q| / n"))

    # the image of the reparam-id fit is a stationary point of the joint likelihood
    run(["profile-image[mle]"], lambda: _below(np.max(np.abs(aggregate_score(
        mle, mle.profile_image(dataset, center), dataset))) / dataset.n, 1e-10, "max |score| / n"))

    # the generic model, fitted, against the specialised reparam-nonid fit
    run(["generic-vs-specialised"], lambda: _below(
        _generic_gap(reparam, fits["reparam-nonid"], dataset), 1e-8, "slopes max rel diff"))

    # 4 + 5. orthogonality and Schur identity at every fitted model
    for method, model in models.items():
        run([f"orthogonality[{method}]"], lambda: _below(
            _orthogonality_gap(model, fits[method].params, dataset, weights), 1e-10, "max |cov|"))
        run([f"schur-identity[{method}]"], lambda: _below(schur_identity_gap(
            info_blocks_observed(model, fits[method], dataset)), 1e-10, "max rel diff"))

    # 6. brute-force enumeration vs inference formulas on a toy instance
    def brute_force():
        toy = ToyInstance(support=[[0.0], [1.0]], g=[0.4, 0.6], alpha=0.3, beta=[np.log(2.0)],
                          weights=Weights([0.5, 0.5]))
        blocks_bf, istar_bf = brute_force_info(toy)
        blocks_inf = info_blocks_moments(enumerated_centered_scores(toy), toy.weights)
        istar_inf = efficient_information(blocks_inf)
        diff = max(float(np.max(np.abs(blocks_bf.full() - blocks_inf.full()))),
                   float(np.max(np.abs(istar_bf - istar_inf))))
        return _below(diff, 1e-12, "max |diff|")
    run(["brute-force-info"], brute_force)

    if mc:
        def monte_carlo():
            study = monte_carlo_variance(default_mc_design(), (260, 260), n_rep=reps, seed=seed)
            ratios = study.sd_se_ratio
            ok = bool(np.all((ratios > 0.9) & (ratios < 1.1)))
            detail = " ".join(f"{lab}={r:.4f}" for lab, r in zip(study.labels, ratios))
            return [(ok, detail), (True, str(study.to_dict()))]
        run(["monte-carlo sd/SE", "monte-carlo report"], monte_carlo)
    return results


def schur_identity_gap(blocks):
    """Relative gap between inv(Schur complement) and the interest block of
    the inverse of the full information.

    On fits with an exactly flat ridge the full matrix has a null
    direction along which neither inverse is defined; such directions are
    deflated (shifted to the top of the spectrum) first, which leaves the
    identity on the identified subspace intact and exact."""
    full = blocks.full()
    values, vectors, keep = spectrum(full, "full information")
    null = vectors[:, ~keep]
    deflated = full + values[-1] * null @ null.T
    k = blocks.I11.shape[0]
    d11, d12, d22 = deflated[:k, :k], deflated[:k, k:], deflated[k:, k:]
    def_blocks = InfoBlocks(d11, d12, d22)
    istar = efficient_information(def_blocks)
    inv_schur = np.linalg.inv(istar)
    inv_full = np.linalg.inv(deflated)[:k, :k]
    denom = max(1.0, float(np.max(np.abs(inv_full))))
    return float(np.max(np.abs(inv_schur - inv_full))) / denom


def default_mc_design() -> ToyInstance:
    """A case-control design shaped like the bundled data (its covariate
    support and pooled covariate distribution) with a fixed known truth.

    The truth is deliberately milder than the fitted slopes: a steep
    coefficient on the inverse-square age covariate empties the young-age
    case cells and skews the slope sampling distribution at n = 520, which
    is small-sample behavior rather than a variance-formula property."""
    dataset = leprosy_dataset()
    return ToyInstance(
        support=dataset.support,
        g=dataset.pooled_freq,
        alpha=1.0,
        beta=[-0.3, -1.5],
        weights=Weights([0.5, 0.5]),
        labels=("Scar", "Age"),
    )
