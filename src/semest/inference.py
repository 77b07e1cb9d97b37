"""Efficient score, efficient information, and standard errors.

The interest-block asymptotic variance is the inverse of the Schur
complement I* = I11 - I12 I22^{-1} I21 of the nuisance block.  Blocks come
either from the observed Hessian at the fit (default; this is what the
reported standard errors use) or from weighted empirical second moments of
the per-observation centered scores (a diagnostic alternative; the two are
different estimators of the same limit).

Every information matrix passes one numerical-rank rule, ``spectrum``: an
eigenvalue within ``RANK_TOL`` (relative) of zero marks a null direction,
one below it makes the matrix indefinite, an error.  I22 must have no null
direction; the joint ``mle``'s I22, a diagonal plus a rank-2 term, gets the
same rule from ``low_rank_spectrum`` without a dense eigendecomposition.
Standard errors are taken over the non-null spectrum, read in a
caller-given basis (``analysis.fit_method`` standardizes the covariates, so
that their units and origins do not move the rule); a coordinate loading on
a null direction is not identified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Weights
from .errors import SingularInformationError
from .likelihood import evaluate
from .structured import DiagPlusLowRank, StructuredHessian, dense

# Relative eigenvalue and null-direction loading tolerance, about sqrt(eps).
# Over 240 wide-support mle fits, in standardized coordinates, the null
# eigenvalues of I* and of the full information were at most 3.7e-12
# relative, the genuine ones at least 1.3e-4, and slopes loaded on null
# directions by at most 1.7e-11.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class InfoBlocks:
    """2x2 block partition of an information matrix estimate; I22 is an
    array or, for the joint ``mle``'s observed information, a
    ``DiagPlusLowRank``."""

    I11: np.ndarray
    I12: np.ndarray
    I22: np.ndarray | DiagPlusLowRank

    def full(self):
        return np.block([[self.I11, self.I12], [self.I12.T, dense(self.I22)]])


@dataclass(frozen=True)
class CenteredScores:
    """Per-observation scores centered within each sample (multiplicity
    weighted); the within-sample weighted mean of every column is 0."""

    scores: np.ndarray  # (N, d), centered
    sample: np.ndarray  # (N,)
    multiplicity: np.ndarray  # (N,)
    interest_idx: tuple
    nuisance_idx: tuple

    @property
    def l1c(self):
        return self.scores[:, list(self.interest_idx)]

    @property
    def l2c(self):
        return self.scores[:, list(self.nuisance_idx)]


def centered_scores(model, params, dataset) -> CenteredScores:
    raw = evaluate(model, np.asarray(params, dtype=float), dataset, 1)
    sample = dataset.sample
    mult = dataset.multiplicity.astype(float)
    centered = raw.copy()
    for s in range(1, dataset.n_samples + 1):
        mask = sample == s
        mean = (mult[mask, None] * raw[mask]).sum(axis=0) / dataset.sample_sizes[s - 1]
        centered[mask] -= mean
    return CenteredScores(
        centered, sample, mult, tuple(model.interest_idx), tuple(model.nuisance_idx)
    )


def partition(full, interest_idx, nuisance_idx) -> InfoBlocks:
    """InfoBlocks of ``full`` (d, d), or of a stack of them (..., d, d).  A
    ``StructuredHessian`` (its head the interest block) keeps its
    structured nuisance block."""
    if isinstance(full, StructuredHessian):
        if tuple(interest_idx) != tuple(range(full.head.shape[-1])):
            raise ValueError("a structured matrix's interest block is its head")
        return InfoBlocks(full.head, full.cross, full.tail)
    i, j = (np.array(idx, dtype=int) for idx in (interest_idx, nuisance_idx))
    return InfoBlocks(full[..., i[:, None], i], full[..., i[:, None], j], full[..., j[:, None], j])


def info_blocks_observed(model, fit, dataset) -> InfoBlocks:
    """Blocks of -n^{-1} x (Hessian at the fit)."""
    fit.require_converged()
    return partition(fit.hessian / -dataset.n, model.interest_idx, model.nuisance_idx)


def info_blocks_moments(cs: CenteredScores, weights: Weights) -> InfoBlocks:
    """Blocks sum_s w_s x (within-sample weighted average of outer
    products of centered scores)."""
    d = cs.scores.shape[1]
    full = np.zeros((d, d))
    samples = np.unique(cs.sample)
    for s in samples:
        mask = cs.sample == s
        m = cs.multiplicity[mask]
        block = (cs.scores[mask] * m[:, None]).T @ cs.scores[mask] / m.sum()
        full += weights.w[s - 1] * block
    full = 0.5 * (full + full.T)
    return partition(full, cs.interest_idx, cs.nuisance_idx)


def _t(M):
    return np.swapaxes(M, -1, -2)


def spectrum(M, what):
    """The one numerical-rank rule: one ``eigh`` of symmetric ``M``, one
    relative tolerance.  Returns (values, vectors, keep), eigenvalues
    ascending, ``keep`` marking the non-null ones (above ``RANK_TOL`` times
    the largest |eigenvalue|).  Raises SingularInformationError when ``M``
    is zero or indefinite (an eigenvalue below -``RANK_TOL`` times it).
    A stack of matrices (..., k, k) gives stacked results and raises if any
    one of them would."""
    values, vectors = np.linalg.eigh(0.5 * (M + _t(M)))
    scale = np.max(np.abs(values), axis=-1, keepdims=True)
    if np.any(scale == 0.0):
        raise SingularInformationError(f"{what} is zero")
    if np.any(values[..., :1] < -RANK_TOL * scale):
        raise SingularInformationError(f"{what} is indefinite (eigenvalues {values})")
    return values, vectors, values > RANK_TOL * scale


def low_rank_spectrum(M: DiagPlusLowRank, what):
    """``spectrum``'s rule for one diagonal-plus-low-rank matrix, in
    O(m r^2) per probe instead of one O(m^3) ``eigh``: raises
    SingularInformationError when ``M`` is zero or indefinite, and returns
    the unit eigenvector of its smallest eigenvalue when that is a null
    direction (within ``RANK_TOL`` of zero, relative to the largest
    |eigenvalue|), else None.

    The extreme eigenvalues are bracketed by interlacing, and the brackets
    narrowed by counting the eigenvalues below a probe point
    (``DiagPlusLowRank.count_below``) until the verdict is settled: for a
    well-conditioned M, one probe, at ``RANK_TOL`` times the top of the
    largest eigenvalue's bracket."""
    if not (np.any(M.diag) or (M.coef and np.any(M.factor))):
        raise SingularInformationError(f"{what} is zero")
    m = M.diag.shape[-1]
    (lo1, hi1), (lom, him) = M.extreme_brackets()

    def narrow(sigma):  # one count moves an end of both brackets
        nonlocal lo1, hi1, lom, him
        k = M.count_below(sigma)
        lo1, hi1 = (lo1, min(hi1, sigma)) if k >= 1 else (max(lo1, sigma), hi1)
        lom, him = (lom, min(him, sigma)) if k == m else (max(lom, sigma), him)

    narrow(RANK_TOL * max(him, 0.0))
    for _ in range(200):
        # mu_1 lies in [lo1, hi1), the scale max(mu_m, -mu_1) in [s_lo, s_hi]
        s_lo, s_hi = max(lom, -hi1), max(him, -lo1)
        if hi1 <= -RANK_TOL * s_hi:
            raise SingularInformationError(
                f"{what} is indefinite (smallest eigenvalue below {hi1:.3e})"
            )
        null = True if hi1 <= RANK_TOL * s_lo else False if lo1 >= RANK_TOL * s_hi else None
        if lo1 >= -RANK_TOL * s_lo and null is not None:
            break
        # probe a threshold still open inside mu_1's bracket, else halve both brackets
        probes = [t for t in (RANK_TOL * s_hi, RANK_TOL * s_lo, -RANK_TOL * s_lo, -RANK_TOL * s_hi)
                  if lo1 < t < hi1]
        for sigma in probes[:1] or ((lo1 + hi1) / 2, (lom + him) / 2):
            narrow(sigma)
    if not null:
        return None
    while hi1 - lo1 > 1e-15 * max(him, -lo1):  # the null eigenvalue, for its eigenvector
        narrow((lo1 + hi1) / 2)
    return M.eigenvector((lo1 + hi1) / 2)


def _regression_on_nuisance(blocks: InfoBlocks):
    """I12 I22^{-1} from the eigenpairs of I22, or by Woodbury for a
    structured I22 (zero when there is no nuisance block); raises when I22
    has a null direction."""
    what = "nuisance information block I22"
    if isinstance(blocks.I22, DiagPlusLowRank):
        v = low_rank_spectrum(blocks.I22, what)
        if v is None:
            return _t(blocks.I22.solve(_t(blocks.I12)))
    elif blocks.I22.shape[-1] == 0:
        return np.zeros_like(blocks.I12)
    else:
        values, vectors, keep = spectrum(blocks.I22, what)
        if keep.all():
            return (blocks.I12 @ vectors / values[..., None, :]) @ _t(vectors)
        v = vectors[..., 0][~keep[..., 0]][0]  # the first singular block's
    raise SingularInformationError(
        f"{what} is numerically singular; null direction {v}", null_direction=v
    )


def efficient_information(blocks: InfoBlocks) -> np.ndarray:
    """Schur complement I11 - I12 I22^{-1} I21 (equal to I11 when there is
    no nuisance block), of one set of blocks or of stacks of them."""
    istar = blocks.I11 - _regression_on_nuisance(blocks) @ _t(blocks.I12)
    return 0.5 * (istar + _t(istar))


def efficient_score(cs: CenteredScores, blocks: InfoBlocks) -> np.ndarray:
    """Per-observation efficient score: the centered interest score minus
    its projection onto the centered nuisance scores."""
    return cs.l1c - cs.l2c @ _regression_on_nuisance(blocks).T


def standard_errors(info, n, basis=None):
    """se_i = sqrt((info^-)_ii / n), the inverse taken over the non-null
    spectrum of ``info`` in the coordinates t of theta = basis @ t (default:
    theta itself), where it reads basis^T info basis.  A basis that
    standardizes the covariates makes the rule free of their units and
    origins.  Returns (se, identified, cond): a coordinate whose row of
    ``basis`` loads on a null direction (by more than ``RANK_TOL``, relative
    to the row's norm) is not identified and its se is NaN; ``cond`` is the
    condition number of ``info`` over its identified coordinates."""
    info = np.atleast_2d(np.asarray(info, dtype=float))
    variance, identified = spectral_variance(info, basis)
    se = np.where(identified, np.sqrt(variance / n), np.nan)
    sub = np.linalg.eigvalsh(info[np.ix_(identified, identified)])
    return se, identified, float(sub[-1] / sub[0]) if sub.size else np.inf


def spectral_variance(info, basis=None):
    """The diagonal of the inverse of ``info`` over its non-null spectrum,
    read in ``basis`` as in ``standard_errors``, and which coordinates are
    identified; for one matrix (k, k) or a stack (..., k, k)."""
    basis = np.eye(info.shape[-1]) if basis is None else basis
    values, vectors, keep = spectrum(basis.T @ info @ basis, "information matrix")
    rows = basis @ vectors
    kept = keep[..., None, :]
    reach = np.linalg.norm(basis, axis=1)
    identified = np.linalg.norm(np.where(kept, 0.0, rows), axis=-1) <= RANK_TOL * reach
    share = np.divide(rows**2, values[..., None, :], out=np.zeros_like(rows), where=kept)
    return share.sum(axis=-1), identified


@dataclass
class EfficiencyReport:
    """Coefficient estimates, standard errors, and diagnostics for one
    fitting method."""

    method: str
    labels: tuple
    coef: np.ndarray
    se: np.ndarray
    eff_info: np.ndarray
    cond_number: float
    loglik: float
    iterations: int
    runtime_ms: float
    warnings: list = field(default_factory=list)
    n: int = 0
    extra_rows: dict = field(default_factory=dict)  # label -> (coef, se, marker)

    def to_json(self):
        return json.dumps(
            {
                "method": self.method,
                "labels": list(self.labels),
                "coef": [float(c) for c in self.coef],
                "se": [float(s) for s in self.se],
                "eff_info": np.asarray(self.eff_info, dtype=float).tolist(),
                "loglik": float(self.loglik),
                "iterations": int(self.iterations),
                "runtime_ms": float(self.runtime_ms),
                "cond_number": float(self.cond_number),
                "warnings": list(self.warnings),
                "n": int(self.n),
                "extra_rows": {
                    k: [v[0], v[1], v[2]] for k, v in self.extra_rows.items()
                },
            },
            indent=2,
        )

    def coef_by_label(self):
        return dict(zip(self.labels, self.coef))

    def se_by_label(self):
        return dict(zip(self.labels, self.se))

    def render_table(self):
        lines = [f"method: {self.method}"]
        lines.append(f"{'':12s}  {'Coef':>12s}  {'SE':>12s}")
        for label, (c, s, marker) in self.extra_rows.items():
            cs = "--" if c is None else f"{c:.5f}"
            ss = "--" if s is None else f"{s:.5f}"
            lines.append(f"{label + marker:12s}  {cs:>12s}  {ss:>12s}")
        for label, c, s in zip(self.labels, self.coef, self.se):
            lines.append(f"{label:12s}  {c:>12.5f}  {s:>12.5f}")
        lines.append(
            f"loglik {self.loglik:.6f}  iterations {self.iterations}  "
            f"runtime {self.runtime_ms:.3f} ms"
        )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def relative_efficiency(report_a: EfficiencyReport, report_ref: EfficiencyReport):
    """Per-coefficient efficiency of ``report_a`` relative to
    ``report_ref``: the variance ratio (se_ref / se_a)^2."""
    common = [lab for lab in report_ref.labels if lab in report_a.labels]
    if not common:
        raise ValueError(
            f"no common coefficient labels between {report_a.labels} "
            f"and {report_ref.labels}"
        )
    se_a = report_a.se_by_label()
    se_ref = report_ref.se_by_label()
    return {lab: (se_ref[lab] / se_a[lab]) ** 2 for lab in common}
