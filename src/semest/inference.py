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
same rule from ``low_rank_spectrum``, which needs no dense
eigendecomposition when one eigenvalue count settles it.
Standard errors are taken over the non-null spectrum of the information in
the coordinates the fit stepped in, mapped to the reported coordinates by a
caller-given basis (``analysis.fit_method`` fits with the covariates
standardized, so that their units and origins do not move the rule); a
coordinate loading on a null direction is not identified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Weights
from .errors import SingularInformationError
from .likelihood import evaluate
from .structured import DiagPlusLowRank, StructuredHessian, _t, dense

# Relative eigenvalue and null-direction loading tolerance, about sqrt(eps).
# Over 1200 wide-support reparam-nonid fits, in standardized coordinates, the
# null eigenvalues of I* and of the full information (its flat ridge) were at
# most 3.7e-16 relative, the genuine ones at least 0.10, and slopes loaded on
# null directions by at most 8.2e-16.
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


def spectrum(M, what):
    """The one numerical-rank rule: one ``eigh`` of symmetric ``M``, one
    relative tolerance.  Returns (values, vectors, keep), eigenvalues
    ascending, ``keep`` marking the non-null ones (above ``RANK_TOL`` times
    the largest |eigenvalue|).  Raises SingularInformationError when ``M``
    is zero or indefinite (an eigenvalue below -``RANK_TOL`` times it).
    A stack of matrices (..., k, k) gives stacked results and raises if any
    one of them would."""
    values, vectors = np.linalg.eigh(0.5 * (M + _t(M)))
    if values.ndim == 1:  # ascending: its two ends decide, as Python floats
        low, scale = float(values[0]), max(-float(values[0]), float(values[-1]))
        zero, indefinite = scale == 0.0, low < -RANK_TOL * scale
    else:
        low, scale = values[..., :1], np.max(np.abs(values), axis=-1, keepdims=True)
        zero, indefinite = np.any(scale == 0.0), np.any(low < -RANK_TOL * scale)
    if zero:
        raise SingularInformationError(f"{what} is zero")
    if indefinite:
        raise SingularInformationError(
            f"{what} is indefinite (smallest eigenvalue {np.min(low):.3e})"
        )
    return values, vectors, values > RANK_TOL * scale


def low_rank_spectrum(M: DiagPlusLowRank, what):
    """``spectrum``'s rule for one diagonal-plus-low-rank matrix: raises
    SingularInformationError when ``M`` is zero or indefinite, and returns
    the unit eigenvector of its smallest eigenvalue when that is a null
    direction, else None.

    One O(m r^2) probe settles a well-conditioned M: no eigenvalue below
    ``RANK_TOL`` times max(diag) + max(coef, 0) ||F||^2, a bound on the
    largest (Weyl), means none is near zero or below it
    (``DiagPlusLowRank.count_below``).  Otherwise ``spectrum`` decides on
    the dense matrix."""
    top = np.max(M.diag) + max(M.coef, 0.0) * float(np.vdot(M.factor, M.factor))
    if top > 0.0 and M.count_below(RANK_TOL * top) == 0:
        return None
    _, vectors, keep = spectrum(M.dense(), what)
    return None if keep.all() else vectors[:, 0]


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


def standard_errors(info, n):
    """se_i = sqrt((info^-)_ii / n), the inverse taken over the non-null
    spectrum of ``info``.  Returns (se, identified, cond): a coordinate
    that loads on a null direction is not identified and its se is NaN;
    ``cond`` is the condition number of ``info`` over the identified
    coordinates."""
    info = np.atleast_2d(np.asarray(info, dtype=float))
    variance, identified = spectral_variance(info)
    se = np.where(identified, np.sqrt(variance / n), np.nan)
    sub = np.linalg.eigvalsh(info[np.ix_(identified, identified)])
    return se, identified, float(sub[-1] / sub[0]) if sub.size else np.inf


def spectral_variance(info, basis=None):
    """The diagonal of basis (info^-) basis' for theta = basis @ t, with
    ``info`` the information in t (one (k, k) or a stack) inverted over its
    non-null spectrum, and which theta_i are identified: not those whose
    row of ``basis`` loads on a null direction (by more than ``RANK_TOL``
    relative to the row's norm).  In t that standardize the covariates,
    the rule is free of their units and origins."""
    basis = np.eye(info.shape[-1]) if basis is None else basis
    values, vectors, keep = spectrum(info, "information matrix")
    rows = basis @ vectors
    if keep.all():  # no null direction: every coordinate is identified
        return (rows**2 / values[..., None, :]).sum(axis=-1), np.ones(rows.shape[:-1], bool)
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

    def to_dict(self):
        """The report as JSON-ready Python values (what ``to_json`` writes)."""
        return {
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
            "extra_rows": {k: [v[0], v[1], v[2]] for k, v in self.extra_rows.items()},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

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
