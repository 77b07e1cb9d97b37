"""Efficient score, efficient information, and standard errors.

The interest-block asymptotic variance is the inverse of the Schur
complement I* = I11 - I12 I22^{-1} I21 of the nuisance block.  Blocks come
either from the observed Hessian at the fit (default; this is what the
reported standard errors use) or from weighted empirical second moments of
the per-observation centered scores (a diagnostic alternative; the two are
different estimators of the same limit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Weights, as_vector
from .errors import SingularInformationError
from .likelihood import aggregate_hessian, evaluate

CONDITION_WARN = 1e10
PIVOT_TOL = 1e-14


@dataclass(frozen=True)
class InfoBlocks:
    """2x2 block partition of an information matrix estimate."""

    I11: np.ndarray
    I12: np.ndarray
    I22: np.ndarray
    n: int
    source: str  # "observed-hessian" or "centered-moments"

    def full(self):
        top = np.hstack([self.I11, self.I12])
        bottom = np.hstack([self.I12.T, self.I22])
        return np.vstack([top, bottom])


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
    theta = as_vector(params)
    raw = evaluate(model, theta, dataset, 1)
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


def _partition(full, interest_idx, nuisance_idx):
    i = list(interest_idx)
    j = list(nuisance_idx)
    return full[np.ix_(i, i)], full[np.ix_(i, j)], full[np.ix_(j, j)]


def info_blocks_observed(model, fit, dataset=None) -> InfoBlocks:
    """Blocks of -n^{-1} x (Hessian at the fit)."""
    fit.require_converged()
    hess = fit.hessian
    if hess is None:
        if dataset is None:
            raise ValueError("fit carries no Hessian and no dataset was given")
        hess = aggregate_hessian(model, fit.params, dataset)
    if dataset is not None:
        n = dataset.n
    else:
        raise ValueError("dataset is required to scale the observed information")
    full = -hess / n
    I11, I12, I22 = _partition(full, model.interest_idx, model.nuisance_idx)
    return InfoBlocks(I11, I12, I22, n, "observed-hessian")


def info_blocks_moments(cs: CenteredScores, weights: Weights, n=None) -> InfoBlocks:
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
    I11, I12, I22 = _partition(full, cs.interest_idx, cs.nuisance_idx)
    n = int(cs.multiplicity.sum()) if n is None else n
    return InfoBlocks(I11, I12, I22, n, "centered-moments")


def _check_invertible(M, what):
    if M.size == 0:
        return
    eigvals, eigvecs = np.linalg.eigh(0.5 * (M + M.T))
    scale = np.max(np.abs(eigvals))
    if scale == 0.0 or np.min(np.abs(eigvals)) < scale / 1e14:
        k = int(np.argmin(np.abs(eigvals)))
        raise SingularInformationError(
            f"{what} is numerically singular (condition number above 1e14); "
            f"null direction {eigvecs[:, k]}",
            null_direction=eigvecs[:, k],
        )


def efficient_information(blocks: InfoBlocks) -> np.ndarray:
    """Schur complement I11 - I12 I22^{-1} I21 (equal to I11 when there is
    no nuisance block)."""
    if blocks.I22.size == 0:
        return blocks.I11.copy()
    _check_invertible(blocks.I22, "nuisance information block I22")
    istar = blocks.I11 - blocks.I12 @ np.linalg.solve(blocks.I22, blocks.I12.T)
    return 0.5 * (istar + istar.T)


def efficient_score(cs: CenteredScores, blocks: InfoBlocks) -> np.ndarray:
    """Per-observation efficient score: the centered interest score minus
    its projection onto the centered nuisance scores."""
    if blocks.I22.size == 0:
        return cs.l1c.copy()
    _check_invertible(blocks.I22, "nuisance information block I22")
    C = blocks.I12 @ np.linalg.inv(blocks.I22)
    return cs.l1c - cs.l2c @ C.T


def _sym_inverse(M):
    """Inverse by symmetric eigenfactorization.  Eigenvalues below the
    pivot tolerance (1e-14 of the largest) are clipped, which keeps the
    inverse finite on numerically singular matrices; the caller is told
    via the returned condition number."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (M + M.T))
    scale = np.max(np.abs(eigvals))
    if scale == 0.0:
        raise SingularInformationError("information matrix is zero")
    floor = PIVOT_TOL * scale
    clipped = np.where(np.abs(eigvals) < floor, floor, eigvals)
    inv = (eigvecs / clipped) @ eigvecs.T
    cond = float(scale / np.min(np.abs(clipped)))
    return 0.5 * (inv + inv.T), cond, eigvals


def standard_errors(istar, n):
    """se_i = sqrt(((I*)^{-1})_{ii} / n).

    Nearly singular I* yields a warning (the unidentified-intercept case),
    an indefinite I* is an error.
    """
    istar = np.atleast_2d(np.asarray(istar, dtype=float))
    inv, cond, eigvals = _sym_inverse(istar)
    scale = np.max(np.abs(eigvals))
    warnings = []
    if np.min(eigvals) < -1e-12 * scale:
        raise SingularInformationError(
            f"efficient information is indefinite (eigenvalues {eigvals})"
        )
    if cond > CONDITION_WARN:
        warnings.append(f"ill-conditioned information (condition number {cond:.3e})")
    diag = np.diag(inv)
    se = np.sqrt(np.maximum(diag, 0.0) / n)
    return se, warnings, cond


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

    @staticmethod
    def from_json(text):
        d = json.loads(text)
        return EfficiencyReport(
            method=d["method"],
            labels=tuple(d["labels"]),
            coef=np.array(d["coef"], dtype=float),
            se=np.array(d["se"], dtype=float),
            eff_info=np.array(d["eff_info"], dtype=float),
            cond_number=d["cond_number"],
            loglik=d["loglik"],
            iterations=d["iterations"],
            runtime_ms=d["runtime_ms"],
            warnings=list(d["warnings"]),
            n=d.get("n", 0),
            extra_rows={k: tuple(v) for k, v in d.get("extra_rows", {}).items()},
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


def relative_efficiency(report_a: EfficiencyReport, report_ref: EfficiencyReport, kind="variance"):
    """Per-coefficient efficiency of ``report_a`` relative to
    ``report_ref``: the variance ratio (se_ref / se_a)^2 by default, or the
    plain SE ratio with ``kind='se'``."""
    common = [lab for lab in report_ref.labels if lab in report_a.labels]
    if not common:
        raise ValueError(
            f"no common coefficient labels between {report_a.labels} "
            f"and {report_ref.labels}"
        )
    se_a = report_a.se_by_label()
    se_ref = report_ref.se_by_label()
    out = {}
    for lab in common:
        ratio = se_ref[lab] / se_a[lab]
        out[lab] = ratio**2 if kind == "variance" else ratio
    return out
