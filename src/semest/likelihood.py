"""ModelSpec contract and aggregation of per-row quantities.

A ModelSpec evaluates all rows of a column-stored dataset in one array
pass.  Aggregation is a multiplicity-weighted sum, so results are
deterministic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .data import observation_rows
from .errors import EvaluationError


class ModelSpec(ABC):
    """A differentiable per-observation log-density family, evaluated over
    all rows at once.

    Concrete models define ``param_labels`` (one per coordinate),
    ``interest_idx`` (indices of the interest block; everything else is
    nuisance) and ``evaluate(params, data, order)``.  ``evaluate`` reads the
    columns ``X``, ``sample``, ``y``, ``multiplicity``, ``support`` and
    ``support_index`` of ``data`` (a MultisampleDataset) and returns, for
    ``order`` 0, 1 and 2: the per-row log-densities (N,), the per-row scores
    (N, d), and the multiplicity-weighted sum of the per-row Hessians (d, d).
    """

    param_labels: tuple[str, ...] = ()
    interest_idx: tuple[int, ...] = ()

    @property
    def n_params(self):
        return len(self.param_labels)

    @property
    def nuisance_idx(self):
        interest = set(self.interest_idx)
        return tuple(i for i in range(self.n_params) if i not in interest)

    @abstractmethod
    def evaluate(self, params, data, order): ...

    def init_params(self, dataset) -> np.ndarray:
        return np.zeros(self.n_params)


def evaluate(model, params, dataset, order):
    """``model.evaluate`` with floating-point warnings silenced: callers
    check the result and name the first non-finite row instead."""
    with np.errstate(all="ignore"):
        return model.evaluate(params, dataset, order)


def _require_finite(dataset, theta, rows, what):
    """EvaluationError naming the first row whose value is not finite."""
    if np.isfinite(rows).all():
        return
    i = int(np.argmin(np.all(np.isfinite(rows.reshape(len(rows), -1)), axis=1)))
    obs = dataset.observations[i]
    raise EvaluationError(
        f"non-finite {what} ({rows[i]}) at observation {obs}",
        observation=obs,
        params=theta,
    )


def log_likelihood(model, params, dataset) -> float:
    """Multiplicity-weighted total log-likelihood.

    Raises EvaluationError (carrying the offending observation) if any
    per-observation log-density is non-finite.
    """
    theta = np.asarray(params, dtype=float)
    vals = evaluate(model, theta, dataset, 0)
    _require_finite(dataset, theta, vals, "log-density")
    return float(dataset.multiplicity @ vals)


def aggregate_score(model, params, dataset) -> np.ndarray:
    theta = np.asarray(params, dtype=float)
    rows = evaluate(model, theta, dataset, 1)
    _require_finite(dataset, theta, rows, "score")
    return dataset.multiplicity @ rows


def aggregate_hessian(model, params, dataset) -> np.ndarray:
    theta = np.asarray(params, dtype=float)
    total = evaluate(model, theta, dataset, 2)
    if not np.all(np.isfinite(total)):  # find the offending row (error path only)
        rows = np.array(
            [evaluate(model, theta, observation_rows(o), 2) for o in dataset.observations]
        )
        _require_finite(dataset, theta, rows, "Hessian")
    return 0.5 * (total + total.T)
