"""ModelSpec contract and aggregation of per-row quantities.

A ModelSpec supplies the per-observation log-density together with its
analytic gradient and Hessian in a flat parameter vector.  An ArrayModel
evaluates all rows of a column-stored dataset in one array pass instead;
its per-observation methods are one-row slices of that pass.  Aggregation
is a multiplicity-weighted sum, so results are deterministic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .data import Params, as_vector, observation_rows
from .errors import EvaluationError


class ModelSpec(ABC):
    """A differentiable per-observation log-density family.

    Concrete models define ``param_labels`` (one per coordinate) and
    ``interest_idx`` (indices of the interest block); everything else is
    nuisance.  A model that defines only the per-observation methods is
    evaluated row by row.
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
    def log_density(self, obs, params) -> float: ...

    @abstractmethod
    def score(self, obs, params) -> np.ndarray: ...

    @abstractmethod
    def hessian(self, obs, params) -> np.ndarray: ...

    def init_params(self, dataset) -> np.ndarray:
        return np.zeros(self.n_params)

    def make_params(self, values) -> Params:
        return Params(np.asarray(values, float), self.interest_idx, self.param_labels)


class ArrayModel(ModelSpec):
    """A ModelSpec evaluated over all rows at once.

    ``evaluate(params, data, order)`` reads the columns ``X``, ``sample``,
    ``y``, ``multiplicity``, ``support`` and ``support_index`` of ``data``
    (a MultisampleDataset) and returns, for ``order`` 0, 1 and 2: the
    per-row log-densities (N,), the per-row scores (N, d), and the
    multiplicity-weighted sum of the per-row Hessians (d, d).
    """

    @abstractmethod
    def evaluate(self, params, data, order): ...

    def log_density(self, obs, params):
        return float(self.evaluate(params, observation_rows(obs), 0)[0])

    def score(self, obs, params):
        return self.evaluate(params, observation_rows(obs), 1)[0]

    def hessian(self, obs, params):
        return self.evaluate(params, observation_rows(obs), 2)


def evaluate(model, params, dataset, order):
    """``model.evaluate`` for an ArrayModel; otherwise the same quantity
    from the per-observation methods, one row at a time.  Floating-point
    warnings are silenced: callers check the result and name the first
    non-finite row instead."""
    with np.errstate(all="ignore"):
        if isinstance(model, ArrayModel):
            return model.evaluate(params, dataset, order)
        obs = dataset.observations
        if order == 0:
            return np.array([model.log_density(o, params) for o in obs], dtype=float)
        if order == 1:
            return np.array([model.score(o, params) for o in obs], dtype=float)
        total = np.zeros((model.n_params, model.n_params))
        for o in obs:
            total += o.multiplicity * model.hessian(o, params)
        return total


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
    theta = as_vector(params)
    vals = evaluate(model, theta, dataset, 0)
    _require_finite(dataset, theta, vals, "log-density")
    return float(dataset.multiplicity @ vals)


def aggregate_score(model, params, dataset) -> np.ndarray:
    theta = as_vector(params)
    rows = evaluate(model, theta, dataset, 1)
    _require_finite(dataset, theta, rows, "score")
    return dataset.multiplicity @ rows


def aggregate_hessian(model, params, dataset) -> np.ndarray:
    theta = as_vector(params)
    total = evaluate(model, theta, dataset, 2)
    if not np.all(np.isfinite(total)):  # find the offending row (error path only)
        rows = np.array([model.hessian(o, theta) for o in dataset.observations])
        _require_finite(dataset, theta, rows, "Hessian")
    return 0.5 * (total + total.T)


class FixedSubsetModel(ArrayModel):
    """Adapter exposing a model restricted to a subset of free coordinates,
    with the remaining coordinates pinned.  Used for inner profile
    maximizations (e.g. over the nuisance block at fixed interest)."""

    def __init__(self, base, free_idx, fixed_values):
        self.base = base
        self.free_idx = tuple(free_idx)
        self.fixed_values = np.asarray(fixed_values, float)
        self.param_labels = tuple(base.param_labels[i] for i in self.free_idx)
        self.interest_idx = tuple(range(len(self.free_idx)))

    def evaluate(self, params, data, order):
        full = self.fixed_values.copy()
        free = list(self.free_idx)
        full[free] = params
        out = evaluate(self.base, full, data, order)
        if order == 0:
            return out
        if order == 1:
            return out[:, free]
        return out[np.ix_(free, free)]
