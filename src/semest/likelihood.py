"""ModelSpec contract and aggregation of per-row quantities.

A ModelSpec evaluates all rows of a column-stored dataset in one array
pass.  The aggregates read the model's totals: by default the
multiplicity-weighted sum of those rows, so results are deterministic.

Every aggregate also takes a (P, d) stack of parameter vectors and returns
one result per vector.  The dataset's ``multiplicity`` may then be (P, N),
one set of row weights per vector.  Each vector's total is its own
vector-matrix product, so it does not depend on the other vectors in the
stack: one vector stacked alone gives the same bits as the plain (d,) call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .data import observation_rows
from .errors import EvaluationError
from .structured import StructuredHessian, _vecmat


class ModelSpec(ABC):
    """A differentiable per-observation log-density family, evaluated over
    all rows at once.

    Concrete models define ``param_labels`` (one per coordinate),
    ``interest_idx`` (indices of the interest block; everything else is
    nuisance) and ``evaluate(params, data, order)``.  ``evaluate`` reads the
    columns ``X``, ``sample``, ``y``, ``multiplicity``, ``support`` and
    ``support_index`` of ``data`` (a MultisampleDataset) and returns, for
    ``order`` 0, 1 and 2: the per-row log-densities (N,), the per-row scores
    (N, d), and the multiplicity-weighted sum of the per-row Hessians, a
    (d, d) array or a symmetric ``StructuredHessian``.

    The stack contract: the aggregates also hand ``evaluate`` a (P, d) stack
    of parameter vectors as it is, and it gives one result per vector along
    a leading P axis, (P, N), (P, N, d) or (P, d, d), reading
    ``multiplicity`` (N,) or (P, N).  Another shape, or a ValueError on a
    stack, is a ValueError naming the contract, never a silent broadcast.

    ``totals(params, data, order)`` gives what the aggregates below read:
    by default the multiplicity-weighted sums of ``evaluate``'s rows.  A
    model may override it with a cheaper closed form.
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

    def totals(self, params, data, order):
        """Total log-likelihood, () or (P,), total score, (d,) or (P, d), or
        the order-2 result of ``evaluate``: the multiplicity-weighted sum
        of ``evaluate``'s per-row values (the aggregates set the warning
        filter of ``likelihood.evaluate`` around this call)."""
        rows = _stacked(self, params, data, order)
        if order == 2:
            return rows
        if order == 1:
            return _vecmat(data.multiplicity, rows)
        if np.ndim(params) == 1:
            return data.multiplicity @ rows
        return _vecmat(data.multiplicity, rows[..., None])[..., 0]

    def init_params(self, dataset) -> np.ndarray:
        return np.zeros(self.n_params)


def _stacked(model, params, data, order):
    """``model.evaluate``, held to the stack contract (see ``ModelSpec``)."""
    shape = params.shape
    try:
        out = model.evaluate(params, data, order)
    except ValueError as exc:
        if len(shape) == 1:
            raise
        raise _broken_contract(model, shape, exc) from exc
    if isinstance(out, StructuredHessian):
        got, want = out.head.shape[:-2], shape[:-1]
    else:
        n, d = len(data.sample), shape[-1]
        got, want = out.shape, shape[:-1] + ((n,), (n, d), (d, d))[order]
    if got != want:
        raise _broken_contract(model, shape, f"order {order} gave {got}, not {want}")
    return out


def _broken_contract(model, shape, why):
    return ValueError(
        f"{type(model).__name__}.evaluate breaks the stack contract (one result per "
        f"vector of a (P, d) stack) for parameters of shape {shape}: {why}"
    )


def evaluate(model, params, dataset, order):
    """``model.evaluate`` with floating-point warnings silenced (callers
    check the result and name the first non-finite row instead), held to
    the stack contract."""
    with np.errstate(all="ignore"):
        return _stacked(model, params, dataset, order)


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


def _quiet_totals(model, params, dataset, order):
    """``model.totals`` with floating-point warnings silenced (see
    ``evaluate``)."""
    with np.errstate(all="ignore"):
        return model.totals(params, dataset, order)


def log_likelihood(model, params, dataset):
    """Multiplicity-weighted total log-likelihood: a float for one vector
    (d,), a (P,) array for a stack (P, d).

    For one vector, raises EvaluationError (carrying the offending
    observation) if any per-observation log-density is non-finite: the rows
    are evaluated one by one only when the total is not finite.  In a
    stack such a vector gets a non-finite total instead, for the caller to
    check, so one inadmissible vector does not stop the others.
    """
    theta = np.asarray(params, dtype=float)
    total = _quiet_totals(model, theta, dataset, 0)
    if theta.ndim == 2:
        return total
    if not np.isfinite(total):
        _require_finite(dataset, theta, evaluate(model, theta, dataset, 0), "log-density")
    return float(total)


def aggregate_score(model, params, dataset) -> np.ndarray:
    """Multiplicity-weighted total score, (d,) or (P, d); non-finite rows
    raise or, in a stack, propagate, as in ``log_likelihood``."""
    theta = np.asarray(params, dtype=float)
    total = _quiet_totals(model, theta, dataset, 1)
    if theta.ndim == 1 and not np.isfinite(total).all():
        _require_finite(dataset, theta, evaluate(model, theta, dataset, 1), "score")
    return total


def hessian_entries(hess):
    """The stored entries of a Hessian, dense (..., d, d) or structured,
    flattened over all but the stack axes."""
    if isinstance(hess, StructuredHessian):
        return hess.entries()
    return hess.reshape(hess.shape[:-2] + (-1,))


def aggregate_hessian(model, params, dataset):
    """Symmetrized total Hessian, (d, d) or (P, d, d), or the model's
    ``StructuredHessian`` (symmetric by construction); non-finite entries
    raise naming the row or, in a stack, propagate."""
    theta = np.asarray(params, dtype=float)
    total = _quiet_totals(model, theta, dataset, 2)
    # a finite sum has finite entries; the entries are read only if it is not
    if theta.ndim == 1 and not (
        np.isfinite(total.sum()) or np.isfinite(hessian_entries(total)).all()
    ):
        rows = np.array([  # find the offending row
            hessian_entries(evaluate(model, theta, observation_rows(o), 2))
            for o in dataset.observations
        ])
        _require_finite(dataset, theta, rows, "Hessian")
    if isinstance(total, StructuredHessian):
        return total
    return 0.5 * (total + total.swapaxes(-1, -2))
