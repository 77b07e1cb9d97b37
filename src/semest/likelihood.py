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

import functools
import math
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

    @functools.cached_property
    def nuisance_idx(self):
        interest = set(self.interest_idx)
        return tuple(i for i in range(self.n_params) if i not in interest)

    @abstractmethod
    def evaluate(self, params, data, order): ...

    def totals(self, params, data, order):
        """Total log-likelihood, () or (P,), total score, (d,) or (P, d), or
        the order-2 result of ``evaluate``: the ``row_weights``-weighted sum
        of ``evaluate``'s per-row values (the aggregates set the warning
        filter of ``likelihood.evaluate`` around this call)."""
        rows = _stacked(self, params, data, order)
        if order == 2:
            return rows
        weights = self.row_weights(data)
        if order == 1:
            return _vecmat(weights, rows)
        if np.ndim(params) == 1:
            return weights @ rows
        return _vecmat(weights, rows[..., None])[..., 0]

    def row_weights(self, data):
        """The weights of the rows in the totals: ``data.multiplicity``."""
        return data.multiplicity

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


def hessian_entries(hess):
    """The stored entries of a Hessian, dense (..., d, d) or structured,
    flattened over all but the stack axes."""
    if isinstance(hess, StructuredHessian):
        return hess.entries()
    return hess.reshape(hess.shape[:-2] + (-1,))


def _total(model, theta, dataset, order):
    """``model.totals`` at ``order``, with floating-point warnings silenced
    and a dense Hessian symmetrized.  For one vector (d,) it is finite or
    an EvaluationError naming the first row whose value is not: the rows
    are evaluated only then, a Hessian's one row at a time.  In a stack
    (P, d) a non-finite total propagates, for the caller to check, so one
    inadmissible vector does not stop the others."""
    with np.errstate(all="ignore"):
        total = model.totals(theta, dataset, order)
        if order == 2 and not isinstance(total, StructuredHessian):
            total = 0.5 * (total + total.swapaxes(-1, -2))
        if theta.ndim == 2:
            return total
        if order < 2:
            # order 0 is a scalar, which math.isfinite tests without numpy's call cost
            if math.isfinite(total) if order == 0 else np.isfinite(total).all():
                return total
            rows = _stacked(model, theta, dataset, order)
        else:  # a finite sum has finite entries; the entries are read only if it is not
            if math.isfinite(total.sum()) or np.isfinite(hessian_entries(total)).all():
                return total
            rows = np.array([hessian_entries(_stacked(model, theta, observation_rows(o), 2))
                             for o in dataset.observations])
    ok = np.isfinite(rows.reshape(len(rows), -1)).all(axis=1)
    what = ("log-density", "score", "Hessian")[order]
    if ok.all():  # the sum of finite rows overflowed
        raise EvaluationError(f"non-finite total {what} at params {theta}", params=theta)
    i = int(np.argmin(ok))
    obs = dataset.observations[i]
    raise EvaluationError(
        f"non-finite {what} ({rows[i]}) at observation {obs}", observation=obs, params=theta
    )


def log_likelihood(model, params, dataset):
    """Multiplicity-weighted total log-likelihood: a float for one vector
    (d,), a (P,) array for a stack (P, d).  A non-finite total raises
    EvaluationError for one vector, naming the first non-finite row, and
    propagates in a stack (see ``_total``)."""
    theta = np.asarray(params, dtype=float)
    total = _total(model, theta, dataset, 0)
    return total if theta.ndim == 2 else float(total)


def aggregate_score(model, params, dataset) -> np.ndarray:
    """Multiplicity-weighted total score, (d,) or (P, d); a non-finite
    total raises or, in a stack, propagates, as in ``log_likelihood``."""
    return _total(model, np.asarray(params, dtype=float), dataset, 1)


def aggregate_hessian(model, params, dataset):
    """Symmetrized total Hessian, (d, d) or (P, d, d), or the model's
    ``StructuredHessian`` (symmetric by construction); a non-finite total
    raises or, in a stack, propagates, as in ``log_likelihood``."""
    return _total(model, np.asarray(params, dtype=float), dataset, 2)
