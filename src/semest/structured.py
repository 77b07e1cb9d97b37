"""Structured symmetric matrices for the joint ``mle``.

Its Hessian in (theta, phi) has a dense (q, q) interest block, a (q, m)
cross block, and a nuisance block that is a diagonal plus a rank-2 term
(one outer product per sample).  Stored that way it takes O(m q) memory,
and a linear solve with it is block elimination with a Woodbury solve of
the nuisance block (Hager 1989, SIAM Review 31:221): O(m q^2) time instead
of O(m^3).

Every array may carry leading batch axes, one matrix per fit of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _t(M):
    return np.swapaxes(M, -1, -2)


def _vecmat(u, M):
    """u @ M for each vector u of a stack (..., k), as one (1, k) @ (k, m)
    product per stack item, so that an item's bits do not depend on the
    stack it is in."""
    return (u[..., None, :] @ M)[..., 0, :]


def solve_or_nan(system, rhs):
    """Solve each system[r] x = rhs[r] (one vector or a stack of them);
    NaN rows where one is singular."""
    try:
        return np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular system fails the stack: one at a time
        out = np.full_like(rhs, np.nan)
        for r in range(len(rhs) if rhs.ndim > 1 else 0):
            try:
                out[r] = np.linalg.solve(system[r], rhs[r])
            except np.linalg.LinAlgError:
                pass
        return out


def _diagonal(M):
    """Writable view of the diagonal of each square matrix of ``M``."""
    k = M.shape[-1]
    return M.reshape(M.shape[:-2] + (k * k,))[..., :: k + 1]


def _inverse(C):
    """Inverse of symmetric 2 x 2 matrices C (..., 2, 2), by the adjugate;
    inf or NaN where one is singular."""
    det = C[..., 0, 0] * C[..., 1, 1] - C[..., 0, 1] ** 2
    return C[..., ::-1, ::-1] * _ADJUGATE_SIGNS / det[..., None, None]


@dataclass(frozen=True)
class DiagPlusLowRank:
    """The symmetric (m, m) matrix diag(diag) + coef F F' with a (m, 2)
    factor F (one column per sample) and a scalar coef."""

    diag: np.ndarray  # (..., m)
    factor: np.ndarray  # (..., m, 2)
    coef: float

    def dense(self):
        out = self.coef * (self.factor @ _t(self.factor))
        _diagonal(out)[...] += self.diag
        return out

    def _woodbury(self, shift):
        """1 / (diag + shift), W = (D + shift I)^{-1} F and the capacitance
        C = I / coef + F' W, the Woodbury ingredients; ``shift`` broadcasts
        against ``diag``."""
        dinv = 1.0 / (self.diag + shift)
        W = self.factor * dinv[..., None]
        C = self.factor.swapaxes(-1, -2) @ W
        _diagonal(C)[...] += 1.0 / self.coef
        return dinv, W, C

    def solve(self, rhs, shift=0.0):
        """(M + shift I)^{-1} rhs for rhs (..., m, k), by Woodbury:
        D^{-1} rhs - W C^{-1} W' rhs.  ``shift`` broadcasts against
        ``diag``; inf or NaN where the capacitance is singular."""
        dinv, W, C = self._woodbury(shift)
        return rhs * dinv[..., None] - W @ (_inverse(C) @ (W.swapaxes(-1, -2) @ rhs))

    def count_below(self, sigma):
        """Number of eigenvalues below sigma (one matrix).  With E = D -
        sigma I and the capacitance C at -sigma, the Haynsworth inertia
        formula on [[E, F], [F', -I / coef]] gives #neg(M - sigma I) =
        #neg(E) + #pos(C) - #neg(-I / coef) (sigma off the diagonal of D);
        the signs of C's eigenvalues follow from its determinant and trace."""
        with np.errstate(divide="ignore", invalid="ignore"):
            dinv, _, C = self._woodbury(-sigma)
        det = C[0, 0] * C[1, 1] - C[0, 1] ** 2
        up = C[0, 0] + C[1, 1] > 0
        pos = 1 if det < 0 else 2 * int(up) if det > 0 else int(up)
        return int(np.count_nonzero(dinv < 0)) + pos - (2 if self.coef > 0 else 0)


@dataclass(frozen=True)
class StructuredHessian:
    """The symmetric matrix [[head, cross], [cross', tail]] with a
    ``DiagPlusLowRank`` tail: the order-2 pass of the joint ``mle``.

    Supports division by a scalar (the information is H / -n), indexing of
    the batch axis, ``dense()`` for dense oracles, ``sum()`` and
    ``entries()`` for finiteness checks, and ``solve``."""

    head: np.ndarray  # (..., q, q)
    cross: np.ndarray  # (..., q, m)
    tail: DiagPlusLowRank

    def __truediv__(self, c):
        t = self.tail
        return StructuredHessian(
            self.head / c, self.cross / c, DiagPlusLowRank(t.diag / c, t.factor, t.coef / c)
        )

    def __getitem__(self, i):
        t = self.tail
        return StructuredHessian(
            self.head[i], self.cross[i], DiagPlusLowRank(t.diag[i], t.factor[i], t.coef)
        )

    def dense(self):
        return np.block([[self.head, self.cross], [_t(self.cross), self.tail.dense()]])

    def sum(self):
        """Sum of the stored entries: finite exactly when they all are (or
        an overflow)."""
        t = self.tail
        return self.head.sum() + self.cross.sum() + t.diag.sum() + t.factor.sum() + t.coef

    def entries(self):
        """Every stored entry, flattened over all but the batch axes."""
        batch = self.head.shape[:-2]
        t = self.tail
        parts = (self.head, self.cross, t.diag, t.factor, np.full(batch, t.coef))
        return np.concatenate([np.reshape(a, batch + (-1,)) for a in parts], axis=-1)

    def solve(self, rhs, shift=0.0):
        """(H + shift I)^{-1} rhs for rhs (..., d), ``shift`` a scalar or one
        per batch item, by block elimination: one Woodbury solve of the tail
        for the cross block and the nuisance part of rhs together, then the
        (q, q) Schur complement for the interest part.  NaN where a system
        is singular."""
        q = self.head.shape[-1]
        s = np.asarray(shift, dtype=float)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            X = np.concatenate([self.cross.swapaxes(-1, -2), rhs[..., q:, None]], axis=-1)
            Y = self.tail.solve(X, s)
            CY = self.cross @ Y
            schur = self.head - CY[..., :q]
            _diagonal(schur)[...] += s
            x1 = solve_or_nan(schur, rhs[..., :q] - CY[..., q])
            x2 = Y[..., q] - (Y[..., :q] @ x1[..., None])[..., 0]
        return np.concatenate([x1, x2], axis=-1)


def dense(M):
    """``M`` as a dense array: structured matrices densified, arrays as they are."""
    return M.dense() if isinstance(M, (DiagPlusLowRank, StructuredHessian)) else np.asarray(M)
