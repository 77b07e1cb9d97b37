"""Multisample datasets: grouped observations, sample weights, CSV ingestion.

A dataset holds ``S`` independent samples indexed ``s = 1..S``.  Rows are
stored grouped (with integer multiplicities) and column-wise: one covariate
matrix and one array per row attribute.  Expansion to unit rows and the
per-row ``Observation`` objects are views, never the canonical
representation.  The covariate support ``v_1..v_K`` is the set of distinct
observed covariate vectors, compared bit-exactly, ordered lexicographically
for determinism.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import DataError, EvaluationError


@dataclass(frozen=True)
class Observation:
    """One grouped data row: ``multiplicity`` identical units from sample
    ``sample`` with covariates ``x`` and (optional) response ``y``."""

    sample: int
    x: np.ndarray
    y: float | None = None
    multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if self.multiplicity < 1:
            raise DataError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.sample < 1:
            raise DataError(f"sample index must be >= 1, got {self.sample}")


def observation_rows(obs: Observation):
    """Columns of a one-row dataset holding ``obs`` once: what an array pass
    needs to evaluate a single observation."""
    x, one = obs.x[None, :], np.ones(1, dtype=int)
    return SimpleNamespace(
        X=x, sample=obs.sample * one, y=(obs.sample - 1.0) * one, multiplicity=one,
        support=x, support_index=0 * one, observations=(obs,),
    )


def _support(X):
    """Distinct rows of ``X`` (bit-exact) in lexicographic order, and the
    index of each row's vector in that list.  Rows that compare equal but
    differ in bits (0.0 and -0.0) stay apart, in order of first appearance."""
    keys = np.ascontiguousarray(X).view(np.dtype((np.void, X.dtype.itemsize * X.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    appear = np.argsort(first, kind="stable")
    ids = appear[np.lexsort(X[first[appear]].T[::-1])]
    rank = np.empty_like(ids)
    rank[ids] = np.arange(len(ids))
    return X[first[ids]], rank[inverse.ravel()]


def positions(support, X):
    """Position in ``support`` of each row of ``X``, matched bit-exactly;
    EvaluationError names the first row that is not in it."""
    lookup = {v.tobytes(): k for k, v in enumerate(np.asarray(support, dtype=float))}
    X = np.atleast_2d(np.asarray(X, dtype=float))
    try:
        return np.array([lookup[v.tobytes()] for v in X], dtype=int)
    except KeyError:
        missing = next(v for v in X if v.tobytes() not in lookup)
        raise EvaluationError(f"covariate value {missing} not in the support") from None


class ObservationView(Sequence):
    """Read-only sequence of a dataset's rows as ``Observation`` objects,
    each built when it is read."""

    def __init__(self, dataset):
        self._d = dataset

    def __len__(self):
        return len(self._d.sample)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        d = self._d
        return Observation(int(d.sample[i]), d.X[i], float(d.y[i]), int(d.multiplicity[i]))


class MultisampleDataset:
    """Immutable container for grouped multisample data, stored as columns.

    Attributes
    ----------
    X, sample, y, multiplicity : ndarray, shapes (N, p), (N,), (N,), (N,)
        The rows as columns: covariate vector, 1-based sample index,
        response ``sample - 1`` (the stratum indicator), and the number of
        identical units the row stands for.
    observations : sequence of Observation
        The rows as objects: the ones given to the constructor, or a view
        that builds each one when read (datasets made by ``from_columns``).
    n_samples : int
        Number of samples S (the largest sample index present).
    sample_sizes : ndarray, shape (S,)
        n_s, the sum of multiplicities per sample.
    n : int
        Total size, sum of all multiplicities.
    support : ndarray, shape (K, p)
        Distinct covariate vectors, lexicographically sorted.
    pooled_freq : ndarray, shape (K,)
        Pooled empirical frequency of each support point (sums to 1).
    support_index : ndarray, shape (N,)
        Index into ``support`` of each row's covariate vector.
    """

    def __init__(self, observations, n_samples=None):
        obs = tuple(observations)
        if not obs:
            raise DataError("no observations")
        dims = sorted({o.x.shape[0] for o in obs})
        if len(dims) > 1:
            raise DataError(f"covariate dimension mismatch: dimensions {dims}")
        self._set_columns(
            np.array([o.x for o in obs]),
            np.array([o.sample for o in obs], dtype=int),
            np.array([o.multiplicity for o in obs], dtype=int),
            n_samples,
        )
        self.observations = obs

    @classmethod
    def from_columns(cls, X, sample, multiplicity, n_samples=None):
        """Dataset from a covariate matrix (N, p) and per-row sample indices
        and multiplicities."""
        self = cls.__new__(cls)
        self._set_columns(
            np.asarray(X, dtype=float), np.asarray(sample, dtype=int),
            np.asarray(multiplicity, dtype=int), n_samples,
        )
        self.observations = ObservationView(self)
        return self

    def _set_columns(self, X, sample, multiplicity, n_samples):
        if X.ndim != 2 or not len(X) == len(sample) == len(multiplicity):
            raise DataError("X must be (N, p), with a sample and a multiplicity per row")
        if not len(X):
            raise DataError("no observations")
        if np.any(multiplicity < 1):
            raise DataError(f"multiplicity must be >= 1, got {multiplicity.min()}")
        if np.any(sample < 1):
            raise DataError(f"sample index must be >= 1, got {sample.min()}")
        S = int(sample.max()) if n_samples is None else int(n_samples)
        if sample.max() > S:
            raise DataError(f"sample index {sample.max()} exceeds S={S}")
        sizes = np.bincount(sample - 1, weights=multiplicity, minlength=S).astype(int)
        for s in range(S):
            if sizes[s] == 0:
                raise DataError(f"empty sample {s + 1}")
        n = int(sizes.sum())
        support, idx = _support(X)

        self.X = X
        self.sample = sample
        self.y = (sample - 1).astype(float)
        self.multiplicity = multiplicity
        self.n_samples = S
        self.sample_sizes = sizes
        self.n = n
        self.p = X.shape[1]
        self.support = support
        self.pooled_freq = np.bincount(idx, weights=multiplicity / n, minlength=len(support))
        self.support_index = idx

    def expanded(self):
        """View of the data as unit-multiplicity observations."""
        m = self.multiplicity
        return MultisampleDataset.from_columns(
            np.repeat(self.X, m, axis=0), np.repeat(self.sample, m), np.ones(m.sum()),
            n_samples=self.n_samples,
        )

    def restricted_to_sample(self, s):
        keep = self.sample == s
        return MultisampleDataset.from_columns(
            self.X[keep], self.sample[keep], self.multiplicity[keep]
        )


@dataclass(frozen=True)
class Weights:
    """Sample weights w_s = n_s / n."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if np.any(self.w <= 0):
            raise DataError("all weights must be positive")
        if abs(self.w.sum() - 1.0) > 1e-12:
            raise DataError("weights must sum to 1")

    def __len__(self):
        return len(self.w)


def compute_weights(dataset: MultisampleDataset) -> Weights:
    """Exact plug-in sample weights w_s = n_s / n."""
    return Weights(dataset.sample_sizes / dataset.n)


@dataclass(frozen=True)
class Params:
    """Flat parameter vector partitioned into an interest block and a
    nuisance block via index arrays.  ``labels`` names every coordinate."""

    values: np.ndarray
    interest_idx: tuple[int, ...]
    labels: tuple[str, ...]
    nuisance_idx: tuple[int, ...] = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.nuisance_idx is None:
            nuis = tuple(
                i for i in range(len(self.values)) if i not in set(self.interest_idx)
            )
            object.__setattr__(self, "nuisance_idx", nuis)
        if len(self.labels) != len(self.values):
            raise DataError("labels must match parameter dimension")

    @property
    def interest(self):
        return self.values[list(self.interest_idx)]

    @property
    def nuisance(self):
        return self.values[list(self.nuisance_idx)]


def as_vector(params):
    """Accept either a Params or a plain array."""
    if isinstance(params, Params):
        return params.values
    return np.asarray(params, dtype=float)


def _read_csv(path):
    """Header and non-blank rows, as (line number, fields), of a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("no observations: empty file")
        rows = [
            (lineno, row)
            for lineno, row in enumerate(reader, start=2)
            if any(map(str.strip, row))
        ]
    return [h.strip() for h in header], rows


def _columns(rows, converters):
    """Line numbers of ``rows`` and their fields converted column by column;
    DataError names the line of the first row with the wrong number of
    fields or a field its column's converter rejects."""
    if not rows:
        raise DataError("no observations")
    for lineno, row in rows:
        if len(row) != len(converters):
            raise DataError(
                f"line {lineno}: expected {len(converters)} fields, got {len(row)}"
            )
    lines, fields = zip(*rows)
    try:
        return lines, [
            np.array(list(map(conv, column))) for conv, column in zip(converters, zip(*fields))
        ]
    except ValueError:
        for lineno, row in rows:  # find the field that does not convert
            for conv, value in zip(converters, row):
                try:
                    conv(value)
                except ValueError as exc:
                    raise DataError(f"line {lineno}: {exc}") from exc
        raise


def _check_rows(lines, bad, message):
    """Raise DataError naming the line of the first row flagged in ``bad``."""
    if np.any(bad):
        raise DataError(f"line {lines[int(np.argmax(bad))]}: {message}")


def load_long_csv(path, sample_base=1):
    """Load the long schema ``sample,y,x1,...,xp``.

    ``sample_base`` is 0 or 1 depending on how the file indexes samples;
    internally samples are always 1-based.  ``y`` must be the stratum
    indicator the models use: the internal sample index minus 1.
    """
    if sample_base not in (0, 1):
        raise DataError(f"sample_base must be 0 or 1, got {sample_base}")
    header, rows = _read_csv(path)
    if len(header) < 3 or header[0] != "sample" or header[1] != "y":
        raise DataError("expected header 'sample,y,x1,...,xp', got " + ",".join(header))
    lines, (sample, y, *xs) = _columns(rows, [int] + [float] * (len(header) - 1))
    sample = sample + (1 - sample_base)
    X = np.column_stack(xs)
    _check_rows(lines, sample < 1, "sample index must be >= 1")
    _check_rows(lines, ~np.all(np.isfinite(X), axis=1), "non-finite covariate")
    _check_rows(lines, y != sample - 1, "y must be 0 in the first sample, 1 in the second")
    return MultisampleDataset.from_columns(X, sample, np.ones(len(lines), dtype=int))


def load_casecontrol_csv(path, transform=None):
    """Load the grouped case-control schema ``age,scar,cases,controls``.

    Controls become sample 1 (y=0), cases sample 2 (y=1).  ``transform``
    maps raw age to the covariate actually used (identity if None); the
    stored covariate order is (scar, transformed age).  Counts must be
    nonnegative; a zero count contributes no row.
    """
    header, rows = _read_csv(path)
    if header != ["age", "scar", "cases", "controls"]:
        raise DataError("expected header 'age,scar,cases,controls', got " + ",".join(header))
    lines, (age, scar, cases, controls) = _columns(rows, (float, float, int, int))
    counts = np.column_stack([controls, cases])
    _check_rows(lines, np.any(counts < 0, axis=1), "case and control counts must be >= 0")
    _check_rows(lines, ~(np.isfinite(age) & np.isfinite(scar)), "non-finite covariate")
    x2 = age if transform is None else np.array([transform(a) for a in age], dtype=float)
    X = np.column_stack([scar, x2])
    # one row per nonzero (line, stratum) count: controls, then cases
    line_idx, stratum = np.nonzero(counts > 0)
    if not len(line_idx):
        raise DataError("no observations")
    return MultisampleDataset.from_columns(X[line_idx], stratum + 1, counts[line_idx, stratum])
