"""Multisample datasets: grouped observations, sample weights, CSV ingestion.

A dataset holds ``S`` independent samples indexed ``s = 1..S``.  Rows are
stored grouped (with integer multiplicities) and column-wise: one covariate
matrix and one array per row attribute.  The per-row ``Observation`` objects
are a view, never the canonical representation.  The covariate support ``v_1..v_K`` is the set of distinct
observed covariate vectors, compared bit-exactly, ordered lexicographically
for determinism.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
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


def support_positions(support, data):
    """Position in ``support`` of each row of ``data``: ``data.support_index``
    itself when ``support`` is the array ``data.support``."""
    if data.support is support:
        return data.support_index
    return positions(support, data.support)[data.support_index]


def _integers(values, what):
    """``values`` as an int array; DataError names the first row that is not
    a whole number (an integer dtype is taken as it is)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        f = a.astype(float)
        bad = ~np.isfinite(f) | (f != np.trunc(f))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise DataError(f"row {i}: {what} must be a whole number, got {a.flat[i]}")
    return a.astype(int, copy=False)


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
        The rows as objects: the ones given to the constructor (where a
        given ``y`` must be ``sample - 1``), or a view that builds each one
        when read (datasets made by ``from_columns``).
    labels : tuple of str
        One name per covariate column: ``x1..xp`` unless given to
        ``from_columns`` (the case-control loaders name theirs Scar, Age).
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

    ``support``, ``support_index`` and ``pooled_freq`` are computed from ``X``
    on first read, once per dataset; the reparametrized fits never read them.
    """

    def __init__(self, observations, n_samples=None):
        obs = tuple(observations)
        if not obs:
            raise DataError("no observations")
        dims = sorted({o.x.shape[0] for o in obs})
        if len(dims) > 1:
            raise DataError(f"covariate dimension mismatch: dimensions {dims}")
        i = next((i for i, o in enumerate(obs) if o.y is not None and o.y != o.sample - 1), None)
        if i is not None:
            raise DataError(
                f"row {i}: y must be the sample index minus 1 ({obs[i].sample - 1}), "
                f"got {obs[i].y}"
            )
        self._set_columns(
            np.array([o.x for o in obs]),
            _integers([o.sample for o in obs], "sample index"),
            _integers([o.multiplicity for o in obs], "multiplicity"),
            n_samples,
        )
        self.observations = obs

    @classmethod
    def from_columns(cls, X, sample, multiplicity, n_samples=None, labels=None):
        """Dataset from a covariate matrix (N, p), per-row sample indices
        and multiplicities, and optionally one label per covariate column."""
        self = cls.__new__(cls)
        self._set_columns(
            np.asarray(X, dtype=float), _integers(sample, "sample index"),
            _integers(multiplicity, "multiplicity"), n_samples, labels,
        )
        self.observations = ObservationView(self)
        return self

    def _set_columns(self, X, sample, multiplicity, n_samples, labels=None):
        if X.ndim != 2 or not len(X) == len(sample) == len(multiplicity):
            raise DataError("X must be (N, p), with a sample and a multiplicity per row")
        if not len(X):
            raise DataError("no observations")
        if not X.shape[1]:
            raise DataError("X must have at least one covariate column")
        if not np.isfinite(X).all():
            row = np.argmin(np.isfinite(X).all(axis=1))
            raise DataError(f"row {row}: non-finite covariate")
        if labels is None:
            labels = [f"x{i + 1}" for i in range(X.shape[1])]
        if len(labels) != X.shape[1] or len(set(labels)) != len(labels):
            raise DataError(f"expected {X.shape[1]} distinct covariate labels, got {labels!r}")
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

        self.X = X
        self.sample = sample
        self.y = (sample - 1).astype(float)
        self.multiplicity = multiplicity
        self.n_samples = S
        self.sample_sizes = sizes
        self.n = int(sizes.sum())
        self.p = X.shape[1]
        self.labels = tuple(labels)

    @cached_property
    def _support_table(self):
        return _support(self.X)

    support = property(lambda self: self._support_table[0])
    support_index = property(lambda self: self._support_table[1])

    @cached_property
    def pooled_freq(self):
        return np.bincount(self.support_index, self.multiplicity / self.n, len(self.support))


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


def _read_csv(path):
    """Header fields of a UTF-8 CSV file, and the text after the header.
    DataError names the path of a file that cannot be read or decoded."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    fh = io.StringIO(text, newline="")
    try:
        header = next(csv.reader(fh), None)
    except csv.Error as exc:  # a field over the csv module's size limit
        raise DataError(f"line 1: {exc}") from None
    if header is None:
        raise DataError("no observations: empty file")
    return [h.strip() for h in header], text[fh.tell():]


def _columns(body, converters):
    """File line numbers (where each record starts; the header is 1) of the
    non-blank rows of the CSV text ``body``, and their fields converted by
    column: one
    ``np.loadtxt`` pass, or, for a body it rejects or warns about (a
    whitespace-only line, ``1_0``, a record spread over lines, ``1.0`` in an
    int column on numpy < 2), the csv module and the converters row by row, which accept
    the same values and more and name the line of the first bad row."""
    dtype = np.dtype([(f"f{i}", conv) for i, conv in enumerate(converters)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                io.StringIO(body), dtype=dtype, delimiter=",", quotechar='"',
                comments=None, ndmin=1,
            )
    except (ValueError, Warning):
        table = ()
    lines = range(2, len(table) + 2)
    if len(table) != body.count("\n") + (not body.endswith("\n")):  # not a row per line
        physical = io.StringIO(body, newline="")
        lines = [n for n, line in enumerate(physical, start=2) if line.strip("\r\n")]
    if len(table) and len(table) == len(lines):
        return lines, [table[name] for name in dtype.names]
    reader = csv.reader(io.StringIO(body, newline=""))
    rows, lineno = [], 2  # the file line where the next record starts
    try:
        for row in reader:
            if any(map(str.strip, row)):
                rows.append((lineno, row))
            lineno = reader.line_num + 2
    except csv.Error as exc:  # a field over the csv module's size limit
        raise DataError(f"line {lineno}: {exc}") from None
    if not rows:
        raise DataError("no observations")
    for lineno, row in rows:
        if len(row) != len(converters):
            raise DataError(
                f"line {lineno}: expected {len(converters)} fields, got {len(row)}"
            )
    columns = [[] for _ in converters]
    for lineno, row in rows:
        for column, conv, value in zip(columns, converters, row):
            try:
                column.append(conv(value))
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    return [lineno for lineno, _ in rows], [np.array(column) for column in columns]


def _check_rows(lines, bad, message):
    """Raise DataError naming the line of the first row flagged in ``bad``."""
    if np.any(bad):
        raise DataError(f"line {lines[int(np.argmax(bad))]}: {message}")


def load_long_csv(path):
    """Load the long schema ``sample,y,x1,...,xp``: samples are 1-based, and
    ``y`` must be the stratum indicator the models use, the sample index
    minus 1.  The covariates are labelled ``x1..xp``.
    """
    header, body = _read_csv(path)
    if len(header) < 3 or header[0] != "sample" or header[1] != "y":
        raise DataError("expected header 'sample,y,x1,...,xp', got " + ",".join(header))
    lines, (sample, y, *xs) = _columns(body, [int] + [float] * (len(header) - 1))
    X = np.column_stack(xs)
    _check_rows(lines, sample < 1, "sample index must be >= 1")
    _check_rows(lines, ~np.all(np.isfinite(X), axis=1), "non-finite covariate")
    _check_rows(lines, y != sample - 1, "y must be 0 in the first sample, 1 in the second")
    return MultisampleDataset.from_columns(X, sample, np.ones(len(lines), dtype=int))


def _casecontrol_columns(path):
    """File lines and checked raw columns age, scar, counts (controls,
    cases) of a CSV file."""
    header, body = _read_csv(path)
    if header != ["age", "scar", "cases", "controls"]:
        raise DataError("expected header 'age,scar,cases,controls', got " + ",".join(header))
    lines, (age, scar, cases, controls) = _columns(body, (float, float, int, int))
    counts = np.column_stack([controls, cases])
    _check_rows(lines, np.any(counts < 0, axis=1), "case and control counts must be >= 0")
    _check_rows(lines, ~(np.isfinite(age) & np.isfinite(scar)), "non-finite covariate")
    return lines, age, scar, counts


def _casecontrol_dataset(x2, scar, counts):
    """Grouped case-control dataset of the covariates (scar, x2) and the
    counts (controls, cases) of each line."""
    X = np.column_stack([scar, x2])
    # one row per nonzero (line, stratum) count: controls, then cases
    line_idx, stratum = np.nonzero(counts > 0)
    if not len(line_idx):
        raise DataError("no observations")
    return MultisampleDataset.from_columns(
        X[line_idx], stratum + 1, counts[line_idx, stratum], labels=("Scar", "Age")
    )


def load_casecontrol_csv(path, transform=None):
    """Load the grouped case-control schema ``age,scar,cases,controls``.

    Controls become sample 1 (y=0), cases sample 2 (y=1).  ``transform``
    maps raw age to the covariate actually used (identity if None); it is
    called once, on the array of all ages, and must return an array of the
    same length.  Where it raises DataError, it is called again on one age
    at a time, to name the line of the first age it rejects.  The stored
    covariates are (scar, transformed age), labelled Scar and Age.
    Counts must be nonnegative; a zero count contributes no row.
    """
    lines, age, scar, counts = _casecontrol_columns(path)
    try:
        x2 = age if transform is None else np.asarray(transform(age), dtype=float)
    except DataError:
        for i, line in enumerate(lines):
            try:
                transform(age[i : i + 1])
            except DataError as exc:
                raise DataError(f"line {line}: {exc}") from None
        raise
    return _casecontrol_dataset(x2, scar, counts)
