"""Descriptive statistics, standardization and correlation matrices.

All variance-like quantities use the biased estimator (divisor ``m``, the
number of observations).  With tens of thousands of rows the difference
from the unbiased form is negligible, and the biased form keeps the
identity ``variance(standardized column) == 1`` exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DegenerateColumnError, SizeError

__all__ = [
    "DataMatrix",
    "VariableStats",
    "CorrelationMatrix",
    "summarize",
    "standardize",
    "correlation_matrix",
    "determination_matrix",
]


@dataclass(frozen=True)
class DataMatrix:
    """An m x n block of observations with one label per column.

    Rows are observations, columns are variables.  The array is copied and
    frozen on construction, so instances can be shared across threads.
    """

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError("data must be a two-dimensional matrix")
        m, n = values.shape
        if m < 2 or n < 1:
            raise SizeError(f"need at least 2 rows and 1 column, got {m}x{n}")
        if not np.all(np.isfinite(values)):
            raise DataError("data contains non-finite values")
        labels = tuple(str(label) for label in self.labels)
        if len(labels) != n:
            raise DataError(f"got {len(labels)} labels for {n} columns")
        if len(set(labels)) != n:
            raise DataError("column labels must be distinct")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_observations(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    def column(self, index: int) -> np.ndarray:
        return self.values[:, index]

    @cached_property
    def _unit(self) -> np.ndarray:
        """``_unit_columns`` of this matrix, computed on first use and read-only.

        ``standardize`` and ``correlation_matrix`` both start from it, so a
        matrix that gets both is centered and scaled once.
        """
        unit = _unit_columns(self)
        unit.flags.writeable = False
        return unit


@dataclass(frozen=True)
class VariableStats:
    """Location and dispersion summary of a single column."""

    mean: float
    median: float
    mode: float
    std_dev: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of Pearson correlations with a unit diagonal."""

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DataError("correlation matrix must be square")
        n = entries.shape[0]
        labels = tuple(str(label) for label in self.labels)
        if len(labels) != n or len(set(labels)) != n:
            raise DataError("need one distinct label per variable")
        if np.max(np.abs(entries - entries.T), initial=0.0) > 1e-12:
            raise DataError("correlation matrix is not symmetric")
        if not np.all(np.diag(entries) == 1.0):
            raise DataError("correlation matrix diagonal must be exactly 1")
        if np.any(np.abs(entries) > 1.0):
            raise DataError("correlation entries must lie in [-1, 1]")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _as_column(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise SizeError("column must be one-dimensional")
    if x.size < 2:
        raise SizeError(f"column needs at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DataError("column contains non-finite values")
    return x


def summarize(column) -> VariableStats:
    """Summarize one column: mean, median, mode, biased std dev, min, max.

    The mode is the most frequent exact value; ties are broken towards the
    smallest value.  The median of an even-length column is the midpoint of
    the two central values.  Median and mode are read from one sorted copy.
    """
    x = _as_column(column)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.mean())
    if not math.isfinite(mean):
        # the sum of finite values overflowed: average them scaled to at most 1
        top = float(np.max(np.abs(x)))
        mean = top * float(np.mean(x / top))
    with np.errstate(over="ignore"):
        deviations = x - mean
    unit = 1.0
    if not np.all(np.isfinite(deviations)):
        # the range of x exceeds the largest float: center x / max|x| instead
        unit = float(np.max(np.abs(x)))
        deviations = x / unit - mean / unit
    # scaled to at most 1 in magnitude, so squaring cannot overflow or underflow
    scale = float(np.max(np.abs(deviations)))
    if scale > 0.0:
        deviations /= scale
    std_dev = unit * (scale * float(np.sqrt(np.mean(deviations**2))))
    ordered = np.sort(x)
    m = ordered.size
    run_starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    run_lengths = np.diff(np.append(run_starts, m))
    mode = float(ordered[run_starts[np.argmax(run_lengths)]])
    # the mean of the middle one or two values, as np.median takes it, so that a
    # zero median gets the same sign
    median = float(np.mean(ordered[(m - 1) // 2 : m // 2 + 1]))
    return VariableStats(
        mean=mean,
        median=median,
        mode=mode,
        std_dev=std_dev,
        minimum=float(x.min()),
        maximum=float(x.max()),
    )


def _unit_columns(data: DataMatrix) -> np.ndarray:
    """Each column of ``data`` centered, then divided by its largest magnitude.

    Neither correlations nor standardized values depend on a column's scale,
    and squaring entries of at most 1 in magnitude cannot overflow.  A
    constant column raises ``DegenerateColumnError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data.values - data.values.mean(axis=0)
    # a column whose sum or range exceeds the largest float is centered after
    # scaling it by 1 / max|x|
    for j in np.flatnonzero(~np.isfinite(centered).all(axis=0)):
        column = data.values[:, j] / np.max(np.abs(data.values[:, j]))
        centered[:, j] = column - column.mean()
    # second centering pass kills the rounding residue left by large offsets
    centered -= centered.mean(axis=0)
    scales = np.max(np.abs(centered), axis=0)
    for label, scale in zip(data.labels, scales):
        if scale == 0.0:
            raise DegenerateColumnError(f"column {label!r} is constant")
    return centered / scales


def standardize(data: DataMatrix) -> DataMatrix:
    """Shift each column to mean 0 and scale to biased standard deviation 1."""
    unit = data._unit
    return DataMatrix(unit / np.sqrt(np.mean(unit**2, axis=0)), data.labels)


def correlation_matrix(data: DataMatrix) -> CorrelationMatrix:
    """Pearson correlations between all column pairs of a data matrix.

    Each pair is computed once from the centered columns and mirrored, so
    the result is exactly symmetric with a diagonal of exactly 1.
    """
    unit = data._unit
    sumsq = np.sum(unit**2, axis=0)
    n = data.n_variables
    upper = np.zeros((n, n))
    for i in range(n - 1):
        dots = unit[:, i + 1 :].T @ unit[:, i]
        upper[i, i + 1 :] = dots / np.sqrt(sumsq[i] * sumsq[i + 1 :])
    entries = upper + upper.T + np.eye(n)
    np.clip(entries, -1.0, 1.0, out=entries)
    return CorrelationMatrix(entries, data.labels)


def determination_matrix(corr: CorrelationMatrix) -> np.ndarray:
    """Entrywise squares of a correlation matrix (shared-variance levels)."""
    return corr.entries**2
