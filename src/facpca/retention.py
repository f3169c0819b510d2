"""Criteria for choosing how many factors or principal components to keep.

Besides the classic criteria (Kaiser, explained-variance percentage, half
the variable count, scree series), this module implements the
minimum-per-variable-variance rule: keep the smallest number of factors
such that every variable has at least a threshold share of its variance
explained.  The per-variable shares come straight from the loading matrix,
so the rule costs no more than the decomposition itself, and its report
keeps them for the cumulative communality table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, OrderError, SizeError, ThresholdError
from .factors import LoadingMatrix

__all__ = [
    "RetentionReport",
    "VarianceTable",
    "variance_table",
    "kaiser_count",
    "percentage_count",
    "half_count",
    "check_epsilon",
    "minvar_count",
    "scree_data",
]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class VarianceTable:
    """Explained-variance ledger: read-only arrays, one entry per component, sorted by size."""

    eigenvalue: np.ndarray
    cumulative_eigenvalue: np.ndarray
    pct: np.ndarray
    cumulative_pct: np.ndarray


@dataclass(frozen=True)
class RetentionReport:
    """Per-prefix retention diagnostics plus the chosen factor count.

    Entry i (0-based) of each read-only array describes the model with i+1
    factors (whose own share of the variance is ``VarianceTable.pct``):
    ``min_var`` is the worst-explained variable's explained share, ``aver_var``
    the mean share, and the ints ``nr_min_var`` the 1-based index of the
    worst-explained variable (0 when no variable is strictly below the
    running minimum seed of 1).  ``chosen`` is the smallest count whose
    ``min_var`` reaches ``threshold``.  With all n factors every share is 1
    up to rounding, so the last ``min_var`` and ``nr_min_var`` are rounding
    noise, kept as published.  ``cumulative`` is the n x n matrix behind
    them: entry (i, j) is variable i's explained share with the first j+1
    factors together.
    """

    min_var: np.ndarray
    aver_var: np.ndarray
    nr_min_var: np.ndarray
    chosen: int
    threshold: float
    cumulative: np.ndarray


def _sorted_eigenvalues(eigenvalues) -> np.ndarray:
    values = np.array(eigenvalues, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise OrderError("need a non-empty one-dimensional eigenvalue sequence")
    if not np.all(np.isfinite(values)):
        raise DataError("eigenvalues must be finite")
    if np.any(np.diff(values) > 0):
        raise OrderError("eigenvalues must be sorted non-increasing")
    return values


def variance_table(eigenvalues) -> VarianceTable:
    """Tabulate eigenvalues with cumulative sums and percentage shares."""
    values = _sorted_eigenvalues(eigenvalues)
    n = values.size
    cumulative = np.cumsum(values)
    columns = (values, cumulative, values / n * 100.0, cumulative / n * 100.0)
    return VarianceTable(*map(_read_only, columns))


def kaiser_count(eigenvalues) -> int:
    """Number of eigenvalues not less than one."""
    values = np.asarray(eigenvalues, dtype=float)
    return int(np.sum(values >= 1.0))


def percentage_count(variance: VarianceTable, threshold_pct: float) -> int:
    """Smallest count whose cumulative explained percentage reaches the threshold."""
    reached = variance.cumulative_pct >= threshold_pct - 1e-9
    return int(np.argmax(reached)) + 1 if reached.any() else reached.size


def half_count(n: int) -> int:
    """Half the number of variables, rounded down, but at least 1 factor."""
    if n < 1:
        raise SizeError(f"need at least one variable, got {n}")
    return max(1, n // 2)


def scree_data(eigenvalues) -> list[tuple[int, float]]:
    """(index, eigenvalue) pairs for a scree plot, indices starting at 1.

    No elbow detection is attempted; reading the plot is left to the user.
    """
    values = _sorted_eigenvalues(eigenvalues)
    return [(i + 1, float(v)) for i, v in enumerate(values)]


def check_epsilon(epsilon: float) -> None:
    """Refuse a threshold outside (0.5, 1]: most of a variable's variance must be explained."""
    if not 0.5 < epsilon <= 1.0:
        raise ThresholdError(f"epsilon must lie in (0.5, 1], got {epsilon}")


def minvar_count(loadings: LoadingMatrix, epsilon: float) -> RetentionReport:
    """Choose the factor count by the minimum-per-variable-variance rule.

    ``loadings`` is the full square loading matrix (``full_loadings``);
    a truncated one raises ``SizeError``.  Accumulates, factor by factor,
    each variable's explained variance (the squared loadings) and stops
    once the worst-explained variable reaches ``epsilon``.  The report
    carries the diagnostics for every prefix 1..n, not just the chosen one.

    ``epsilon``, which has no default here (``Analysis`` holds it), must
    exceed 0.5: a variable is considered adequately represented only when
    most of its variance is.
    """
    check_epsilon(epsilon)
    n = loadings.n_variables
    if loadings.k != n:
        raise SizeError(f"need the full {n} x {n} loading matrix, got {loadings.k} factors")
    # in the loadings' memory order, which fixes how its column means sum
    cumulative = _read_only(np.cumsum(loadings.entries**2, axis=1))
    # row i: each variable's explained variance with the first i + 1 factors,
    # in contiguous rows so each row's mean sums like a one-dimensional array
    explained = cumulative.T.copy()
    lowest = explained.argmin(axis=1)
    lowest_value = explained[np.arange(n), lowest]
    # seeded at 1: a prefix with no variable strictly below 1 reports (1.0, 0);
    # argmin keeps the earliest variable on ties
    below = lowest_value < 1.0
    min_var = _read_only(np.where(below, lowest_value, 1.0))
    # rounding can leave min_var[n-1] at 1 - ulp, so cap the answer at n
    reached = min_var >= epsilon
    return RetentionReport(
        min_var=min_var,
        aver_var=_read_only(explained.mean(axis=1)),
        nr_min_var=_read_only(np.where(below, lowest + 1, 0)),
        chosen=int(np.argmax(reached)) + 1 if reached.any() else n,
        threshold=epsilon,
        cumulative=cumulative,
    )
