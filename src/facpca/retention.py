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

from .eigen import PSD_TOL, EigenDecomposition
from .errors import NotPositiveSemidefiniteError, OrderError, ThresholdError

__all__ = [
    "RetentionReport",
    "VarianceTable",
    "variance_table",
    "kaiser_count",
    "percentage_count",
    "half_count",
    "minvar_count",
    "scree_data",
]


@dataclass(frozen=True)
class VarianceTable:
    """Explained-variance ledger: one row per component, sorted by size."""

    eigenvalue: tuple[float, ...]
    cumulative_eigenvalue: tuple[float, ...]
    pct: tuple[float, ...]
    cumulative_pct: tuple[float, ...]


@dataclass(frozen=True)
class RetentionReport:
    """Per-prefix retention diagnostics plus the chosen factor count.

    Index i (0-based) of each sequence describes the model with i+1 factors:
    ``eig_pct`` is that factor's share of total variance, ``min_var`` the
    worst-explained variable's explained share, ``aver_var`` the mean share,
    and ``nr_min_var`` the 1-based index of the worst-explained variable
    (0 when no variable is strictly below the running minimum seed of 1).
    ``chosen`` is the smallest count whose ``min_var`` reaches ``threshold``.
    With all n factors every share is 1 up to rounding, so the last
    ``min_var`` and ``nr_min_var`` are rounding noise, kept as published.
    ``cumulative`` is the read-only n x n matrix behind them: entry (i, j) is
    variable i's explained share with the first j+1 factors together.
    """

    eig_pct: tuple[float, ...]
    min_var: tuple[float, ...]
    aver_var: tuple[float, ...]
    nr_min_var: tuple[int, ...]
    chosen: int
    threshold: float
    cumulative: np.ndarray


def _sorted_eigenvalues(eigenvalues) -> np.ndarray:
    values = np.asarray(eigenvalues, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise OrderError("need a non-empty one-dimensional eigenvalue sequence")
    if np.any(np.diff(values) > 0):
        raise OrderError("eigenvalues must be sorted non-increasing")
    return values


def variance_table(eigenvalues) -> VarianceTable:
    """Tabulate eigenvalues with cumulative sums and percentage shares."""
    values = _sorted_eigenvalues(eigenvalues)
    n = values.size
    cumulative = np.cumsum(values)
    return VarianceTable(
        eigenvalue=tuple(values),
        cumulative_eigenvalue=tuple(cumulative),
        pct=tuple(values / n * 100.0),
        cumulative_pct=tuple(cumulative / n * 100.0),
    )


def kaiser_count(eigenvalues) -> int:
    """Number of eigenvalues not less than one."""
    values = np.asarray(eigenvalues, dtype=float)
    return int(np.sum(values >= 1.0))


def percentage_count(eigenvalues, threshold_pct: float) -> int:
    """Smallest count whose cumulative explained percentage reaches the threshold."""
    cumulative_pct = np.array(variance_table(eigenvalues).cumulative_pct)
    reached = cumulative_pct >= threshold_pct - 1e-9
    return int(np.argmax(reached)) + 1 if reached.any() else cumulative_pct.size


def half_count(n: int) -> int:
    """Half the number of variables, rounded down."""
    if n < 1:
        raise ThresholdError(f"need at least one variable, got {n}")
    return n // 2


def scree_data(eigenvalues) -> list[tuple[int, float]]:
    """(index, eigenvalue) pairs for a scree plot, indices starting at 1.

    No elbow detection is attempted; reading the plot is left to the user.
    """
    values = _sorted_eigenvalues(eigenvalues)
    return [(i + 1, float(v)) for i, v in enumerate(values)]


def minvar_count(eig: EigenDecomposition, epsilon: float = 0.51) -> RetentionReport:
    """Choose the factor count by the minimum-per-variable-variance rule.

    Accumulates, factor by factor, each variable's explained variance
    (the squared loadings) and stops once the worst-explained variable
    reaches ``epsilon``.  The report carries the diagnostics for every
    prefix 1..n, not just the chosen one.

    ``epsilon`` must exceed 0.5: a variable is considered adequately
    represented only when most of its variance is.
    """
    if not 0.5 < epsilon <= 1.0:
        raise ThresholdError(f"epsilon must lie in (0.5, 1], got {epsilon}")
    eigenvalues = np.asarray(eig.eigenvalues, dtype=float)
    if np.any(eigenvalues < -PSD_TOL):
        raise NotPositiveSemidefiniteError(
            "negative eigenvalue; the retention rule needs a PSD spectrum"
        )
    eigenvalues = np.maximum(eigenvalues, 0.0)
    loadings = eig.eigenvectors * np.sqrt(eigenvalues)
    n = eig.size
    # in the eigenvectors' memory order, which fixes how its column means sum
    cumulative = np.cumsum(loadings**2, axis=1)
    cumulative.flags.writeable = False
    # row i: each variable's explained variance with the first i + 1 factors,
    # in contiguous rows so each row's mean sums like a one-dimensional array
    explained = cumulative.T.copy()
    lowest = explained.argmin(axis=1)
    lowest_value = explained[np.arange(n), lowest]
    # seeded at 1: a prefix with no variable strictly below 1 reports (1.0, 0);
    # argmin keeps the earliest variable on ties
    below = lowest_value < 1.0
    min_var = np.where(below, lowest_value, 1.0).tolist()
    nr_min_var = np.where(below, lowest + 1, 0).tolist()
    eig_pct = (eigenvalues / n).tolist()
    aver_var = explained.mean(axis=1).tolist()
    # rounding can leave min_var[n-1] at 1 - ulp, so cap the answer at n
    chosen = next((i + 1 for i, value in enumerate(min_var) if value >= epsilon), n)
    return RetentionReport(
        eig_pct=tuple(eig_pct),
        min_var=tuple(min_var),
        aver_var=tuple(aver_var),
        nr_min_var=tuple(nr_min_var),
        chosen=chosen,
        threshold=epsilon,
        cumulative=cumulative,
    )
