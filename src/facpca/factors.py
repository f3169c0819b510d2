"""Factor loadings, communalities, reduced factor models and simulation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenDecomposition
from .errors import (
    DataError,
    InconsistentModelError,
    NotPositiveSemidefiniteError,
    SizeError,
)
from .stats import DataMatrix

__all__ = [
    "LoadingMatrix",
    "FactorModel",
    "full_loadings",
    "truncate",
    "communalities",
    "build_model",
    "check_simulation",
    "simulate",
]


LOADING_MAX = 1.0 + 1e-9  # largest |loading| a ``LoadingMatrix`` accepts: 1 up to rounding


@dataclass(frozen=True)
class LoadingMatrix:
    """n x k matrix of factor loadings (rows: variables, columns: factors).

    Every entry is the correlation between a variable and a factor, so it
    lies in [-1, 1] up to rounding.
    """

    entries: np.ndarray
    variable_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2:
            raise DataError("loadings must form a two-dimensional matrix")
        n, k = entries.shape
        if not (1 <= k <= n):
            raise SizeError(f"need 1 <= k <= n, got n={n}, k={k}")
        labels = tuple(str(label) for label in self.variable_labels)
        if len(labels) != n or len(set(labels)) != n:
            raise DataError("need one distinct label per variable")
        if np.any(np.abs(entries) > LOADING_MAX):
            raise DataError("loadings are correlations and must lie in [-1, 1]")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "variable_labels", labels)

    @property
    def n_variables(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class FactorModel:
    """Reduced factor model: retained loadings plus per-variable unique weights.

    ``unique_weights[i]`` is the standard deviation sqrt(1 - communality_i)
    of the unique-factor contribution, so every modeled variable keeps unit
    total variance.
    """

    loadings: LoadingMatrix
    unique_weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.unique_weights, dtype=float)
        if weights.shape != (self.loadings.n_variables,):
            raise SizeError("need one unique weight per variable")
        if np.any(weights < 0.0) or np.any(weights > 1.0):
            raise InconsistentModelError("unique weights must lie in [0, 1]")
        common = communalities(self.loadings)
        if np.max(np.abs(common + weights**2 - 1.0)) > 1e-12:
            raise InconsistentModelError(
                "unique weights do not complement the communalities to 1"
            )
        weights.flags.writeable = False
        object.__setattr__(self, "unique_weights", weights)

    @property
    def variable_labels(self) -> tuple[str, ...]:
        return self.loadings.variable_labels


def full_loadings(eig: EigenDecomposition, labels) -> LoadingMatrix:
    """Square loading matrix: eigenvectors scaled by sqrt of the eigenvalues.

    This equals the matrix of correlations between the primary variables and
    the principal components.  ``labels`` names the n variables.
    """
    if np.any(eig.eigenvalues < 0.0):
        raise NotPositiveSemidefiniteError(
            "negative eigenvalue; loadings require a PSD correlation matrix"
        )
    entries = eig.eigenvectors * np.sqrt(eig.eigenvalues)
    return LoadingMatrix(entries, tuple(labels))


def truncate(loadings: LoadingMatrix, k: int) -> LoadingMatrix:
    """Keep the first k factor columns; variable labels are preserved."""
    if not (1 <= k <= loadings.k):
        raise SizeError(f"need 1 <= k <= {loadings.k}, got k={k}")
    return LoadingMatrix(loadings.entries[:, :k], loadings.variable_labels)


def communalities(loadings: LoadingMatrix) -> np.ndarray:
    """Per-variable variance explained by the retained factors (row sums of squares)."""
    return np.sum(loadings.entries**2, axis=1)


def build_model(loadings: LoadingMatrix) -> FactorModel:
    """Attach unique-factor weights sqrt(1 - communality) to retained loadings."""
    common = communalities(loadings)
    overshoot = float(np.max(common)) - 1.0
    if overshoot > 1e-6:
        raise InconsistentModelError(
            f"communality exceeds 1 by {overshoot:.3e}; loadings are inconsistent"
        )
    common = np.minimum(common, 1.0)
    return FactorModel(loadings, np.sqrt(1.0 - common))


def check_simulation(draws: int, seed: int) -> None:
    """Refuse a negative ``seed`` or fewer than 2 ``draws``, before anything is drawn."""
    if seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    if draws < 2:
        raise SizeError(f"need at least 2 draws, got {draws}")


def simulate(model: FactorModel, draws: int, seed: int) -> DataMatrix:
    """Draw standardized variables from the factor model.

    Each output row is ``L @ f + w * u`` where ``f`` (k common factors) and
    ``u`` (one unique disturbance per variable) are independent standard
    normal draws.  The common block of shape (draws, k) is drawn first and
    the unique block of shape (draws, n) second, which pins the output for a
    given seed.  For large ``draws`` the sample correlation matrix converges
    to ``L @ L.T + diag(w**2)``.
    """
    check_simulation(draws, seed)
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((draws, model.loadings.k))
    unique = rng.standard_normal((draws, model.loadings.n_variables))
    values = common @ model.loadings.entries.T + unique * model.unique_weights
    return DataMatrix(values, model.variable_labels)
