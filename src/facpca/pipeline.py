"""Principal-component scores, and cross-checks tying the factor-analysis
view to the PCA view.

``project`` gives the modified PCA's scores: the standardized data on the
leading eigenvectors, as many as the per-variable retention rule keeps
(``reporting.Analysis.scores``).  Squared correlations between variables
and component scores must equal the squared loadings, and the loading
matrix expressed in the eigenvector basis must come out symmetric.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InconsistentModelError, ShapeError, SizeError
from .factors import LoadingMatrix
from .stats import DataMatrix

__all__ = [
    "project",
    "pc_variable_determination",
    "verify_artifact",
]

ZERO_SCORE_VARIANCE = 1e-12  # score columns below this variance are degenerate


def project(standardized: DataMatrix, eigenvectors: np.ndarray, k: int) -> np.ndarray:
    """Principal-component scores: standardized data times the first k eigenvectors.

    Equivalent to rotating each observation row into the eigenvector basis.
    Scores keep the eigenvalues as their variances; divide column j by
    sqrt(eigenvalue_j) if standardized components are needed instead.
    """
    u = np.asarray(eigenvectors, dtype=float)
    n = standardized.n_variables
    if u.ndim != 2 or u.shape[0] != n:
        raise ShapeError(f"eigenvector matrix must have {n} rows, got {u.shape}")
    if not (1 <= k <= u.shape[1]):
        raise ShapeError(f"need 1 <= k <= {u.shape[1]}, got k={k}")
    return standardized.values @ u[:, :k]


def pc_variable_determination(
    standardized: DataMatrix, scores: np.ndarray
) -> np.ndarray:
    """Squared correlations between every variable and every score column.

    Equals the elementwise square of the loading matrix up to numerical
    tolerance.  Columns whose score variance is numerically zero (eigenvalue
    0) get all-zero entries and trigger a warning, since correlation with a
    constant is undefined.
    """
    score_matrix = np.asarray(scores, dtype=float)
    if score_matrix.ndim != 2 or score_matrix.shape[0] != standardized.n_observations:
        raise ShapeError("scores must have one row per observation")
    x = standardized.values
    x_centered = x - x.mean(axis=0)
    x_norms = np.sqrt(np.sum(x_centered**2, axis=0))
    s_centered = score_matrix - score_matrix.mean(axis=0)
    s_norms = np.sqrt(np.sum(s_centered**2, axis=0))
    m = score_matrix.shape[0]
    degenerate = s_norms**2 / m < ZERO_SCORE_VARIANCE
    if np.any(degenerate):
        which = ", ".join(str(j + 1) for j in np.flatnonzero(degenerate))
        warnings.warn(
            f"score column(s) {which} have zero variance; "
            "their determination coefficients are set to 0",
            stacklevel=2,
        )
    safe_norms = np.where(degenerate, 1.0, s_norms)
    r = (x_centered.T @ s_centered) / np.outer(x_norms, safe_norms)
    r[:, degenerate] = 0.0
    return r**2


def verify_artifact(
    loadings: LoadingMatrix, eigenvectors: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Express the full loading matrix in the eigenvector basis and check symmetry.

    The product L @ U.T equals U @ D @ D @ U.T with D the fourth root of the
    eigenvalue matrix, i.e. a product of a matrix with its own transpose, so
    it must be symmetric.  A violation beyond 1e-10 means the decomposition
    feeding L and U is broken, and raises ``InconsistentModelError``.

    Returns the product matrix and the (always true) symmetry flag.
    """
    u = np.asarray(eigenvectors, dtype=float)
    n = loadings.n_variables
    if loadings.k != n:
        raise SizeError("artifact check needs the full square loading matrix")
    if u.shape != (n, n):
        raise ShapeError(f"eigenvector matrix must be {n}x{n}, got {u.shape}")
    product = loadings.entries @ u.T
    asymmetry = float(np.max(np.abs(product - product.T)))
    if asymmetry >= 1e-10:
        raise InconsistentModelError(
            f"L @ U.T deviates from symmetry by {asymmetry:.3e}; "
            "the eigendecomposition is inconsistent"
        )
    return product, True
