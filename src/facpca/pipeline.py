"""Principal-component scores: the projection onto principal components.

``project`` gives the modified PCA's scores: the standardized data on the
leading eigenvectors, as many as the per-variable retention rule keeps
(``reporting.Analysis.scores``).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .stats import DataMatrix

__all__ = ["project"]


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
