"""Symmetric eigendecomposition in one defined form.

``eigen_symmetric`` runs LAPACK's symmetric solver (``numpy.linalg.eigh``)
and puts its result in one defined form: eigenvalues sorted non-increasing,
exactly equal eigenvalues ordered by the row index of their eigenvector's
largest-magnitude entry, and each column signed so that entry is
non-negative.  The cyclic Jacobi solver it replaced is kept in the tests
as the accuracy reference the LAPACK engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotPositiveSemidefiniteError, ShapeError

__all__ = [
    "EigenDecomposition",
    "eigen_symmetric",
]

PSD_TOL = 1e-10  # eigenvalues of a correlation matrix may undershoot 0 by this


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted non-increasing, with matching eigenvector columns.

    Column ``j`` of ``eigenvectors`` pairs with ``eigenvalues[j]``.  Each
    column is normalized so its entry of largest magnitude is non-negative.
    ``eigen_symmetric`` orders columns with exactly equal eigenvalues by the
    row index of that entry.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.eigenvalues, dtype=float)
        vectors = np.array(self.eigenvectors, dtype=float)
        n = values.shape[0]
        if values.ndim != 1 or vectors.shape != (n, n):
            raise ShapeError("need n eigenvalues and an n x n eigenvector matrix")
        if np.any(np.diff(values) > 0):
            raise ShapeError("eigenvalues must be sorted non-increasing")
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def eigen_symmetric(matrix, *, correlation_input: bool = False) -> EigenDecomposition:
    """Decompose a symmetric matrix into sorted eigenvalues and eigenvectors.

    The decomposition is LAPACK's (``numpy.linalg.eigh``); a failure to
    converge raises ``ConvergenceError``.  Columns with exactly equal
    eigenvalues are ordered by the row index of their largest-magnitude
    entry, and every column is signed so that entry is non-negative.

    Parameters
    ----------
    matrix:
        Square matrix, symmetric to within 1e-10 entrywise.
    correlation_input:
        When true, the input is a correlation matrix and therefore positive
        semidefinite: eigenvalues in (-1e-10, 0) are rounding debris and are
        clamped to 0, while anything more negative raises
        ``NotPositiveSemidefiniteError``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ShapeError("input must be a non-empty square matrix")
    if not np.all(np.isfinite(a)):
        raise ShapeError("input contains non-finite values")
    if np.max(np.abs(a - a.T), initial=0.0) >= 1e-10:
        raise ShapeError("input matrix is not symmetric")
    a = (a + a.T) / 2.0
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    if correlation_input:
        if np.any(eigenvalues < -PSD_TOL):
            worst = float(eigenvalues.min())
            raise NotPositiveSemidefiniteError(
                f"correlation matrix has eigenvalue {worst:.3e} < -{PSD_TOL:.0e}"
            )
        eigenvalues = np.maximum(eigenvalues, 0.0)
    lead = np.argmax(np.abs(vectors), axis=0)
    order = np.lexsort((lead, -eigenvalues))
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    lead = lead[order]
    vectors[:, vectors[lead, np.arange(lead.size)] < 0.0] *= -1.0
    return EigenDecomposition(eigenvalues, vectors)
