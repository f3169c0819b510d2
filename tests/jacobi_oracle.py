"""The cyclic Jacobi eigensolver that ``facpca.eigen.eigen_symmetric`` replaced.

Kept as the accuracy reference for the LAPACK engine (Jacobi's method is
the more accurate one for small eigenvalues, Demmel & Veselic 1992):
``_jacobi`` runs the cyclic sweeps, and ``eigen_symmetric`` wraps it in the
checks, ordering and sign normalization the library applied around it.
The sweeps are built from plane rotations: ``plane_rotation`` embeds one
in an identity matrix, and ``compose_rotation`` multiplies one into an
accumulated rotation.
"""

from __future__ import annotations

import math

import numpy as np

from facpca.eigen import PSD_TOL, EigenDecomposition
from facpca.errors import ConvergenceError, FacpcaError, NotPositiveSemidefiniteError, ShapeError

ROTATION_SKIP = 1e-13  # off-diagonal entries at or below this are left alone
CONVERGENCE_TOL = 1e-12  # sweeps stop once max |off-diagonal| drops below this
MAX_SWEEPS = 100


class PlaneIndexError(FacpcaError):
    """Invalid axis pair for a plane rotation."""


def _check_plane(n: int, i: int, j: int) -> None:
    if not (0 <= i < j < n):
        raise PlaneIndexError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")


def plane_rotation(n: int, i: int, j: int, angle: float) -> np.ndarray:
    """Identity matrix with a rotation by ``angle`` embedded in plane (i, j).

    The four modified elements are ``r[i, i] = r[j, j] = cos(angle)``,
    ``r[i, j] = sin(angle)`` and ``r[j, i] = -sin(angle)``.
    """
    _check_plane(n, i, j)
    c = math.cos(angle)
    s = math.sin(angle)
    r = np.eye(n)
    r[i, i] = c
    r[i, j] = s
    r[j, i] = -s
    r[j, j] = c
    return r


def _apply_plane_inplace(matrix: np.ndarray, i: int, j: int, c: float, s: float) -> None:
    # matrix := matrix @ plane_rotation(n, i, j, angle); only columns i, j change
    col_i = c * matrix[:, i] - s * matrix[:, j]
    col_j = s * matrix[:, i] + c * matrix[:, j]
    matrix[:, i] = col_i
    matrix[:, j] = col_j


def compose_rotation(accumulated: np.ndarray, i: int, j: int, angle: float) -> np.ndarray:
    """Multiply an accumulated rotation by one more plane rotation.

    Equivalent to ``accumulated @ plane_rotation(n, i, j, angle)`` but only
    the two affected columns are recomputed.  The caller is responsible for
    passing an orthogonal ``accumulated``; it is not re-checked here.
    """
    acc = np.array(accumulated, dtype=float)
    if acc.ndim != 2 or acc.shape[0] != acc.shape[1]:
        raise ShapeError("accumulated rotation must be a square matrix")
    _check_plane(acc.shape[0], i, j)
    _apply_plane_inplace(acc, i, j, math.cos(angle), math.sin(angle))
    return acc


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Run cyclic Jacobi sweeps on a symmetric matrix, in place.

    Returns the final diagonal, the accumulated rotation matrix and the
    off-diagonal Frobenius norm recorded before each sweep (which must
    decrease monotonically).
    """
    n = a.shape[0]
    vectors = np.eye(n)
    history: list[float] = []
    if n == 1:
        return np.diag(a).copy(), vectors, history
    for _ in range(MAX_SWEEPS):
        strict_upper = np.triu(a, 1)
        history.append(math.sqrt(2.0 * float(np.sum(strict_upper**2))))
        if float(np.max(np.abs(strict_upper))) < CONVERGENCE_TOL:
            return np.diag(a).copy(), vectors, history
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = a[i, j]
                if abs(aij) <= ROTATION_SKIP:
                    continue
                # smaller-angle root of  t^2 + 2*tau*t - 1 = 0  zeroes a[i, j]
                tau = (a[j, j] - a[i, i]) / (2.0 * aij)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (tau - math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # two-sided update: columns first, then rows
                _apply_plane_inplace(a, i, j, c, s)
                row_i = c * a[i, :] - s * a[j, :]
                row_j = s * a[i, :] + c * a[j, :]
                a[i, :] = row_i
                a[j, :] = row_j
                a[i, j] = a[j, i] = 0.0
                _apply_plane_inplace(vectors, i, j, c, s)
    raise ConvergenceError(f"no convergence after {MAX_SWEEPS} sweeps")


def _normalize_column_signs(vectors: np.ndarray) -> np.ndarray:
    for j in range(vectors.shape[1]):
        lead = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[lead, j] < 0.0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def eigen_symmetric(matrix, *, correlation_input: bool = False) -> EigenDecomposition:
    """The library's decomposition as it ran on ``_jacobi``; ties keep their sweep order."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("input must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise ShapeError("input contains non-finite values")
    if np.max(np.abs(a - a.T), initial=0.0) >= 1e-10:
        raise ShapeError("input matrix is not symmetric")
    a = (a + a.T) / 2.0
    diagonal, vectors, _ = _jacobi(a)
    order = np.argsort(-diagonal, kind="stable")
    eigenvalues = diagonal[order]
    vectors = vectors[:, order]
    if correlation_input:
        if np.any(eigenvalues < -PSD_TOL):
            worst = float(eigenvalues.min())
            raise NotPositiveSemidefiniteError(
                f"correlation matrix has eigenvalue {worst:.3e} < -{PSD_TOL:.0e}"
            )
        eigenvalues = np.maximum(eigenvalues, 0.0)
    vectors = _normalize_column_signs(vectors)
    return EigenDecomposition(eigenvalues, vectors)
