"""The pairwise Varimax sweep that ``facpca.varimax.varimax`` replaced.

Kept, with the objective and angle helpers it called, as the reference
for the lean sweep, which must reproduce it bit for bit: every pair calls
the validating ``plane_angle`` on boolean-indexed copies of the active
rows and evaluates four column objectives.
"""

from __future__ import annotations

import math

import numpy as np

from facpca.errors import SizeError
from facpca.factors import LoadingMatrix
from facpca.varimax import ANGLE_EPS, RotationResult, _check_row_norms


def _column_objective(column: np.ndarray, n_rows: int) -> float:
    squares = column**2
    return n_rows * float(np.sum(squares**2)) - float(np.sum(squares)) ** 2


def varimax_objective(a: np.ndarray) -> float:
    a = np.array(a, dtype=float)
    n_rows = a.shape[0]
    return sum(_column_objective(a[:, j], n_rows) for j in range(a.shape[1]))


def plane_angle(x, y) -> float | None:
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise SizeError("need two equally long one-dimensional sequences")
    n = xs.size
    if n < 2:
        raise SizeError(f"need at least 2 points per plane, got {n}")
    u = xs**2 - ys**2
    v = 2.0 * xs * ys
    numerator = 2.0 * (n * float(np.sum(u * v)) - float(np.sum(u)) * float(np.sum(v)))
    denominator = n * float(np.sum(u**2 - v**2)) - (
        float(np.sum(u)) ** 2 - float(np.sum(v)) ** 2
    )
    limit = ANGLE_EPS * n * float(np.sum(u**2 + v**2))
    if abs(numerator) <= limit and abs(denominator) <= limit:
        return None
    return math.atan2(numerator, denominator) / 4.0


def varimax(
    loadings: LoadingMatrix,
    normalize: bool = True,
    max_sweeps: int = 50,
    tol: float = 1e-9,
) -> RotationResult:
    """Rotate a truncated loading matrix towards simple structure.

    Parameters
    ----------
    loadings:
        n x k loading matrix with k >= 2.
    normalize:
        Apply Kaiser normalization: divide each row by its norm before the
        sweeps and restore the lengths afterwards.  Rows that are entirely
        zero are exempt and pass through unchanged.
    max_sweeps:
        Sweep budget; when exhausted the result carries ``converged=False``.
    tol:
        Relative objective improvement per full sweep below which the
        rotation is considered converged.
    """
    if loadings.k < 2:
        raise SizeError("varimax needs at least two factors")
    working = np.array(loadings.entries, dtype=float)
    n, k = working.shape
    row_norms = np.sqrt(np.sum(working**2, axis=1))
    _check_row_norms(row_norms, loadings.variable_labels)
    active = row_norms > 0.0
    if normalize:
        working[active] /= row_norms[active, None]
    rotation = np.eye(k)
    objective = varimax_objective(working)
    trace = [objective]
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        for p in range(k - 1):
            for q in range(p + 1, k):
                angle = plane_angle(working[active, p], working[active, q])
                if angle is None:
                    continue
                c = math.cos(angle)
                s = math.sin(angle)
                new_p = c * working[:, p] + s * working[:, q]
                new_q = -s * working[:, p] + c * working[:, q]
                before = _column_objective(working[:, p], n) + _column_objective(
                    working[:, q], n
                )
                after = _column_objective(new_p, n) + _column_objective(new_q, n)
                if after < before:
                    continue
                working[:, p] = new_p
                working[:, q] = new_q
                rot_p = c * rotation[:, p] + s * rotation[:, q]
                rot_q = -s * rotation[:, p] + c * rotation[:, q]
                rotation[:, p] = rot_p
                rotation[:, q] = rot_q
        sweeps += 1
        new_objective = varimax_objective(working)
        trace.append(new_objective)
        improvement = new_objective - objective
        scale = abs(objective) if objective != 0.0 else 1.0
        objective = new_objective
        if improvement < tol * scale:
            converged = True
            break
    if normalize:
        working[active] *= row_norms[active, None]
    rotated = LoadingMatrix(working, loadings.variable_labels)
    return RotationResult(rotated, rotation, sweeps, tuple(trace), converged)
