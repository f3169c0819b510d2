"""Varimax rotation of a loading matrix via pairwise plane rotations.

Each sweep visits every factor pair in lexicographic order and rotates the
pair by the analytically optimal angle.  A plane rotation is applied only
when it does not decrease the objective, so the objective trace is
non-decreasing.  Rows are optionally normalized to unit length before the
sweeps and restored afterwards (Kaiser normalization), which is the
convention assumed by the reference tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .factors import LoadingMatrix

__all__ = [
    "RotationResult",
    "varimax_objective",
    "optimal_plane_angle",
    "varimax",
]

ANGLE_EPS = 1e-14  # both angle terms below this -> the plane is left alone


@dataclass(frozen=True)
class RotationResult:
    """Rotated loadings, the accumulated k x k rotation and the sweep trace.

    ``rotated.entries == original.entries @ rotation`` up to rounding, and
    the per-row sums of squares (communalities) are unchanged.  ``converged``
    is false when the sweep budget ran out before the objective settled.
    """

    rotated: LoadingMatrix
    rotation: np.ndarray
    sweeps_used: int
    objective_trace: tuple[float, ...]
    converged: bool

    def __post_init__(self) -> None:
        rotation = np.array(self.rotation, dtype=float)
        rotation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))


def _entries(loadings) -> np.ndarray:
    if isinstance(loadings, LoadingMatrix):
        return np.array(loadings.entries, dtype=float)
    return np.array(loadings, dtype=float)


def _column_objective(column: np.ndarray, n_rows: int) -> float:
    squares = column**2
    return n_rows * float((squares**2).sum()) - float(squares.sum()) ** 2


def varimax_objective(loadings) -> float:
    """Sum over factors of the (n-scaled) variance of the squared loadings.

    Accepts a ``LoadingMatrix`` or a plain array and evaluates the matrix
    exactly as passed, whether or not its rows are normalized.
    """
    a = _entries(loadings)
    if a.ndim != 2 or a.shape[1] < 2:
        raise SizeError("objective needs at least two factor columns")
    n_rows = a.shape[0]
    return sum(_column_objective(a[:, j], n_rows) for j in range(a.shape[1]))


def optimal_plane_angle(x, y) -> float | None:
    """Rotation angle maximizing the two-column objective for points (x, y).

    Returns the angle in (-pi/4, pi/4], or None when both the numerator and
    the denominator of the angle equation vanish (the plane carries no
    preference and should be skipped).
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise SizeError("need two equally long one-dimensional sequences")
    n = xs.size
    if n < 2:
        raise SizeError(f"need at least 2 points per plane, got {n}")
    return _plane_angle(xs, ys, n)


def _plane_angle(xs: np.ndarray, ys: np.ndarray, n: int) -> float | None:
    """``optimal_plane_angle`` on float arrays of length ``n`` >= 2, unchecked."""
    u = xs**2 - ys**2
    v = 2.0 * xs * ys
    sum_u = float(u.sum())
    sum_v = float(v.sum())
    numerator = 2.0 * (n * float((u * v).sum()) - sum_u * sum_v)
    denominator = n * float((u**2 - v**2).sum()) - (sum_u**2 - sum_v**2)
    if abs(numerator) < ANGLE_EPS and abs(denominator) < ANGLE_EPS:
        return None
    # atan2 places 4*phi in the quadrant dictated by the two signs
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
    active = row_norms > 0.0
    if normalize:
        working[active] /= row_norms[active, None]
    n_active = int(np.count_nonzero(active))
    if max_sweeps > 0 and n_active < 2:
        raise SizeError(f"need at least 2 points per plane, got {n_active}")
    # factor j is row j of `columns` and of `turns` (the rotation's column j),
    # so each plane reads and writes contiguous rows
    columns = working.T.copy()
    turns = np.eye(k)
    objectives = [_column_objective(columns[j], n) for j in range(k)]
    objective = sum(objectives)
    trace = [objective]
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        for p in range(k - 1):
            x = columns[p]
            for q in range(p + 1, k):
                y = columns[q]
                if n_active == n:
                    angle = _plane_angle(x, y, n)
                else:
                    angle = _plane_angle(x[active], y[active], n_active)
                if angle is None:
                    continue
                c = math.cos(angle)
                s = math.sin(angle)
                new_p = c * x + s * y
                new_q = -s * x + c * y
                after_p = _column_objective(new_p, n)
                after_q = _column_objective(new_q, n)
                if after_p + after_q < objectives[p] + objectives[q]:
                    continue
                columns[p] = new_p
                columns[q] = new_q
                objectives[p] = after_p
                objectives[q] = after_q
                rot_p = c * turns[p] + s * turns[q]
                rot_q = -s * turns[p] + c * turns[q]
                turns[p] = rot_p
                turns[q] = rot_q
        sweeps += 1
        new_objective = sum(objectives)
        trace.append(new_objective)
        improvement = new_objective - objective
        scale = abs(objective) if objective != 0.0 else 1.0
        objective = new_objective
        if improvement < tol * scale:
            converged = True
            break
    working = np.ascontiguousarray(columns.T)
    if normalize:
        working[active] *= row_norms[active, None]
    rotated = LoadingMatrix(working, loadings.variable_labels)
    rotation = np.ascontiguousarray(turns.T)
    return RotationResult(rotated, rotation, sweeps, tuple(trace), converged)
