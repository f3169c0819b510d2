"""Machine-speed reference for the timed metrics.

The benchmark runs on a shared machine whose speed drifts: a fixed task
takes up to ~40% longer in one minute than in the next, and that drift,
not the program, set most of the run-to-run spread of raw wall times.  The
drift is not stolen time: the process's CPU time grows with its wall time,
the CPU just runs slower.  So a small fixed task is timed just before and
just after every measured call: one cyclic Jacobi sweep over a fixed
40 x 40 matrix, the interpreter-bound mix of scalar Python and small numpy
row and column updates that dominates the CLI.  Of the tasks tried (CSV
parsing, formatting, mixes of both), it followed the drift of the
workloads best.  A call's wall time is multiplied by ``REFERENCE_S / mean
of its two reference times`` and then read as its wall time on a machine
where the reference task takes ``REFERENCE_S``.  Scaling each call by the
samples that bracket it follows a change of speed in the middle of a run,
which one factor per run did not; the metrics are medians over many calls,
which smooths the noise of single reference samples.  The task is
benchmark code, so a change to the program cannot move it.

Interpreter launches drift with process start-up and file reads, which the
task does not follow, so each set-up launch is scaled by a bare interpreter
launch (``python3 -c pass``) timed just before it instead.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Usual times of the reference task and of a bare interpreter launch on a
# 2-vCPU Intel Xeon virtual machine at 2.0 GHz.
REFERENCE_S = 0.0225
INTERPRETER_S = 0.07

_ORDER = 40
_MATRIX = np.random.default_rng(0).standard_normal((_ORDER, _ORDER))
_MATRIX = _MATRIX + _MATRIX.T


def _reference_task() -> np.ndarray:
    a = _MATRIX.copy()
    vectors = np.eye(_ORDER)
    for i in range(_ORDER - 1):
        for j in range(i + 1, _ORDER):
            tau = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
            t = 1.0 / (tau + math.copysign(math.sqrt(1.0 + tau * tau), tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            for m in (a, vectors):
                col_i, col_j = m[:, i].copy(), m[:, j].copy()
                m[:, i], m[:, j] = c * col_i - s * col_j, s * col_i + c * col_j
            row_i, row_j = a[i, :].copy(), a[j, :].copy()
            a[i, :], a[j, :] = c * row_i - s * row_j, s * row_i + c * row_j
    return a


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter()
    _reference_task()
    return time.perf_counter() - start


def speed_factor(reference: float, usual: float = REFERENCE_S) -> float:
    """Factor that turns wall times measured next to ``reference`` into times at the usual speed."""
    return usual / reference
