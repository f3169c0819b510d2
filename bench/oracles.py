"""Output checks, run outside the timed region.

Each check compares what one CLI operation wrote against the expectation
``workloads.make_plan`` computed with independent numpy code, and returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TOL = 1e-9
# sample correlations of 50,000 draws sit within about 0.005 of the model's
SAMPLE_TOL = 0.03


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _max_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want)))


def check_raw_report(out: Path, expect: dict) -> list[str]:
    _, rows = _table(out / "correlation_matrix.csv")
    corr = [[float(cell) for cell in row[1:]] for row in rows]
    error = _max_error(corr, expect["correlation"])
    if not error <= TOL:
        return [f"correlation_matrix.csv differs from np.corrcoef by {error:.3e}"]
    return []


def check_wide_report(out: Path, expect: dict) -> list[str]:
    problems = []
    _, rows = _table(out / "eigenvalues.csv")
    error = _max_error([float(row[1]) for row in rows], expect["eigenvalues"])
    if not error <= TOL:
        problems.append(f"eigenvalues.csv differs from numpy eigh by {error:.3e}")
    _, rows = _table(out / "criteria_comparison.csv")
    chosen = [row[1] for row in rows if row[0].startswith("min_variance")]
    if chosen != [str(expect["chosen"])]:
        problems.append(f"min-variance count {chosen} != reference {expect['chosen']}")
    header, rows = _table(out / "loadings_rotated.csv")
    factors = [i for i, name in enumerate(header) if name.startswith("F")]
    if len(factors) != expect["chosen"]:
        problems.append(f"loadings_rotated.csv has {len(factors)} factors, want {expect['chosen']}")
    else:
        loadings = np.array([[float(row[i]) for i in factors] for row in rows])
        error = _max_error(np.sum(loadings**2, axis=1), expect["communalities"])
        if not error <= TOL:
            problems.append(f"rotated communalities differ from the truncated ones by {error:.3e}")
    return problems


def check_simulate_draws(out: Path, expect: dict) -> list[str]:
    header, rows = _table(out / "simulated.csv")
    if header != expect["labels"]:
        return [f"simulated.csv header {header[:3]}... is not the labels of the input"]
    if len(rows) != expect["draws"]:
        return [f"simulated.csv has {len(rows)} rows, want {expect['draws']}"]
    draws = np.array(rows, dtype=float)
    if not np.isfinite(draws).all():
        return ["simulated.csv holds a non-finite value"]
    error = _max_error(np.corrcoef(draws, rowvar=False), expect["correlation"])
    if not error <= SAMPLE_TOL:
        return [f"sample correlations differ from the model's by {error:.3e}"]
    return []


CHECKS = {
    "raw_report": check_raw_report,
    "wide_report": check_wide_report,
    "simulate_draws": check_simulate_draws,
}


def check(workload: str, out: Path, expect: dict) -> list[str]:
    """Problems with one operation's output directory; [] when correct."""
    try:
        return CHECKS[workload](out, expect)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
