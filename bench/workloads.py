"""Seeded inputs and operation lists for the benchmark workloads.

Every input is a pure function of the workload seed.  ``make_plan`` writes
the inputs, records each one's SHA-256 digest, regenerates it to confirm
that the same seed gives the same bytes, and computes the expected outputs
with independent numpy code (``np.corrcoef``, ``np.linalg.eigh``), so
the oracles never ask ``facpca`` what the right answer is.

A plan is one round of CLI operations.  The harness runs whole rounds, so
every input is measured equally often whatever the run length.
"""

from __future__ import annotations

import hashlib
import zlib
from pathlib import Path

import numpy as np

WORKLOADS = ("raw_report", "wide_report", "simulate_draws")

# raw_report: the paper's weather records, ~1% of rows carrying a bad cell
RAW_ROWS = 50_000
RAW_BAD_SHARE = 0.01
RAW_BAD_TOKENS = ("", "NA", "inf")
RAW_FILES = 3
# (label, mean, standard deviation, cell format): mixed magnitudes as in the
# paper's seven weather variables
WEATHER_COLUMNS = (
    ("sea_level_pressure_hpa", 1013.0, 9.0, "%.1f"),
    ("air_temperature_c", 11.0, 7.5, "%.1f"),
    ("dew_point_c", 6.0, 6.5, "%.1f"),
    ("wind_direction_deg", 190.0, 95.0, "%.0f"),
    ("wind_speed_ms", 4.5, 2.5, "%.1f"),
    ("visibility_m", 22000.0, 9000.0, "%.0f"),
    ("time_hhmm", 1150.0, 690.0, "%.0f"),
)
# the bundled fixture's correlations, so the raw data has the paper's structure
WEATHER_CORR = np.array(
    [
        [1.000, -0.197, -0.257, -0.110, -0.108, -0.032, -0.010],
        [-0.197, 1.000, 0.875, 0.025, -0.038, 0.568, 0.100],
        [-0.257, 0.875, 1.000, 0.031, -0.142, 0.313, 0.010],
        [-0.110, 0.025, 0.031, 1.000, 0.311, 0.050, 0.034],
        [-0.108, -0.038, -0.142, 0.311, 1.000, 0.146, 0.044],
        [-0.032, 0.568, 0.313, 0.050, 0.146, 1.000, 0.122],
        [-0.010, 0.100, 0.010, 0.034, 0.044, 0.122, 1.000],
    ]
)

# wide_report: dense loadings on ~25 factors of decaying strength, so
# Varimax has no simple structure.  Varimax's work grows with the square of
# the retained count, which the min-variance rule sets anywhere in 15-20
# for such matrices; only matrices on which it keeps WIDE_CHOSEN factors
# are used, so every input of every seed is the same size of problem.
WIDE_N = 100
WIDE_FACTORS = 25
WIDE_COMMUNALITY = (0.60, 0.84)
WIDE_CHOSEN = 17
WIDE_FILES = 4

# simulate_draws: draws from the model fitted to the bundled weather
# correlations, one draw seed per operation
FIXTURE = Path(__file__).resolve().parent.parent / "src" / "facpca" / "data" / "dataset1_corr.csv"
SIM_DRAWS = 50_000
SIM_OPS = 4

EPSILON = 0.51  # the CLI default, used by the min-variance oracle


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, index])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def raw_csv(seed: int, index: int, rows: int = RAW_ROWS):
    """One raw weather CSV: its bytes, the corrupted data rows and the kept values.

    Corrupted rows (0-based data-row indices) hold one empty, ``NA`` or
    ``inf`` cell; every other cell is a finite number.  The kept values are
    parsed back from the written cells, so they equal what a correct reader
    keeps.
    """
    rng = _rng("raw_report", seed, index)
    z = rng.standard_normal((rows, len(WEATHER_COLUMNS))) @ np.linalg.cholesky(WEATHER_CORR).T
    means = np.array([mean for _, mean, _, _ in WEATHER_COLUMNS])
    sds = np.array([sd for _, _, sd, _ in WEATHER_COLUMNS])
    row_format = ",".join(fmt for *_, fmt in WEATHER_COLUMNS)
    lines = [row_format % tuple(row) for row in (means + sds * z).tolist()]
    bad = np.sort(rng.choice(rows, size=round(rows * RAW_BAD_SHARE), replace=False))
    bad_cols = rng.integers(len(WEATHER_COLUMNS), size=bad.size)
    tokens = rng.integers(len(RAW_BAD_TOKENS), size=bad.size)
    kept_rows = np.setdiff1d(np.arange(rows), bad)
    kept = np.array(",".join(lines[i] for i in kept_rows).split(","), dtype=float)
    for row, col, token in zip(bad, bad_cols, tokens):
        cells = lines[row].split(",")
        cells[col] = RAW_BAD_TOKENS[token]
        lines[row] = ",".join(cells)
    header = ",".join(label for label, *_ in WEATHER_COLUMNS)
    body = "\n".join(lines)
    return (
        f"{header}\n{body}\n".encode(),
        [int(r) for r in bad],
        kept.reshape(-1, len(WEATHER_COLUMNS)),
    )


def wide_corr(seed: int, index: int, n: int = WIDE_N, factors: int = WIDE_FACTORS):
    """One labeled n x n correlation CSV from a dense factor model, plus its matrix."""
    rng = _rng("wide_report", seed, index)
    loadings = rng.standard_normal((n, factors)) * np.linspace(1.0, 0.4, factors)
    communality = rng.uniform(*WIDE_COMMUNALITY, size=n)
    loadings *= np.sqrt(communality / np.sum(loadings**2, axis=1))[:, None]
    matrix = loadings @ loadings.T
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    labels = [f"v{i + 1:03d}" for i in range(n)]
    lines = ["," + ",".join(labels)]
    lines += [label + "," + ",".join(repr(float(v)) for v in row) for label, row in zip(labels, matrix)]
    return ("\n".join(lines) + "\n").encode(), matrix


def wide_input(seed: int, index: int):
    """The ``index``-th matrix of the seed on which the rule keeps WIDE_CHOSEN factors."""
    for attempt in range(index * 1000, (index + 1) * 1000):
        data, matrix = wide_corr(seed, attempt)
        if minvar_reference(matrix)[1] == WIDE_CHOSEN:
            return data, matrix
    raise RuntimeError(f"no {WIDE_CHOSEN}-factor matrix for seed {seed}, input {index}")


def fixture_matrix() -> tuple[list[str], np.ndarray]:
    """Labels and matrix of the bundled weather correlations, read with numpy alone."""
    lines = FIXTURE.read_text(encoding="utf-8").split()
    labels = lines[0].split(",")[1:]
    matrix = np.array([[float(cell) for cell in line.split(",")[1:]] for line in lines[1:]])
    return labels, matrix


def model_correlation(matrix: np.ndarray, epsilon: float = EPSILON) -> np.ndarray:
    """Correlations implied by the min-variance factor model: L L^T off the diagonal, 1 on it."""
    values, vectors = np.linalg.eigh(matrix)
    values, vectors = values[::-1], vectors[:, ::-1]
    chosen = minvar_reference(matrix, epsilon)[1]
    loadings = vectors[:, :chosen] * np.sqrt(np.maximum(values[:chosen], 0.0))
    implied = loadings @ loadings.T
    np.fill_diagonal(implied, 1.0)
    return implied


def minvar_reference(matrix: np.ndarray, epsilon: float = EPSILON):
    """Eigenvalues (descending), the min-variance count and its communalities.

    The count is the smallest k for which every variable has at least
    ``epsilon`` of its variance explained by the first k components.
    """
    values, vectors = np.linalg.eigh(matrix)
    values, vectors = values[::-1], vectors[:, ::-1]
    explained = np.cumsum(vectors**2 * np.maximum(values, 0.0), axis=1)
    reached = explained.min(axis=0) >= epsilon
    chosen = int(np.argmax(reached)) + 1 if reached.any() else matrix.shape[0]
    return values, chosen, explained[:, chosen - 1]


def _write_checked(path: Path, make) -> tuple[bytes, object]:
    """Write ``make()``'s bytes; a second call must give the same bytes."""
    data, *extra = make()
    if digest(make()[0]) != digest(data):
        raise RuntimeError(f"generator for {path.name} is not deterministic")
    path.write_bytes(data)
    return data, extra


def make_plan(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the inputs for one run; return one round of operations.

    Each operation holds the CLI arguments (without ``--out``), the digest
    of its input and what its outputs must satisfy.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    if workload == "raw_report":
        for i in range(RAW_FILES):
            path = directory / f"raw{i}.csv"
            data, (bad, kept) = _write_checked(path, lambda: raw_csv(seed, i))
            ops.append({
                "argv": ["report", "--input", str(path)],
                "input_digest": digest(data),
                "expect": {
                    "rows_dropped": len(bad),
                    "correlation": np.corrcoef(kept, rowvar=False).tolist(),
                },
            })
    elif workload == "wide_report":
        for i in range(WIDE_FILES):
            path = directory / f"corr{i}.csv"
            data, (matrix,) = _write_checked(path, lambda: wide_input(seed, i))
            eigenvalues, chosen, communality = minvar_reference(matrix)
            ops.append({
                "argv": ["report", "--corr", str(path)],
                "input_digest": digest(data),
                "expect": {
                    "eigenvalues": eigenvalues.tolist(),
                    "chosen": chosen,
                    "communalities": communality.tolist(),
                },
            })
    elif workload == "simulate_draws":
        path = directory / FIXTURE.name
        data, _ = _write_checked(path, lambda: (FIXTURE.read_bytes(),))
        labels, matrix = fixture_matrix()
        expect = {"labels": labels, "draws": SIM_DRAWS, "correlation": model_correlation(matrix).tolist()}
        draw_seeds = np.random.default_rng([zlib.crc32(workload.encode()), seed]).integers(2**31, size=SIM_OPS)
        for draw_seed in draw_seeds.tolist():
            ops.append({
                "argv": ["simulate", "--corr", str(path), "--draws", str(SIM_DRAWS), "--seed", str(draw_seed)],
                "input_digest": digest(data + str(draw_seed).encode()),
                "expect": expect,
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
