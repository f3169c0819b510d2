"""The cell-by-cell CSV readers that ``facpca.reporting`` replaced.

Kept as the differential oracles for the vectorized readers: every row goes
through ``csv.reader``, then ``float()`` per cell.  They read with
``utf-8-sig``, so a leading byte-order mark is dropped, as the library's
readers drop it.
"""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np

from facpca.errors import DataError, ParseError, SizeError
from facpca.reporting import INGEST_SYMMETRY_TOL
from facpca.stats import CorrelationMatrix, DataMatrix


def _read_csv_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            raw = list(csv.reader(handle))
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    rows = [
        (line_no, [cell.strip() for cell in row])
        for line_no, row in enumerate(raw, start=1)
        if any(cell.strip() for cell in row)
    ]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    return rows


def read_data_csv(path) -> tuple[DataMatrix, int]:
    rows = _read_csv_rows(path)
    _, header = rows[0]
    labels = tuple(header)
    n = len(labels)
    kept: list[list[float]] = []
    dropped = 0
    for line_no, row in rows[1:]:
        if len(row) != n:
            raise ParseError(f"{path}: line {line_no}: expected {n} fields, got {len(row)}")
        values: list[float] = []
        usable = True
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                usable = False
                break
            if not np.isfinite(value):
                usable = False
                break
            values.append(value)
        if usable:
            kept.append(values)
        else:
            dropped += 1
    if len(kept) < 2:
        raise SizeError(
            f"{path}: only {len(kept)} usable rows remain after dropping {dropped}"
        )
    return DataMatrix(np.array(kept), labels), dropped


def read_correlation_csv(path) -> CorrelationMatrix:
    rows = _read_csv_rows(path)
    _, header = rows[0]
    if len(header) < 2:
        raise ParseError(f"{path}: header must hold a corner cell and the labels")
    labels = tuple(header[1:])
    repeated = [label for label, count in Counter(labels).items() if count > 1]
    if repeated:
        raise DataError(f"{path}: duplicate label {repeated[0]!r}")
    n = len(labels)
    if len(rows) - 1 != n:
        raise DataError(f"{path}: expected {n} matrix rows, found {len(rows) - 1}")
    entries = np.zeros((n, n))
    for k, (line_no, row) in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise ParseError(
                f"{path}: line {line_no}: expected a label and {n} values, got {len(row)} fields"
            )
        if row[0] != labels[k]:
            raise DataError(
                f"{path}: row label {row[0]!r} does not match header label {labels[k]!r}"
            )
        try:
            entries[k] = [float(cell) for cell in row[1:]]
        except ValueError:
            # name the row's first cell that is not a number
            for cell in row[1:]:
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(f"{path}: line {line_no}: {cell!r} is not a number") from None
    if not np.all(np.isfinite(entries)):
        raise DataError(f"{path}: matrix contains non-finite values")
    asymmetry = float(np.max(np.abs(entries - entries.T)))
    if asymmetry > INGEST_SYMMETRY_TOL:
        raise DataError(f"{path}: matrix asymmetric by {asymmetry:.3e} (limit 1e-06)")
    entries = (entries + entries.T) / 2.0
    diag_error = float(np.max(np.abs(np.diag(entries) - 1.0)))
    if diag_error > INGEST_SYMMETRY_TOL:
        raise DataError(f"{path}: diagonal deviates from 1 by {diag_error:.3e} (limit 1e-06)")
    np.fill_diagonal(entries, 1.0)
    overshoot = float(np.max(np.abs(entries))) - 1.0
    if overshoot > INGEST_SYMMETRY_TOL:
        raise DataError(f"{path}: entry magnitude exceeds 1 by {overshoot:.3e}")
    np.clip(entries, -1.0, 1.0, out=entries)
    return CorrelationMatrix(entries, labels)
