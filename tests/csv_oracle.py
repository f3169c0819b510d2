"""The cell-by-cell raw-CSV reader that ``facpca.reporting.read_data_csv`` replaced.

Kept as the differential oracle for the vectorized reader: every row goes
through ``csv.reader``, then ``float()`` and ``np.isfinite`` per cell.  It
reads with ``utf-8-sig``, so a leading byte-order mark is dropped, as the
library's readers drop it.
"""

from __future__ import annotations

import csv

import numpy as np

from facpca.errors import ParseError, SizeError
from facpca.stats import DataMatrix


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
