"""The cell-by-cell numeric CSV writer that ``facpca.reporting.write_numeric_csv`` replaced.

Kept as the reference for the block writer, which must reproduce its
bytes: every cell goes through ``format_number`` and every row through
``csv.writer``, as ``simulate`` and ``pca`` once wrote their outputs.
"""

from __future__ import annotations

import csv

from facpca.reporting import format_number


def write_numeric_csv(path, labels, values) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(list(labels))
        writer.writerows([format_number(v) for v in row] for row in values)
