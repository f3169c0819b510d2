"""The cell-by-cell report table builders that ``facpca.reporting`` replaced.

Kept as the reference for the block builders, which must reproduce their
tables cell for cell: every number goes through ``format_number``
(``%.12g``) or ``format_pct`` (a fraction times 100, ``%.2f``) on its own,
as the report, the printed tables and ``scree.txt`` were once built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from facpca.factors import LoadingMatrix, communalities
from facpca.retention import RetentionReport, scree_data, variance_table
from facpca.stats import CorrelationMatrix, DataMatrix, determination_matrix, summarize


class Table(NamedTuple):
    """A table as its header and its rows of cells, the row label first."""

    header: list[str]
    rows: list[list[str]]


def format_number(value) -> str:
    return format(float(value), ".12g")


def format_pct(fraction) -> str:
    return f"{float(fraction) * 100.0:.2f}"


def summary_table(data: DataMatrix) -> Table:
    stats = [summarize(data.column(i)) for i in range(data.n_variables)]
    rows = [
        ["Mean"] + [format_number(s.mean) for s in stats],
        ["Median"] + [format_number(s.median) for s in stats],
        ["Mode"] + [format_number(s.mode) for s in stats],
        ["Standard deviation"] + [format_number(s.std_dev) for s in stats],
        ["Minimum"] + [format_number(s.minimum) for s in stats],
        ["Maximum"] + [format_number(s.maximum) for s in stats],
    ]
    return Table(["statistic", *data.labels], rows)


def matrix_table(labels, matrix, cell) -> Table:
    rows = [
        [label, *(cell(value) for value in matrix[i])] for i, label in enumerate(labels)
    ]
    return Table(["", *labels], rows)


def correlation_tables(corr: CorrelationMatrix) -> tuple[Table, Table]:
    """The correlation matrix and its entrywise squares, in percent."""
    return (
        matrix_table(corr.labels, corr.entries, format_number),
        matrix_table(corr.labels, determination_matrix(corr), format_pct),
    )


def explained_variance_table(eigenvalues) -> Table:
    table = variance_table(eigenvalues)
    columns = zip(table.eigenvalue, table.cumulative_eigenvalue, table.pct, table.cumulative_pct)
    return Table(
        ["component", "eigenvalue", "cumulative_eigenvalue", "pct", "cumulative_pct"],
        [
            [str(i), format_number(value), format_number(total), f"{pct:.2f}", f"{total_pct:.2f}"]
            for i, (value, total, pct, total_pct) in enumerate(columns, start=1)
        ],
    )


def _factor_header(k: int) -> list[str]:
    return [f"F{j + 1}" for j in range(k)]


def loading_table(loadings: LoadingMatrix, with_communality: bool) -> Table:
    header = ["", *_factor_header(loadings.k)]
    common = communalities(loadings)
    if with_communality:
        header.append("communality_pct")
    rows = []
    for i, label in enumerate(loadings.variable_labels):
        row = [label, *(format_number(v) for v in loadings.entries[i])]
        if with_communality:
            row.append(format_pct(common[i]))
        rows.append(row)
    return Table(header, rows)


def common_variance_table(loadings: LoadingMatrix) -> Table:
    header = ["", *_factor_header(loadings.k), "communality_pct"]
    common = communalities(loadings)
    rows = []
    for i, label in enumerate(loadings.variable_labels):
        rows.append(
            [label, *(format_pct(v**2) for v in loadings.entries[i]), format_pct(common[i])]
        )
    return Table(header, rows)


def cumulative_table(loadings: LoadingMatrix) -> Table:
    # each variable's explained share with the first j + 1 factors, summed here
    # rather than taken from the retention report the block builder formats
    cumulative = np.cumsum(loadings.entries**2, axis=1)
    header = ["", *_factor_header(loadings.k)]
    rows = [
        [label, *(format_pct(v) for v in cumulative[i])]
        for i, label in enumerate(loadings.variable_labels)
    ]
    rows.append(["Average", *(format_pct(v) for v in cumulative.mean(axis=0))])
    return Table(header, rows)


def retention_table(report: RetentionReport, eigenvalues) -> Table:
    # EigVal: each eigenvalue's share of the n variables, from the eigenvalues themselves
    n = len(eigenvalues)
    return Table(
        ["", *(str(i + 1) for i in range(len(report.min_var)))],
        [
            ["EigVal", *(format_pct(v / n) for v in np.asarray(eigenvalues, dtype=float).tolist())],
            ["MinVar", *(format_pct(v) for v in report.min_var)],
            ["AverVar", *(format_pct(v) for v in report.aver_var)],
            ["NrMinVar", *(str(v) for v in report.nr_min_var)],
        ],
    )


def scree_text(eigenvalues) -> str:
    """The bytes ``emit_scree`` wrote to ``scree.txt``, as text."""
    return "".join(f"{index} {format_number(value)}\n" for index, value in scree_data(eigenvalues))
