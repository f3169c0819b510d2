"""CSV ingestion, the analysis core, report generation and scree emission.

The report and every CLI subcommand render from one ``Analysis``, which
runs each pipeline stage at most once on a CSV file or an in-memory
``DataMatrix``.  The report mirrors the reference table set: summary
statistics, correlation and determination matrices, eigenvalues,
explained variance, loadings, cumulative communality shares, the
retention ledger, criteria comparison and truncated/rotated loadings.
Machine payloads carry 12 significant digits (so a written correlation
matrix re-ingests to within 1e-9); percentages carry 2 decimals.  Every
number of a table or file is formatted with its block of rows, by one
``%`` in ``_format_block``.

All outputs are deterministic functions of the input bytes and the
settings: fixed number formatting, fixed table order, no timestamps.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
from collections import Counter
from dataclasses import astuple, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .eigen import EigenDecomposition, eigen_symmetric
from .errors import DataError, ParseError, SizeError, ThresholdError
from .factors import (
    LoadingMatrix,
    communalities,
    cumulative_communalities,
    full_loadings,
    truncate,
)
from .pipeline import project
from .retention import (
    RetentionReport,
    half_count,
    kaiser_count,
    minvar_count,
    percentage_count,
    scree_data,
    variance_table,
)
from .stats import (
    CorrelationMatrix,
    DataMatrix,
    correlation_matrix,
    determination_matrix,
    standardize,
    summarize,
)
from .varimax import RotationResult, varimax

__all__ = [
    "Analysis",
    "ReportTable",
    "read_data_csv",
    "read_correlation_csv",
    "run_report",
    "emit_scree",
    "write_numeric_csv",
    "summary_table",
    "matrix_table",
    "correlation_tables",
    "explained_variance_table",
    "loading_table",
    "common_variance_table",
    "cumulative_table",
    "retention_table",
    "criteria_table",
]

INGEST_SYMMETRY_TOL = 1e-6  # accepted asymmetry/diagonal slack in a correlation CSV


@dataclass
class ReportTable:
    """One named table of the report bundle; cells are formatted strings."""

    header: list[str]
    rows: list[list[str]]


def _format_block(values, line_template: str) -> str:
    """Each row of the 2-D ``values`` through ``line_template``, all rows by one ``%``."""
    values = np.asarray(values)
    return line_template * len(values) % tuple(values.ravel().tolist())


def _labeled_table(header, labels, *blocks) -> ReportTable:
    """One row per label, its cells the rows of ``blocks`` from the top.

    Each block is ``(values, templates)``: a 2-D array and its cells' ``%``
    templates.  No number prints a comma or line break, so the lines split.
    """
    text = "".join(_format_block(v, ",".join(cells) + "\n") for v, cells in blocks)
    rows = [[label, *line.split(",")] for label, line in zip(labels, text.splitlines())]
    return ReportTable(list(header), rows)


# rows formatted per string operation; bounds the text held at once
CSV_BLOCK_ROWS = 4096


def write_numeric_csv(path, labels, values) -> None:
    """Write a header of labels, then each row of ``values`` with its cells as ``%.12g``.

    ``csv.writer`` quotes the labels; no number needs quoting, so the rows
    go through ``_format_block``, ``CSV_BLOCK_ROWS`` rows at a time.
    """
    values = np.asarray(values, dtype=float)
    row = ",".join(["%.12g"] * values.shape[1]) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerow(labels)
        for start in range(0, len(values), CSV_BLOCK_ROWS):
            f.write(_format_block(values[start : start + CSV_BLOCK_ROWS], row))


def _read_text(path) -> tuple[bytes, str]:
    """The file's bytes and their UTF-8 text, without a leading byte-order mark."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte {exc.start})") from None
    return raw.removeprefix(codecs.BOM_UTF8), text.removeprefix("\ufeff")


def _csv_rows(path, text: str) -> list[tuple[int, list[str]]]:
    """The non-blank csv records of ``text`` with stripped cells and 1-based numbers."""
    rows = []
    for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        cells = [cell.strip() for cell in row]
        if any(cells):
            rows.append((line_no, cells))
    if not rows:
        raise ParseError(f"{path}: file is empty")
    return rows


def _parse_rows(path, rows, n: int) -> tuple[list[int], list[list[float]], int]:
    """Apply the per-row rules of ``read_data_csv`` to ``(line_no, cells)`` rows.

    Returns the positions in ``rows`` of the kept rows, their values and
    the number of dropped rows.
    """
    positions: list[int] = []
    kept: list[list[float]] = []
    dropped = 0
    for position, (line_no, cells) in enumerate(rows):
        if not any(cells):
            continue
        if len(cells) != n:
            raise ParseError(f"{path}: line {line_no}: expected {n} fields, got {len(cells)}")
        try:
            values = [float(cell) for cell in cells]
        except ValueError:
            dropped += 1
            continue
        if all(map(math.isfinite, values)):
            positions.append(position)
            kept.append(values)
        else:
            dropped += 1
    return positions, kept, dropped


_LF, _CR, _COMMA = b"\n\r,"
# bytes a plain line may not hold: all but number characters, commas and line breaks
_NON_PLAIN = np.ones(256, dtype=bool)
_NON_PLAIN[list(b"0123456789.+-eE,\r\n")] = False
_FIELD_EDGE = np.zeros(256, dtype=bool)
_FIELD_EDGE[[_LF, _CR, _COMMA]] = True


def _lines(raw: bytes):
    """The lines of ``raw``, each with its line feed, decoded one at a time."""
    start = 0
    while start < len(raw):
        stop = raw.find(b"\n", start) + 1 or len(raw)
        yield raw[start:stop].decode()
        start = stop


def _distinct(path, labels: tuple[str, ...]) -> tuple[str, ...]:
    """``labels``, checked to hold no label twice."""
    repeated = [label for label, count in Counter(labels).items() if count > 1]
    if repeated:
        raise DataError(f"{path}: duplicate label {repeated[0]!r}")
    return labels


def _header(path, raw: bytes) -> tuple[tuple[str, ...], int, int]:
    """The stripped labels of the first non-blank csv record of ``raw``.

    Also returns the number of lines and of records read up to and
    including the header; they differ when a quoted label spans lines.
    """
    reader = csv.reader(_lines(raw))
    for records, row in enumerate(reader, start=1):
        labels = tuple(cell.strip() for cell in row)
        if any(labels):
            return labels, reader.line_num, records
    raise ParseError(f"{path}: file is empty")


def _parse_body(
    path, buf: np.ndarray, breaks: np.ndarray, n: int, first: int, skew: int
) -> tuple[np.ndarray, int]:
    """Read the lines of ``buf`` from line ``first`` on, which hold no quotes.

    ``buf`` holds the file's bytes between two added line feeds, at
    ``breaks``, and has no NUL bytes or bare carriage returns.  Each line
    from ``first`` on is then a csv record, numbered ``skew`` less than its
    line, so one byte scan classifies them all: a line is plain when it
    holds only number characters and commas, has n - 1 commas and no empty
    field.  Plain lines are parsed in one ``np.loadtxt`` call; every other
    line goes through ``_parse_rows``.
    """
    starts = breaks[:-1] + 1
    stops = breaks[1:]
    stops = stops - (buf[stops - 1] == _CR)

    def cells(line: int) -> list[str]:
        text = buf[starts[line] : stops[line]].tobytes().decode()
        return [cell.strip() for cell in text.split(",")]

    bad = _NON_PLAIN.take(buf)
    commas = np.flatnonzero(buf == _COMMA)
    # a comma beside a line break or another comma borders an empty field
    bad[commas[_FIELD_EDGE[buf[commas - 1]] | _FIELD_EDGE[buf[commas + 1]]]] = True

    def per_line(positions: np.ndarray) -> np.ndarray:
        return np.searchsorted(positions, stops) - np.searchsorted(positions, starts)

    plain = (per_line(np.flatnonzero(bad)) == 0) & (per_line(commas) == n - 1) & (stops > starts)
    plain[:first] = False
    plain_lines = np.flatnonzero(plain)
    block = np.empty((0, n))
    if plain_lines.size:
        keep = np.zeros(buf.size, dtype=bool)
        keep[1:] = np.repeat(plain, np.diff(breaks))
        try:
            block = np.loadtxt(
                io.StringIO(buf[keep].tobytes().decode("ascii")),
                delimiter=",",
                comments=None,
                ndmin=2,
            ).reshape(-1, n)
        except ValueError:  # a cell such as "1-2" or "e": parse every line by row
            plain[:] = False
            plain_lines = plain_lines[:0]
    loose = np.flatnonzero(~plain[first:]) + first
    positions, kept, dropped = _parse_rows(path, [(i + 1 - skew, cells(i)) for i in loose], n)
    finite = np.isfinite(block).all(axis=1)
    order = np.concatenate((plain_lines[finite], loose[positions]))
    values = np.concatenate((block[finite], np.array(kept).reshape(-1, n)))
    return values[np.argsort(order)], dropped + int(np.count_nonzero(~finite))


def read_data_csv(path) -> tuple[DataMatrix, int]:
    """Read a raw observation CSV: a header of labels, then numeric rows.

    Cells are stripped and blank rows skipped; the first row left is the
    header, whose labels must be distinct.  A cell is a number when
    ``float()`` accepts it.  Any row containing a missing, non-numeric or
    non-finite cell is dropped; the count of dropped rows is returned
    alongside the matrix.  A row with the wrong number of fields is a parse
    error, not a droppable row.
    """
    raw, text = _read_text(path)
    buf = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
    breaks = np.flatnonzero(buf == _LF)
    bare_cr = np.any(buf[np.flatnonzero(buf == _CR) + 1] != _LF)
    # csv has its own rules for NUL bytes and bare carriage returns
    scan = not (b"\0" in raw or bare_cr)
    if scan:
        labels, lines, records = _header(path, raw)
        # quoted fields may span lines: scan only a body free of quotes
        scan = raw.rfind(b'"') + 1 < breaks[lines]
    if scan:
        _distinct(path, labels)
        values, dropped = _parse_body(path, buf, breaks, len(labels), lines, lines - records)
    else:
        rows = _csv_rows(path, text)
        labels = _distinct(path, tuple(rows[0][1]))
        _, kept, dropped = _parse_rows(path, rows[1:], len(labels))
        values = np.array(kept).reshape(-1, len(labels))
    if len(values) < 2:
        raise SizeError(
            f"{path}: only {len(values)} usable rows remain after dropping {dropped}"
        )
    return DataMatrix(values, labels), dropped


def read_correlation_csv(path) -> CorrelationMatrix:
    """Read a labeled square correlation matrix CSV.

    Layout: a header row (corner cell plus n distinct labels) and n rows,
    each a label followed by n values.  Asymmetry up to 1e-6 is repaired
    by averaging; the diagonal must be within 1e-6 of 1 and is then forced
    to exactly 1.
    """
    rows = _csv_rows(path, _read_text(path)[1])
    _, header = rows[0]
    if len(header) < 2:
        raise ParseError(f"{path}: header must hold a corner cell and the labels")
    labels = _distinct(path, tuple(header[1:]))
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
        for c, cell in enumerate(row[1:]):
            try:
                entries[k, c] = float(cell)
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


@dataclass(frozen=True)
class Analysis:
    """The pipeline over one input; each stage runs at most once, on first use.

    ``source`` is a CSV path or an in-memory ``DataMatrix`` of observations.
    ``kind`` is ``"raw"`` (observations) or ``"corr"`` (a correlation matrix
    CSV).  Settings are checked on construction.  ``factors`` fixes the
    count ``truncated`` keeps, in place of the min-variance rule's count at
    ``epsilon``; ``rotation`` is None when not rotating.
    """

    source: str | Path | DataMatrix
    kind: str = "raw"
    epsilon: float = 0.51
    factors: int | None = None
    rotate: str = "varimax"
    kaiser_normalize: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("raw", "corr"):
            raise DataError(f"unknown input kind {self.kind!r}")
        if self.kind == "corr" and isinstance(self.source, DataMatrix):
            raise DataError("a DataMatrix holds observations, not a correlation matrix")
        if not 0.5 < self.epsilon <= 1.0:
            raise ThresholdError(f"epsilon must lie in (0.5, 1], got {self.epsilon}")
        if self.factors is not None and self.factors < 1:
            raise SizeError("factor count override must be at least 1")
        if self.rotate not in ("varimax", "none"):
            raise DataError(f"unknown rotation {self.rotate!r}")

    @cached_property
    def _observations(self) -> tuple[DataMatrix, int]:
        if self.kind != "raw":
            raise DataError(f"{self.source}: a correlation matrix holds no observations")
        if isinstance(self.source, DataMatrix):
            return self.source, 0
        return read_data_csv(self.source)

    @property
    def data(self) -> DataMatrix:
        return self._observations[0]

    @property
    def dropped_rows(self) -> int:
        """Rows of a raw input dropped for missing values; 0 for a correlation input."""
        return self._observations[1] if self.kind == "raw" else 0

    @cached_property
    def corr(self) -> CorrelationMatrix:
        if self.kind == "corr":
            return read_correlation_csv(self.source)
        return correlation_matrix(self.data)

    @cached_property
    def eig(self) -> EigenDecomposition:
        return eigen_symmetric(self.corr.entries, correlation_input=True)

    @cached_property
    def loadings(self) -> LoadingMatrix:
        return full_loadings(self.eig, self.corr.labels)

    @cached_property
    def retention(self) -> RetentionReport:
        return minvar_count(self.eig, self.epsilon)

    @cached_property
    def truncated(self) -> LoadingMatrix:
        k = self.factors or self.retention.chosen
        if k > self.corr.size:
            raise SizeError(f"factor count override {k} exceeds the {self.corr.size} variables")
        return truncate(self.loadings, k)

    @cached_property
    def rotation(self) -> RotationResult | None:
        if self.rotate == "none" or self.truncated.k < 2:
            return None
        return varimax(self.truncated, normalize=self.kaiser_normalize)

    @cached_property
    def scores(self) -> np.ndarray:
        """The standardized data projected onto the ``truncated.k`` leading eigenvectors."""
        scores = project(standardize(self.data), self.eig.eigenvectors, self.truncated.k)
        scores.flags.writeable = False
        return scores


# ---------------------------------------------------------------------------
# table builders


def summary_table(data: DataMatrix) -> ReportTable:
    # the fields of VariableStats, in the order of the row labels
    stats = [astuple(summarize(data.column(i))) for i in range(data.n_variables)]
    return _labeled_table(
        ["statistic", *data.labels],
        ["Mean", "Median", "Mode", "Standard deviation", "Minimum", "Maximum"],
        (np.array(stats, dtype=float).T, ["%.12g"] * data.n_variables),
    )


def matrix_table(labels, matrix, template: str) -> ReportTable:
    """The square ``matrix`` with each cell formatted by ``template``."""
    return _labeled_table(["", *labels], labels, (matrix, [template] * len(labels)))


def correlation_tables(corr: CorrelationMatrix) -> tuple[ReportTable, ReportTable]:
    """The correlation matrix and its entrywise squares, in percent."""
    return (
        matrix_table(corr.labels, corr.entries, "%.12g"),
        matrix_table(corr.labels, determination_matrix(corr) * 100.0, "%.2f"),
    )


def explained_variance_table(eigenvalues) -> ReportTable:
    table = variance_table(eigenvalues)
    columns = (table.eigenvalue, table.cumulative_eigenvalue, table.pct, table.cumulative_pct)
    return _labeled_table(
        ["component", "eigenvalue", "cumulative_eigenvalue", "pct", "cumulative_pct"],
        [str(i) for i in range(1, len(table.eigenvalue) + 1)],
        (np.column_stack(columns), ["%.12g", "%.12g", "%.2f", "%.2f"]),
    )


def _factor_header(k: int) -> list[str]:
    return [f"F{j + 1}" for j in range(k)]


def loading_table(loadings: LoadingMatrix, with_communality: bool) -> ReportTable:
    header = ["", *_factor_header(loadings.k)]
    values, cells = loadings.entries, ["%.12g"] * loadings.k
    if with_communality:
        header.append("communality_pct")
        values = np.column_stack((values, communalities(loadings) * 100.0))
        cells.append("%.2f")
    return _labeled_table(header, loadings.variable_labels, (values, cells))


def common_variance_table(loadings: LoadingMatrix) -> ReportTable:
    # libm pow, not x * x: the two differ by an ulp in about 0.1% of squares,
    # enough to move a printed percentage such as 42.34 (0.6506535176267012**2)
    values = np.column_stack((np.float_power(loadings.entries, 2), communalities(loadings)))
    return _labeled_table(
        ["", *_factor_header(loadings.k), "communality_pct"],
        loadings.variable_labels,
        (values * 100.0, ["%.2f"] * (loadings.k + 1)),
    )


def cumulative_table(loadings: LoadingMatrix) -> ReportTable:
    cumulative = cumulative_communalities(loadings)
    values = np.vstack((cumulative, cumulative.mean(axis=0))) * 100.0
    return _labeled_table(
        ["", *_factor_header(loadings.k)],
        [*loadings.variable_labels, "Average"],
        (values, ["%.2f"] * loadings.k),
    )


def retention_table(report: RetentionReport) -> ReportTable:
    n = len(report.min_var)
    return _labeled_table(
        ["", *(str(i + 1) for i in range(n))],
        ["EigVal", "MinVar", "AverVar", "NrMinVar"],
        (np.array([report.eig_pct, report.min_var, report.aver_var]) * 100.0, ["%.2f"] * n),
        ([report.nr_min_var], ["%d"] * n),
    )


def _check_percent(percent: float) -> None:
    if not 0.0 < percent <= 100.0:
        raise ThresholdError(f"percent threshold must lie in (0, 100], got {percent}")


def criteria_table(analysis: Analysis, percent: float) -> ReportTable:
    """The factor count of each criterion; ``percent`` is the explained-variance threshold."""
    _check_percent(percent)
    eigenvalues = analysis.eig.eigenvalues
    return ReportTable(
        ["criterion", "factors"],
        [
            ["kaiser", str(kaiser_count(eigenvalues))],
            ["half_of_variables", str(half_count(analysis.eig.size))],
            [f"explained_variance({percent:g}%)", str(percentage_count(eigenvalues, percent))],
            [f"min_variance(epsilon={analysis.epsilon:g})", str(analysis.retention.chosen)],
        ],
    )


def run_report(
    analysis: Analysis, output_dir, output_format: str, percent: float
) -> dict[str, ReportTable]:
    """Write the full report bundle of ``analysis`` into ``output_dir``.

    ``output_format`` is ``"csv"`` (one file per table) or ``"json"`` (one
    ``report.json``); ``percent`` is the explained-variance criterion's
    threshold.  Returns the tables keyed by name.  The scree series is
    written as ``scree.txt``/``scree.svg`` next to the tables.
    """
    if output_format not in ("csv", "json"):
        raise DataError(f"unknown output format {output_format!r}")
    _check_percent(percent)
    bundle = {"summary_statistics": summary_table(analysis.data)} if analysis.kind == "raw" else {}
    bundle["correlation_matrix"], bundle["determination_matrix"] = correlation_tables(analysis.corr)
    explained = explained_variance_table(analysis.eig.eigenvalues)
    bundle["eigenvalues"] = ReportTable(explained.header[:2], [row[:2] for row in explained.rows])
    bundle["explained_variance"] = explained
    bundle["loadings_full"] = loading_table(analysis.loadings, with_communality=False)
    bundle["cumulative_communality_pct"] = cumulative_table(analysis.loadings)
    bundle["retention"] = retention_table(analysis.retention)
    bundle["criteria_comparison"] = criteria_table(analysis, percent)
    bundle["loadings_truncated"] = loading_table(analysis.truncated, with_communality=True)
    bundle["common_variances_truncated"] = common_variance_table(analysis.truncated)
    if analysis.rotation is not None:
        rotated = analysis.rotation.rotated
        bundle["loadings_rotated"] = loading_table(rotated, with_communality=True)
        bundle["common_variances_rotated"] = common_variance_table(rotated)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if output_format == "csv":
        for name, table in bundle.items():
            with open(output_dir / f"{name}.csv", "w", newline="", encoding="utf-8") as f:
                csv.writer(f, lineterminator="\n").writerows([table.header, *table.rows])
    else:
        payload = {name: {"header": t.header, "rows": t.rows} for name, t in bundle.items()}
        with open(output_dir / "report.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    emit_scree(analysis.eig.eigenvalues, output_dir / "scree.svg")
    return bundle


# ---------------------------------------------------------------------------
# scree emission


def emit_scree(eigenvalues, path) -> tuple[Path, Path]:
    """Write the scree series as an SVG line plot plus a plain-text sibling.

    ``path`` names the SVG file; the two-column text series is written next
    to it with a ``.txt`` suffix.  Output bytes depend only on the
    eigenvalues, so regeneration is byte-identical.
    """
    points = scree_data(eigenvalues)
    svg_path = Path(path)
    txt_path = svg_path.with_suffix(".txt")
    txt_path.write_text(_format_block(points, "%d %.12g\n"), encoding="utf-8")
    svg_path.write_text(_scree_svg(points), encoding="utf-8")
    return svg_path, txt_path


def _scree_svg(points: list[tuple[int, float]]) -> str:
    width, height = 640.0, 400.0
    left, right, top, bottom = 64.0, 20.0, 20.0, 52.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    n = len(points)
    y_max = max(value for _, value in points)
    y_max = y_max * 1.05 if y_max > 0 else 1.0

    def sx(index: float) -> float:
        if n == 1:
            return left + plot_w / 2.0
        return left + (index - 1.0) / (n - 1.0) * plot_w

    def sy(value: float) -> float:
        return top + plot_h - value / y_max * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{top + plot_h:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top + plot_h:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="black" stroke-width="1"/>',
    ]
    for tick in range(5):
        value = y_max * tick / 4.0
        y = sy(value)
        parts.append(
            f'<line x1="{left - 4:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{value:.3g}</text>'
        )
    stride = max(1, (n - 1) // 12 + 1) if n > 1 else 1
    for index, _ in points:
        if (index - 1) % stride:
            continue
        x = sx(index)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 4:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{index}</text>'
        )
    coords = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in points)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="2"/>'
    )
    for index, value in points:
        parts.append(
            f'<circle cx="{sx(index):.2f}" cy="{sy(value):.2f}" r="3" fill="#1f6fb2"/>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">Component number</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">Eigenvalue</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
