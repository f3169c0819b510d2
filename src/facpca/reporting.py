"""CSV ingestion, table building, report generation and scree emission.

The report and every CLI subcommand render from one ``pipeline.Analysis``,
which reads its input with ``read_data_csv`` or ``read_correlation_csv``
and runs each stage at most once.  The report mirrors the reference table
set: summary statistics, correlation and determination matrices,
eigenvalues, explained variance, loadings, cumulative communality shares,
the retention ledger, criteria comparison and truncated/rotated loadings.
Machine payloads carry 12 significant digits (so a written correlation
matrix re-ingests to within 1e-9); percentages carry 2 decimals.  Every
number of a table is formatted with its block of rows in
``_format_block``: a numpy digit kernel prints the rows of ``%.12g``
cells, and one ``%`` over the block prints every other cell.  A table is
stored as that text, one line per row label, and written to its csv file
whole behind the quoted labels; only the JSON bundle and the printed tables
split its rows into cells.  ``write_numeric_csv`` writes each pass of the
kernel, a few thousand cells in whole rows, to its file as it is made.

All outputs are deterministic functions of the input bytes and the
settings: fixed number formatting, fixed table order, no timestamps.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import astuple, dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, ParseError, ShapeError, SizeError
from .factors import LoadingMatrix, communalities
from .retention import (
    RetentionReport,
    VarianceTable,
    half_count,
    kaiser_count,
    percentage_count,
    scree_data,
)
from .stats import CorrelationMatrix, DataMatrix, determination_matrix, summarize

if TYPE_CHECKING:
    from .pipeline import Analysis

__all__ = [
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
    """One named table of the report bundle, stored as text.

    ``labels`` is the first column.  ``body`` is the block formatter's text
    of the other columns: one line per label, its cells joined by commas.
    The csv bundle writes that text whole; ``rows`` splits it into cells
    for the JSON bundle and the printed tables.
    """

    header: list[str]
    labels: list[str]
    body: str

    @cached_property
    def rows(self) -> list[list[str]]:
        """Each label and its cells; no number prints a comma or line break."""
        lines = self.body.splitlines()
        return [[label, *line.split(",")] for label, line in zip(self.labels, lines)]


def _format_block(values, line_template: str) -> str:
    """Each row of the 2-D ``values`` through ``line_template``.

    A float block whose template is only ``%.12g`` cells, joined by commas
    and ending in a newline, is the joined passes of ``_g12_text``.  Any
    other block is formatted by one ``%`` over all its cells.
    """
    values = np.asarray(values)
    if values.size and values.dtype == np.float64 and line_template == _g12_row(values.shape[1]):
        return "".join(_g12_text(values))
    return line_template * len(values) % tuple(values.ravel().tolist())


def _g12_row(columns: int) -> str:
    return ",".join(["%.12g"] * columns) + "\n"


# ---------------------------------------------------------------------------
# the %.12g kernel
#
# %.12g prints x in fixed notation when its exponent X, taken after rounding
# to 12 significant digits, lies in [-4, 11]: the 12-digit mantissa with
# the point after digit X (or "0." and -X - 1 zeros in front of it when X
# is negative), trailing fraction zeros stripped and the point dropped when
# no fraction digit is left.  The kernel prints the finite cells with
# 1e-4 <= |x| < 1e11 that way.  It leaves every other cell as "%.12g" for
# the one % of _format_block: 0, -0.0, subnormals, |x| < 1e-4, |x| >= 1e11,
# inf, nan and the cells whose scaled mantissa m has a fraction of exactly .5.
#
# m = |x| * 10**(11 - X) is one rounded product of two doubles, and m < 2**40,
# so m - P is at most 2**-14 for the exact product P.  The rounding is
# monotone and every .5 fraction below 2**40 is a double, so m lies on the
# same side of a .5 fraction as P unless m lands on it: elsewhere rint(m) is
# the correctly rounded 12-digit mantissa.
#
# Each cell is written as a 24-byte row, three little-endian words whose NUL
# bytes are then deleted: word 0 the masked "-0.000" prefix, words 1-2 the
# 12 digits once, in bytes 8-19, and the separator in byte 23.  For X >= 0
# the digits after X are taken from the digits shifted up one byte across
# the two words, which frees byte 9 + X for the point.  A printed cell and
# its separator take at most 19 of the 24 bytes.

G12_PASS_CELLS = 8192  # cells per kernel pass; bounds the text and temporaries held at once
# exact doubles (every power of ten up to 1e22 is one), so m is rounded once
_POW10 = np.array(
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16]
)
_DIGIT = np.arange(48, 58, dtype=np.uint64)  # ASCII "0".."9"
# the four decimal digits of 0..9999, the first in the lowest byte, and their trailing zeros
_DIGITS4 = (
    _DIGIT[:, None, None, None]
    | _DIGIT[:, None, None] << np.uint64(8)
    | _DIGIT[:, None] << np.uint64(16)
    | _DIGIT << np.uint64(24)
).ravel()
_TRAILING_ZEROS4 = np.add.reduce(
    [np.arange(10000, dtype=np.int16) % 10**p == 0 for p in range(1, 5)], dtype=np.int8
)
_SHIFT8 = np.uint64(8)
_SHIFT32 = np.uint64(32)
_SHIFT56 = np.uint64(56)


def _g12_masks() -> np.ndarray:
    """The byte masks of a cell's row, indexed [kind, word, code].

    The code is ((X + 4) * 12 + digits - 1) * 2 + negative, with digits
    the significant digit count.  A row is 24 bytes, three little-endian
    words: bytes 0-5 hold "-0.000", bytes 8-19 the 12 digits and byte 23
    the separator.  The three kinds are the bytes kept in place, the bytes
    kept from the digits shifted up one byte (digit i in byte 9 + i), and
    the point byte.  In place, the mask keeps the sign of a negative cell;
    for X < 0 it also keeps "0.", -X - 1 zeros and the significant digits,
    and for X >= 0 digits 0..X, also where they are trailing zeros.  For
    X >= 0 the point goes in byte 9 + X when a significant digit follows
    X, and those digits are kept from the shifted copy.  Word 0 has no
    shifted or point bytes.  The row's other bytes are NUL and get deleted.
    """
    x = np.arange(-4, 12)[:, None, None, None]
    digits = np.arange(1, 13)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    byte = np.arange(24)
    in_place = (
        ((byte == 0) & (negative == 1))
        | (((byte == 1) | (byte == 2)) & (x < 0))
        | ((byte >= 3) & (byte <= 5) & (x <= 1 - byte))
        | ((byte >= 8) & (byte < 20) & np.where(x < 0, byte - 8 < digits, byte - 8 <= x))
    )
    shifted = (x >= 0) & (byte - 9 > x) & (byte - 9 < digits)
    point = (x >= 0) & (byte == 9 + x) & (digits > x + 1)
    keep = np.stack(np.broadcast_arrays(in_place, shifted, point)).reshape(3, -1, 24)
    return np.ascontiguousarray((keep * np.uint8(255)).view("<u8").transpose(0, 2, 1))


_IN_PLACE, _SHIFTED, _POINT_BYTE = _g12_masks()
_PREFIX = _IN_PLACE[0] & np.frombuffer(b"-0.000\0\0", dtype="<u8")[0]
_POINT = _POINT_BYTE & np.frombuffer(b"." * 8, dtype="<u8")[0]
_LEFT_TO_PERCENT = np.frombuffer(b"%.12g".ljust(16, b"\0"), dtype="<u8")


def _decimal_exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10 a), or one off it where log10 rounds across an integer."""
    return np.floor(np.log10(a)).astype(np.intp)


def _separators(columns: int) -> np.ndarray:
    """Each column's separator in byte 23 of a cell's row: commas, then a newline."""
    separators = np.full(columns, ord(","), np.uint64)
    separators[-1] = ord("\n")
    return separators << _SHIFT56


def _g12_pass(x: np.ndarray, separators: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The ASCII text of the cells ``x``, whole rows in row order.

    ``separators`` holds each column's separator, as ``_separators`` gives
    it.  Returns the text, in which each cell the kernel does not print
    reads "%.12g", and the positions of those cells in ``x``.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e11)
    a[~fast] = 1.0
    # X corrected by one where the estimate misses it, so that m lies in [1e11, 1e12]
    exponent = _decimal_exponent(a)
    m = a * _POW10[11 - exponent]
    exponent -= m < 1e11
    exponent += m >= 1e12
    m = a * _POW10[11 - exponent]
    mantissa = np.rint(m)
    fast &= np.abs(m - mantissa) != 0.5
    carry = mantissa >= 1e12
    exponent += carry
    mantissa[carry] = 1e11
    # floor division by a constant is faster than np.divmod; the products are exact
    mantissa = mantissa.astype(np.int64)
    high = mantissa // 10000
    low = mantissa - high * 10000
    top = high // 10000
    middle = high - top * 10000
    trailing = _TRAILING_ZEROS4[low]
    whole = np.flatnonzero(low == 0)  # rare: the last four digits are zeros
    trailing[whole] += np.where(
        middle[whole] != 0, _TRAILING_ZEROS4[middle[whole]], 4 + _TRAILING_ZEROS4[top[whole]]
    )
    code = ((exponent + 4) * 12 + 11 - trailing) * 2 + (x < 0)
    first = _DIGITS4[top] | (_DIGITS4[middle] << _SHIFT32)
    last = _DIGITS4[low]
    words = np.empty((x.size, 3), "<u8")  # little-endian: a word's lowest byte comes first
    _PREFIX.take(code, out=words[:, 0])
    # word 1: digits 0-7 in place, or shifted up one byte around the point
    np.bitwise_or(
        (first & _IN_PLACE[1].take(code)) | ((first << _SHIFT8) & _SHIFTED[1].take(code)),
        _POINT[1].take(code),
        out=words[:, 1],
    )
    # word 2: digits 8-11, shifted up one byte with digit 7 below them, and the separator
    shifted = (last << _SHIFT8) | (first >> _SHIFT56)
    np.bitwise_or(
        (
            (last & _IN_PLACE[2].take(code))
            | (shifted & _SHIFTED[2].take(code))
            | _POINT[2].take(code)
        ).reshape(-1, separators.size),
        separators,
        out=words[:, 2].reshape(-1, separators.size),
    )
    slow = np.flatnonzero(~fast)
    words[slow, :2] = _LEFT_TO_PERCENT
    words[slow, 2] &= np.uint64(0xFF) << _SHIFT56
    return words.tobytes().translate(None, b"\0"), slow


def _g12_text(values: np.ndarray):
    """Yield the rows of ``values`` as ``%.12g`` cells, one pass of whole rows at a time.

    Each pass formats about ``G12_PASS_CELLS`` cells in ``_g12_pass``, and
    one ``%`` fills the cells it left as "%.12g".  ``values`` has at least
    one column.
    """
    rows, columns = values.shape
    separators = _separators(columns)
    step = max(1, G12_PASS_CELLS // columns)
    for start in range(0, rows, step):
        x = values[start : start + step].ravel()
        text, slow = _g12_pass(x, separators)
        text = text.decode("ascii")
        yield text % tuple(x[slow].tolist()) if slow.size else text


def _labeled_table(header, labels, *blocks) -> ReportTable:
    """One row per label, its cells the rows of ``blocks`` from the top.

    Each block is ``(values, templates)``: a 2-D array and its cells' ``%``
    templates.
    """
    body = "".join(_format_block(v, ",".join(cells) + "\n") for v, cells in blocks)
    return ReportTable(list(header), list(labels), body)


# characters that may make csv.writer quote a field
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row of several."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text, ""])
    return line.getvalue()[:-2]


def _write_csv(path, header, lines) -> None:
    """Write ``header`` as a csv record, then the text ``lines`` as they are."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerow(header)
        f.writelines(lines)


def write_numeric_csv(path, labels, values) -> None:
    """Write a header of labels, then each row of ``values`` with its cells as ``%.12g``.

    ``csv.writer`` quotes the labels; no number needs quoting, so the rows
    go to the file as the ``%.12g`` kernel's passes, one at a time.
    ``values`` must be 2-D with one column per label, or no file is made.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(labels):
        raise ShapeError(f"{path}: need 2-D values, one column per label, got shape {values.shape}")
    # a row without cells is a blank line; the kernel needs one cell per row at least
    _write_csv(path, labels, _g12_text(values) if values.shape[1] else ["\n"] * len(values))


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


def _parse_rows(path, rows, n: int, lead: int) -> tuple[list[int], list[list[float]], list]:
    """Apply the per-row rules of ``read_data_csv`` to ``(line_no, cells)`` rows.

    The first ``lead`` cells of a row are its labels, the others numbers.
    Returns the positions in ``rows`` of the kept rows, their values and
    the dropped rows.
    """
    positions, kept, dropped = [], [], []
    for position, (line_no, cells) in enumerate(rows):
        if not any(cells):
            continue
        if len(cells) != n:
            raise ParseError(f"{path}: line {line_no}: expected {n} fields, got {len(cells)}")
        try:
            values = [float(cell) for cell in cells[lead:]]
        except ValueError:
            values = [math.nan]
        if all(map(math.isfinite, values)):
            positions.append(position)
            kept.append(values)
        else:
            dropped.append((line_no, cells))
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
    path, buf: np.ndarray, breaks: np.ndarray, n: int, first: int, skew: int, lead: int
) -> tuple[np.ndarray, list[str] | None, list]:
    """Read the lines of ``buf`` from line ``first`` on, which hold no quotes.

    ``buf`` holds the file's bytes between two added line feeds, at
    ``breaks``, and has no NUL bytes or bare carriage returns.  Each line
    from ``first`` on is then a csv record, numbered ``skew`` less than its
    line, so one byte scan classifies them all: a line is plain when, from
    its label's comma on (from its start when ``lead`` is 0), it holds only
    number characters and commas, and it has n - 1 commas and no empty
    field.  Plain lines are parsed in one ``np.loadtxt`` call; every other
    line goes through ``_parse_rows``.  Returns the kept rows' values, their
    labels when ``lead`` is 1, and the dropped rows.
    """
    starts = breaks[:-1] + 1
    stops = breaks[1:]
    stops = stops - (buf[stops - 1] == _CR)

    def text(line: int, ends: np.ndarray = stops) -> str:
        return buf[starts[line] : ends[line]].tobytes().decode()

    bad = _NON_PLAIN.take(buf)
    commas = np.flatnonzero(buf == _COMMA)
    # a comma beside a line break or another comma borders an empty field
    bad[commas[_FIELD_EDGE[buf[commas - 1]] | _FIELD_EDGE[buf[commas + 1]]]] = True
    # the label's comma; a line without one has too few commas to be plain
    fields = np.append(commas, buf.size)[np.searchsorted(commas, starts)] if lead else starts

    def per_line(positions: np.ndarray, since: np.ndarray) -> np.ndarray:
        return np.searchsorted(positions, stops) - np.searchsorted(positions, since)

    plain = (per_line(np.flatnonzero(bad), fields) == 0) & (per_line(commas, starts) == n - 1)
    plain &= stops > starts
    plain[:first] = False
    block = np.empty((0, n - lead))
    if plain.any():
        keep = np.zeros(buf.size, dtype=bool)
        keep[1:] = np.repeat(plain, np.diff(breaks))
        try:
            # undecoded: the label column is skipped and number cells are ASCII
            block = np.loadtxt(
                io.BytesIO(buf[keep].tobytes()),
                encoding="latin1",
                delimiter=",",
                comments=None,
                ndmin=2,
                usecols=range(lead, n) if lead else None,
            ).reshape(-1, n - lead)
        except ValueError:  # a cell such as "1-2" or "e": parse every line by row
            plain[:] = False
        # a line with a non-finite number goes through _parse_rows, which drops it
        finite = np.isfinite(block).all(axis=1)
        block = block[finite]
        plain[plain] = finite
    loose = np.flatnonzero(~plain[first:]) + first
    rows = [(i + 1 - skew, [cell.strip() for cell in text(i).split(",")]) for i in loose]
    positions, kept, dropped = _parse_rows(path, rows, n, lead)
    plain_lines = np.flatnonzero(plain)
    rank = np.argsort(np.concatenate((plain_lines, loose[positions])))
    values = np.concatenate((block, np.array(kept).reshape(-1, n - lead)))[rank]
    if lead:
        labels = [text(i, fields).strip() for i in plain_lines] + [rows[p][1][0] for p in positions]
        return values, [labels[i] for i in rank], dropped
    return values, None, dropped


def _read_csv(path, lead: int) -> tuple[tuple[str, ...], list[str] | None, np.ndarray, list]:
    """Read a header of labels, then rows of ``lead`` label fields (0 or 1) and numbers.

    Returns the header, the kept rows' labels (None when ``lead`` is 0),
    their numbers and the dropped rows, each as ``(line_no, cells)``.  The
    header's labels after the first ``lead`` must be distinct.
    """
    raw, text = _read_text(path)
    buf = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
    breaks = np.flatnonzero(buf == _LF)
    bare_cr = np.any(buf[np.flatnonzero(buf == _CR) + 1] != _LF)
    # csv has its own rules for NUL bytes and bare carriage returns
    scan = not (b"\0" in raw or bare_cr)
    if scan:
        header, lines, records = _header(path, raw)
        # quoted fields may span lines: scan only a body free of quotes
        scan = raw.rfind(b'"') + 1 < breaks[lines]
    if not scan:
        reader = enumerate(csv.reader(io.StringIO(text, newline="")), start=1)
        rows = [(i, cells) for i, row in reader if any(cells := [c.strip() for c in row])]
        if not rows:
            raise ParseError(f"{path}: file is empty")
        header = tuple(rows.pop(0)[1])
    repeated = [label for label, count in Counter(header[lead:]).items() if count > 1]
    if repeated:
        raise DataError(f"{path}: duplicate label {repeated[0]!r}")
    n = len(header)
    if n <= lead:
        raise ParseError(f"{path}: header must hold a corner cell and the labels")
    if scan:
        values, labels, dropped = _parse_body(path, buf, breaks, n, lines, lines - records, lead)
    else:
        positions, kept, dropped = _parse_rows(path, rows, n, lead)
        values = np.array(kept).reshape(-1, n - lead)
        labels = [rows[p][1][0] for p in positions] if lead else None
    return header, labels, values, dropped


def read_data_csv(path) -> tuple[DataMatrix, int]:
    """Read a raw observation CSV: a header of labels, then numeric rows.

    Cells are stripped and blank rows skipped; the first row left is the
    header, whose labels must be distinct.  A cell is a number when
    ``float()`` accepts it.  Any row containing a missing, non-numeric or
    non-finite cell is dropped; the count of dropped rows is returned
    alongside the matrix.  A row with the wrong number of fields is a parse
    error, not a droppable row.
    """
    labels, _, values, dropped = _read_csv(path, 0)
    if len(values) < 2:
        raise SizeError(
            f"{path}: only {len(values)} usable rows remain after dropping {len(dropped)}"
        )
    return DataMatrix(values, labels), len(dropped)


def read_correlation_csv(path) -> CorrelationMatrix:
    """Read a labeled square correlation matrix CSV.

    Layout: a header row (corner cell plus n distinct labels) and n rows,
    each a label followed by n values.  The rows follow the rules of
    ``read_data_csv`` after their label, but a row it would drop is an
    error.  Asymmetry up to 1e-6 is repaired by averaging; the diagonal
    must be within 1e-6 of 1 and is then forced to exactly 1.
    """
    header, rows, entries, dropped = _read_csv(path, 1)
    labels = header[1:]
    n, found = len(labels), len(entries) + len(dropped)
    if found != n:
        raise DataError(f"{path}: expected {n} matrix rows, found {found}")
    if dropped:
        line_no, cells = dropped[0]
        for cell in cells[1:]:  # name the row's first cell that is not a number
            try:
                float(cell)
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: {cell!r} is not a number") from None
        raise DataError(f"{path}: matrix contains non-finite values")
    for row, label in zip(rows, labels):
        if row != label:
            raise DataError(f"{path}: row label {row!r} does not match header label {label!r}")
    limit = f"limit {INGEST_SYMMETRY_TOL:.0e}"
    asymmetry = float(np.max(np.abs(entries - entries.T)))
    if asymmetry > INGEST_SYMMETRY_TOL:
        raise DataError(f"{path}: matrix asymmetric by {asymmetry:.3e} ({limit})")
    entries = (entries + entries.T) / 2.0
    diag_error = float(np.max(np.abs(np.diag(entries) - 1.0)))
    if diag_error > INGEST_SYMMETRY_TOL:
        raise DataError(f"{path}: diagonal deviates from 1 by {diag_error:.3e} ({limit})")
    np.fill_diagonal(entries, 1.0)
    overshoot = float(np.max(np.abs(entries))) - 1.0
    if overshoot > INGEST_SYMMETRY_TOL:
        raise DataError(f"{path}: entry magnitude exceeds 1 by {overshoot:.3e}")
    np.clip(entries, -1.0, 1.0, out=entries)
    return CorrelationMatrix(entries, labels)


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


def explained_variance_table(table: VarianceTable) -> ReportTable:
    columns = (table.eigenvalue, table.cumulative_eigenvalue, table.pct, table.cumulative_pct)
    return _labeled_table(
        ["component", "eigenvalue", "cumulative_eigenvalue", "pct", "cumulative_pct"],
        [str(i) for i in range(1, table.eigenvalue.size + 1)],
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


def cumulative_table(labels, cumulative: np.ndarray) -> ReportTable:
    """The cumulative shares of ``RetentionReport.cumulative`` and their column means, in percent."""
    values = np.vstack((cumulative, cumulative.mean(axis=0))) * 100.0
    return _labeled_table(
        ["", *_factor_header(len(labels))], [*labels, "Average"], (values, ["%.2f"] * len(labels))
    )


def retention_table(report: RetentionReport, variance: VarianceTable) -> ReportTable:
    """The retention ledger; its EigVal row is each factor's ``variance.pct``."""
    n = report.min_var.size
    return _labeled_table(
        ["", *(str(i + 1) for i in range(n))],
        ["EigVal", "MinVar", "AverVar", "NrMinVar"],
        (np.vstack((variance.pct, report.min_var * 100.0, report.aver_var * 100.0)), ["%.2f"] * n),
        (report.nr_min_var[None], ["%d"] * n),
    )


def criteria_table(analysis: Analysis) -> ReportTable:
    """The factor count of each criterion, at ``analysis.percent`` and ``analysis.epsilon``."""
    counts = (
        kaiser_count(analysis.variance.eigenvalue),
        half_count(analysis.eig.size),
        percentage_count(analysis.variance, analysis.percent),
        analysis.retention.chosen,
    )
    return ReportTable(
        ["criterion", "factors"],
        [
            "kaiser",
            "half_of_variables",
            f"explained_variance({analysis.percent:g}%)",
            f"min_variance(epsilon={analysis.epsilon:g})",
        ],
        "%d\n%d\n%d\n%d\n" % counts,
    )


def run_report(analysis: Analysis, output_dir, output_format: str) -> dict[str, ReportTable]:
    """Write the full report bundle of ``analysis`` into ``output_dir``.

    ``output_format`` is ``"csv"`` (one file per table) or ``"json"`` (one
    ``report.json``); the settings, ``percent`` included, are the
    analysis's own.  Returns the tables keyed by name.  The scree series is
    written as ``scree.txt``/``scree.svg`` next to the tables.
    """
    if output_format not in ("csv", "json"):
        raise DataError(f"unknown output format {output_format!r}")
    bundle = {"summary_statistics": summary_table(analysis.data)} if analysis.kind == "raw" else {}
    bundle["correlation_matrix"], bundle["determination_matrix"] = correlation_tables(analysis.corr)
    explained = explained_variance_table(analysis.variance)
    bundle["eigenvalues"] = _labeled_table(
        explained.header[:2], explained.labels, (analysis.variance.eigenvalue[:, None], ["%.12g"])
    )
    bundle["explained_variance"] = explained
    bundle["loadings_full"] = loading_table(analysis.loadings, with_communality=False)
    bundle["cumulative_communality_pct"] = cumulative_table(
        analysis.loadings.variable_labels, analysis.retention.cumulative
    )
    bundle["retention"] = retention_table(analysis.retention, analysis.variance)
    bundle["criteria_comparison"] = criteria_table(analysis)
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
            labels = map(_csv_field, table.labels)
            lines = map("{},{}".format, labels, table.body.splitlines(keepends=True))
            _write_csv(output_dir / f"{name}.csv", table.header, lines)
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
