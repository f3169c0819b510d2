"""Differential tests of the vectorized CSV readers against the cell-by-cell oracles."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csv_oracle
from facpca import ParseError, SizeError, reporting
from facpca.cli import main
from facpca.reporting import read_correlation_csv, read_data_csv
from facpca.stats import summarize

NUMBERS = st.one_of(
    st.integers(-10_000, 10_000).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["1e5", "-2E-4", "+3.5e+2", ".5", "5.", "-0", "+0.0", "1e-400", "007"]),
)
ODD_CELLS = st.sampled_from(
    ["1_000", " 3.5 ", "\t-2 ", "", "  ", "NA", "inf", "-inf", "nan", "1e999", "x", "1-2", "e", "."]
)
QUOTED_CELLS = st.sampled_from(['"1.5"', '" 7 "', '"1,5"', '"2\n3"', '"NA"', '""'])
# a label quoted as it is, padded, with a comma, a line break or a doubled quote
QUOTED_LABELS = st.sampled_from(
    ['"{}"', '" {} "', '"{},x"', '"{}\ny"', '"{}\r\ny"', '"{}""q"', "{}"]
)


@st.composite
def raw_files(draw):
    """Bytes of a raw CSV mixing plain rows with every case the reader must treat like the oracle."""
    n = draw(st.integers(1, 4))
    quoted = draw(st.booleans())
    cell = st.one_of(NUMBERS, NUMBERS, NUMBERS, ODD_CELLS, *([QUOTED_CELLS] if quoted else []))
    plain_row = st.lists(NUMBERS, min_size=n, max_size=n)
    any_row = st.lists(cell, min_size=n, max_size=n)
    blank = st.sampled_from([[], [""] * n, ["", ""], [" "]])
    row_kinds = [plain_row, plain_row, plain_row, any_row, blank]
    if draw(st.integers(0, 4)) == 0:
        row_kinds.append(
            st.lists(NUMBERS, max_size=n + 2).filter(lambda cells: len(cells) != n)
        )
    rows = draw(st.lists(st.one_of(row_kinds), max_size=25))
    lead = draw(st.lists(blank, max_size=2))
    header = draw(st.sampled_from([[f"v{j}" for j in range(n)], [str(j) for j in range(n)]]))
    if draw(st.booleans()):
        header = [draw(QUOTED_LABELS).format(label) for label in header]
        lead = draw(st.lists(st.sampled_from([['""'], ['" "', ""], [""]]), max_size=2))
    endings = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r"]])))
    text = "".join(",".join(cells) + draw(endings) for cells in [*lead, header, *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8")


def _outcome(reader, path):
    try:
        data, dropped = reader(path)
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc), str(exc)
    return data.values.tobytes(), data.values.shape, data.labels, dropped


def _assert_same(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(raw)
        assert _outcome(read_data_csv, path) == _outcome(csv_oracle.read_data_csv, path)


@settings(max_examples=300, deadline=None)
@given(raw_files())
@example(b"a,b\n1e5,-2E-4\n1_000,2\n 3 , 4 \n5,\nNA,1\ninf,2\nnan,3\n1e999,4\n,,\n\n6,7\n")
@example(b"a,b\r\n1,2\r\n3,4\r\n\r\n5,6\r\n")
@example(b"a\r\n1\r\n\r\n2\r\n3\r\n")
@example(b"1,2\n3,4\n5,6\n")
@example(b'a,b\n"1",2\n"3\n4",5\n6,7\n8,9\n')
@example(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
@example(b"a,b\n1,2\n3,4,5\n6,7\n")
@example(b"a,b\n1,2\r3,4\n5,6\n")
@example(b"a,b\n1-2,3\n4,5\n6,7\n")
@example(b"a,b\n1,\x002\n3,4\n5,6\n")
@example(b'"a","b"\n1,2\nNA,3\n4,5\n')
@example(b'"a",b\n1,2\n"3",4\n5,6\n')
@example(b'"a\nb",c\n1,2\nx,3\n3,4,5\n')
@example(b'""\n\n" a ","b"\r\n1,2\r\n3,4\r\n')
@example(b'"a,b\n1,2\n3,4\n')
def test_reader_matches_cell_by_cell_oracle(raw):
    _assert_same(raw)


def test_quoted_header_keeps_the_byte_scan(monkeypatch):
    # every body row of the csv fallback reaches _parse_rows; of the byte
    # scan, only the rows that np.loadtxt does not take
    lines = []
    parse_rows = reporting._parse_rows

    def seen(path, rows, *args):
        lines.extend(line_no for line_no, cells in rows if any(cells))
        return parse_rows(path, rows, *args)

    monkeypatch.setattr(reporting, "_parse_rows", seen)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(b'"a\nb"," c ",""""\n1,2,3\n4,5,6\nNA,7,8\n')
        data, dropped = read_data_csv(path)
    assert data.labels == ("a\nb", "c", '"')
    assert data.values.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert dropped == 1
    assert lines == [4], "the body went through csv"


def test_reader_matches_oracle_on_a_large_file():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(3000, 5)) * [1, 10, 1e3, 1e-3, 1e6]
    lines = [",".join(f"{v:.{rng.integers(1, 17)}g}" for v in row) for row in values]
    for i, token in zip(rng.choice(3000, 60, replace=False), ["", "NA", "inf", "1e999", " 2 "] * 12):
        cells = lines[i].split(",")
        cells[i % 5] = token
        lines[i] = ",".join(cells)
    raw = ("a,b,c,d,e\n" + "\n".join(lines) + "\n").encode()
    _assert_same(raw)
    _assert_same(raw.replace(b"\n", b"\r\n"))
    _assert_same(raw.replace(b"a,b,", b'"a","b\nb",', 1))


# one fault per correlation file; "repair" perturbs an entry around the 1e-6 limits
CORR_FAULTS = (
    "none", "repair", "bad_cell", "non_finite", "row_count", "label", "field_count",
    "duplicate", "corner",
)


def _csv_label(label: str, quoted: bool) -> str:
    if quoted or any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


@st.composite
def corr_files(draw):
    """Bytes of a correlation CSV with at most one fault; the fault, n and the first row's line."""
    n = draw(st.integers(1, 5))
    fault = draw(st.sampled_from(CORR_FAULTS))
    stem = draw(st.sampled_from(["v", "", "ü", "温度 ", " a", "x,", 'q"', "r\n", "s\r\nt"]))
    labels = [f"{stem}{j}".strip() for j in range(n)]
    quoted, quoted_rows = draw(st.booleans()), draw(st.booleans())
    entries = np.eye(n)
    for i in range(n):
        for j in range(i):
            entries[i, j] = entries[j, i] = draw(st.floats(-0.99, 0.99))
    style = draw(st.sampled_from(["%r", "%.3f", "%+.5g", " %r ", "%.17e"]))
    cells = [[style % v for v in row] for row in entries.tolist()]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "repair":
        delta = draw(st.sampled_from([1e-8, 5e-7, 9e-7, 2e-6, 1e-3]))
        cells[i][j] = repr(float(entries[i, j]) + draw(st.sampled_from([delta, -delta])))
    elif fault == "bad_cell":
        cells[i][j] = draw(st.sampled_from(["x", "", " ", "NA", "1-2", "e", "."]))
    elif fault == "non_finite":
        cells[i][j] = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
    rows = [[_csv_label(label, quoted_rows), *row] for label, row in zip(labels, cells)]
    header = ["", *(_csv_label(label, quoted) for label in labels)]
    if fault == "row_count":
        rows = rows[:i] + rows[i + 1 :] if draw(st.booleans()) else rows + [rows[i]]
    elif fault == "label":
        rows[i][0] = _csv_label(draw(st.sampled_from(["", "zz", labels[(i + 1) % n] + "_"])), False)
    elif fault == "field_count":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [rows[i][-1]]
    elif fault == "duplicate" and n > 1:
        header[j + 1] = header[(j + 1) % n + 1]
    elif fault == "corner":
        header = header[1:]
    lead = draw(st.lists(st.sampled_from([[], [""], ["", ""]]), max_size=2))
    endings = st.sampled_from(draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n"]])))
    text = "".join(",".join(row) + draw(endings) for row in [*lead, header, *rows])
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8"), fault, n, len(lead) + 2


def _corr_outcome(reader, path):
    try:
        corr = reader(path)
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc), str(exc)
    return corr.entries.tobytes(), corr.labels


def _assert_same_matrix(raw: bytes, fault: str, n: int, first_row: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corr.csv"
        path.write_bytes(raw)
        expected = _corr_outcome(csv_oracle.read_correlation_csv, path)
        # the raw row rules word a wrong field count their own way, and a
        # header without its corner cell makes every row one field too long
        old = re.fullmatch(r"(.*: line \d+: )expected a label and (\d+) values, got (\d+) fields",
                           str(expected[1]))
        if old:
            expected = ParseError, f"{old[1]}expected {int(old[2]) + 1} fields, got {old[3]}"
        if fault == "corner" and n > 1:
            expected = ParseError, f"{path}: line {first_row}: expected {n} fields, got {n + 1}"
        assert _corr_outcome(read_correlation_csv, path) == expected


@settings(max_examples=400, deadline=None)
@given(corr_files())
@example((b",a,b\na,1,oops\nb,0.5,1\n", "bad_cell", 2, 2))
@example((b",a,b\r\na,1,0.5\r\nb,0.5,1e999\r\n", "non_finite", 2, 2))
@example((b"\xef\xbb\xbf\n,a,b\na,1,0.5\nb,0.5,1\n", "none", 2, 3))
@example((b",a,b\ra,1,0.5000001\rb,0.4999999,1\r", "repair", 2, 2))
@example((b',"a,x",b\n"a,x",1,0.5\nb,0.5,1\n', "none", 2, 2))
@example((b",a,b\na,1,0.5\nb,0.5\n", "field_count", 2, 2))
@example((b"a,b\na,1,0.5\nb,0.5,1\n", "corner", 2, 2))
@example((b"a\na,1\n", "corner", 1, 2))
@example((b",a,a\na,1,0.5\na,0.5,1\n", "duplicate", 2, 2))
@example((b",a,b\na,1,0.5\n", "row_count", 2, 2))
@example((b",a,b\na,1,0.5\nc,0.5,1\n", "label", 2, 2))
@example((b",\xc3\xbc,b\n \xc3\xbc ,1,0.5\nb,0.5,1\n", "none", 2, 2))
def test_correlation_reader_matches_cell_by_cell_oracle(case):
    _assert_same_matrix(*case)


@pytest.mark.parametrize(
    "raw",
    [b"a,b\n1,2\nbad,2\n", b"a,b\n1,2\n", b"a,b\n", b'a,b\n"1",2\nNA,3\n', b"a,b\n1,2\n,\n\n"],
)
def test_too_few_usable_rows_is_a_size_error(tmp_path, raw):
    path = tmp_path / "raw.csv"
    path.write_bytes(raw)
    with pytest.raises(SizeError, match="usable rows remain"):
        read_data_csv(path)
    _assert_same(raw)


@pytest.mark.parametrize("raw", [b"", b"\n\n", b" , \r\n"])
def test_blank_file_is_a_parse_error(tmp_path, raw):
    path = tmp_path / "raw.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="file is empty"):
        read_data_csv(path)
    _assert_same(raw)


@pytest.mark.parametrize("reader", [read_data_csv, read_correlation_csv])
def test_invalid_utf8_is_a_parse_error(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff4\n")
    with pytest.raises(ParseError, match="not valid UTF-8"):
        reader(path)


@pytest.mark.parametrize(
    ("reader", "raw"),
    [
        (read_data_csv, b"\xef\xbb\xbfa,b\n1,2\n3,5\n"),
        (read_data_csv, b'\xef\xbb\xbf"a",b\n1,2\n3,5\n'),
        (read_data_csv, b"\xef\xbb\xbf\na,b\n1,2\n3,5\n"),
        (read_correlation_csv, b"\xef\xbb\xbf\n,a,b\na,1,0.5\nb,0.5,1\n"),
    ],
)
def test_leading_byte_order_mark_is_dropped(tmp_path, reader, raw):
    path = tmp_path / "bom.csv"
    path.write_bytes(raw)
    result = reader(path)
    matrix = result[0] if isinstance(result, tuple) else result
    assert matrix.labels == ("a", "b")


@pytest.mark.parametrize(
    ("argv", "raw"),
    [
        (["summary", "--input"], b"a,b\n1,2\n3,\xff4\n"),
        (["eigen", "--corr"], b",a,b\na,1,0\nb,0,\xff1\n"),
    ],
)
def test_cli_reports_invalid_utf8(tmp_path, capsys, argv, raw):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    assert main([*argv, str(path)]) == 1
    assert f"facpca {argv[0]}: {path}: not valid UTF-8" in capsys.readouterr().err


def _summary_oracle(x):
    uniques, counts = np.unique(x, return_counts=True)
    return np.median(x), uniques[np.argmax(counts)], x.min(), x.max()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 2.5, 1e150, -1e150, 5e-324]),
        min_size=2,
        max_size=40,
    )
)
def test_summarize_matches_unique_and_median(values):
    x = np.array(values)
    stats = summarize(x)
    got = np.array([stats.median, stats.mode, stats.minimum, stats.maximum])
    assert got.tobytes() == np.array(_summary_oracle(x), dtype=float).tobytes()
