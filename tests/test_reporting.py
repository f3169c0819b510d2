import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from facpca import DataError, ParseError, ShapeError, SizeError, ThresholdError
from facpca.datasets import dataset1_corr_path
from facpca.pipeline import Analysis
from facpca.reporting import (
    G12_PASS_CELLS,
    _decimal_exponent,
    _format_block,
    _g12_pass,
    _separators,
    _write_csv,
    criteria_table,
    emit_scree,
    read_correlation_csv,
    read_data_csv,
    run_report,
    write_numeric_csv,
)
from facpca.stats import CorrelationMatrix, DataMatrix

import numeric_csv_oracle
from conftest import permuted_sign_matched_diff, random_correlation_psd
from reference_values import (
    REF_EIGENVALUES,
    REF_LOADINGS_4F_ROTATED,
    WEATHER_CORR,
)
from table_oracle import format_number


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


RAW_SAMPLE = "a,b,c\n1,1,2\n2,3,3\n2,2,1\n5,4,4\n"


# ---------------------------------------------------------------------------
# ingestion


def test_bundled_fixture_ingests_to_weather_matrix():
    corr = read_correlation_csv(dataset1_corr_path())
    assert isinstance(corr, CorrelationMatrix)
    assert corr.size == 7
    assert corr.labels == tuple(f"x{i}" for i in range(1, 8))
    assert corr.entries[1, 2] == 0.875
    assert_allclose(corr.entries, WEATHER_CORR)


def test_raw_csv_roundtrip(tmp_path):
    path = _write(tmp_path / "raw.csv", RAW_SAMPLE)
    data, dropped = read_data_csv(path)
    assert isinstance(data, DataMatrix)
    assert dropped == 0
    assert data.values.shape == (4, 3)
    assert data.labels == ("a", "b", "c")


def test_raw_csv_drops_bad_rows(tmp_path):
    path = _write(tmp_path / "raw.csv", "a,b\n1,2\nx,3\n4,5\n6,\n7,8\n")
    data, dropped = read_data_csv(path)
    assert dropped == 2
    assert data.values.shape == (3, 2)


def test_raw_csv_drops_nonfinite_rows(tmp_path):
    path = _write(tmp_path / "raw.csv", "a,b\n1,2\nnan,3\n4,inf\n5,6\n")
    _, dropped = read_data_csv(path)
    assert dropped == 2


def test_raw_csv_field_count_is_a_parse_error(tmp_path):
    path = _write(tmp_path / "raw.csv", "a,b\n1,2\n3,4,5\n")
    with pytest.raises(ParseError, match="line 3"):
        read_data_csv(path)


def test_raw_csv_too_few_usable_rows(tmp_path):
    path = _write(tmp_path / "raw.csv", "a,b\n1,2\nbad,2\n")
    with pytest.raises(SizeError):
        read_data_csv(path)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="not found"):
        read_data_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "text",
    ["b,a, a\n1,2,3\n4,5,6\n", 'b,a,a\n1,2,3\n"4",5,6\n', "b,a,a\r1,2,3\r4,5,6\r"],
    ids=["scanned", "quoted-body", "bare-cr"],
)
def test_raw_csv_duplicate_label_names_it(tmp_path, text):
    path = _write(tmp_path / "raw.csv", text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: duplicate label 'a'$"):
        read_data_csv(path)


def test_correlation_csv_requires_matching_labels(tmp_path):
    path = _write(
        tmp_path / "corr.csv", ",a,b\na,1,0.5\nWRONG,0.5,1\n"
    )
    with pytest.raises(DataError, match="label"):
        read_correlation_csv(path)


def test_correlation_csv_rejects_nonnumeric(tmp_path):
    cases = [
        (",a,b\na,1,oops\nb,0.5,1\n", 2, "oops"),
        # the first of two bad cells is named, not the last
        (",a,b,c\na,1,0.5,0.5\nb,0.5,x,y\nc,0.5,0.5,1\n", 3, "x"),
    ]
    for text, line, cell in cases:
        path = _write(tmp_path / "corr.csv", text)
        message = f"{path}: line {line}: {cell!r} is not a number"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_correlation_csv(path)


def test_correlation_csv_rejects_gross_asymmetry(tmp_path):
    path = _write(tmp_path / "corr.csv", ",a,b\na,1,0.5\nb,0.3,1\n")
    with pytest.raises(DataError, match="asymmetric"):
        read_correlation_csv(path)


def test_correlation_csv_symmetrizes_small_asymmetry(tmp_path):
    path = _write(
        tmp_path / "corr.csv", ",a,b\na,1,0.5000001\nb,0.4999999,1\n"
    )
    corr = read_correlation_csv(path)
    assert corr.entries[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert corr.entries[0, 1] == corr.entries[1, 0]


def test_correlation_csv_enforces_unit_diagonal(tmp_path):
    path = _write(tmp_path / "corr.csv", ",a,b\na,0.9,0.5\nb,0.5,1\n")
    with pytest.raises(DataError, match="diagonal"):
        read_correlation_csv(path)


def test_correlation_csv_rounds_diagonal_to_one(tmp_path):
    path = _write(tmp_path / "corr.csv", ",a,b\na,0.9999999,0.5\nb,0.5,1\n")
    corr = read_correlation_csv(path)
    assert corr.entries[0, 0] == 1.0


# ---------------------------------------------------------------------------
# numeric CSV writer

SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e-5, 0.1, 1e16,
    123456789012.5, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
    math.nan,
]
QUOTED_LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rx", " ", "", "\u00e9"]


def _pass_edges(columns: int, cells: int = G12_PASS_CELLS) -> list[int]:
    """Row counts at the edges of the kernel's passes of ``columns``-cell rows."""
    step = cells // max(columns, 1)
    return [0, 1, 2, step - 1, step, step + 1, 3 * step + 17]


# pass sizes for the special-value cases: G12_PASS_CELLS and a fixed smaller
# one, so that the row counts of the cases stay fixed when the constant moves
SPECIAL_PASS_CELLS = sorted({4096, G12_PASS_CELLS})


def _written_by_both(labels, values) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = Path(tmp) / "block.csv", Path(tmp) / "cells.csv"
        write_numeric_csv(ours, labels, values)
        numeric_csv_oracle.write_numeric_csv(oracle, labels, values)
        return ours.read_bytes(), oracle.read_bytes()


@settings(max_examples=60, deadline=None)
@given(columns=st.integers(0, 5), data=st.data())
def test_block_writer_matches_cell_by_cell_oracle(columns, data):
    rows = data.draw(st.sampled_from(_pass_edges(columns)))
    labels = data.draw(
        st.lists(st.one_of(st.text(max_size=4), st.sampled_from(QUOTED_LABELS)),
                 min_size=columns, max_size=columns)
    )
    cells = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
    pool = np.array(data.draw(st.lists(cells, min_size=1, max_size=40)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).choice(pool, size=(rows, columns))
    ours, oracle = _written_by_both(labels, values)
    assert ours == oracle


@pytest.mark.parametrize(
    "rows", sorted({rows for cells in SPECIAL_PASS_CELLS for rows in _pass_edges(4, cells)})
)
def test_block_writer_matches_oracle_on_special_values(monkeypatch, rows):
    # each row count is at a pass edge for one of the pass sizes, and is written at each
    values = np.resize(np.array(SPECIAL_FLOATS), (rows, 4))
    for cells in SPECIAL_PASS_CELLS:
        monkeypatch.setattr("facpca.reporting.G12_PASS_CELLS", cells)
        ours, oracle = _written_by_both(QUOTED_LABELS[:4], values)
        assert ours == oracle
        assert ours.count(b"\n") == rows + 2  # one label holds a line feed


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_block_writer_writes_a_blank_line_per_row_without_columns(rows):
    ours, oracle = _written_by_both([], np.empty((rows, 0)))
    assert ours == oracle == b"\n" * (rows + 1)


@pytest.mark.parametrize(
    "labels, values",
    [(["a", "b"], np.ones((3, 2, 2))), (["a", "b"], np.ones(3)), (["a"], np.ones((3, 2))),
     (["a", "b", "c"], np.ones((3, 2))), ([], np.ones((2, 1)))],
    ids=["3-D", "1-D", "fewer-labels", "more-labels", "no-labels"],
)
def test_block_writer_refuses_a_shape_before_making_the_file(tmp_path, labels, values):
    path = tmp_path / "block.csv"
    with pytest.raises(ShapeError, match="one column per label"):
        write_numeric_csv(path, labels, values)
    assert not path.exists()


def test_block_writer_streams_the_kernel_passes(monkeypatch):
    # each piece written is one pass: whole rows, at most G12_PASS_CELLS cells
    pieces = []

    def keep_pieces(path, header, lines):
        pieces.extend(lines)
        _write_csv(path, header, pieces)

    monkeypatch.setattr("facpca.reporting._write_csv", keep_pieces)
    values = np.resize(np.array(SPECIAL_FLOATS), (3000, 7))
    values[::3] = np.random.default_rng(3).standard_normal((1000, 7))
    ours, oracle = _written_by_both(list("abcdefg"), values)
    assert ours == oracle
    assert len(pieces) > 1
    for piece in pieces:
        assert piece.endswith("\n")
        assert piece.count(",") == 6 * piece.count("\n")
        assert 7 * piece.count("\n") <= G12_PASS_CELLS


# ---------------------------------------------------------------------------
# the %.12g kernel of _format_block


def _g12_template(columns: int) -> str:
    return ",".join(["%.12g"] * columns) + "\n"


def _ulps(value: float, steps: int) -> float:
    """``value`` moved ``steps`` ulps up, or down when ``steps`` is negative."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _twelfth_digit(mantissa: float, exponent: int) -> float:
    """The value ``mantissa * 10**(exponent - 11)``: ``mantissa`` holds its 12 digits."""
    return mantissa * float(f"1e{exponent - 11}")


# the kernel prints exponents -4..11 after rounding; one more at each end
EXPONENTS = st.integers(-5, 12)
G12_CELL = st.one_of(
    # the ends of fixed notation and the powers of ten, a few ulps either way
    st.builds(
        _ulps,
        st.one_of(st.sampled_from([1e-4, 1e11]), EXPONENTS.map(lambda e: float(f"1e{e}"))),
        st.integers(-4, 4),
    ),
    # a 12th digit within 2e-3 of a rounding tie
    st.builds(
        _twelfth_digit,
        st.builds(lambda m, d: m + 0.5 + d, st.integers(10**11, 10**12 - 1), st.floats(-2e-3, 2e-3)),
        EXPONENTS,
    ),
    # twelve nines and a fraction near .5: a carry into a 13th digit, or none
    st.builds(_twelfth_digit, st.floats(999999999999.49, 999999999999.51), EXPONENTS),
    EXPONENTS.map(lambda e: float(f"9.99999999999951e{e}")),
    st.floats(width=64),
    st.sampled_from(SPECIAL_FLOATS),
)


@settings(max_examples=300, deadline=None)
@given(
    columns=st.integers(1, 12),
    cells=st.lists(st.tuples(G12_CELL, st.booleans()), min_size=12, max_size=240),
)
def test_g12_blocks_match_cell_formatter(columns, cells):
    cells = [-value if negative else value for value, negative in cells]
    values = np.array(cells[: len(cells) // columns * columns]).reshape(-1, columns)
    expected = "".join(",".join(map(format_number, row)) + "\n" for row in values)
    assert _format_block(values, _g12_template(columns)) == expected


def test_g12_blocks_match_percent_on_a_million_cells():
    rng = np.random.default_rng(20211021)
    values = rng.standard_normal((125_000, 8)) * 10.0 ** rng.uniform(-6, 13, (125_000, 8))
    template = _g12_template(8)
    expected = template * len(values) % tuple(values.ravel().tolist())
    assert _format_block(values, template) == expected


def test_g12_kernel_corrects_an_exponent_estimate_one_off(monkeypatch):
    # log10 misses floor(log10 x) only next to a power of ten, where the carry
    # prints the same digits; an estimate one off anywhere needs the correction
    rng = np.random.default_rng(5)
    monkeypatch.setattr(
        "facpca.reporting._decimal_exponent",
        lambda a: _decimal_exponent(a) + rng.integers(-1, 2, a.size),
    )
    values = rng.standard_normal((2000, 6)) * 10.0 ** rng.uniform(-5, 12, (2000, 6))
    template = _g12_template(6)
    expected = template * len(values) % tuple(values.ravel().tolist())
    assert _format_block(values, template) == expected


def test_g12_kernel_prints_nearly_every_normal_cell():
    # the cells left to % print the same text, so only their count shows a slide back to %
    values = np.random.default_rng(11).standard_normal((4096, 7))
    _, rest = _g12_pass(values.ravel(), _separators(7))
    assert len(rest) <= 0.01 * values.size


def _layout_cell(exponent: int, digits: int, negative: bool) -> float:
    """A value whose ``%.12g`` has exponent X = ``exponent`` and ``digits`` significant digits.

    The digits hold zeros inside and end in a nonzero digit, so that the
    trailing-zero count gives ``digits`` exactly.
    """
    mantissa = "10203040506"[: digits - 1] + "7"
    return float(f"{'-' if negative else ''}{mantissa[0]}.{mantissa[1:]}e{exponent}")


# the ends of the two-word shift: the point in the last byte of word 1 (X = 6),
# the first of word 2 (X = 7) and the last digit byte (X = 10); X = 11 after a
# carry; integer digits that are trailing zeros; the longest cell, "-0.000"
# and 12 digits; and 12 digits with zeros inside
LAYOUT_EDGES = [
    1234567.89123, -1234567.89123, 12345678.9123, -12345678.9123,
    99999999999.99995, -99999999999.99995, 10000000000.5001,
    -56804270600.0, 56804270600.0, 100000000.0, -0.000123456789123, 0.000100000000001,
]


def test_g12_kernel_prints_every_row_layout():
    # one cell for each (X, digit count, sign) code of the mask tables
    codes = [(x, d, neg) for x in range(-4, 12) for d in range(1, 13) for neg in (False, True)]
    assert len(codes) == 384  # 16 exponents, 12 digit counts, 2 signs
    cells = [_layout_cell(*code) for code in codes] + LAYOUT_EDGES
    cells += [0.0] * (-len(cells) % 6)
    values = np.array(cells).reshape(-1, 6)
    template = _g12_template(6)
    assert _format_block(values, template) == template * len(values) % tuple(cells)
    # the kernel prints every cell of fixed notation below 1e11 itself
    _, rest = _g12_pass(values.ravel(), _separators(6))
    assert rest.tolist() == np.flatnonzero((np.abs(cells) >= 1e11) | (np.array(cells) == 0)).tolist()


# ---------------------------------------------------------------------------
# Analysis and run_report


def test_analysis_validation():
    with pytest.raises(ThresholdError, match=r"epsilon must lie in \(0.5, 1\], got 0.5"):
        Analysis("x.csv", epsilon=0.5)
    with pytest.raises(DataError, match="unknown rotation 'oblimin'"):
        Analysis("x.csv", rotate="oblimin")
    with pytest.raises(DataError, match="unknown input kind 'spreadsheet'"):
        Analysis("x.csv", "spreadsheet")
    with pytest.raises(SizeError, match="factor count override must be at least 1"):
        Analysis("x.csv", factors=0)
    # x.csv does not exist: every setting is checked before the input is read,
    # its type first; a bool is a flag, not a number
    mistyped = [("factors", v, SizeError, "factor count override must be an integer")
                for v in (2.5, True, "3", 2.0)]
    mistyped += [("epsilon", v, ThresholdError, "epsilon must be a real number")
                 for v in ("0.6", None, True)]
    mistyped += [("percent", v, ThresholdError, "percent threshold must be a real number")
                 for v in (None, "80", False)]
    mistyped += [("kaiser_normalize", v, DataError, "kaiser_normalize must be a bool")
                 for v in ("no", 0, None)]
    for name, value, error, message in mistyped:
        with pytest.raises(error, match=f"^{re.escape(f'{message}, got {value!r}')}$"):
            Analysis("x.csv", **{name: value})
    assert Analysis(dataset1_corr_path(), "corr", factors=np.int64(2)).truncated.k == 2
    assert Analysis("x.csv", epsilon=np.float64(0.6), percent=np.int64(80)).percent == 80
    with pytest.raises(ThresholdError, match=r"^percent threshold must lie in \(0, 100\], got 0$"):
        Analysis("x.csv", percent=0)
    with pytest.raises(ThresholdError, match=r"^percent threshold must lie in \(0, 100\], got 100.5$"):
        Analysis("x.csv", "corr", percent=100.5)
    assert not Analysis("x.csv", kaiser_normalize=np.bool_(False)).kaiser_normalize
    for source in (123, None, b"x.csv"):
        message = f"source must be a CSV path or a DataMatrix, got {source!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Analysis(source)
    observations = DataMatrix(np.eye(3), ("a", "b", "c"))
    with pytest.raises(DataError, match="a DataMatrix holds observations, not a correlation matrix"):
        Analysis(observations, "corr")


def test_run_report_validation(tmp_path):
    analysis = Analysis(dataset1_corr_path(), "corr")
    with pytest.raises(DataError, match="unknown output format 'xlsx'"):
        run_report(analysis, tmp_path / "out", "xlsx")
    assert not (tmp_path / "out").exists()


def test_correlation_input_has_no_observations():
    analysis = Analysis(dataset1_corr_path(), "corr")
    assert analysis.dropped_rows == 0
    with pytest.raises(DataError, match="a correlation matrix holds no observations"):
        analysis.data


EXPECTED_TABLES = {
    "correlation_matrix",
    "determination_matrix",
    "eigenvalues",
    "explained_variance",
    "loadings_full",
    "cumulative_communality_pct",
    "retention",
    "criteria_comparison",
    "loadings_truncated",
    "common_variances_truncated",
    "loadings_rotated",
    "common_variances_rotated",
}


def _fixture_report(output_dir, output_format="csv", **settings):
    analysis = Analysis(dataset1_corr_path(), "corr", **settings)
    return run_report(analysis, output_dir, output_format)


def test_report_bundle_contents(tmp_path):
    bundle = _fixture_report(tmp_path)
    assert set(bundle) == EXPECTED_TABLES
    for name in EXPECTED_TABLES:
        assert (tmp_path / f"{name}.csv").exists()
    assert (tmp_path / "scree.svg").exists()
    assert (tmp_path / "scree.txt").exists()
    retention = bundle["retention"]
    assert retention.rows[1][0] == "MinVar"
    assert retention.rows[3][1:] == ["5", "7", "7", "4", "6", "2", "6"]
    criteria = dict((row[0], row[1]) for row in bundle["criteria_comparison"].rows)
    assert criteria["kaiser"] == "3"
    assert criteria["half_of_variables"] == "3"
    assert criteria["explained_variance(80%)"] == "4"
    assert criteria["min_variance(epsilon=0.51)"] == "3"


def test_criteria_table_reads_the_analysis_percent():
    table = criteria_table(Analysis(dataset1_corr_path(), "corr", percent=60))
    assert table.rows[2] == ["explained_variance(60%)", "3"]


def test_report_summary_table_only_for_raw(tmp_path):
    raw = _write(tmp_path / "raw.csv", RAW_SAMPLE)
    bundle = run_report(Analysis(raw, rotate="none"), tmp_path / "out", "csv")
    assert "summary_statistics" in bundle
    stats = bundle["summary_statistics"]
    assert stats.header == ["statistic", "a", "b", "c"]
    assert stats.rows[0][0] == "Mean"


def test_report_four_factor_override_matches_reference(tmp_path):
    bundle = _fixture_report(tmp_path, factors=4)
    table = bundle["loadings_rotated"]
    got = np.array([[float(cell) for cell in row[1:5]] for row in table.rows])
    assert permuted_sign_matched_diff(got, REF_LOADINGS_4F_ROTATED) < 2e-2


def test_report_no_rotation_keeps_full_loadings(tmp_path):
    bundle = _fixture_report(tmp_path, factors=7, rotate="none")
    assert "loadings_rotated" not in bundle
    full = [row[1:] for row in bundle["loadings_full"].rows]
    truncated = [row[1:-1] for row in bundle["loadings_truncated"].rows]
    assert truncated == full


def test_report_override_beyond_n_fails(tmp_path):
    with pytest.raises(SizeError, match="factor count override 8 exceeds the 7 variables"):
        _fixture_report(tmp_path / "out", factors=8)
    assert not (tmp_path / "out").exists()


def test_written_correlation_matrix_reingests(tmp_path):
    _fixture_report(tmp_path)
    corr = read_correlation_csv(tmp_path / "correlation_matrix.csv")
    assert np.max(np.abs(corr.entries - WEATHER_CORR)) < 1e-9


def test_report_outputs_are_byte_deterministic(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    _fixture_report(first)
    _fixture_report(second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_report_json_format(tmp_path):
    bundle = _fixture_report(tmp_path, "json")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert set(payload) == set(bundle)
    assert payload["retention"]["rows"][3][1:] == ["5", "7", "7", "4", "6", "2", "6"]
    assert not (tmp_path / "retention.csv").exists()


# labels csv.writer quotes (commas, quotes, line breaks) or leaves bare
LABEL_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "\u00e9", "\u20ac", "a"], max_size=4)


def _labels(n: int):
    """``n`` labels, distinct once stripped, as a correlation CSV reads them."""
    return st.lists(LABEL_TEXT, min_size=n, max_size=n, unique_by=str.strip)


def _assert_bundles_match_cell_writers(analysis) -> None:
    """Each csv file equals ``csv.writer`` over its table's cells, report.json ``json.dump``."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = run_report(analysis, Path(tmp) / "csv", "csv")
        for name, table in bundle.items():
            assert all(len(row) == len(table.header) for row in table.rows)
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows([table.header, *table.rows])
            written = (Path(tmp) / "csv" / f"{name}.csv").read_bytes()
            assert written == text.getvalue().encode("utf-8"), name
        bundle = run_report(analysis, Path(tmp) / "json", "json")
        text = io.StringIO()
        json.dump({name: {"header": t.header, "rows": t.rows} for name, t in bundle.items()},
                  text, indent=2)
        written = (Path(tmp) / "json" / "report.json").read_bytes()
        assert written == (text.getvalue() + "\n").encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_bundle_files_match_cell_writers_on_raw_data(data, n, seed):
    labels = data.draw(_labels(n))
    values = np.random.default_rng(seed).standard_normal((12, n))
    analysis = Analysis(DataMatrix(values, labels))
    _assert_bundles_match_cell_writers(analysis)
    assert analysis.data.labels == tuple(labels)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_bundle_files_match_cell_writers_on_a_correlation_csv(data, n, seed):
    labels = data.draw(_labels(n))
    entries = random_correlation_psd(np.random.default_rng(seed), n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corr.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            # every field quoted, so that a bare carriage return stays in its label
            writer = csv.writer(f, quoting=csv.QUOTE_ALL)
            writer.writerow(["", *labels])
            rows = zip(labels, entries.tolist())
            writer.writerows([label, *map(repr, row)] for label, row in rows)
        analysis = Analysis(path, "corr")
        _assert_bundles_match_cell_writers(analysis)
        assert analysis.corr.labels == tuple(label.strip() for label in labels)


# ---------------------------------------------------------------------------
# emit_scree


def test_scree_series_contents(tmp_path):
    svg_path, txt_path = emit_scree(REF_EIGENVALUES, tmp_path / "scree.svg")
    lines = txt_path.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0] == "1 2.29"
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "Eigenvalue" in svg and "Component number" in svg


def test_scree_single_point(tmp_path):
    svg_path, txt_path = emit_scree([1.5], tmp_path / "single.svg")
    assert txt_path.read_text() == "1 1.5\n"
    assert "<circle" in svg_path.read_text()


def test_scree_regeneration_is_byte_identical(tmp_path):
    emit_scree(REF_EIGENVALUES, tmp_path / "a.svg")
    emit_scree(REF_EIGENVALUES, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
