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

from facpca import DataError, ParseError, SizeError, ThresholdError
from facpca.datasets import dataset1_corr_path
from facpca.reporting import (
    CSV_BLOCK_ROWS,
    Analysis,
    emit_scree,
    read_correlation_csv,
    read_data_csv,
    run_report,
    write_numeric_csv,
)
from facpca.stats import CorrelationMatrix, DataMatrix

import numeric_csv_oracle
from conftest import permuted_sign_matched_diff
from reference_values import (
    REF_EIGENVALUES,
    REF_LOADINGS_4F_ROTATED,
    WEATHER_CORR,
)


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
    path = _write(tmp_path / "corr.csv", ",a,b\na,1,oops\nb,0.5,1\n")
    with pytest.raises(ParseError, match="line 2"):
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
BLOCK = CSV_BLOCK_ROWS
BLOCK_EDGES = [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17]


def _written_by_both(labels, values) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = Path(tmp) / "block.csv", Path(tmp) / "cells.csv"
        write_numeric_csv(ours, labels, values)
        numeric_csv_oracle.write_numeric_csv(oracle, labels, values)
        return ours.read_bytes(), oracle.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.sampled_from(BLOCK_EDGES),
    columns=st.integers(1, 5),
    data=st.data(),
)
def test_block_writer_matches_cell_by_cell_oracle(rows, columns, data):
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


@pytest.mark.parametrize("rows", BLOCK_EDGES)
def test_block_writer_matches_oracle_on_special_values(rows):
    values = np.resize(np.array(SPECIAL_FLOATS), (rows, 4))
    ours, oracle = _written_by_both(QUOTED_LABELS[:4], values)
    assert ours == oracle
    assert ours.count(b"\n") == rows + 2  # one label holds a line feed


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
    observations = DataMatrix(np.eye(3), ("a", "b", "c"))
    with pytest.raises(DataError, match="a DataMatrix holds observations, not a correlation matrix"):
        Analysis(observations, "corr")


def test_run_report_validation(tmp_path):
    analysis = Analysis(dataset1_corr_path(), "corr")
    with pytest.raises(ThresholdError, match=r"percent threshold must lie in \(0, 100\], got 0.0"):
        run_report(analysis, tmp_path / "out", "csv", 0.0)
    with pytest.raises(DataError, match="unknown output format 'xlsx'"):
        run_report(analysis, tmp_path / "out", "xlsx", 80.0)
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
    return run_report(analysis, output_dir, output_format, 80.0)


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


def test_report_summary_table_only_for_raw(tmp_path):
    raw = _write(tmp_path / "raw.csv", RAW_SAMPLE)
    bundle = run_report(Analysis(raw, rotate="none"), tmp_path / "out", "csv", 80.0)
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
