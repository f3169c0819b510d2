"""The block table builders of ``facpca.reporting`` against the per-cell builders.

``table_oracle`` keeps the builders that formatted one number per call;
every block builder must give the same header and cells on any input,
and ``emit_scree`` the same ``scree.txt`` bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import facpca.reporting as reporting
from facpca.eigen import eigen_symmetric
from facpca.factors import LoadingMatrix, full_loadings, truncate
from facpca.retention import RetentionReport, minvar_count
from facpca.stats import CorrelationMatrix, DataMatrix
from facpca.varimax import varimax

import table_oracle as oracle
from conftest import dense_factor_correlation
from reference_values import WEATHER_CORR

# loadings whose squares print 42.34, 60.24 and 72.34 percent by libm pow (the
# per-cell ``v**2``), but 42.33, 60.25 and 72.33 by x * x
POW_STRADDLES = [0.6506535176267012, 0.7761765263134411, 0.8504998530276181]
# within [-1, 1]: loadings, correlations and shares may take these
UNIT_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e-5, -1e-5, 1.0, -1.0,
    0.1234567890125, -0.9999999999995, 0.12345, 0.00005, 0.00015, 0.10125, 0.99995,
    math.sqrt(0.12345), math.sqrt(0.00125), *POW_STRADDLES,
]
# beyond [-1, 1]: only statistics, eigenvalues and free matrices take these
WIDE_SPECIALS = [
    1e16, -1e16, 1.7976931348623157e308, -1.7976931348623157e308,
    123456789012.5, 1.0000000000005, 2.0000000000015, 12.345, 0.125,
]
LABEL_SPECIALS = ["a,b", 'say "hi"', "two\nlines", "cr\rx", "", " ", "é", "x"]
SIZES = [1, 2, 7, 100]

# extreme inputs overflow in the statistics and shares of both builders alike
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def _same(ours: reporting.ReportTable, theirs: reporting.ReportTable) -> None:
    assert ours.header == theirs.header
    assert ours.rows == theirs.rows


def _labels(draw, n: int) -> list[str]:
    """``n`` distinct labels holding commas, quotes and line breaks."""
    bases = draw(st.lists(st.sampled_from(LABEL_SPECIALS), min_size=n, max_size=n))
    return [f"{base}{i}" for i, base in enumerate(bases)]


# cells: arbitrary or special values, within [-1, 1], finite, or any float
UNIT = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(UNIT_SPECIALS))
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(UNIT_SPECIALS + WIDE_SPECIALS),
)
ANY = st.one_of(FINITE, st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]))


def _matrix(draw, shape, cells) -> np.ndarray:
    """A matrix of ``shape`` filled from a small pool of drawn ``cells``."""
    pool = np.array(draw(st.lists(cells, min_size=1, max_size=30)))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).choice(pool, size=shape)


@st.composite
def loadings(draw, full=False):
    n = draw(st.sampled_from(SIZES))
    k = n if full else draw(st.integers(1, n))
    return LoadingMatrix(_matrix(draw, (n, k), UNIT), _labels(draw, n))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES), rows=st.sampled_from([2, 3, 8]))
def test_summary_table_matches_oracle(data, n, rows):
    values = _matrix(data.draw, (rows, n), FINITE)
    matrix = DataMatrix(values, _labels(data.draw, n))
    _same(reporting.summary_table(matrix), oracle.summary_table(matrix))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_matrix_table_matches_oracle(data, n):
    labels = _labels(data.draw, n)
    matrix = _matrix(data.draw, (n, n), ANY)
    _same(
        reporting.matrix_table(labels, matrix, "%.12g"),
        oracle.matrix_table(labels, matrix, oracle.format_number),
    )
    _same(
        reporting.matrix_table(labels, matrix * 100.0, "%.2f"),
        oracle.matrix_table(labels, matrix, oracle.format_pct),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_correlation_tables_match_oracle(data, n):
    lower = np.tril(_matrix(data.draw, (n, n), UNIT), -1)
    corr = CorrelationMatrix(lower + lower.T + np.eye(n), _labels(data.draw, n))
    for ours, theirs in zip(reporting.correlation_tables(corr), oracle.correlation_tables(corr)):
        _same(ours, theirs)


def _eigenvalues(draw, n: int) -> np.ndarray:
    values = _matrix(draw, (n,), FINITE)
    return np.sort(np.abs(values))[::-1]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_explained_variance_table_matches_oracle(data, n):
    eigenvalues = _eigenvalues(data.draw, n)
    _same(
        reporting.explained_variance_table(eigenvalues),
        oracle.explained_variance_table(eigenvalues),
    )


@settings(max_examples=60, deadline=None)
@given(matrix=loadings(), with_communality=st.booleans())
@example(matrix=LoadingMatrix(np.array([POW_STRADDLES]).T, ["a", "b", "c"]), with_communality=False)
def test_loading_tables_match_oracle(matrix, with_communality):
    _same(
        reporting.loading_table(matrix, with_communality),
        oracle.loading_table(matrix, with_communality),
    )
    _same(reporting.common_variance_table(matrix), oracle.common_variance_table(matrix))


@settings(max_examples=40, deadline=None)
@given(matrix=loadings(full=True))
def test_cumulative_table_matches_oracle(matrix):
    _same(reporting.cumulative_table(matrix), oracle.cumulative_table(matrix))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_retention_table_matches_oracle(data, n):
    shares = _matrix(data.draw, (3, n), ANY)
    counts = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    report = RetentionReport(*(tuple(row.tolist()) for row in shares), tuple(counts), 1, 0.51)
    _same(reporting.retention_table(report), oracle.retention_table(report))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_scree_text_matches_oracle(tmp_path_factory, data, n):
    eigenvalues = _eigenvalues(data.draw, n)
    _, txt = reporting.emit_scree(eigenvalues, tmp_path_factory.mktemp("scree") / "scree.svg")
    assert txt.read_bytes() == oracle.scree_text(eigenvalues).encode("utf-8")


def _stage_tables(module, corr: CorrelationMatrix, k: int) -> list[reporting.ReportTable]:
    """Every table a report builds from ``corr`` with ``k`` factors, by ``module``'s builders."""
    eig = eigen_symmetric(corr.entries, correlation_input=True)
    full = full_loadings(eig, corr.labels)
    truncated = truncate(full, k)
    rotated = varimax(truncated).rotated
    return [
        *module.correlation_tables(corr),
        module.explained_variance_table(eig.eigenvalues),
        module.loading_table(full, False),
        module.cumulative_table(full),
        module.retention_table(minvar_count(eig)),
        *(module.loading_table(m, True) for m in (truncated, rotated)),
        *(module.common_variance_table(m) for m in (truncated, rotated)),
    ]


@pytest.mark.parametrize(
    "corr, k",
    [
        (WEATHER_CORR, 4),
        (dense_factor_correlation(5, 40, 8), 8),
        (dense_factor_correlation(7, 100, 17), 17),
    ],
    ids=["weather", "dense-40x8", "dense-100x17"],
)
def test_report_tables_match_oracle(corr, k):
    corr = CorrelationMatrix(corr, [f"v{i}" for i in range(len(corr))])
    for ours, theirs in zip(_stage_tables(reporting, corr, k), _stage_tables(oracle, corr, k)):
        _same(ours, theirs)
