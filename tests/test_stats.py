import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from facpca import (
    CorrelationMatrix,
    DataError,
    DataMatrix,
    DegenerateColumnError,
    SizeError,
    correlation_matrix,
    determination_matrix,
    standardize,
    summarize,
)

from reference_values import WEATHER_CORR


# ---------------------------------------------------------------------------
# summarize


def test_summarize_symmetric_sequence():
    stats = summarize([1, 2, 3, 4, 5])
    assert stats.mean == 3
    assert stats.median == 3
    assert stats.std_dev == pytest.approx(math.sqrt(2))
    assert stats.minimum == 1
    assert stats.maximum == 5


def test_summarize_constant_column():
    stats = summarize([7, 7, 7])
    assert stats.mean == 7
    assert stats.std_dev == 0
    assert stats.mode == 7


def test_summarize_hand_computed():
    # mean 10/4, deviations (-1.5, -0.5, -0.5, 2.5) -> variance 9/4
    stats = summarize([1, 2, 2, 5])
    assert stats.mean == pytest.approx(2.5)
    assert stats.median == pytest.approx(2.0)
    assert stats.mode == 2.0
    assert stats.std_dev == pytest.approx(1.5)


def test_summarize_mode_tie_takes_smallest():
    assert summarize([3, 3, 1, 1, 2]).mode == 1.0


def test_summarize_even_median_is_midpoint():
    assert summarize([1, 2, 3, 10]).median == pytest.approx(2.5)


@pytest.mark.parametrize(
    ("column", "std_dev"),
    [
        ([1e300, -1e300], 1e300),  # squared deviations would overflow
        ([1e-200, -1e-200], 1e-200),  # squared deviations would underflow to 0
        ([3e200, 3e200, -3e200, -3e200], 3e200),
    ],
)
def test_summarize_std_dev_of_extreme_magnitudes(column, std_dev):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = summarize(column)
    assert math.isfinite(stats.std_dev)
    assert stats.std_dev == pytest.approx(std_dev, rel=1e-15, abs=0.0)


def test_summarize_mean_of_an_overflowing_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = summarize([1.5e308, 1.5e308, 1.0])
    assert stats.mean == pytest.approx(1e308, rel=1e-15, abs=0.0)
    assert stats.std_dev == pytest.approx(math.sqrt(0.5) * 1e308, rel=1e-15, abs=0.0)


def _summary_moments_before_overflow_guard(x):
    mean = float(x.mean())
    deviations = x - mean
    scale = float(np.max(np.abs(deviations)))
    if scale > 0.0:
        deviations /= scale
    return mean, scale * float(np.sqrt(np.mean(deviations**2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=60))
def test_summarize_moments_unchanged_when_the_sum_is_finite(values):
    x = np.array(values)
    stats = summarize(x)
    got = np.array([stats.mean, stats.std_dev])
    assert got.tobytes() == np.array(_summary_moments_before_overflow_guard(x)).tobytes()


# columns whose range exceeds the largest float, so that centering overflows;
# the second sums to +inf and -inf in different partial sums, i.e. to nan
WIDE_COLUMNS = [
    [1.7e308, -1.7e308, -1.7e308, 1e308],
    [1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.7e308, 1.7e308, -1.7e308, -1.7e308, 1.0],
]


@pytest.mark.parametrize("column", [[1.7e308, -1.7e308, -1.7e308], *WIDE_COLUMNS])
def test_summarize_std_dev_of_a_range_beyond_the_largest_float(column):
    x = np.array(column)
    top = np.max(np.abs(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = summarize(x)
    assert stats.mean == pytest.approx(top * np.mean(x / top), rel=1e-15, abs=1e-300)
    assert stats.std_dev == pytest.approx(top * np.std(x / top), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("column", WIDE_COLUMNS)
def test_correlation_matrix_of_a_range_beyond_the_largest_float(column):
    x = np.array(column)
    other = np.cos(np.arange(x.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = correlation_matrix(DataMatrix(np.column_stack([x, other, -x]), ("a", "b", "c")))
    expected = np.corrcoef(np.column_stack([x / np.max(np.abs(x)), other, -x / 1.7e308]).T)
    assert_allclose(corr.entries, expected, rtol=0.0, atol=1e-14)


def _correlation_before_overflow_guard(values):
    centered = values - values.mean(axis=0)
    centered -= centered.mean(axis=0)
    centered = centered / np.max(np.abs(centered), axis=0)
    sumsq = np.sum(centered**2, axis=0)
    n = values.shape[1]
    upper = np.zeros((n, n))
    for i in range(n - 1):
        dots = centered[:, i + 1 :].T @ centered[:, i]
        upper[i, i + 1 :] = dots / np.sqrt(sumsq[i] * sumsq[i + 1 :])
    return np.clip(upper + upper.T + np.eye(n), -1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 40), st.integers(1, 5)),
        elements=st.floats(-1e300, 1e300) | st.sampled_from([0.0, 1.0, -1.0, 5e-324]),
    )
)
def test_correlation_matrix_unchanged_when_centering_is_finite(values):
    assume(np.all(np.ptp(values, axis=0) > 1e-290))
    corr = correlation_matrix(DataMatrix(values, tuple(f"v{j}" for j in range(values.shape[1]))))
    assert corr.entries.tobytes() == _correlation_before_overflow_guard(values).tobytes()


def test_summarize_rejects_short_and_nonfinite():
    with pytest.raises(SizeError):
        summarize([1.0])
    with pytest.raises(DataError):
        summarize([1.0, float("nan"), 2.0])


# ---------------------------------------------------------------------------
# standardize


def _matrix(columns, labels=None):
    values = np.column_stack(columns)
    labels = labels or tuple(f"c{i}" for i in range(values.shape[1]))
    return DataMatrix(values, labels)


def test_standardize_three_point_column():
    # biased std of (1,2,3) is sqrt(2/3), so the ends map to +-sqrt(3/2)
    result = standardize(_matrix([[1.0, 2.0, 3.0]]))
    assert_allclose(
        result.column(0), [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], atol=1e-12
    )


def test_standardize_is_idempotent():
    rng = np.random.default_rng(7)
    data = _matrix([rng.normal(5, 3, 100), rng.normal(-2, 0.5, 100)])
    once = standardize(data)
    twice = standardize(once)
    assert_allclose(twice.values, once.values, atol=1e-12)


def test_standardize_zero_mean_unit_variance():
    rng = np.random.default_rng(11)
    data = _matrix([rng.normal(1016.4, 8.4, 500), rng.normal(18890.6, 9769.9, 500)])
    result = standardize(data)
    m = result.n_observations
    assert np.max(np.abs(result.values.sum(axis=0) / m)) < 1e-12
    assert np.max(np.abs(np.sum(result.values**2, axis=0) / m - 1.0)) < 1e-12


def test_standardize_rejects_constant_column():
    with pytest.raises(DegenerateColumnError, match="flat"):
        standardize(_matrix([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]], ("ok", "flat")))


def test_standardize_preserves_shape_and_labels():
    data = _matrix([[1.0, 2.0, 4.0], [0.0, 1.0, 5.0]], ("a", "b"))
    result = standardize(data)
    assert result.values.shape == data.values.shape
    assert result.labels == data.labels


def test_standardize_a_spread_beyond_the_square_root_of_the_largest_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = standardize(_matrix([[1e200, -1e200, 0.0]]))
    assert_allclose(result.column(0), [math.sqrt(1.5), -math.sqrt(1.5), 0.0], rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# correlation of two columns


def test_correlation_exact_linear_dependence():
    assert correlation_matrix(_matrix([[1, 2, 3, 4], [2, 4, 6, 8]])).entries[0, 1] == 1.0


def test_correlation_reversed_order():
    assert correlation_matrix(_matrix([[1, 2, 3, 4], [4, 3, 2, 1]])).entries[0, 1] == -1.0


def test_correlation_hand_computed():
    # centered dot product 4.0 over norms sqrt(5)*sqrt(5)
    r = correlation_matrix(_matrix([[1, 2, 3, 4], [1, 3, 2, 4]])).entries[0, 1]
    assert r == pytest.approx(0.8)


def test_correlation_errors():
    with pytest.raises(DegenerateColumnError):
        correlation_matrix(_matrix([[1, 1, 1], [1, 2, 3]]))
    with pytest.raises(DegenerateColumnError):
        correlation_matrix(_matrix([[1, 2, 3], [5, 5, 5]]))


@pytest.mark.parametrize("column", WIDE_COLUMNS)
def test_correlation_of_a_range_beyond_the_largest_float(column):
    x = np.array(column)
    y = np.arange(1.0, x.size + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = correlation_matrix(_matrix([x, y])).entries[0, 1]
    assert r == pytest.approx(np.corrcoef(x / np.max(np.abs(x)), y)[0, 1], rel=0.0, abs=1e-14)


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

# spread bounded away from zero so mean subtraction cannot eat all digits
well_scaled_floats = st.floats(min_value=-1e3, max_value=1e3)


def _spread_ok(values):
    return max(values) - min(values) > 1e-3


@st.composite
def nonconstant_pairs(draw, elements=finite_floats, spread=None):
    m = draw(st.integers(min_value=2, max_value=30))
    condition = spread or (lambda v: max(v) > min(v))
    a = draw(st.lists(elements, min_size=m, max_size=m).filter(condition))
    b = draw(st.lists(elements, min_size=m, max_size=m).filter(condition))
    return a, b


@given(nonconstant_pairs())
@settings(max_examples=150, deadline=None)
def test_correlation_symmetric_and_bounded(pair):
    a, b = pair
    r = correlation_matrix(_matrix([a, b])).entries[0, 1]
    assert r == correlation_matrix(_matrix([b, a])).entries[0, 1]
    assert abs(r) <= 1.0 + 1e-12


@given(
    nonconstant_pairs(elements=well_scaled_floats, spread=_spread_ok),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_correlation_affine_invariance(pair, slope, offset):
    a, b = pair
    rescaled = [slope * v + offset for v in a]
    r = correlation_matrix(_matrix([a, b])).entries[0, 1]
    assert correlation_matrix(_matrix([rescaled, b])).entries[0, 1] == pytest.approx(r, abs=1e-9)


def test_correlation_unchanged_by_standardization():
    rng = np.random.default_rng(3)
    a = rng.normal(10, 4, 200)
    b = 0.4 * a + rng.normal(0, 2, 200)
    data = standardize(_matrix([a, b]))
    r = correlation_matrix(_matrix([a, b])).entries[0, 1]
    assert correlation_matrix(_matrix([data.column(0), b])).entries[0, 1] == pytest.approx(r, abs=1e-12)


# ---------------------------------------------------------------------------
# correlation_matrix


def test_correlation_matrix_diagonal_is_exactly_one():
    rng = np.random.default_rng(5)
    data = _matrix([rng.normal(size=50) for _ in range(4)])
    corr = correlation_matrix(data)
    assert np.all(np.diag(corr.entries) == 1.0)


def test_correlation_matrix_two_columns():
    corr = correlation_matrix(_matrix([[1, 2, 3, 4], [1, 3, 2, 4]]))
    assert corr.entries[0, 1] == pytest.approx(0.8)
    assert corr.entries[1, 0] == corr.entries[0, 1]


def test_correlation_matrix_independent_columns_near_zero():
    rng = np.random.default_rng(42)
    data = _matrix([rng.standard_normal(10000) for _ in range(5)])
    corr = correlation_matrix(data)
    off = corr.entries - np.eye(5)
    assert np.max(np.abs(off)) < 0.05


def test_correlation_matrix_invariant_under_standardization():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3)) + [5.0, -3.0, 100.0]
    data = DataMatrix(base, ("a", "b", "c"))
    direct = correlation_matrix(data)
    via_standardized = correlation_matrix(standardize(data))
    assert_allclose(via_standardized.entries, direct.entries, atol=1e-12)


def test_correlation_matrix_names_degenerate_column():
    with pytest.raises(DegenerateColumnError, match="bad"):
        correlation_matrix(_matrix([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]], ("ok", "bad")))


# ---------------------------------------------------------------------------
# determination_matrix


def test_determination_squares_entries():
    corr = CorrelationMatrix(np.array([[1.0, 0.875], [0.875, 1.0]]), ("a", "b"))
    det = determination_matrix(corr)
    assert det[0, 1] == pytest.approx(0.765625)
    assert det[0, 0] == 1.0


def test_determination_zero_stays_zero():
    corr = CorrelationMatrix(np.eye(3), ("a", "b", "c"))
    assert np.all(determination_matrix(corr) == np.eye(3))


def test_determination_weather_shared_variance():
    corr = CorrelationMatrix(WEATHER_CORR, tuple(f"x{i}" for i in range(1, 8)))
    det = determination_matrix(corr)
    assert det[1, 5] == pytest.approx(0.3231, abs=5e-3)


# ---------------------------------------------------------------------------
# DataMatrix / CorrelationMatrix validation


def test_data_matrix_rejects_bad_input():
    with pytest.raises(SizeError):
        DataMatrix(np.zeros((1, 3)), ("a", "b", "c"))
    with pytest.raises(DataError):
        DataMatrix(np.array([[1.0, np.inf], [2.0, 3.0]]), ("a", "b"))
    with pytest.raises(DataError):
        DataMatrix(np.zeros((3, 2)), ("a", "a"))
    with pytest.raises(DataError):
        DataMatrix(np.zeros((3, 2)), ("a",))


def test_correlation_matrix_type_validation():
    with pytest.raises(DataError):
        CorrelationMatrix(np.array([[1.0, 0.6], [0.5, 1.0]]), ("a", "b"))
    with pytest.raises(DataError):
        CorrelationMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"))
    with pytest.raises(DataError):
        CorrelationMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]), ("a", "b"))
