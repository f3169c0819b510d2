import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from facpca import (
    DataError,
    EigenDecomposition,
    LoadingMatrix,
    OrderError,
    SizeError,
    ThresholdError,
    eigen_symmetric,
    full_loadings,
    half_count,
    kaiser_count,
    minvar_count,
    percentage_count,
    scree_data,
    truncate,
    variance_table,
)

from reference_values import (
    HOUSING_STYLE_EIGENVALUES,
    REF_AVERVAR_PCT,
    REF_CUMULATIVE_PCT,
    REF_EIGENVALUES,
    REF_MINVAR_PCT,
    REF_NRMINVAR,
    STOCK_INDEX_EIGENVALUES,
)


# ---------------------------------------------------------------------------
# variance_table


def test_variance_table_first_row(weather_eig):
    table = variance_table(weather_eig.eigenvalues)
    assert table.eigenvalue[0] == pytest.approx(2.290, abs=5e-3)
    assert table.cumulative_eigenvalue[0] == pytest.approx(2.290, abs=5e-3)
    assert table.pct[0] == pytest.approx(32.71, abs=0.1)
    assert table.cumulative_pct[0] == pytest.approx(32.71, abs=0.1)


def test_variance_table_cumulative_pct(weather_eig):
    table = variance_table(weather_eig.eigenvalues)
    assert np.max(np.abs(table.cumulative_pct - REF_CUMULATIVE_PCT)) < 0.1
    assert table.cumulative_pct[3] == pytest.approx(80.80, abs=0.1)


def test_variance_table_uniform_eigenvalues():
    table = variance_table([1.0, 1.0, 1.0, 1.0])
    assert_allclose(table.pct, [25.0] * 4)


def test_variance_table_rejects_unsorted():
    with pytest.raises(OrderError):
        variance_table([1.0, 2.0, 0.5])


# each non-finite value where the order check alone would let it pass: a nan
# is neither above nor below its neighbours
@pytest.mark.parametrize(
    "eigenvalues", [[np.inf, 1.0, 0.5], [2.0, np.nan, 0.5], [2.0, 1.0, -np.inf]]
)
@pytest.mark.parametrize("stage", [variance_table, scree_data])
def test_non_finite_eigenvalues_are_refused(stage, eigenvalues):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^eigenvalues must be finite$"):
            stage(eigenvalues)


# ---------------------------------------------------------------------------
# classic criteria


def test_kaiser_on_weather(weather_eig):
    assert kaiser_count(weather_eig.eigenvalues) == 3


def test_kaiser_counts_exact_ones():
    assert kaiser_count(np.ones(5)) == 5
    assert kaiser_count(HOUSING_STYLE_EIGENVALUES) == 4


def test_percentage_on_weather(weather_eig):
    assert percentage_count(variance_table(weather_eig.eigenvalues), 80.0) == 4


def test_percentage_full_threshold(weather_eig):
    n = weather_eig.size
    assert percentage_count(variance_table(weather_eig.eigenvalues), 100.0) == n


def test_percentage_on_stock_index_eigenvalues():
    assert percentage_count(variance_table(STOCK_INDEX_EIGENVALUES), 80.0) == 3


def test_half_count_values():
    assert half_count(7) == 3
    assert half_count(2) == 1
    assert half_count(9) == 4
    assert half_count(1) == 1  # a count of 0 factors is no answer
    with pytest.raises(SizeError, match=r"^need at least one variable, got 0$"):
        half_count(0)


# ---------------------------------------------------------------------------
# minvar_count


def test_weather_retention_report(weather_loadings):
    report = minvar_count(weather_loadings, 0.51)
    assert report.chosen == 3
    assert report.nr_min_var.tolist() == list(REF_NRMINVAR)
    assert np.max(np.abs(100 * report.min_var - REF_MINVAR_PCT)) < 0.3
    assert np.max(np.abs(100 * report.aver_var - REF_AVERVAR_PCT)) < 0.3


def test_identity_needs_every_factor():
    eig = eigen_symmetric(np.eye(4), correlation_input=True)
    assert minvar_count(full_loadings(eig, ("a", "b", "c", "d")), 0.51).chosen == 4


def test_two_variable_case_needs_one_factor():
    eig = eigen_symmetric(np.array([[1.0, 0.6], [0.6, 1.0]]), correlation_input=True)
    report = minvar_count(full_loadings(eig, ("a", "b")), 0.51)
    assert report.chosen == 1
    assert report.min_var[0] == pytest.approx(0.8, abs=1e-12)
    assert report.aver_var[0] == pytest.approx(0.8, abs=1e-12)


def test_epsilon_range_is_enforced(weather_loadings):
    for bad in (0.5, 0.3, 1.0001, 0.0):
        with pytest.raises(ThresholdError):
            minvar_count(weather_loadings, bad)


def test_truncated_loadings_are_refused(weather_loadings):
    for k in (1, 3, 6):
        with pytest.raises(SizeError):
            minvar_count(truncate(weather_loadings, k), 0.51)


def test_report_sequences_are_monotone(weather_loadings):
    report = minvar_count(weather_loadings, 0.51)
    assert np.all(np.diff(report.min_var) >= -1e-15)
    assert np.all(np.diff(report.aver_var) >= -1e-15)
    assert report.min_var[-1] == pytest.approx(1.0, abs=1e-10)
    assert report.aver_var[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(report.min_var <= report.aver_var + 1e-15)


def test_aver_var_equals_cumulative_percentages(weather_eig, weather_loadings):
    report = minvar_count(weather_loadings, 0.51)
    cumulative = variance_table(weather_eig.eigenvalues).cumulative_pct
    assert np.max(np.abs(100 * report.aver_var - cumulative)) < 1e-10


def test_cumulative_is_read_only(weather_loadings):
    cumulative = minvar_count(weather_loadings, 0.51).cumulative
    assert cumulative.shape == (7, 7)
    with pytest.raises(ValueError):
        cumulative[0, 0] = 0.0


def test_report_rows_are_read_only_arrays(weather_loadings):
    report = minvar_count(weather_loadings, 0.51)
    assert report.min_var.dtype == report.aver_var.dtype == np.float64
    assert report.nr_min_var.dtype.kind == "i"
    for array in (report.min_var, report.aver_var, report.nr_min_var):
        with pytest.raises(ValueError):
            array[0] = 0


def test_chosen_straddles_the_threshold(weather_loadings):
    for epsilon in (0.51, 0.6, 0.75, 0.9, 0.99):
        report = minvar_count(weather_loadings, epsilon)
        chosen = report.chosen
        assert chosen >= 1
        assert report.min_var[chosen - 1] >= epsilon
        if chosen > 1:
            assert report.min_var[chosen - 2] < epsilon


def test_raising_epsilon_never_lowers_the_count(weather_loadings):
    grid = np.linspace(0.5001, 1.0, 40)
    counts = [minvar_count(weather_loadings, float(e)).chosen for e in grid]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_report_is_invariant_to_eigenvector_sign_flips(weather_eig, weather_loadings):
    flipped = np.array(weather_eig.eigenvectors)
    flipped[:, ::2] *= -1.0
    mirrored = full_loadings(
        EigenDecomposition(weather_eig.eigenvalues, flipped), weather_loadings.variable_labels
    )
    original = minvar_count(weather_loadings, 0.51)
    altered = minvar_count(mirrored, 0.51)
    assert altered.chosen == original.chosen
    assert_array_equal(altered.nr_min_var, original.nr_min_var)
    assert_allclose(altered.min_var, original.min_var)


def test_chosen_capped_at_n_for_extreme_threshold(weather_loadings):
    assert minvar_count(weather_loadings, 1.0).chosen <= weather_loadings.n_variables


def _minvar_loop(entries, epsilon):
    """The per-prefix scan ``minvar_count`` used before it was vectorized."""
    n = entries.shape[0]
    explained = np.zeros(n)
    min_var, aver_var, nr_min_var, cumulative = [], [], [], []
    for i in range(n):
        explained += entries[:, i] ** 2
        cumulative.append(explained.copy())
        worst = 1.0
        worst_index = 0
        for j in range(n):
            if explained[j] < worst:
                worst_index = j + 1
                worst = explained[j]
        min_var.append(worst)
        aver_var.append(float(explained.mean()))
        nr_min_var.append(worst_index)
    chosen = next((i + 1 for i, value in enumerate(min_var) if value >= epsilon), n)
    return min_var, aver_var, nr_min_var, chosen, np.array(cumulative).T


def _square(entries) -> LoadingMatrix:
    return LoadingMatrix(entries, tuple(f"v{i}" for i in range(len(entries))))


@st.composite
def square_loadings(draw):
    # n above 8 makes numpy's pairwise summation matter for the row means
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # few distinct magnitudes, so explained shares tie across variables and
        # land exactly on, above and below 1
        scales = np.sqrt(rng.choice([0.0, 0.25, 0.5, 1.0], size=n))
        vectors = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0], size=(n, n))
    else:
        scales = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        vectors = rng.uniform(-1.0, 1.0, size=(n, n))
    entries = vectors * scales
    # LAPACK's eigenvectors, and so the pipeline's loadings, are in Fortran order
    return _square(np.asfortranarray(entries) if draw(st.booleans()) else entries)


@settings(max_examples=300, deadline=None)
@given(square_loadings(), st.sampled_from([0.51, 0.75, 1.0]))
@example(_square(np.eye(3)), 0.51)  # every share reaches exactly 1
@example(_square(np.full((3, 3), 0.75)), 0.51)  # every share above 1
@example(_square(np.full((2, 2), 0.5)), 0.51)  # tied below 1
def test_minvar_count_matches_the_per_prefix_loop(loadings, epsilon):
    report = minvar_count(loadings, epsilon)
    min_var, aver_var, nr_min_var, chosen, cumulative = _minvar_loop(loadings.entries, epsilon)
    for got, want in [
        (report.min_var, min_var),
        (report.aver_var, aver_var),
        (report.cumulative, cumulative),
    ]:
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
    assert report.nr_min_var.tolist() == nr_min_var
    assert report.chosen == chosen


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_variance_pct_matches_the_per_component_loop(n, seed, few):
    # the retention ledger's EigVal row: each eigenvalue's share of the n variables
    rng = np.random.default_rng(seed)
    values = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=n) if few else rng.uniform(0.0, 4.0, n)
    values = np.sort(values)[::-1]
    table = variance_table(values)
    assert table.pct.tobytes() == np.array([value / n * 100.0 for value in values]).tobytes()
    for array in (table.eigenvalue, table.cumulative_eigenvalue, table.pct, table.cumulative_pct):
        with pytest.raises(ValueError):
            array[0] = 0.0


# ---------------------------------------------------------------------------
# scree_data


def test_scree_series_on_weather(weather_eig):
    points = scree_data(weather_eig.eigenvalues)
    assert len(points) == 7
    index, value = points[0]
    assert index == 1
    assert value == pytest.approx(REF_EIGENVALUES[0], abs=5e-3)


def test_scree_single_value():
    assert scree_data([2.5]) == [(1, 2.5)]


def test_scree_is_identity_on_values():
    values = [3.0, 2.0, 2.0, 0.5]
    assert [v for _, v in scree_data(values)] == values
    assert [i for i, _ in scree_data(values)] == [1, 2, 3, 4]
