import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from facpca import (
    Analysis,
    DataError,
    EigenDecomposition,
    InconsistentModelError,
    LoadingMatrix,
    NotPositiveSemidefiniteError,
    SizeError,
    build_model,
    communalities,
    correlation_matrix,
    eigen_symmetric,
    full_loadings,
    minvar_count,
    simulate,
    truncate,
)
from facpca.datasets import dataset1_corr_path

from conftest import random_correlation_psd, sign_matched_diff
from reference_values import (
    REF_COMMUNALITIES_3F,
    REF_COMMUNALITIES_4F,
    REF_CUMULATIVE_COMMUNALITY,
    REF_LOADINGS_FULL,
    WEATHER_CORR,
)


TWO_VAR = np.array([[1.0, 0.6], [0.6, 1.0]])


# ---------------------------------------------------------------------------
# full_loadings


def test_identity_correlation_gives_unit_loadings():
    eig = eigen_symmetric(np.eye(3), correlation_input=True)
    loadings = full_loadings(eig, ("a", "b", "c"))
    assert_allclose(np.abs(loadings.entries), np.eye(3), atol=1e-14)


def test_two_variable_analytic_loadings():
    eig = eigen_symmetric(TWO_VAR, correlation_input=True)
    loadings = full_loadings(eig, ("a", "b"))
    want = np.array(
        [[math.sqrt(0.8), math.sqrt(0.2)], [math.sqrt(0.8), -math.sqrt(0.2)]]
    )
    assert sign_matched_diff(loadings.entries, want) < 1e-12


def test_weather_loadings_spot_values(weather_loadings):
    entries = weather_loadings.entries
    assert sign_matched_diff(entries[:, :1], REF_LOADINGS_FULL[:, :1]) < 1e-2
    assert sign_matched_diff(entries[:, 1:2], REF_LOADINGS_FULL[:, 1:2]) < 1e-2
    assert abs(abs(entries[1, 0]) - 0.957) < 1e-2
    assert abs(abs(entries[4, 1]) - 0.820) < 1e-2


def test_full_loadings_rebuild_the_correlation_matrix(weather_loadings):
    rebuilt = weather_loadings.entries @ weather_loadings.entries.T
    assert np.max(np.abs(rebuilt - WEATHER_CORR)) < 1e-8


def test_column_sums_of_squares_equal_eigenvalues(weather_eig, weather_loadings):
    column_sums = np.sum(weather_loadings.entries**2, axis=0)
    assert np.max(np.abs(column_sums - weather_eig.eigenvalues)) < 1e-8


def test_row_sums_of_squares_equal_one(weather_loadings):
    assert np.max(np.abs(np.sum(weather_loadings.entries**2, axis=1) - 1.0)) < 1e-10


def test_full_loadings_reject_negative_eigenvalues():
    eig = EigenDecomposition(np.array([1.0, -0.5]), np.eye(2))
    with pytest.raises(NotPositiveSemidefiniteError):
        full_loadings(eig, ("a", "b"))


def test_basis_product_symmetry_for_random_psd_inputs():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        r = random_correlation_psd(rng, n)
        eig = eigen_symmetric(r, correlation_input=True)
        loadings = full_loadings(eig, tuple("abcdefgh"[:n]))
        product = loadings.entries @ eig.eigenvectors.T
        assert np.max(np.abs(product - product.T)) < 1e-10


# ---------------------------------------------------------------------------
# truncate


def test_truncate_full_is_identity(weather_loadings):
    same = truncate(weather_loadings, weather_loadings.k)
    assert_allclose(same.entries, weather_loadings.entries)
    assert same.variable_labels == weather_loadings.variable_labels


def test_truncate_matches_three_factor_reference(weather_loadings):
    three = truncate(weather_loadings, 3)
    want = np.array([[0.1015, 0.7368, -0.1504]])
    assert sign_matched_diff(three.entries[3:4, :], want) < 1e-2


def test_truncate_matches_four_factor_reference(weather_loadings):
    four = truncate(weather_loadings, 4)
    want = np.array([[0.150, 0.176, 0.696, -0.670]])
    assert sign_matched_diff(four.entries[6:7, :], want) < 1e-2


def test_truncate_rejects_bad_counts(weather_loadings):
    with pytest.raises(SizeError):
        truncate(weather_loadings, 0)
    with pytest.raises(SizeError):
        truncate(weather_loadings, 8)


# ---------------------------------------------------------------------------
# communalities


def test_full_communalities_are_one(weather_loadings):
    assert np.max(np.abs(communalities(weather_loadings) - 1.0)) < 1e-10


def test_three_factor_communalities(weather_loadings):
    got = communalities(truncate(weather_loadings, 3))
    assert np.max(np.abs(got - REF_COMMUNALITIES_3F)) < 3e-3


def test_four_factor_communalities(weather_loadings):
    got = communalities(truncate(weather_loadings, 4))
    assert np.max(np.abs(got - REF_COMMUNALITIES_4F)) < 3e-3
    assert got[6] == pytest.approx(0.986, abs=3e-3)


def test_communalities_grow_with_k(weather_loadings):
    previous = np.zeros(7)
    for k in range(1, 8):
        current = communalities(truncate(weather_loadings, k))
        assert np.all(current >= previous - 1e-15)
        previous = current


# ---------------------------------------------------------------------------
# cumulative communalities, as the retention report keeps them


def test_cumulative_rows_match_reference(weather_loadings):
    got = minvar_count(weather_loadings, 0.51).cumulative
    assert np.max(np.abs(got[0] - REF_CUMULATIVE_COMMUNALITY[0])) < 3e-3
    assert got[1, 0] == pytest.approx(0.9165, abs=3e-3)


def test_cumulative_rows_are_monotone_and_end_at_one(weather_loadings):
    got = minvar_count(weather_loadings, 0.51).cumulative
    assert np.all(np.diff(got, axis=1) >= -1e-15)
    assert np.max(np.abs(got[:, -1] - 1.0)) < 1e-10


def test_cumulative_identity_is_step_functions():
    eig = eigen_symmetric(np.eye(4), correlation_input=True)
    got = minvar_count(full_loadings(eig, ("a", "b", "c", "d")), 0.51).cumulative
    assert set(np.round(got.ravel(), 12)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# build_model


def test_full_model_has_zero_unique_weights(weather_loadings):
    model = build_model(weather_loadings)
    assert np.max(model.unique_weights) < 1e-5
    total = communalities(model.loadings) + model.unique_weights**2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_three_factor_unique_weight(weather_loadings):
    model = build_model(truncate(weather_loadings, 3))
    assert model.unique_weights[0] == pytest.approx(math.sqrt(1 - 0.5424), abs=3e-3)


def test_two_variable_single_factor_weights():
    eig = eigen_symmetric(TWO_VAR, correlation_input=True)
    model = build_model(truncate(full_loadings(eig, ("a", "b")), 1))
    assert_allclose(model.unique_weights, [math.sqrt(0.2), math.sqrt(0.2)], atol=1e-12)


def test_build_model_rejects_oversized_communalities():
    bad = LoadingMatrix(np.array([[0.9, 0.9], [0.5, 0.5]]), ("a", "b"))
    with pytest.raises(InconsistentModelError):
        build_model(bad)


def test_loading_matrix_rejects_out_of_range_entries():
    with pytest.raises(DataError):
        LoadingMatrix(np.array([[1.2], [0.1]]), ("a", "b"))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic(weather_loadings):
    model = build_model(truncate(weather_loadings, 3))
    first = simulate(model, 50, seed=123)
    second = simulate(model, 50, seed=123)
    assert_allclose(first.values, second.values)
    assert first.labels == model.variable_labels


def test_simulate_rejects_tiny_draw_counts(weather_loadings):
    model = build_model(truncate(weather_loadings, 3))
    with pytest.raises(SizeError):
        simulate(model, 1, seed=0)


def test_simulate_rejects_a_negative_seed_before_drawing():
    model = build_model(Analysis(dataset1_corr_path(), "corr").truncated)
    with pytest.raises(DataError, match=r"^seed must be a non-negative integer, got -1$"):
        simulate(model, 5, -1)


def test_simulate_identity_model_returns_factor_draws():
    eig = eigen_symmetric(np.eye(3), correlation_input=True)
    model = build_model(full_loadings(eig, ("a", "b", "c")))
    drawn = simulate(model, 100, seed=7)
    # with unit loadings and zero unique weights the output is the common
    # factor block itself, drawn first as a (draws, k) array
    rng = np.random.default_rng(7)
    expected = rng.standard_normal((100, 3)) @ model.loadings.entries.T
    assert_allclose(drawn.values, expected)


def test_simulate_two_variable_correlation():
    eig = eigen_symmetric(TWO_VAR, correlation_input=True)
    model = build_model(full_loadings(eig, ("a", "b")))
    drawn = simulate(model, 100_000, seed=11)
    r = correlation_matrix(drawn).entries[0, 1]
    assert r == pytest.approx(0.6, abs=0.02)


def test_simulate_three_factor_model_implied_correlation(weather_loadings):
    model = build_model(truncate(weather_loadings, 3))
    implied = (model.loadings.entries @ model.loadings.entries.T)[1, 2]
    drawn = simulate(model, 100_000, seed=29)
    r = correlation_matrix(drawn).entries[1, 2]
    assert r == pytest.approx(implied, abs=0.03)


def test_simulate_sample_correlation_converges_to_model(weather_loadings):
    model = build_model(truncate(weather_loadings, 3))
    implied = model.loadings.entries @ model.loadings.entries.T + np.diag(
        model.unique_weights**2
    )
    drawn = simulate(model, 100_000, seed=31)
    sample = correlation_matrix(drawn).entries
    assert np.max(np.abs(sample - implied)) < 0.02
