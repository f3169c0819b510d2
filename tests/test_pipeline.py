import numpy as np
import pytest
from numpy.testing import assert_allclose

from facpca import (
    Analysis,
    DataMatrix,
    DegenerateColumnError,
    build_model,
    eigen_symmetric,
    full_loadings,
    simulate,
    standardize,
)

from conftest import random_correlation_psd
from reference_values import REF_BASIS_PRODUCT, WEATHER_LABELS


@pytest.fixture(scope="module")
def weather_synthetic(weather_eig):
    """Synthetic observations whose sample correlations track the weather matrix."""
    model = build_model(full_loadings(weather_eig, WEATHER_LABELS))
    return simulate(model, 20_000, seed=101)


@pytest.fixture(scope="module")
def weather_run(weather_synthetic):
    return Analysis(weather_synthetic, epsilon=0.51)


@pytest.fixture(scope="module")
def weather_full(weather_synthetic):
    """The analysis of the synthetic weather data, keeping every component."""
    return Analysis(weather_synthetic, factors=weather_synthetic.n_variables)


def _biased_variances(matrix):
    centered = matrix - matrix.mean(axis=0)
    return np.mean(centered**2, axis=0)


# ---------------------------------------------------------------------------
# Analysis.scores


def test_two_variable_score_variances():
    eig = eigen_symmetric(np.array([[1.0, 0.6], [0.6, 1.0]]), correlation_input=True)
    model = build_model(full_loadings(eig, ("a", "b")))
    scores = Analysis(simulate(model, 10_000, seed=41), factors=2).scores
    variances = _biased_variances(scores)
    assert variances[0] == pytest.approx(1.6, abs=0.05)
    assert variances[1] == pytest.approx(0.4, abs=0.05)


def test_score_variances_equal_eigenvalues(weather_full):
    eig = weather_full.eig
    assert np.max(np.abs(_biased_variances(weather_full.scores) - eig.eigenvalues)) < 1e-8


def test_weather_synthetic_retains_three_components(weather_synthetic, weather_run):
    from facpca import correlation_matrix

    sample = correlation_matrix(weather_synthetic)
    from reference_values import WEATHER_CORR

    assert np.max(np.abs(sample.entries - WEATHER_CORR)) < 0.02
    assert weather_run.retention.chosen == 3
    assert weather_run.scores.shape == (20_000, 3)
    assert weather_run.truncated.k == 3


def test_perfectly_correlated_pair_collapses_to_one_component():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(500)
    data = DataMatrix(np.column_stack([x, 2.0 * x]), ("x", "y"))
    result = Analysis(data, epsilon=0.51)
    assert result.retention.chosen == 1
    assert result.eig.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
    assert _biased_variances(result.scores)[0] == pytest.approx(2.0, abs=1e-8)


def test_independent_columns_need_every_component():
    # the exact-identity limit (tested in test_retention) always keeps every
    # component; a sampled near-identity matrix does so only when its small
    # eigenvectors concentrate on single variables, which this seed gives
    rng = np.random.default_rng(3)
    data = DataMatrix(rng.standard_normal((10_000, 4)), ("a", "b", "c", "d"))
    result = Analysis(data, epsilon=0.51)
    assert result.retention.chosen == 4


def test_constant_column_fails_by_name():
    data = DataMatrix(
        np.column_stack([np.arange(10.0), np.full(10, 3.0)]), ("ok", "flat")
    )
    with pytest.raises(DegenerateColumnError) as excinfo:
        Analysis(data, epsilon=0.51).scores
    assert str(excinfo.value) == "column 'flat' is constant"


def test_result_invariants(weather_run):
    scores = weather_run.scores
    m = scores.shape[0]
    assert np.max(np.abs(scores.mean(axis=0))) < 1e-10
    variances = _biased_variances(scores)
    assert np.max(np.abs(variances - weather_run.eig.eigenvalues[:3])) < 1e-8
    centered = scores - scores.mean(axis=0)
    cov = centered.T @ centered / m
    denom = np.sqrt(np.outer(variances, variances))
    corr = cov / denom - np.eye(3)
    assert np.max(np.abs(corr)) < 1e-8


def test_score_variances_sum_to_variable_count(weather_full):
    scores = weather_full.scores
    assert float(np.sum(_biased_variances(scores))) == pytest.approx(7.0, abs=1e-8)


def test_full_projection_is_invertible(weather_full):
    recovered = weather_full.scores @ weather_full.eig.eigenvectors.T
    assert np.max(np.abs(recovered - standardize(weather_full.data).values)) < 1e-10


# ---------------------------------------------------------------------------
# the vector interpretation: squared correlations between variables and
# scores are the squared loadings, and L @ U.T is symmetric


def test_determination_equals_squared_loadings(weather_full):
    data, eig, scores = weather_full.data, weather_full.eig, weather_full.scores
    n = data.n_variables
    determination = np.corrcoef(data.values, scores, rowvar=False)[:n, n:] ** 2
    loadings = full_loadings(eig, WEATHER_LABELS)
    assert np.max(np.abs(determination - loadings.entries**2)) < 1e-6
    assert np.max(np.abs(determination.sum(axis=1) - 1.0)) < 1e-6
    assert np.max(np.abs(determination.sum(axis=0) - eig.eigenvalues)) < 1e-6


def test_weather_basis_product_matches_reference(weather_eig):
    loadings = full_loadings(weather_eig, WEATHER_LABELS)
    product = loadings.entries @ weather_eig.eigenvectors.T
    assert np.max(np.abs(product - product.T)) < 1e-10
    assert np.max(np.abs(product - REF_BASIS_PRODUCT)) < 5e-3
    assert product[0, 0] == pytest.approx(0.987, abs=5e-3)
    assert product[1, 2] == pytest.approx(0.508, abs=5e-3)


def test_identity_input_gives_identity_product():
    eig = eigen_symmetric(np.eye(4), correlation_input=True)
    product = full_loadings(eig, ("a", "b", "c", "d")).entries @ eig.eigenvectors.T
    assert_allclose(product, np.eye(4), atol=1e-12)


def test_product_symmetry_for_100_random_psd_matrices():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        r = random_correlation_psd(rng, n)
        eig = eigen_symmetric(r, correlation_input=True)
        product = full_loadings(eig, tuple("abcdefghi"[:n])).entries @ eig.eigenvectors.T
        assert np.max(np.abs(product - product.T)) < 1e-10
