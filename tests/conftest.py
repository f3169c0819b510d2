import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from reference_values import WEATHER_CORR, WEATHER_LABELS

from facpca import CorrelationMatrix, eigen_symmetric, full_loadings
from facpca.varimax import _plane_angle


@pytest.fixture(scope="session")
def weather_corr() -> CorrelationMatrix:
    return CorrelationMatrix(WEATHER_CORR, WEATHER_LABELS)


@pytest.fixture(scope="session")
def weather_eig(weather_corr):
    return eigen_symmetric(weather_corr.entries, correlation_input=True)


@pytest.fixture(scope="session")
def weather_loadings(weather_eig):
    return full_loadings(weather_eig, tuple(f"x{i}" for i in range(1, 8)))


def sign_matched_diff(got: np.ndarray, want: np.ndarray) -> float:
    """Max abs difference after flipping each column of `got` to best match `want`."""
    assert got.shape == want.shape
    worst = 0.0
    for j in range(got.shape[1]):
        direct = float(np.max(np.abs(got[:, j] - want[:, j])))
        flipped = float(np.max(np.abs(got[:, j] + want[:, j])))
        worst = max(worst, min(direct, flipped))
    return worst


def permuted_sign_matched_diff(got: np.ndarray, want: np.ndarray) -> float:
    """Best sign-matched diff over all column permutations of `got`."""
    assert got.shape == want.shape
    return min(
        sign_matched_diff(got[:, perm], want)
        for perm in itertools.permutations(range(got.shape[1]))
    )


def random_correlation_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random positive semidefinite matrix with a unit diagonal."""
    g = rng.standard_normal((n, n + 2))
    a = g @ g.T
    scale = np.sqrt(np.diag(a))
    return a / np.outer(scale, scale)


def dense_factor_correlation(seed: int, n: int, factors: int) -> np.ndarray:
    """Correlation matrix of a dense factor model with communalities in (0.60, 0.84).

    Varimax finds no simple structure in its loadings, so it needs many sweeps.
    """
    rng = np.random.default_rng(seed)
    model = rng.standard_normal((n, factors)) * np.linspace(1.0, 0.4, factors)
    model *= np.sqrt(rng.uniform(0.60, 0.84, size=n) / np.sum(model**2, axis=1))[:, None]
    corr = model @ model.T
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def plane_angle(x: np.ndarray, y: np.ndarray) -> float | None:
    """``varimax._plane_angle`` of the plane of points (x, y), from its five angle sums."""
    u = x**2 - y**2
    v = 2.0 * x * y
    terms = np.stack((u, v, u * v, u * u - v * v, u * u + v * v))
    return _plane_angle(terms.sum(axis=1).tolist(), x.size)
