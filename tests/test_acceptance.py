"""Acceptance suite: golden reproduction of the bundled weather-matrix run
plus the cross-implementation property checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from facpca import (
    Analysis,
    build_model,
    communalities,
    eigen_symmetric,
    full_loadings,
    minvar_count,
    simulate,
    standardize,
    truncate,
    varimax,
    variance_table,
    half_count,
    kaiser_count,
    percentage_count,
)
from facpca.cli import main as cli_main
from facpca.datasets import dataset1_corr_path
from facpca.reporting import read_correlation_csv

from conftest import (
    permuted_sign_matched_diff,
    plane_angle,
    random_correlation_psd,
    sign_matched_diff,
)
from reference_values import (
    REF_AVERVAR_PCT,
    REF_COMMUNALITIES_3F,
    REF_COMMUNALITIES_4F,
    REF_CUMULATIVE_PCT,
    REF_BASIS_PRODUCT,
    REF_EIGENVALUES,
    REF_LOADINGS_3F_ROTATED,
    REF_LOADINGS_4F_ROTATED,
    REF_LOADINGS_FULL,
    REF_MINVAR_PCT,
    REF_NRMINVAR,
    WEATHER_LABELS,
)

from test_eigen import analytic_eigenvalues_2x2, analytic_eigenvalues_3x3, random_symmetric


@pytest.fixture(scope="module")
def fixture_corr():
    return read_correlation_csv(dataset1_corr_path())


@pytest.fixture(scope="module")
def fixture_eig(fixture_corr):
    return eigen_symmetric(fixture_corr.entries, correlation_input=True)


@pytest.fixture(scope="module")
def fixture_loadings(fixture_eig):
    return full_loadings(fixture_eig, WEATHER_LABELS)


def _report(line):
    print(f"\n{line}")


def test_criterion_01_eigenvalue_reproduction(fixture_eig):
    worst = float(np.max(np.abs(fixture_eig.eigenvalues - REF_EIGENVALUES)))
    assert worst < 5e-3
    _report(f"criterion 01 PASS: eigenvalues within {worst:.2e} (limit 5e-03)")


def test_criterion_02_loading_reproduction(fixture_loadings):
    worst = sign_matched_diff(fixture_loadings.entries, REF_LOADINGS_FULL)
    assert worst < 1e-2
    _report(f"criterion 02 PASS: full loadings within {worst:.2e} (limit 1e-02)")


def test_criterion_03_communality_reproduction(fixture_loadings):
    three = communalities(truncate(fixture_loadings, 3))
    four = communalities(truncate(fixture_loadings, 4))
    worst3 = float(np.max(np.abs(three - REF_COMMUNALITIES_3F))) * 100
    worst4 = float(np.max(np.abs(four - REF_COMMUNALITIES_4F))) * 100
    assert worst3 < 0.3
    assert worst4 < 0.3
    _report(
        "criterion 03 PASS: communalities within "
        f"{worst3:.3f}pp (3f) / {worst4:.3f}pp (4f) (limit 0.3pp)"
    )


def test_criterion_04_retention_reproduction(fixture_loadings):
    report = minvar_count(fixture_loadings, 0.51)
    min_diff = float(np.max(np.abs(100 * report.min_var - REF_MINVAR_PCT)))
    aver_diff = float(np.max(np.abs(100 * report.aver_var - REF_AVERVAR_PCT)))
    assert min_diff < 0.3
    assert aver_diff < 0.3
    assert report.nr_min_var.tolist() == list(REF_NRMINVAR)
    assert report.chosen == 3
    _report(
        "criterion 04 PASS: MinVar/AverVar within "
        f"{min_diff:.3f}/{aver_diff:.3f}pp, worst-variable row exact, count 3"
    )


def test_criterion_05_criteria_comparison(fixture_eig):
    kaiser = kaiser_count(fixture_eig.eigenvalues)
    half = half_count(fixture_eig.size)
    pct = percentage_count(variance_table(fixture_eig.eigenvalues), 80.0)
    assert (kaiser, half, pct) == (3, 3, 4)
    _report("criterion 05 PASS: kaiser=3 half=3 percentage(80%)=4")


def test_criterion_06_varimax_reproduction(fixture_loadings):
    worsts = []
    for k, reference in ((3, REF_LOADINGS_3F_ROTATED), (4, REF_LOADINGS_4F_ROTATED)):
        before = truncate(fixture_loadings, k)
        result = varimax(before)
        worsts.append(permuted_sign_matched_diff(result.rotated.entries, reference))
        assert worsts[-1] < 2e-2
        drift = float(
            np.max(np.abs(communalities(result.rotated) - communalities(before)))
        )
        assert drift < 1e-10
    _report(
        "criterion 06 PASS: rotated loadings within "
        f"{worsts[0]:.2e} (3f) / {worsts[1]:.2e} (4f) (limit 2e-02), "
        "communalities preserved"
    )


def test_criterion_07_basis_product_reproduction(fixture_eig, fixture_loadings):
    # L @ U.T = U D^(1/2) U.T, so it is symmetric for every decomposition
    product = fixture_loadings.entries @ fixture_eig.eigenvectors.T
    worst = float(np.max(np.abs(product - REF_BASIS_PRODUCT)))
    assert worst < 5e-3
    assert float(np.max(np.abs(product - product.T))) < 1e-10
    rng = np.random.default_rng(2024)
    worst_asym = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        r = random_correlation_psd(rng, n)
        eig = eigen_symmetric(r, correlation_input=True)
        product_r = full_loadings(eig, tuple("abcdefghi"[:n])).entries @ eig.eigenvectors.T
        worst_asym = max(worst_asym, float(np.max(np.abs(product_r - product_r.T))))
    assert worst_asym < 1e-10
    _report(
        f"criterion 07 PASS: basis product within {worst:.2e} (limit 5e-03); "
        f"symmetry {worst_asym:.2e} over 100 PSD draws (limit 1e-10)"
    )


def test_criterion_08_explained_variance_table(fixture_eig):
    cumulative = variance_table(fixture_eig.eigenvalues).cumulative_pct
    worst = float(np.max(np.abs(cumulative - REF_CUMULATIVE_PCT)))
    assert worst < 0.1
    _report(f"criterion 08 PASS: cumulative percentages within {worst:.3f}pp (limit 0.1pp)")


def test_criterion_09_property_suite(fixture_loadings):
    rng = np.random.default_rng(90)

    # closed-form eigenvalue oracles
    for _ in range(50):
        m2 = random_symmetric(rng, 2)
        assert np.max(
            np.abs(eigen_symmetric(m2).eigenvalues - analytic_eigenvalues_2x2(m2))
        ) < 1e-10
        m3 = random_symmetric(rng, 3)
        assert np.max(
            np.abs(eigen_symmetric(m3).eigenvalues - analytic_eigenvalues_3x3(m3))
        ) < 1e-10

    # orthogonality and spectral reconstruction
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_symmetric(rng, n)
        eig = eigen_symmetric(a)
        u = eig.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-10
        assert np.max(np.abs(u @ np.diag(eig.eigenvalues) @ u.T - a)) < 1e-8

    # component scores on seeded synthetic data
    model = build_model(fixture_loadings)
    data = standardize(simulate(model, 5000, seed=91))
    analysis = Analysis(data, factors=data.n_variables)
    eig, scores = analysis.eig, analysis.scores
    centered = scores - scores.mean(axis=0)
    variances = np.mean(centered**2, axis=0)
    assert np.max(np.abs(variances - eig.eigenvalues)) < 1e-8
    corr = (centered.T @ centered / scores.shape[0]) / np.sqrt(
        np.outer(variances, variances)
    )
    assert np.max(np.abs(corr - np.eye(eig.size))) < 1e-8

    # squared correlations equal squared loadings
    n = data.n_variables
    determination = np.corrcoef(data.values, scores, rowvar=False)[:n, n:] ** 2
    sample_loadings = full_loadings(eig, WEATHER_LABELS)
    assert np.max(np.abs(determination - sample_loadings.entries**2)) < 1e-6

    # analytic rotation angle against a grid search
    grid = np.arange(-math.pi / 4 + 1e-5, math.pi / 4 + 1e-5, 1e-5)
    cos_g, sin_g = np.cos(grid)[:, None], np.sin(grid)[:, None]
    for _ in range(50):
        x = rng.uniform(-1, 1, 6)
        y = rng.uniform(-1, 1, 6)
        analytic = plane_angle(x, y)
        rx = x * cos_g + y * sin_g
        ry = -x * sin_g + y * cos_g
        sx, sy = rx * rx, ry * ry  # squaring twice is much faster than **4
        objective = (
            6 * np.sum(sx * sx, axis=1)
            - np.sum(sx, axis=1) ** 2
            + 6 * np.sum(sy * sy, axis=1)
            - np.sum(sy, axis=1) ** 2
        )
        best = float(grid[int(np.argmax(objective))])
        gap = abs(analytic - best) % (math.pi / 2)
        assert min(gap, math.pi / 2 - gap) < 1e-4

    # varimax objective never decreases across sweeps
    for _ in range(20):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 5))
        rows = rng.standard_normal((n, k))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows *= rng.uniform(0.3, 1.0, size=(n, 1))
        from facpca import LoadingMatrix

        trace = np.array(
            varimax(LoadingMatrix(rows, tuple(f"v{i}" for i in range(n)))).objective_trace
        )
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))

    # retention count is monotone in the threshold
    counts = [minvar_count(fixture_loadings, float(e)).chosen for e in np.linspace(0.5001, 1.0, 25)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))

    _report("criterion 09 PASS: property suite (oracles, invariants, monotonicity)")


def test_criterion_10_end_to_end_report(tmp_path):
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        start = time.monotonic()
        code = cli_main(
            ["report", "--corr", str(dataset1_corr_path()), "--epsilon", "0.51",
             "--out", str(out)]
        )
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 5.0
        runs.append((out, elapsed))
    first, second = runs[0][0], runs[1][0]
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    _report(
        f"criterion 10 PASS: report ran in {runs[0][1]:.2f}s (limit 5s), "
        f"{len(names)} outputs byte-identical across runs"
    )
