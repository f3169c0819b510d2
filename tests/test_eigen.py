import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import jacobi_oracle
from facpca import ConvergenceError, NotPositiveSemidefiniteError, ShapeError, eigen_symmetric
from jacobi_oracle import PlaneIndexError, compose_rotation, plane_rotation

from reference_values import REF_EIGENVALUES, WEATHER_CORR


# ---------------------------------------------------------------------------
# closed-form oracles


def analytic_eigenvalues_2x2(m):
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    center = (a + d) / 2.0
    radius = math.sqrt(((a - d) / 2.0) ** 2 + b * b)
    return np.array([center + radius, center - radius])


def analytic_eigenvalues_3x3(m):
    # trigonometric solution of the characteristic polynomial
    p1 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(m))[::-1]
    q = np.trace(m) / 3.0
    p2 = sum((m[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (m - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = min(1.0, max(-1.0, det_b / 2.0))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([lam1, 3.0 * q - lam1 - lam3, lam3])


def random_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


# ---------------------------------------------------------------------------
# plane_rotation


def test_plane_rotation_zero_angle_is_identity():
    assert_allclose(plane_rotation(2, 0, 1, 0.0), np.eye(2))


def test_plane_rotation_quarter_turn():
    assert_allclose(
        plane_rotation(2, 0, 1, math.pi / 2), np.array([[0, 1], [-1, 0]]), atol=1e-15
    )


def test_plane_rotation_embeds_in_selected_plane():
    r = plane_rotation(3, 0, 2, math.pi / 4)
    c = math.sqrt(2) / 2
    expected = np.array([[c, 0, c], [0, 1, 0], [-c, 0, c]])
    assert_allclose(r, expected, atol=1e-15)


def test_plane_rotation_is_orthogonal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        r = plane_rotation(n, i, j, float(rng.uniform(-np.pi, np.pi)))
        assert np.max(np.abs(r.T @ r - np.eye(n))) < 1e-14


def test_plane_rotation_rejects_bad_planes():
    with pytest.raises(PlaneIndexError):
        plane_rotation(3, 1, 1, 0.1)
    with pytest.raises(PlaneIndexError):
        plane_rotation(3, 2, 1, 0.1)
    with pytest.raises(PlaneIndexError):
        plane_rotation(3, 0, 3, 0.1)


# ---------------------------------------------------------------------------
# compose_rotation


def test_compose_identity_seed_equals_plane_rotation():
    assert_allclose(
        compose_rotation(np.eye(4), 1, 3, 0.7), plane_rotation(4, 1, 3, 0.7)
    )


def test_compose_matches_full_matrix_product():
    rng = np.random.default_rng(1)
    acc = plane_rotation(5, 0, 4, 0.3)
    for _ in range(15):
        i = int(rng.integers(0, 4))
        j = int(rng.integers(i + 1, 5))
        angle = float(rng.uniform(-np.pi, np.pi))
        expected = acc @ plane_rotation(5, i, j, angle)
        acc = compose_rotation(acc, i, j, angle)
        assert np.max(np.abs(acc - expected)) < 1e-12
    assert np.max(np.abs(acc.T @ acc - np.eye(5))) < 1e-10


def test_compose_with_inverse_angle_restores_input():
    rng = np.random.default_rng(2)
    original = plane_rotation(4, 0, 2, 1.1)
    theta = float(rng.uniform(-np.pi, np.pi))
    back = compose_rotation(compose_rotation(original, 1, 2, theta), 1, 2, -theta)
    assert np.max(np.abs(back - original)) < 1e-12


def test_compose_does_not_mutate_input():
    acc = np.eye(3)
    compose_rotation(acc, 0, 1, 0.4)
    assert_allclose(acc, np.eye(3))


def test_compose_rejects_bad_planes():
    with pytest.raises(PlaneIndexError):
        compose_rotation(np.eye(3), 2, 2, 0.1)
    with pytest.raises(ShapeError):
        compose_rotation(np.ones((2, 3)), 0, 1, 0.1)


# ---------------------------------------------------------------------------
# eigen_symmetric


def test_identity_input():
    eig = eigen_symmetric(np.eye(7))
    assert_allclose(eig.eigenvalues, np.ones(7))
    assert_allclose(np.abs(eig.eigenvectors), np.eye(7), atol=1e-15)


def test_two_by_two_analytic():
    eig = eigen_symmetric(np.array([[1.0, 0.6], [0.6, 1.0]]))
    assert_allclose(eig.eigenvalues, [1.6, 0.4], atol=1e-14)
    inv_sqrt2 = 1.0 / math.sqrt(2)
    assert_allclose(np.abs(eig.eigenvectors[:, 0]), [inv_sqrt2, inv_sqrt2], atol=1e-14)
    assert_allclose(np.abs(eig.eigenvectors[:, 1]), [inv_sqrt2, inv_sqrt2], atol=1e-14)
    assert eig.eigenvectors[0, 1] * eig.eigenvectors[1, 1] < 0


def test_weather_matrix_reproduces_published_eigenvalues():
    eig = eigen_symmetric(WEATHER_CORR, correlation_input=True)
    assert np.max(np.abs(eig.eigenvalues - REF_EIGENVALUES)) < 5e-3


def test_rejects_asymmetric_input():
    with pytest.raises(ShapeError):
        eigen_symmetric(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ShapeError):
        eigen_symmetric(np.zeros((2, 3)))


def test_correlation_flag_rejects_indefinite_matrix():
    with pytest.raises(NotPositiveSemidefiniteError):
        eigen_symmetric(np.array([[1.0, 1.2], [1.2, 1.0]]), correlation_input=True)


def test_correlation_flag_clamps_rounding_negatives():
    rank_one = np.array([[1.0, 1.0], [1.0, 1.0]])
    eig = eigen_symmetric(rank_one, correlation_input=True)
    assert eig.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert eig.eigenvalues[1] == 0.0


def test_random_2x2_and_3x3_match_closed_forms():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m2 = random_symmetric(rng, 2)
        got = eigen_symmetric(m2).eigenvalues
        assert np.max(np.abs(got - analytic_eigenvalues_2x2(m2))) < 1e-10
        m3 = random_symmetric(rng, 3)
        got = eigen_symmetric(m3).eigenvalues
        assert np.max(np.abs(got - analytic_eigenvalues_3x3(m3))) < 1e-10


def test_eigenvector_residuals_are_small():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5, 8):
        a = random_symmetric(rng, n)
        eig = eigen_symmetric(a)
        residual = a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
        assert np.max(np.abs(residual)) < 1e-8


def test_orthogonality_reconstruction_and_trace():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        a = random_symmetric(rng, n)
        eig = eigen_symmetric(a)
        u = eig.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-10
        rebuilt = u @ np.diag(eig.eigenvalues) @ u.T
        assert np.max(np.abs(rebuilt - a)) < 1e-8
        assert float(np.sum(eig.eigenvalues)) == pytest.approx(np.trace(a), abs=1e-8)


def test_eigenvalue_product_matches_determinant():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4, 5, 6):
        a = random_symmetric(rng, n) + n * np.eye(n)  # keep it well conditioned
        eig = eigen_symmetric(a)
        det = float(np.linalg.det(a))
        assert np.prod(eig.eigenvalues) == pytest.approx(det, rel=1e-6)


def test_eigenvalues_sorted_and_signs_normalized():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_symmetric(rng, 6)
        eig = eigen_symmetric(a)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        for j in range(6):
            column = eig.eigenvectors[:, j]
            assert column[np.argmax(np.abs(column))] >= 0


def test_offdiagonal_norm_decreases_across_sweeps():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = random_symmetric(rng, 8)
        _, _, history = jacobi_oracle._jacobi(a.copy())
        assert len(history) >= 2
        assert all(later < earlier for earlier, later in zip(history, history[1:]))


def test_stable_order_for_equal_eigenvalues():
    # block diagonal with two equal eigenvalues: ties keep their sweep order
    a = np.diag([2.0, 2.0, 1.0])
    eig = eigen_symmetric(a)
    assert_allclose(eig.eigenvalues, [2.0, 2.0, 1.0])
    assert_allclose(np.abs(eig.eigenvectors), np.eye(3), atol=1e-15)


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigen_symmetric(np.eye(3))


# ---------------------------------------------------------------------------
# differential test: the LAPACK engine against the Jacobi oracle


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _matrix(kind, rng, n):
    if kind == "symmetric":
        return random_symmetric(rng, n), False
    if kind == "rank_deficient":
        g = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        a = g @ g.T
        scale = np.sqrt(np.diag(a))
        a = a / np.outer(scale, scale)
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 1.0)
        return a, True
    # a few distinct eigenvalues, each repeated, in a random basis
    distinct = rng.choice(np.arange(-3.0, 4.0), size=min(n, 3), replace=False)
    q = _random_orthogonal(rng, n)
    a = (q * rng.choice(distinct, size=n)) @ q.T
    return (a + a.T) / 2.0, False


def _clusters(values, gap):
    """Index ranges of a sorted spectrum split where neighbours differ by more than ``gap``."""
    cuts = np.flatnonzero(np.abs(np.diff(values)) > gap) + 1
    return np.split(np.arange(values.size), cuts)


def _lead_is_clear(column):
    magnitudes = np.sort(np.abs(column))
    return magnitudes.size == 1 or magnitudes[-1] - magnitudes[-2] > 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["symmetric", "rank_deficient", "repeated"]),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_lapack_engine_matches_jacobi_oracle(kind, n, seed):
    a, correlation_input = _matrix(kind, np.random.default_rng(seed), n)
    got = eigen_symmetric(a, correlation_input=correlation_input)
    want = jacobi_oracle.eigen_symmetric(a, correlation_input=correlation_input)
    values = want.eigenvalues
    scale = max(1.0, float(np.max(np.abs(values))))
    assert np.max(np.abs(got.eigenvalues - values)) <= 1e-12 * scale
    for cluster in _clusters(values, 1e-6):
        u = got.eigenvectors[:, cluster]
        v = want.eigenvectors[:, cluster]
        if cluster.size == 1:
            # signs agree unless two entries tie for the largest magnitude
            if _lead_is_clear(v[:, 0]):
                assert np.max(np.abs(u - v)) <= 1e-9
            else:
                assert min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) <= 1e-9
        else:
            assert np.max(np.abs(u @ u.T - v @ v.T)) <= 1e-9


def test_exactly_equal_eigenvalues_are_ordered_by_leading_row():
    rng = np.random.default_rng(9)
    for n in (2, 4, 7, 12):
        q = _random_orthogonal(rng, n)
        a = (q * rng.choice([1.0, 2.0, 5.0], size=n)) @ q.T
        diagonal = np.diag(rng.choice([0.0, 1.0, 3.0], size=n))
        blocks = np.kron(np.eye(n // 2), np.ones((2, 2)))
        for m in ((a + a.T) / 2.0, diagonal, blocks):
            eig = eigen_symmetric(m)
            lead = np.argmax(np.abs(eig.eigenvectors), axis=0)
            for cluster in _clusters(eig.eigenvalues, 0.0):
                assert np.all(np.diff(lead[cluster]) >= 0)
