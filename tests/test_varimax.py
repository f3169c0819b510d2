import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import varimax_oracle

from facpca import (
    Analysis,
    DataError,
    LoadingMatrix,
    SizeError,
    eigen_symmetric,
    full_loadings,
    truncate,
    varimax,
    varimax_objective,
)
from facpca.varimax import WARM_SWEEPS

from conftest import dense_factor_correlation, permuted_sign_matched_diff, plane_angle
from reference_values import (
    REF_LOADINGS_3F_ROTATED,
    REF_LOADINGS_4F_ROTATED,
)

varimax_module = importlib.import_module("facpca.varimax")  # `facpca.varimax` is the function


def random_loadings(rng, n, k):
    """Random loading matrix with row norms at most 1."""
    rows = rng.standard_normal((n, k))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= rng.uniform(0.3, 1.0, size=(n, 1))
    return LoadingMatrix(rows, tuple(f"v{i}" for i in range(n)))


def dense_loadings(seed, n, factors, k):
    """The first k factors of a dense factor model: no simple structure, slow to rotate."""
    eig = eigen_symmetric(dense_factor_correlation(seed, n, factors), correlation_input=True)
    return truncate(full_loadings(eig, tuple(f"v{i}" for i in range(n))), k)


DENSE_MODELS = {"40x8": (1, 40, 10, 8), "100x17": (1, 100, 25, 17)}


# ---------------------------------------------------------------------------
# varimax_objective


def test_objective_of_perfect_simple_structure():
    entries = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loadings = LoadingMatrix(entries, ("a", "b", "c", "d"))
    # per column: 4 * 2 - 2**2 = 4, summed over two columns
    assert varimax_objective(loadings) == pytest.approx(8.0)


def test_objective_of_uniform_loadings_is_zero():
    entries = np.full((5, 3), 0.4)
    assert varimax_objective(entries) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_bruteforce_summation():
    rng = np.random.default_rng(21)
    a = rng.uniform(-1, 1, size=(6, 4)) * 0.5
    n = a.shape[0]
    expected = 0.0
    for j in range(a.shape[1]):
        fourth = sum(float(a[i, j]) ** 4 for i in range(n))
        second = sum(float(a[i, j]) ** 2 for i in range(n))
        expected += n * fourth - second**2
    assert varimax_objective(a) == pytest.approx(expected, abs=1e-12)


def test_objective_requires_two_columns():
    with pytest.raises(SizeError):
        varimax_objective(np.ones((4, 1)))


# ---------------------------------------------------------------------------
# the plane angle


def test_angle_of_simple_structure_is_zero():
    assert plane_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_angle_undefined_for_featureless_plane():
    assert plane_angle(np.zeros(2), np.zeros(2)) is None
    assert plane_angle(np.zeros(5), np.zeros(5)) is None
    result = varimax(LoadingMatrix(np.zeros((5, 2)), tuple("abcde")))
    assert result.converged
    assert np.array_equal(result.rotation, np.eye(2))


def test_plane_of_tiny_loadings_is_rotated():
    # angle terms of about 1e-24: the skip is relative to the plane's own scale
    entries = [[1e-6, 1e-6], [1e-6, 0.0], [0.0, 1e-6]]
    result = varimax(LoadingMatrix(entries, ("a", "b", "c")), normalize=False)
    assert result.converged
    assert result.objective_trace[0] == pytest.approx(4e-24, rel=1e-9, abs=0.0)
    assert result.objective_trace[-1] == pytest.approx(5e-24, rel=1e-9, abs=0.0)


def test_rotation_invariant_plane_is_left_unrotated():
    # rows at multiples of pi/8: the criterion is the same at every angle, so
    # the angle terms are rounding noise and any angle they gave would be arbitrary
    t = np.arange(8) * np.pi / 8
    entries = 0.9 * np.column_stack((np.cos(t), np.sin(t)))
    assert plane_angle(entries[:, 0], entries[:, 1]) is None
    for normalize in (True, False):
        result = varimax(LoadingMatrix(entries, tuple("abcdefgh")), normalize=normalize)
        assert result.converged
        assert np.array_equal(result.rotation, np.eye(2))
        assert np.array_equal(result.rotated.entries, entries)


def _angle_terms(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.size
    u = x**2 - y**2
    v = 2 * x * y
    numerator = 2 * (n * np.sum(u * v) - np.sum(u) * np.sum(v))
    denominator = n * np.sum(u**2 - v**2) - (np.sum(u) ** 2 - np.sum(v) ** 2)
    return float(numerator), float(denominator)


def test_angle_quadrant_follows_term_signs():
    # sign of (numerator, denominator) pins which quadrant 4*phi lands in
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(200):
        x = rng.uniform(-1, 1, 6)
        y = rng.uniform(-1, 1, 6)
        numerator, denominator = _angle_terms(x, y)
        if abs(numerator) < 1e-12 or abs(denominator) < 1e-12:
            continue
        four_phi = 4.0 * plane_angle(x, y)
        if numerator > 0 and denominator > 0:
            assert 0 < four_phi < math.pi / 2
            seen.add("++")
        elif numerator < 0 < denominator:
            assert -math.pi / 2 < four_phi < 0
            seen.add("-+")
        elif numerator > 0 > denominator:
            assert math.pi / 2 < four_phi <= math.pi
            seen.add("+-")
        else:
            assert -math.pi < four_phi < -math.pi / 2
            seen.add("--")
    assert seen == {"++", "-+", "+-", "--"}


def _pair_objective(x, y, angle):
    c, s = math.cos(angle), math.sin(angle)
    rx = x * c + y * s
    ry = -x * s + y * c
    n = x.size
    total = 0.0
    for column in (rx, ry):
        squares = column**2
        total += n * float(np.sum(squares**2)) - float(np.sum(squares)) ** 2
    return total


def _circular_gap(a, b):
    period = math.pi / 2  # the pair objective repeats every quarter turn
    gap = abs(a - b) % period
    return min(gap, period - gap)


def test_angle_matches_grid_search_on_random_planes():
    rng = np.random.default_rng(23)
    grid = np.arange(-math.pi / 4 + 1e-5, math.pi / 4 + 1e-5, 1e-5)
    for _ in range(50):
        x = rng.uniform(-1, 1, 6)
        y = rng.uniform(-1, 1, 6)
        analytic = plane_angle(x, y)
        cos_g = np.cos(grid)[:, None]
        sin_g = np.sin(grid)[:, None]
        rx = x * cos_g + y * sin_g
        ry = -x * sin_g + y * cos_g
        n = x.size
        sx, sy = rx * rx, ry * ry  # squaring twice is much faster than **4
        objective = (
            n * np.sum(sx * sx, axis=1)
            - np.sum(sx, axis=1) ** 2
            + n * np.sum(sy * sy, axis=1)
            - np.sum(sy, axis=1) ** 2
        )
        best = float(grid[int(np.argmax(objective))])
        assert _circular_gap(analytic, best) < 1e-4


# ---------------------------------------------------------------------------
# varimax


def test_perfect_simple_structure_is_a_fixed_point():
    entries = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loadings = LoadingMatrix(entries, ("a", "b", "c", "d"))
    result = varimax(loadings)
    assert_allclose(np.abs(result.rotation), np.eye(2), atol=1e-12)
    assert result.objective_trace[-1] == pytest.approx(
        result.objective_trace[0], abs=1e-12
    )


def test_three_factor_rotation_matches_reference(weather_loadings):
    result = varimax(truncate(weather_loadings, 3))
    assert result.converged
    diff = permuted_sign_matched_diff(result.rotated.entries, REF_LOADINGS_3F_ROTATED)
    assert diff < 2e-2


def test_four_factor_rotation_matches_reference(weather_loadings):
    result = varimax(truncate(weather_loadings, 4))
    assert result.converged
    diff = permuted_sign_matched_diff(result.rotated.entries, REF_LOADINGS_4F_ROTATED)
    assert diff < 2e-2


def test_rotation_matrix_consistency(weather_loadings):
    original = truncate(weather_loadings, 3)
    result = varimax(original)
    assert np.max(np.abs(result.rotation.T @ result.rotation - np.eye(3))) < 1e-10
    rebuilt = original.entries @ result.rotation
    assert np.max(np.abs(result.rotated.entries - rebuilt)) < 1e-10


def test_rotation_preserves_communalities(weather_loadings):
    original = truncate(weather_loadings, 4)
    result = varimax(original)
    before = np.sum(original.entries**2, axis=1)
    after = np.sum(result.rotated.entries**2, axis=1)
    assert np.max(np.abs(after - before)) < 1e-10


def test_rotation_preserves_common_variance_structure(weather_loadings):
    original = truncate(weather_loadings, 4)
    result = varimax(original)
    before = original.entries @ original.entries.T
    after = result.rotated.entries @ result.rotated.entries.T
    assert np.max(np.abs(after - before)) < 1e-9


def test_objective_trace_never_decreases():
    rng = np.random.default_rng(24)
    for _ in range(100):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, min(n, 5)))
        result = varimax(random_loadings(rng, n, k), normalize=bool(rng.integers(2)))
        trace = np.array(result.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


def test_result_is_a_local_optimum():
    rng = np.random.default_rng(25)
    offsets = np.arange(-0.05, 0.05 + 1e-12, 1e-3)
    for _ in range(5):
        loadings = random_loadings(rng, 6, 3)
        result = varimax(loadings, normalize=False)
        assert result.converged
        working = result.rotated.entries
        base = varimax_objective(working)
        tolerance = 1e-9 * max(1.0, abs(base))
        for p in range(2):
            for q in range(p + 1, 3):
                for offset in offsets:
                    gain = (
                        _pair_objective(working[:, p], working[:, q], offset)
                        - _pair_objective(working[:, p], working[:, q], 0.0)
                    )
                    assert gain <= tolerance


def test_zero_rows_pass_through_unchanged():
    entries = np.array([[0.0, 0.0], [0.8, 0.1], [0.2, 0.7], [0.5, -0.5]])
    loadings = LoadingMatrix(entries, ("z", "a", "b", "c"))
    result = varimax(loadings)
    assert_allclose(result.rotated.entries[0], [0.0, 0.0], atol=1e-15)
    assert np.all(np.isfinite(result.rotated.entries))


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("max_sweeps", [0, 9, 50])
def test_rows_longer_than_one_are_refused_before_rotating(monkeypatch, normalize, max_sweeps):
    # row v1 has length 1.15: unchecked, the rotation turns it into an entry
    # above 1 with a budget of 9 or 50 sweeps, and leaves it alone with 0
    entries = [
        [0.0, 0.0, 0.0, 0.0],
        [0.875, 0.0, 0.75, 0.0],
        [0.25, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, -0.0625, 0.0],
        [0.25, 0.5, 0.25, 0.0],
    ]
    loadings = LoadingMatrix(entries, tuple(f"v{i}" for i in range(7)))
    refused = "row 'v1' has length 1.15244"
    with monkeypatch.context() as patch, pytest.raises(DataError, match=refused):
        patch.setattr(varimax_module, "MAX_SWEEPS", max_sweeps)
        varimax(loadings, normalize=normalize)
    with pytest.raises(DataError, match=refused):
        varimax_oracle.varimax(loadings, normalize=normalize, max_sweeps=max_sweeps)
    unit = LoadingMatrix([[1.0, 0.0], [0.6, 0.8], [0.0, 0.5]], ("a", "b", "c"))
    assert np.all(np.abs(varimax(unit, normalize=normalize).rotated.entries) <= 1.0 + 1e-9)


def test_sweep_budget_flags_nonconvergence(monkeypatch, weather_loadings):
    monkeypatch.setattr(varimax_module, "MAX_SWEEPS", 1)
    result = varimax(truncate(weather_loadings, 4))
    assert result.sweeps_used == 1
    assert not result.converged


def test_varimax_requires_two_factors(weather_loadings):
    with pytest.raises(SizeError):
        varimax(truncate(weather_loadings, 1))


# ---------------------------------------------------------------------------
# the warm-up against the pairwise loop it keeps


def _outcome(result):
    return (
        result.rotated.entries.tobytes(),
        result.rotation.tobytes(),
        result.objective_trace,
        result.sweeps_used,
        result.converged,
    )


def _rotation_outcome(rotate, loadings, **options):
    try:
        result = rotate(loadings, **options)
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc), str(exc)
    return _outcome(result)


# A warm-up this long lets the weather fixture and the block matrix settle in
# the pairwise sweeps, and runs the wide inputs' warm-up through 8 sweeps of
# the sweep kernel, so the oracle checks below compare 8 sweeps' bits.
ORACLE_SWEEPS = 8


def _settles_in_warm_up(expected, max_sweeps=50):
    """Whether an oracle outcome ends within ``ORACLE_SWEEPS`` sweeps.

    It does when it raised, converged there or had no more budget.
    """
    if max_sweeps <= ORACLE_SWEEPS or len(expected) == 2:
        return True
    *_, sweeps, converged = expected
    return converged and sweeps <= ORACLE_SWEEPS


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("normalize", [True, False])
def test_sweep_is_bit_identical_to_oracle_on_weather(monkeypatch, weather_loadings, k, normalize):
    loadings = truncate(weather_loadings, k)
    settled = varimax_oracle.varimax(loadings, normalize=normalize)
    expected = _outcome(settled)
    assert _settles_in_warm_up(expected)
    with monkeypatch.context() as patch:
        patch.setattr(varimax_module, "WARM_SWEEPS", ORACLE_SWEEPS)
        assert _rotation_outcome(varimax, loadings, normalize=normalize) == expected
    # the default warm-up hands over to the Newton steps, which end on the
    # oracle's optimum: no lower, and the same cells up to the oracle's path
    result = varimax(loadings, normalize=normalize)
    assert result.objective_trace[-1] >= settled.objective_trace[-1]
    assert np.max(np.abs(result.rotated.entries - settled.rotated.entries)) <= 1e-5


@st.composite
def loading_matrices(draw):
    n = draw(st.integers(2, 9))
    k = draw(st.integers(2, min(n, 5)))
    cells = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * k, max_size=n * k))
    entries = np.array(cells).reshape(n, k)
    zero_rows = draw(st.lists(st.integers(0, n - 1), max_size=n))
    entries[zero_rows] = 0.0
    if draw(st.booleans()):
        # shorten the rows longer than 1, which both rotations refuse
        norms = np.sqrt(np.sum(entries**2, axis=1))
        long_rows = norms > 1.0
        entries[long_rows] /= norms[long_rows, None]
    return LoadingMatrix(entries, tuple(f"v{i}" for i in range(n)))


@settings(max_examples=200, deadline=None)
@given(loading_matrices(), st.booleans(), st.integers(0, 60))
@example(LoadingMatrix([[0.0, 0.0], [0.8, 0.1], [0.2, 0.7]], ("z", "a", "b")), True, 50)
@example(LoadingMatrix([[0.0, 0.0], [0.8, 0.1], [0.0, 0.0]], ("z", "a", "y")), True, 50)
@example(LoadingMatrix(np.zeros((3, 2)), ("x", "y", "z")), False, 50)
@example(
    LoadingMatrix(
        [[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [-0.25, 0.125, 0.25]] + [[0.0, 0.0, 1.0]] * 3,
        tuple("abcdef"),
    ),
    True,
    9,
)
@example(
    LoadingMatrix(
        [[0.0] * 4, [0.875, 0.0, 0.75, 0.0], [-0.25, 0.5, 0.0, 0.5], [0.0] * 4, [0.0] * 4,
         [-0.5, 0.0, -0.0625, -0.25], [0.0, 0.5, -0.25, -0.25]],
        tuple(f"v{i}" for i in range(7)),
    ),
    True,
    9,
)
@example(
    # after the Newton steps, the certificate sweep's tied plane rotations
    # sum to an ulp below its start; the sweep is undone
    LoadingMatrix(
        [[0.0] * 4, [0.0, 1.0, 0.0, 0.0],
         [-0.25, -0.132449660039635, 0.25, 0.0040913913904752075],
         [0.0, 0.0, -0.53125, 0.18603338560581162],
         [-0.25, 0.0, 0.0, 0.2771317359192216],
         [0.21174156969012756, -0.19101165821716468, 0.7640466328686587, 0.5787165082251888]],
        tuple(f"v{i}" for i in range(6)),
    ),
    True,
    9,
)
def test_sweep_is_bit_identical_to_oracle(loadings, normalize, max_sweeps):
    expected = _rotation_outcome(
        varimax_oracle.varimax, loadings, normalize=normalize, max_sweeps=max_sweeps
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(varimax_module, "WARM_SWEEPS", ORACLE_SWEEPS)
        patch.setattr(varimax_module, "MAX_SWEEPS", max_sweeps)
        if np.any(_row_norms(loadings.entries) == 0.0) and expected[0] is not DataError:
            # the oracle leaves a row of length 0 out of the angle; the rotation
            # maximizes the one criterion over all n rows
            result = varimax(loadings, normalize=normalize)
            _assert_zero_rows_stay_zero_and_certified(loadings, normalize, result)
            return
        actual = _rotation_outcome(varimax, loadings, normalize=normalize)
    if _settles_in_warm_up(expected, max_sweeps):
        assert actual == expected
        return
    # past the warm-up: the same first ORACLE_SWEEPS sweeps, then no loss
    trace, expected_trace = actual[2], expected[2]
    assert trace[: ORACLE_SWEEPS + 1] == expected_trace[: ORACLE_SWEEPS + 1]
    assert trace[-1] >= expected_trace[ORACLE_SWEEPS]


@pytest.fixture(scope="module")
def wide_loadings():
    # n = 100, k = 17, as in the benchmark's wide reports
    return dense_loadings(*DENSE_MODELS["100x17"])


def test_sweep_is_bit_identical_to_oracle_on_a_wide_input(wide_loadings):
    result = varimax(wide_loadings)
    assert result.converged
    # one oracle run to convergence: its first sweeps are the run at the oracle's
    # default budget, which ends unconverged exactly when the settled run needs more
    settled = varimax_oracle.varimax(wide_loadings, max_sweeps=2000)
    assert settled.converged
    budget = inspect.signature(varimax_oracle.varimax).parameters["max_sweeps"].default
    assert settled.sweeps_used > budget  # the pairwise loop alone uses the whole budget
    budgeted_trace = settled.objective_trace[: budget + 1]
    warm = WARM_SWEEPS + 1
    assert result.objective_trace[:warm] == budgeted_trace[:warm]
    objective = result.objective_trace[-1]
    assert objective >= budgeted_trace[-1]
    assert objective == pytest.approx(settled.objective_trace[-1], rel=1e-6)


@pytest.mark.parametrize("model, normalize", [
    pytest.param(DENSE_MODELS["100x17"], True, id="100x17-kaiser"),
    pytest.param(DENSE_MODELS["100x17"], False, id="100x17-raw"),
    # n > 128 crosses numpy's pairwise-sum block in every row sum
    pytest.param((1, 300, 8, 6), True, id="300x6-kaiser"),
])
def test_warm_up_is_bit_identical_to_oracle_at_wide_n(monkeypatch, model, normalize):
    # a budget of ORACLE_SWEEPS leaves only the warm-up, which runs to its end
    monkeypatch.setattr(varimax_module, "WARM_SWEEPS", ORACLE_SWEEPS)
    monkeypatch.setattr(varimax_module, "MAX_SWEEPS", ORACLE_SWEEPS)
    loadings = dense_loadings(*model)
    expected = _rotation_outcome(
        varimax_oracle.varimax, loadings, normalize=normalize, max_sweeps=ORACLE_SWEEPS
    )
    assert expected[3:] == (ORACLE_SWEEPS, False)
    assert _rotation_outcome(varimax, loadings, normalize=normalize) == expected


# ---------------------------------------------------------------------------
# the Newton phase and the certificate on dense factor models


@pytest.fixture(scope="module", params=[
    pytest.param((model, normalize), id=f"{model}-{'kaiser' if normalize else 'raw'}")
    for model in DENSE_MODELS
    for normalize in (True, False)
])
def dense_run(request):
    model, normalize = request.param
    loadings = dense_loadings(*DENSE_MODELS[model])
    return loadings, normalize, varimax(loadings, normalize=normalize)


def test_dense_rotation_goes_past_the_warm_up(dense_run):
    _, _, result = dense_run
    assert result.converged
    assert WARM_SWEEPS < result.sweeps_used < 50
    assert len(result.objective_trace) > 1 + result.sweeps_used  # Newton steps were kept


def test_dense_objective_trace_never_decreases(dense_run):
    _, _, result = dense_run
    assert np.all(np.diff(result.objective_trace) >= 0.0)


def test_dense_rotation_preserves_communalities(dense_run):
    loadings, _, result = dense_run
    before = np.sum(loadings.entries**2, axis=1)
    after = np.sum(result.rotated.entries**2, axis=1)
    assert np.max(np.abs(after - before)) < 1e-10


def test_dense_rotation_matrix_rebuilds_the_loadings(dense_run):
    loadings, _, result = dense_run
    k = loadings.k
    assert np.max(np.abs(result.rotation.T @ result.rotation - np.eye(k))) < 1e-12
    assert np.max(np.abs(loadings.entries @ result.rotation - result.rotated.entries)) < 1e-12


def test_dense_result_is_certified_in_every_plane(dense_run):
    _assert_certified(*dense_run)


def _row_norms(entries):
    return np.sqrt(np.sum(np.asarray(entries) ** 2, axis=1))


def _criterion_rows(loadings, normalize, result):
    """The rotated rows on which the criterion is maximized.

    With ``normalize``, the rows are scaled back to unit length (a row of
    length 0 stays as it is), since Kaiser's criterion is maximized there.
    """
    working = result.rotated.entries
    if normalize:
        norms = _row_norms(loadings.entries)[:, None]
        working = working / np.where(norms > 0.0, norms, 1.0)
    return working


def _relative_gradient(working):
    """``|M - M'|_F / |M|_F`` with ``M = Z' @ (4 * (n * Z * S - Z * colsum(S)))``, ``S = Z * Z``.

    ``M`` is symmetric exactly where no rotation of the rows ``Z`` changes
    the criterion to first order.
    """
    z = np.asarray(working, float)
    squares = z * z
    mixed = z.T @ (4.0 * z * (z.shape[0] * squares - squares.sum(axis=0)))
    return np.linalg.norm(mixed - mixed.T) / np.linalg.norm(mixed)


def test_dense_result_is_a_stationary_point(dense_run):
    # the 100x17 Kaiser model is the wide_loadings input; the pairwise
    # certificate alone leaves a relative gradient of a few 1e-6
    loadings, normalize, result = dense_run
    assert _relative_gradient(_criterion_rows(loadings, normalize, result)) <= 1e-8


@pytest.mark.parametrize("normalize", [True, False], ids=["kaiser", "raw"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_weather_rotation_is_a_stationary_point(weather_loadings, k, normalize):
    # the rotated tables of the report lie on the optimum, not where a
    # pairwise sweep's relative gain first drops below TOL, which leaves a
    # relative gradient of 3e-7 to 4e-6 here
    loadings = truncate(weather_loadings, k)
    result = varimax(loadings, normalize=normalize)
    assert _relative_gradient(_criterion_rows(loadings, normalize, result)) <= 1e-8


def _assert_certified(loadings, normalize, result):
    """No plane offset within 0.05 rad of the result gains 1e-9 of its objective.

    The rows are those of ``_criterion_rows``.  A plane whose angle terms
    both lie within ``ANGLE_EPS * n * sum(u**2 + v**2)`` of zero counts as
    featureless and is never rotated, so it is not checked.
    """
    working = _criterion_rows(loadings, normalize, result)
    base = varimax_objective(working)
    assert base == pytest.approx(result.objective_trace[-1], rel=1e-12)
    offsets = np.arange(-0.05, 0.05 + 1e-12, 1e-3)[:, None]
    cos, sin = np.cos(offsets), np.sin(offsets)
    n, k = working.shape
    tolerance = 1e-9 * abs(base)
    for p in range(k - 1):
        x = working[:, p]
        for q in range(p + 1, k):
            y = working[:, q]
            if plane_angle(x, y) is None:
                continue
            gains = -_pair_objective(x, y, 0.0)
            for column in (x * cos + y * sin, -x * sin + y * cos):
                squares = column**2
                gains = gains + n * np.sum(squares**2, axis=1) - np.sum(squares, axis=1) ** 2
            assert np.max(gains) <= tolerance


def test_dense_rotation_is_deterministic(dense_run):
    loadings, normalize, result = dense_run
    assert _outcome(varimax(loadings, normalize=normalize)) == _outcome(result)


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("model", DENSE_MODELS)
def test_dense_zero_rows_pass_through_unchanged(model, normalize):
    loadings = dense_loadings(*DENSE_MODELS[model])
    entries = np.array(loadings.entries)
    zero = [0, 7, entries.shape[0] - 1]
    entries[zero] = 0.0
    result = varimax(LoadingMatrix(entries, loadings.variable_labels), normalize=normalize)
    assert result.converged
    assert np.all(result.rotated.entries[zero] == 0.0)
    assert np.all(np.isfinite(result.rotated.entries))


def _assert_zero_rows_stay_zero_and_certified(loadings, normalize, result):
    zero = np.all(loadings.entries == 0.0, axis=1)
    assert np.all(result.rotated.entries[zero] == 0.0)
    assert np.all(np.diff(result.objective_trace) >= 0.0)
    if result.converged:
        _assert_certified(loadings, normalize, result)


def _block_correlation_csv(path):
    """A 3-factor block of 8 variables bordered by 2 independent ones, as ``%.17g`` cells.

    Its eigenvalues are 2.575, 1.736, 1.005, then 1, 1, ...: three factors
    keep all-zero loading rows for the independent variables v8 and v9.
    """
    rng = np.random.default_rng(2)
    block = rng.uniform(-0.75, 0.75, (8, 3))
    block /= np.maximum(1.0, np.linalg.norm(block, axis=1, keepdims=True) / 0.95)
    corr = np.eye(10)
    corr[:8, :8] = block @ block.T
    np.fill_diagonal(corr, 1.0)
    labels = [f"v{i}" for i in range(10)]
    lines = ["," + ",".join(labels)]
    lines += [f"{label}," + ",".join("%.17g" % v for v in row) for label, row in zip(labels, corr)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_block_matrix_rotation_counts_its_zero_rows(monkeypatch, tmp_path):
    # an ORACLE_SWEEPS warm-up converges here on its own, so no Newton phase
    # hides a criterion that leaves the zero rows out
    monkeypatch.setattr(varimax_module, "WARM_SWEEPS", ORACLE_SWEEPS)
    analysis = Analysis(_block_correlation_csv(tmp_path / "block.csv"), "corr", factors=3)
    assert np.all(analysis.truncated.entries[8:] == 0.0)
    result = analysis.rotation
    assert result.converged
    assert result.sweeps_used <= ORACLE_SWEEPS
    _assert_zero_rows_stay_zero_and_certified(analysis.truncated, True, result)


@pytest.mark.parametrize("normalize", [True, False], ids=["kaiser", "raw"])
def test_small_rotation_with_zero_rows_is_certified(normalize):
    rng = np.random.default_rng(1)
    entries = np.array(random_loadings(rng, 12, 3).entries)
    entries[rng.permutation(12)[:6]] = 0.0
    loadings = LoadingMatrix(entries, tuple(f"v{i}" for i in range(12)))
    result = varimax(loadings, normalize=normalize)
    assert result.converged
    _assert_zero_rows_stay_zero_and_certified(loadings, normalize, result)


def test_all_zero_loadings_come_back_unrotated():
    loadings = LoadingMatrix(np.zeros((3, 2)), ("x", "y", "z"))
    result = varimax(loadings)
    assert result.converged
    assert np.all(result.rotated.entries == 0.0)
    assert np.all(result.rotation == np.eye(2))
    assert result.objective_trace == (0.0, 0.0)
    with pytest.raises(SizeError, match="at least 2 points per plane, got 0"):
        varimax_oracle.varimax(loadings)


def test_without_newton_steps_the_certificate_continues_the_oracle(monkeypatch):
    # a cap of 0 leaves only pairwise sweeps, so the 50-sweep budget runs out
    monkeypatch.setattr(varimax_module, "NEWTON_MAX", 0)
    loadings = dense_loadings(*DENSE_MODELS["40x8"])
    expected = _rotation_outcome(varimax_oracle.varimax, loadings)
    assert _rotation_outcome(varimax, loadings) == expected
    assert not expected[-1]


@pytest.mark.parametrize("cap", [1, 5, 20])
def test_newton_cap_reports_convergence_as_measured(monkeypatch, wide_loadings, cap):
    monkeypatch.setattr(varimax_module, "NEWTON_MAX", cap)
    result = varimax(wide_loadings)
    trace = result.objective_trace
    assert len(trace) <= 1 + result.sweeps_used + cap
    before, after = trace[-2], trace[-1]
    settled = after - before < 1e-9 * abs(before)
    assert result.converged == settled
    assert result.converged or result.sweeps_used == 50
