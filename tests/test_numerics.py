import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from scipy.optimize import linear_sum_assignment

from obsforge.errors import NumericError
from obsforge.numerics import (
    _min_cost_matching,
    eig,
    is_hurwitz,
    lambda_min_sym,
    place_poles_dual,
    solve_lyapunov,
    spectral_abscissa,
    spectral_norm,
    spectrum_distance,
)
from obsforge.observer import PLACEMENT_TOL


def test_eig_diagonal_exact():
    M = np.diag([-3.0, -1.0, 2.0])
    pairs = eig(M)
    assert np.allclose(pairs.values, [-3.0, -1.0, 2.0])
    for lam, v in pairs:
        assert np.linalg.norm(M @ v - lam * v) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eig_conjugates_adjacent_positive_first():
    # rotation-like block: eigenvalues -1 +/- 2j plus a real one
    M = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -5.0]])
    vals = eig(M).values
    assert vals[0] == pytest.approx(-5.0)
    assert vals[1] == pytest.approx(-1.0 + 2.0j)
    assert vals[2] == pytest.approx(-1.0 - 2.0j)


def test_eig_random_residuals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        pairs = eig(M)
        scale = max(1.0, spectral_norm(M))
        for lam, v in pairs:
            assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * scale


def test_eig_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solve_lyapunov_closed_form():
    # A = -I gives A'S + SA = -2S, so S = Y/2
    Y = np.array([[2.0, 0.4], [0.4, 1.0]])
    S = solve_lyapunov(-np.eye(2), Y)
    assert np.allclose(S, Y / 2, atol=1e-12)


def test_solve_lyapunov_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(n)
        M = rng.standard_normal((n, n))
        Y = M @ M.T + n * np.eye(n)
        S = solve_lyapunov(A, Y)
        S_ref = scipy.linalg.solve_continuous_lyapunov(A.T, -Y)
        assert np.allclose(S, S_ref, atol=1e-8 * max(1.0, spectral_norm(S_ref)))


def test_solve_lyapunov_residual_and_definiteness():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(4)
        Y = np.eye(4)
        S = solve_lyapunov(A, Y)
        assert np.allclose(S, S.T)
        assert np.linalg.eigvalsh(S)[0] > 0
        assert spectral_norm(A.T @ S + S @ A + Y) <= 1e-8


def test_solve_lyapunov_unstable_rejected():
    # eigenvalues +1/-1 sum to zero: Kronecker system is singular
    A = np.diag([1.0, -1.0])
    with pytest.raises(NumericError):
        solve_lyapunov(A, np.eye(2))
    # strictly anti-stable A solves fine but S is negative definite
    with pytest.raises(NumericError):
        solve_lyapunov(np.eye(2), np.eye(2))


def test_solve_lyapunov_shape_mismatch():
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(2), np.eye(3))


DOUBLE_INTEGRATOR = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "F, H, targets, tol",
    [
        pytest.param(DOUBLE_INTEGRATOR, [[1.0, 0.0]], [-2.0, -3.0], 1e-9, id="double_integrator"),
        # targets on sigma(F): their pencil rows are F's left eigenvectors
        pytest.param(
            np.diag([-1.0, -2.0]), [[1.0, 1.0]], [-1.0, -3.0], 1e-9, id="on_spectrum_diagonal"
        ),
        pytest.param(
            np.diag([-1.0, -2.0, -3.0]) + np.diag([1.0, 1.0], 1),
            [[1.0, 0.0, 0.0]],
            [-2.0, -5.0, -6.0],
            1e-9,
            id="on_spectrum_bidiagonal",
        ),
        # repeated targets follow a Jordan chain; a double pole is only
        # accurate to about sqrt(eps), whatever the method
        pytest.param(
            np.diag([-1.0, -2.0, -3.0]),
            [[1.0, 1.0, 1.0]],
            [-1.0, -1.0, -4.0],
            PLACEMENT_TOL,
            id="repeated_on_spectrum",
        ),
        pytest.param(
            DOUBLE_INTEGRATOR,
            [[1.0, 0.0]],
            [-2.0, -2.0],
            PLACEMENT_TOL,
            id="repeated_double_integrator",
        ),
    ],
)
def test_place_poles_dual_simple(F, H, targets, tol):
    H = np.array(H)
    desired = np.array(targets)
    L = place_poles_dual(F, H, desired)
    assert L.shape == (F.shape[0], 1)
    placed = np.linalg.eigvals(F + L @ H)
    assert spectrum_distance(placed, desired.astype(complex)) < tol


def test_place_poles_dual_matches_scipy():
    # with one output the gain is unique, so scipy's (on the dual pair) is an oracle
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for _ in range(10):
            F = rng.standard_normal((n, n))
            H = rng.standard_normal((1, n))
            desired = np.array([-1.5 + 1.0j, -1.5 - 1.0j] + [-1.0 - i for i in range(n - 2)])
            L = place_poles_dual(F, H, desired)
            ref = -scipy.signal.place_poles(F.T, H.T, desired).gain_matrix.T
            assert np.linalg.norm(L - ref) <= 1e-8 * np.linalg.norm(ref)


def test_place_poles_dual_complex_targets():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        F = rng.standard_normal((n, n))
        H = rng.standard_normal((1, n))
        # conjugate-closed target set: one pair if room, rest real
        targets = [-1.0 - i for i in range(n)]
        if n >= 2:
            targets[0] = -1.5 + 1.0j
            targets[1] = -1.5 - 1.0j
        desired = np.array(targets, dtype=complex)
        try:
            L = place_poles_dual(F, H, desired)
        except NumericError:
            continue  # randomly unobservable pair, allowed
        placed = np.linalg.eigvals(F + L @ H)
        assert spectrum_distance(placed, desired) < 1e-6


def test_place_poles_dual_requires_conjugate_closure():
    F = np.zeros((2, 2))
    H = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        place_poles_dual(F, H, np.array([-1.0 + 1.0j, -2.0]))


def test_place_poles_dual_unobservable_pair():
    F = np.diag([-1.0, -2.0])
    H = np.array([[1.0, 0.0]])  # second state invisible
    with pytest.raises(NumericError):
        place_poles_dual(F, H, np.array([-3.0, -4.0]))
    with pytest.raises(NumericError):
        place_poles_dual(F, np.zeros((1, 2)), np.array([-3.0, -4.0]))


def test_spectral_norm_column_is_euclidean():
    v = np.array([[3.0], [4.0]])
    assert spectral_norm(v) == pytest.approx(5.0)


def test_lambda_min_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        lambda_min_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert lambda_min_sym(np.diag([2.0, 5.0])) == pytest.approx(2.0)


def test_hurwitz_and_abscissa():
    assert spectral_abscissa(np.diag([-3.0, -1.0])) == pytest.approx(-1.0)
    assert is_hurwitz(np.diag([-3.0, -1.0]))
    assert not is_hurwitz(np.diag([-3.0, 0.0]))
    # within tolerance of the axis does not count as stable
    assert not is_hurwitz(np.diag([-1e-10, -1.0]))


def test_spectrum_distance_permutation_invariant():
    a = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -4.0])
    b = np.array([-4.0, -1.0 - 2.0j, -1.0 + 2.0j])
    assert spectrum_distance(a, b) == pytest.approx(0.0)
    assert spectrum_distance(a, b + 0.1) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        spectrum_distance(a, a[:2])


def _conjugate_spectrum(rng, n):
    """Conjugate-closed spectrum of size n on a coarse grid, with repeated poles."""
    k = n // 3
    pairs = rng.integers(-30, -4, k) / 10 + 1j * rng.integers(1, 20, k) / 10
    if k >= 2:
        pairs[-1] = pairs[0]
    reals = rng.integers(-3, 0, n - 2 * k).astype(float)
    return np.concatenate([pairs, pairs.conj(), reals])


@pytest.mark.parametrize("n", range(1, 13))
def test_min_cost_matching_equals_scipy_assignment(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        got = _conjugate_spectrum(rng, n)
        # a shuffled copy, shifted or not: many equal distances
        target = got[rng.permutation(n)] + rng.choice([0.0, 0.1, 0.5j])
        spectral = np.abs(got[:, None] - target[None, :])
        for cost in (rng.random((n, n)), rng.integers(0, 3, (n, n)).astype(float), spectral):
            rows, cols = linear_sum_assignment(cost)
            assert _min_cost_matching(cost.tolist()) == cols.tolist()
        rows, cols = linear_sum_assignment(spectral)
        assert spectrum_distance(got, target) == spectral[rows, cols].max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_spectrum_distance_rejects_nonfinite(bad):
    a = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -4.0])
    b = a.copy()
    b[2] = bad
    with pytest.raises(ValueError):
        spectrum_distance(a, b)
    with pytest.raises(ValueError):
        spectrum_distance(b, a)
