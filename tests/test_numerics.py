import itertools
import struct
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from scipy.optimize import linear_sum_assignment

from obsforge import attack, model, numerics, observer, roa, sim
from obsforge.errors import AssumptionError, NumericError, SynthesisError, ValidationError
from obsforge.numerics import (
    TOL_RESIDUAL,
    eig,
    is_hurwitz,
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


def test_solve_lyapunov_rejects_solution_past_double_range():
    # S = Y / 0.5 = 2e308 overflows; its residual used to reach the SVD as NaN
    with pytest.raises(NumericError, match="not finite"):
        solve_lyapunov(-0.25 * np.eye(2), 1e308 * np.eye(2))


def test_solve_lyapunov_solves_near_double_range(ref_design):
    # the headline Fbar with Y = 1e308 I: the Kronecker solve used to
    # overflow although the true solution stays inside double range
    Fbar = ref_design.Fbar
    S = solve_lyapunov(Fbar, 1e308 * np.eye(4))
    assert np.abs(S).max() == pytest.approx(1.742e307, rel=1e-3)
    assert np.allclose(S, 1e308 * solve_lyapunov(Fbar, np.eye(4)), rtol=1e-12, atol=0.0)


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


def test_place_poles_dual_rejects_a_non_finite_gain(ref_system):
    # a subnormal attack row passes the observability gate (margin 1.2e-3),
    # but the gain that places its pair is NaN in double precision
    _, _, cl = ref_system
    design = attack.build_design(cl, gamma_fraction=1e-320)
    assert 0 < np.abs(design.Hbar).max() < np.finfo(float).tiny
    with pytest.raises(NumericError, match="not finite"):
        place_poles_dual(design.Fbar, design.Hbar, np.array([-9.5, -10.5, -11.5, -12.5]))


def test_spectral_norm_column_is_euclidean():
    v = np.array([[3.0], [4.0]])
    assert spectral_norm(v) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# The kernels call LAPACK-backed numpy routines directly; these are the
# generic-wrapper forms they replaced, kept as bit-identity references.


def ref_spectral_norm(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def ref_solve_lyapunov(A, Y):
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Y.shape != (n, n):
        raise ValueError("shape mismatch: A %s vs Y %s" % (A.shape, Y.shape))
    I = np.eye(n)
    K = np.kron(I, A.T) + np.kron(A.T, I)
    try:
        vecS = np.linalg.solve(K, -Y.reshape(n * n, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericError("Lyapunov system is singular: %s" % exc) from exc
    S = vecS.reshape((n, n), order="F")
    S = 0.5 * (S + S.T)
    resid = ref_spectral_norm(A.T @ S + S @ A + Y)
    if resid > TOL_RESIDUAL * ref_spectral_norm(Y):
        raise NumericError("Lyapunov residual %.3e exceeds %.1e * ||Y||" % (resid, TOL_RESIDUAL))
    if np.any(np.linalg.eigvalsh(S) <= 0):
        raise NumericError(
            "Lyapunov solution is not positive definite "
            "(lambda_min = %.3e); is A Hurwitz?" % np.linalg.eigvalsh(S).min()
        )
    return S


def _hurwitz(rng, n):
    A = rng.standard_normal((n, n))
    return A - (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.5, 2.0)) * np.eye(n)


@pytest.mark.parametrize("n", range(1, 17))
def test_spectral_norm_equals_norm_ord2(n):
    rng = np.random.default_rng([17, n])
    for shape in ((1, n), (n, 1), (n, n)):
        M = rng.standard_normal(shape)
        assert np.array_equal(spectral_norm(M), ref_spectral_norm(M))
    for M in (np.zeros((n, n)), np.zeros((0, n)), np.zeros((n, 0))):
        assert np.array_equal(spectral_norm(M), ref_spectral_norm(M))


@pytest.mark.parametrize("n", range(1, 17))
def test_solve_lyapunov_equals_kron_operator_solve(n):
    rng = np.random.default_rng([18, n])
    for _ in range(3):
        A = _hurwitz(rng, n)
        M = rng.standard_normal((n, n))
        Y = M @ M.T + np.eye(n)
        assert np.array_equal(solve_lyapunov(A, Y), ref_solve_lyapunov(A, Y))


def _bits(x):
    return [struct.pack("<d", v) for v in np.ravel(np.asarray(x, dtype=float))]


def _chain(plant, controller, cl, seed):
    """design_sweep's fingerprint of one design chain: the five fields, or the error."""
    try:
        model.validate_assumptions(plant, controller, cl)
        design = attack.build_design(cl, seed=seed)
        obs = observer.design_gain(design, cl.B)
        est = roa.certify(cl, design, obs)
    except (AssumptionError, NumericError, SynthesisError, ValidationError) as exc:
        return type(exc), str(exc)
    return [_bits(v) for v in (design.gamma_max, design.pi, obs.L, est.c1, est.c3)]


def test_design_chain_bit_identical_to_reference_kernels(make_random_system, monkeypatch):
    draws = [
        (n, i, make_random_system(np.random.default_rng([20, n, i]), n // 2, n // 2))
        for n, count in ((4, 4), (8, 4), (12, 2))
        for i in range(count)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ConditioningWarning on the larger systems
        shipped = [_chain(*system, seed=i) for n, i, system in draws]
        refs = {
            numerics.spectral_norm: ref_spectral_norm,
            numerics.solve_lyapunov: ref_solve_lyapunov,
        }
        for module in (numerics, attack, model, observer, roa, sim):
            for name, value in vars(module).copy().items():
                if callable(value) and value in refs:
                    monkeypatch.setattr(module, name, refs[value])
        reference = [_chain(*system, seed=i) for n, i, system in draws]
    assert shipped == reference
    # the fingerprint must come from finished chains, not only from errors
    finished = [n for (n, _, _), out in zip(draws, shipped) if isinstance(out, list)]
    assert {4, 8} <= set(finished)


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


def _brute_force_distance(got, target):
    """min over pairings of the largest paired distance, by enumeration."""
    n = got.shape[0]
    cost = np.abs(got[:, None] - target[None, :])
    pairings = np.array(list(itertools.permutations(range(n))))
    return cost[np.arange(n), pairings].max(axis=1).min()


def _random_spectrum(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_spectrum_distance_equals_brute_force_min(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        got = _conjugate_spectrum(rng, n)
        # a shuffled copy, shifted or not: many equal distances
        target = got[rng.permutation(n)] + rng.choice([0.0, 0.1, 0.5j])
        assert spectrum_distance(got, target) == _brute_force_distance(got, target)
        got, target = _random_spectrum(rng, n), _random_spectrum(rng, n)
        assert spectrum_distance(got, target) == _brute_force_distance(got, target)


@pytest.mark.parametrize("n", range(1, 17))
def test_spectrum_distance_equals_assignment_max_near_match(n):
    # within half the spacing of the spectra both pairings match each pole
    # with its own perturbed copy, up to swapping equal poles
    rng = np.random.default_rng(200 + n)
    for _ in range(20):
        got = _conjugate_spectrum(rng, n)
        target = got[rng.permutation(n)] + 1e-7 * _random_spectrum(rng, n)
        cost = np.abs(got[:, None] - target[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert spectrum_distance(got, target) == cost[rows, cols].max()


@pytest.mark.parametrize("n", range(1, 17))
def test_spectrum_distance_bounded_by_assignment_and_order_free(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        got, target = _random_spectrum(rng, n), _random_spectrum(rng, n)
        cost = np.abs(got[:, None] - target[None, :])
        rows, cols = linear_sum_assignment(cost)
        dist = spectrum_distance(got, target)
        assert dist <= cost[rows, cols].max()
        assert spectrum_distance(got[rng.permutation(n)], target) == dist
        assert spectrum_distance(got, target[rng.permutation(n)]) == dist


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_spectrum_distance_rejects_nonfinite(bad):
    a = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -4.0])
    b = a.copy()
    b[2] = bad
    with pytest.raises(ValueError):
        spectrum_distance(a, b)
    with pytest.raises(ValueError):
        spectrum_distance(b, a)
