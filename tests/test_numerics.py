import itertools
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from scipy.optimize import linear_sum_assignment

from obsforge import attack, model, numerics, observer, roa, sim
from obsforge.errors import AssumptionError, NumericError, SynthesisError, ValidationError
from obsforge.numerics import (
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
    values, vectors = eig(M)
    assert np.allclose(values, [-3.0, -1.0, 2.0])
    for lam, v in zip(values, vectors.T):
        assert np.linalg.norm(M @ v - lam * v) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eig_conjugates_adjacent_positive_first():
    # rotation-like block: eigenvalues -1 +/- 2j plus a real one
    M = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -5.0]])
    vals, _ = eig(M)
    assert vals[0] == pytest.approx(-5.0)
    assert vals[1] == pytest.approx(-1.0 + 2.0j)
    assert vals[2] == pytest.approx(-1.0 - 2.0j)


def test_eig_random_residuals():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        values, vectors = eig(M)
        scale = max(1.0, spectral_norm(M))
        for lam, v in zip(values, vectors.T):
            assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * scale


def test_eig_reports_nonconvergence(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(NumericError) as exc:
        eig(np.eye(2))
    assert str(exc.value) == "eigendecomposition failed to converge: Eigenvalues did not converge"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


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


def test_place_poles_dual_needs_n_targets():
    F = np.diag([-1.0, -2.0, -3.0, -4.0])
    H = np.ones((1, 4))
    with pytest.raises(ValueError, match="need exactly n=4 target eigenvalues"):
        place_poles_dual(F, H, np.array([-5.0, -6.0]))


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
# The kernels call LAPACK-backed numpy routines directly and screen their
# tolerance checks with cheap bounds; these are the generic-wrapper,
# unscreened forms they replaced, kept as bit-identity references. They read
# numerics.TOL_RESIDUAL at call time, so a test can move the threshold.


def ref_spectral_norm(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def ref_eig(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eig expects a square matrix, got shape %s" % (M.shape,))
    if not np.all(np.isfinite(M)):
        raise ValueError("eig expects finite entries")
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigendecomposition failed to converge: %s" % exc) from exc
    order = np.lexsort((-values.imag, np.abs(values.imag), values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    scale = ref_spectral_norm(M)
    resid = np.linalg.norm(M @ vectors - vectors * values, axis=0)
    if np.any(resid > numerics.TOL_RESIDUAL * max(scale, 1e-300)):
        raise NumericError(
            "eigenpair residual %.3e exceeds %.1e * ||M|| (cond(V)=%.3e)"
            % (resid.max(), numerics.TOL_RESIDUAL, np.linalg.cond(vectors))
        )
    return values, vectors


def ref_solve_lyapunov(A, Y):
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Y.shape != (n, n):
        raise ValueError("shape mismatch: A %s vs Y %s" % (A.shape, Y.shape))
    k = np.frexp(np.abs(Y).max())[1]
    Y = np.ldexp(Y, -k)
    I = np.eye(n)
    K = np.kron(I, A.T) + np.kron(A.T, I)
    try:
        vecS = np.linalg.solve(K, -Y.reshape(n * n, order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "Lyapunov system is singular (A has eigenvalue pairs summing to "
            "zero, e.g. A not Hurwitz): %s" % exc
        ) from exc
    S = vecS.reshape((n, n), order="F")
    S = 0.5 * (S + S.T)
    with np.errstate(over="ignore"):
        unscaled = np.ldexp(S, k)
        if not np.all(np.isfinite(unscaled)):
            raise NumericError("Lyapunov solution is not finite (it leaves double range)")
        resid = ref_spectral_norm(A.T @ S + S @ A + Y)
        if resid > numerics.TOL_RESIDUAL * ref_spectral_norm(Y):
            raise NumericError(
                "Lyapunov residual %.3e exceeds %.1e * ||Y||"
                % (np.ldexp(resid, k), numerics.TOL_RESIDUAL)
            )
    if np.any(np.linalg.eigvalsh(S) <= 0):
        raise NumericError(
            "Lyapunov solution is not positive definite "
            "(lambda_min = %.3e); is A Hurwitz?" % np.ldexp(np.linalg.eigvalsh(S).min(), k)
        )
    return unscaled


def ref_place_poles_dual(F, Hrow, desired):
    F = np.asarray(F, dtype=float)
    Hrow = np.atleast_2d(np.asarray(Hrow, dtype=float))
    n = F.shape[0]
    desired = np.asarray(desired, dtype=complex)
    if desired.shape != (n,):
        raise ValueError("need exactly n=%d target eigenvalues" % n)
    coeffs = np.poly(desired)
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
        raise ValueError("desired spectrum is not closed under conjugation")
    p = np.sort(desired)
    M = np.concatenate(
        [p[:, None, None] * np.eye(n) - F, np.broadcast_to(-Hrow, (n, 1, n))], axis=1
    )
    rows = np.linalg.qr(M, mode="complete")[0][:, :, -1].conj()
    for i in range(1, n):
        if p[i] == p[i - 1]:
            rows[i] = np.linalg.lstsq(M[i].T, -rows[i - 1, :n], rcond=None)[0]
    V, s = rows[:, :n], rows[:, n]
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise NumericError(
            "(F, Hrow) is unobservable: the pencil rows at the targets are "
            "singular (singular values %s)" % np.array2string(sv, precision=3)
        )
    Lcol = np.linalg.solve(V, s).real.reshape(n, 1)
    if not np.all(np.isfinite(Lcol)):
        raise NumericError(
            "the placement gain is not finite (largest |Hrow| entry %.3e)" % np.abs(Hrow).max()
        )
    return Lcol


def ref_spectrum_distance(got, target):
    got = np.asarray(got, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if got.shape != target.shape:
        raise ValueError("spectra differ in size: %d vs %d" % (got.size, target.size))
    cost = np.abs(got[:, None] - target[None, :])
    if not np.all(np.isfinite(cost)):
        raise ValueError("spectra have non-finite entries or distances")
    bound = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    if numerics._has_perfect_matching(cost <= bound):
        return float(bound)
    levels = np.unique(cost[cost > bound])
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if numerics._has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


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
            numerics.eig: ref_eig,
            numerics.solve_lyapunov: ref_solve_lyapunov,
            numerics.place_poles_dual: ref_place_poles_dual,
            numerics.spectrum_distance: ref_spectrum_distance,
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


def _outcome(fn, *args):
    """fn's result as dtype, shape and bytes of every array, or its error and text."""
    try:
        out = fn(*args)
    except (NumericError, ValueError) as exc:
        return type(exc), str(exc)
    arrays = out if isinstance(out, tuple) else (out,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("n", range(1, 17))
def test_screened_kernels_equal_reference_kernels(n, scale):
    # values, error types and error texts, on passing and on failing inputs
    rng = np.random.default_rng([21, n])  # the same draws at every scale
    for _ in range(3):
        M = rng.standard_normal((n, n))
        A = _hurwitz(rng, n)
        G = rng.standard_normal((n, n))
        Y = G @ G.T + np.eye(n)
        k = n // 2
        pairs = rng.standard_normal(k) - 1.0 + 1j * rng.uniform(0.1, 2.0, k)
        targets = np.concatenate([pairs, pairs.conj(), -rng.uniform(0.5, 3.0, n - 2 * k)])
        targets = targets[rng.permutation(n)]
        H = rng.standard_normal((1, n))
        # closed under conjugation to 1e-13 passes, to 1e-5 does not
        near, far = (targets + d * 1j * _random_spectrum(rng, n) for d in (1e-13, 1e-5))
        matched = targets + 1e-7 * _random_spectrum(rng, n)
        other, shuffled = _random_spectrum(rng, n), targets[rng.permutation(n)]
        cases = [
            (eig, ref_eig, scale * M),
            (eig, ref_eig, scale * np.ones((n, n))),
            (eig, ref_eig, np.full((n, n), np.nan)),
            (solve_lyapunov, ref_solve_lyapunov, A, scale * Y),
            (solve_lyapunov, ref_solve_lyapunov, scale * A, Y),
            (solve_lyapunov, ref_solve_lyapunov, -A, scale * Y),  # not positive definite
            # singular (n >= 2), and a solution past double range
            (solve_lyapunov, ref_solve_lyapunov, np.diag(np.resize([scale, -scale], n)), Y),
            (solve_lyapunov, ref_solve_lyapunov, -1.0 / np.finfo(float).max * np.eye(n), Y),
            (place_poles_dual, ref_place_poles_dual, scale * M, H, scale * targets),
            (place_poles_dual, ref_place_poles_dual, M, H, near),
            (place_poles_dual, ref_place_poles_dual, M, H, far),
            (place_poles_dual, ref_place_poles_dual, M, np.zeros((1, n)), targets),  # unobservable
            (spectrum_distance, ref_spectrum_distance, scale * targets, scale * matched),
            (spectrum_distance, ref_spectrum_distance, scale * other, scale * targets),
            (spectrum_distance, ref_spectrum_distance, scale * targets, scale * shuffled),
        ]
        for fn, ref, *args in cases:
            assert _outcome(fn, *args) == _outcome(ref, *args), (fn.__name__, args)


def _spy(monkeypatch, module, name):
    """Count the calls of module.name; the counter is the returned list."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [2, 5, 16])
def test_eig_exact_residual_check_behind_the_screen(n, monkeypatch):
    # ||M||_2 is about n times max|M_ij| here: a tolerance between the two
    # bounds fails the screen, and the SVD must then decide as before
    rng = np.random.default_rng([22, n])
    M = np.ones((n, n)) + 1e-3 * rng.standard_normal((n, n))
    values, vectors = eig(M)
    resid = np.linalg.norm(M @ vectors - vectors * values, axis=0).max()
    entry, norm = np.abs(M).max(), spectral_norm(M)
    assert 0 < resid and 1.5 * entry < norm
    calls = _spy(monkeypatch, numerics, "spectral_norm")
    for tol in (resid / np.sqrt(entry * norm), resid / (2 * norm)):  # exact pass, exact fail
        monkeypatch.setattr(numerics, "TOL_RESIDUAL", tol)
        calls.clear()
        got = _outcome(eig, M)
        assert got == _outcome(ref_eig, M)
        assert len(calls) == 1
    assert got[0] is NumericError


@pytest.mark.parametrize("n", [2, 5, 16])
def test_solve_lyapunov_exact_residual_check_behind_the_screen(n, monkeypatch):
    # ||Y||_2 = n + 1 against max|Y_ij| = 2, and ||R||_F >= ||R||_2
    rng = np.random.default_rng([23, n])
    A = _hurwitz(rng, n)
    Y = np.ones((n, n)) + np.eye(n)
    S = solve_lyapunov(A, Y)
    R = A.T @ S + S @ A + Y
    exact, screen = spectral_norm(R) / spectral_norm(Y), np.linalg.norm(R) / np.abs(Y).max()
    assert 0 < exact and 1.5 * exact < screen
    calls = _spy(monkeypatch, numerics, "spectral_norm")
    for tol in (np.sqrt(exact * screen), exact / 2):  # exact pass, exact fail
        monkeypatch.setattr(numerics, "TOL_RESIDUAL", tol)
        calls.clear()
        got = _outcome(solve_lyapunov, A, Y)
        assert got == _outcome(ref_solve_lyapunov, A, Y)
        assert len(calls) == 2
    assert got[0] is NumericError and "Lyapunov residual" in got[1]


@pytest.mark.parametrize("n", [4, 8, 16])
def test_solve_lyapunov_screen_bounds_the_residual_by_its_frobenius_norm(n, monkeypatch):
    # with Y = I, a tolerance between max|R_ij| and ||R||_2 fails the exact
    # check, so a screen that read R's largest entry would wrongly pass it
    rng = np.random.default_rng([28, n])
    A, Y = _hurwitz(rng, n), np.eye(n)
    S = solve_lyapunov(A, Y)
    R = A.T @ S + S @ A + Y
    entry, norm = np.abs(R).max(), spectral_norm(R)
    assert 0 < entry and 1.1 * entry < norm
    monkeypatch.setattr(numerics, "TOL_RESIDUAL", np.sqrt(entry * norm))
    got = _outcome(solve_lyapunov, A, Y)
    assert got == _outcome(ref_solve_lyapunov, A, Y)
    assert got[0] is NumericError


def _raise(*args, **kwargs):
    raise AssertionError("the screen should have decided")


def test_residual_screens_spare_the_svd(monkeypatch):
    rng = np.random.default_rng(24)
    draws = []
    for n in range(1, 17):
        M, A = rng.standard_normal((n, n)), _hurwitz(rng, n)
        G = rng.standard_normal((n, n))
        Y = G @ G.T + np.eye(n)
        draws.append((M, A, Y, _outcome(eig, M), _outcome(solve_lyapunov, A, Y)))
    monkeypatch.setattr(numerics, "spectral_norm", _raise)
    for M, A, Y, want_eig, want_lyap in draws:
        assert _outcome(eig, M) == want_eig
        assert _outcome(solve_lyapunov, A, Y) == want_lyap


def test_conjugate_closed_targets_skip_np_poly(monkeypatch):
    rng = np.random.default_rng(25)
    F, H = rng.standard_normal((5, 5)), rng.standard_normal((1, 5))
    targets = np.array([-1.5 + 1.0j, -2.0, -1.5 - 1.0j, -3.0 - 0.5j, -3.0 + 0.5j])
    want = place_poles_dual(F, H, targets)
    monkeypatch.setattr(np, "poly", _raise)
    assert np.array_equal(place_poles_dual(F, H, targets), want)


def test_nearly_conjugate_closed_targets_go_through_np_poly(monkeypatch):
    rng = np.random.default_rng(26)
    F, H = rng.standard_normal((5, 5)), rng.standard_normal((1, 5))
    targets = np.array([-1.5 + 1.0j, -2.0, -1.5 - (1.0 + 1e-13) * 1j, -3.0, -4.0])
    calls = _spy(monkeypatch, np, "poly")
    L = place_poles_dual(F, H, targets)
    assert len(calls) == 1
    assert spectrum_distance(np.linalg.eigvals(F + L @ H), targets) < 1e-6


def test_distinct_nearest_partners_skip_the_matching_search(monkeypatch):
    rng = np.random.default_rng(27)
    got = _conjugate_spectrum(rng, 7) + 1e-3 * np.arange(7)
    target = got[rng.permutation(7)] + 1e-7 * _random_spectrum(rng, 7)
    cost = np.abs(got[:, None] - target[None, :])
    assert np.unique(cost.argmin(axis=1)).size == 7
    monkeypatch.setattr(numerics, "_has_perfect_matching", _raise)
    assert spectrum_distance(got, target) == _brute_force_distance(got, target)


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


def test_spectrum_distance_bisection_leaves_numpy_ma_unloaded():
    # the nearest-partner bound 1 admits no matching here, so the levels
    # above it are searched, 9 three times over; np.unique, which would
    # import numpy.ma on its first call in a process, is not needed for that
    code = (
        "import sys\n"
        "from obsforge.numerics import spectrum_distance\n"
        "print(spectrum_distance([0, 0, 10], [1, 9, 11]), 'numpy.ma' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["9.0", "False"]
    assert ref_spectrum_distance(np.array([0, 0, 10]), np.array([1, 9, 11])) == 9.0
