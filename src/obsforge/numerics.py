"""Dense linear-algebra kernels used by every other module.

Everything here works on small dense matrices (desk scale, n up to a few
tens), so the implementations favour transparency over asymptotics: the
Lyapunov equation is solved by Kronecker vectorization and pole placement
reads one gain row per target off the PBH pencil [pI - F; -H]. Complex
arithmetic stays inside this module; returned gains and solutions are real.
The module needs numpy only, and the kernels call the LAPACK-backed numpy
routine directly: at n <= 16, numpy's generic wrappers (``norm(ord=2)``,
``allclose``, ``kron``) cost more than the kernels they wrap.

Each tolerance check is screened first, as the RK4 stepper screens for
blow-up (``sim._rk4_batch``): a cheap bound decides the common case, and
the exact computation runs only when the bound cannot, so no verdict, error
text or returned bit depends on the screen. The residual checks bound the
2-norm by the entries, max|M_ij| <= ||M||_2 <= ||M||_F (Golub and Van Loan,
Matrix Computations, 2.3), with a relative margin of 2**-20 far above the
rounding of either side; ``place_poles_dual`` skips ``np.poly`` for a target
set that equals its conjugate exactly, whose coefficients ``np.poly`` makes
real itself; ``spectrum_distance`` skips the matching search when the
nearest partners of the rows are all different columns.

The input rules that more than one layer applies live here too:
``_asymmetry_bound`` for symmetric weights, ``_check_index`` for seeds and
sample counts, and ``_check_steps``, the step grid of every integration,
which the CLI applies to its flags without loading ``sim``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "eig",
    "solve_lyapunov",
    "place_poles_dual",
    "spectral_norm",
    "spectral_abscissa",
    "is_hurwitz",
    "spectrum_distance",
]

#: relative residual allowed on eigenpairs and Lyapunov solutions
TOL_RESIDUAL = 1e-8
#: Hurwitz margin: every eigenvalue must have Re lambda < -TOL_HURWITZ
TOL_HURWITZ = 1e-9
#: relative symmetry tolerance on user matrices
TOL_SYM = 1e-12
#: relative margin that keeps a screen on the safe side of the rounding
_MARGIN = 2.0**-20


def _asymmetry_bound(M):
    """TOL_SYM relative to the largest entry of M (absolute below 1)."""
    return TOL_SYM * max(1.0, np.abs(M).max())


def _check_index(value, field):
    """Raise ValidationError naming ``field`` unless value is a nonnegative integer."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValidationError("must be a nonnegative integer, got %r" % (value,), field=field)


def _check_steps(dt, T, stride, T_field="T"):
    """The number of steps of size dt in [0, T]; bad dt, T or stride raise
    ValidationError, naming T as ``T_field``. T must be a whole number of
    steps to 1e-9 relative, so a run never ends at a time it does not report."""
    if not 0 < dt < math.inf:
        raise ValidationError("must be positive and finite, got %r" % (dt,), field="dt")
    steps = T / dt
    if not math.isfinite(steps):
        raise ValidationError("horizon must span a finite number of steps", field=T_field)
    if T < dt:
        raise ValidationError("horizon must be at least one step", field=T_field)
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValidationError(
            "must be a whole number of dt steps, got %r = %.12g * dt" % (T, steps), field=T_field
        )
    try:
        positive = operator.index(stride) >= 1
    except TypeError:
        positive = False
    if not positive:
        raise ValidationError("must be a positive integer, got %r" % (stride,), field="stride")
    return int(round(steps))


def eig(M):
    """Eigendecomposition of a real square matrix.

    Parameters
    ----------
    M : (m, m) array_like
        Real matrix with finite entries.

    Returns
    -------
    values, vectors : ndarray
        As ``np.linalg.eig``: ``values[i]`` goes with the unit column
        ``vectors[:, i]``. Conjugate pairs sit together, positive imaginary
        part first. Residual-checked: ``||M v - lam v|| <= 1e-8 ||M||``.

    Raises
    ------
    NumericError
        If the QR iteration fails to converge or a residual exceeds tolerance.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eig expects a square matrix, got shape %s" % (M.shape,))
    if not np.all(np.isfinite(M)):
        raise ValueError("eig expects finite entries")
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        # numpy does not expose the LAPACK iteration count; forward its report
        raise NumericError("eigendecomposition failed to converge: %s" % exc) from exc

    # sort so conjugate pairs sit together, +imag before -imag
    order = np.lexsort((-values.imag, np.abs(values.imag), values.real))
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)

    resid = np.linalg.norm(M @ vectors - vectors * values, axis=0)
    # max|M_ij| <= ||M||_2: passing against the entries passes against the norm
    bound = max(np.abs(M).max(initial=0.0) * (1 - _MARGIN), 1e-300)
    if resid.max(initial=0.0) <= TOL_RESIDUAL * bound:
        return values, vectors
    if np.any(resid > TOL_RESIDUAL * max(spectral_norm(M), 1e-300)):
        raise NumericError(
            "eigenpair residual %.3e exceeds %.1e * ||M|| (cond(V)=%.3e)"
            % (resid.max(), TOL_RESIDUAL, np.linalg.cond(vectors))
        )
    return values, vectors


def solve_lyapunov(A, Y):
    """Solve the continuous Lyapunov equation A'S + SA = -Y.

    Parameters
    ----------
    A : (n, n) array_like
        Hurwitz matrix (caller-verified; a non-Hurwitz A surfaces here as a
        singular system or an indefinite solution).
    Y : (n, n) array_like
        Symmetric positive definite right-hand side.

    Returns
    -------
    S : (n, n) ndarray
        Symmetric positive definite solution with
        ``||A'S + SA + Y|| <= 1e-8 ||Y||``.

    Notes
    -----
    Solved by Kronecker vectorization, (I kron A' + A' kron I) vec(S) =
    -vec(Y), then symmetrized. O(n^6) but transparent, fine at desk scale.
    The operator is filled block by block, A' on the diagonal blocks plus
    A'[p, s] I in block (p, s), in the order the two Kronecker products would
    add, so it equals their sum entry for entry. Y is first scaled by the
    power of two that brings its largest entry into [1/2, 1), and S scaled
    back at the end; that changes no bit outside the subnormal range, and
    keeps the solve from overflowing before S does.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Y.shape != (n, n):
        raise ValueError(
            "shape mismatch: A %s vs Y %s" % (A.shape, Y.shape)
        )
    k = np.frexp(np.abs(Y).max())[1]
    Y = np.ldexp(Y, -k)
    # K[p, q, s, t] is row p*n + q, column s*n + t of the (n^2, n^2) operator
    K = np.zeros((n, n, n, n))
    i = np.arange(n)
    K[i, :, i, :] = A.T
    K[:, i, :, i] += A.T
    try:
        vecS = np.linalg.solve(K.reshape(n * n, n * n), -Y.reshape(n * n, order="F"))
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
        R = A.T @ S + S @ A + Y
        # ||R||_2 <= ||R||_F and max|Y_ij| <= ||Y||_2; NaN or inf fails the screen
        screened = np.sqrt(np.vdot(R, R)) * (1 + _MARGIN) <= (
            TOL_RESIDUAL * np.abs(Y).max() * (1 - _MARGIN)
        )
        if not screened:
            resid = spectral_norm(R)
            if resid > TOL_RESIDUAL * spectral_norm(Y):
                raise NumericError(
                    "Lyapunov residual %.3e exceeds %.1e * ||Y||"
                    % (np.ldexp(resid, k), TOL_RESIDUAL)
                )
    lam = np.linalg.eigvalsh(S)
    if lam[0] <= 0:
        raise NumericError(
            "Lyapunov solution is not positive definite "
            "(lambda_min = %.3e); is A Hurwitz?" % np.ldexp(lam[0], k)
        )
    return unscaled


def place_poles_dual(F, Hrow, desired):
    """Output-injection gain placing sigma(F + Lcol @ Hrow) at ``desired``.

    Each target p gives one gain row (Kautsky, Nichols and Van Dooren 1985):
    with [v; s] the left null vector of M(p) = [pI - F; -Hrow] (PBH, Hautus
    1969), v is a left eigenvector of F + Lcol Hrow at p iff v' Lcol = s. A
    copy of p continues the Jordan chain, M(p)' [v2; s2] = -v1. The conjugate
    closure of ``desired`` makes the gain real.

    Parameters
    ----------
    F : (n, n) array_like
    Hrow : (1, n) array_like
        Row output map; (F, Hrow) must be observable (caller-verified).
    desired : length-n complex sequence, closed under conjugation

    Returns
    -------
    Lcol : (n, 1) ndarray

    Raises
    ------
    NumericError
        If the pair is unobservable (the stacked rows are singular), or
        the solved gain is not finite (e.g. a subnormal Hrow).
    ValueError
        If ``desired`` has the wrong size or is not closed under conjugation.
    """
    F = np.asarray(F, dtype=float)
    Hrow = np.atleast_2d(np.asarray(Hrow, dtype=float))
    n = F.shape[0]
    desired = np.asarray(desired, dtype=complex)
    if desired.shape != (n,):
        raise ValueError("need exactly n=%d target eigenvalues" % n)

    # copies of a target sit side by side, so each continues its chain
    p = np.sort(desired)
    # np.poly makes the coefficients real itself when the set equals its conjugate
    if not np.array_equal(p, np.sort(p.conj())):
        coeffs = np.poly(desired)
        if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
            raise ValueError("desired spectrum is not closed under conjugation")
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


def spectral_norm(M):
    """Largest singular value (induced 2-norm)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def spectral_abscissa(M):
    """max Re lambda over the spectrum of M."""
    return float(np.max(np.linalg.eigvals(np.asarray(M, dtype=float)).real))


def is_hurwitz(M):
    """True when every eigenvalue satisfies Re lambda < -TOL_HURWITZ."""
    return spectral_abscissa(M) < -TOL_HURWITZ


def spectrum_distance(got, target):
    """Optimal matching distance between two equal-size multisets.

    The least, over pairings sigma, of max |got[i] - target[sigma(i)]|
    (Bhatia, Matrix Analysis, ch. VI), so the result does not depend on the
    order of either spectrum. No pairing beats the largest distance from an
    eigenvalue of either side to its nearest partner; when the pairs within
    that bound hold a perfect matching, the bound is the answer, and
    otherwise a bisection over the larger pairwise distances finds the least
    one whose pairs do.

    Raises
    ------
    ValueError
        If the spectra differ in size or a pairwise distance is not finite.
    """
    got = np.asarray(got, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if got.shape != target.shape:
        raise ValueError("spectra differ in size: %d vs %d" % (got.size, target.size))
    cost = np.abs(got[:, None] - target[None, :])
    if not np.all(np.isfinite(cost)):
        raise ValueError("spectra have non-finite entries or distances")
    bound = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    # rows whose nearest partners all differ are a matching within the bound
    if np.bincount(cost.argmin(axis=1)).max() == 1 or _has_perfect_matching(cost <= bound):
        return float(bound)
    # the last always matches; a repeated level leaves the least one as it is,
    # and np.unique would import numpy.ma on its first call in a process
    levels = np.sort(cost[cost > bound])
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _has_perfect_matching(adjacent):
    """Whether every row of a square boolean matrix can take its own column
    among those it is adjacent to (augmenting paths, Kuhn 1955)."""
    columns = [[] for _ in adjacent]
    for i, j in np.argwhere(adjacent).tolist():
        columns[i].append(j)
    row4col = [-1] * len(columns)

    def augment(i, seen):
        for j in columns[i]:
            if j not in seen:
                seen.add(j)
                if row4col[j] == -1 or augment(row4col[j], seen):
                    row4col[j] = i
                    return True
        return False

    # a row that finds no augmenting path stays unmatched for good
    return all(augment(i, set()) for i in range(len(columns)))
