"""Dense linear-algebra kernels used by every other module.

Everything here works on small dense matrices (desk scale, n up to a few
tens), so the implementations favour transparency over asymptotics: the
Lyapunov equation is solved by Kronecker vectorization and pole placement
reads one gain row per target off the PBH pencil [pI - F; -H]. Complex
arithmetic stays inside this module; returned gains and solutions are real.
The module needs numpy only: spectra are matched by a plain-Python
assignment solver, because importing ``scipy.optimize`` costs more than
every call made here. For the same reason the kernels call the LAPACK-backed
numpy routine directly: at n <= 16, numpy's generic wrappers
(``norm(ord=2)``, ``allclose``, ``kron``) cost more than the kernels they wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "EigenPairs",
    "eig",
    "solve_lyapunov",
    "place_poles_dual",
    "spectral_norm",
    "lambda_min_sym",
    "spectral_abscissa",
    "is_hurwitz",
    "spectrum_distance",
]

#: relative residual allowed on eigenpairs and Lyapunov solutions
TOL_RESIDUAL = 1e-8
#: Hurwitz margin: every eigenvalue must have Re lambda < -TOL_HURWITZ
TOL_HURWITZ = 1e-9


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues with column-paired unit eigenvectors.

    ``values[i]`` goes with ``vectors[:, i]``. Complex eigenvalues of real
    matrices appear with the two members of each conjugate pair adjacent,
    positive imaginary part first.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self):
        return self.values.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield self.values[i], self.vectors[:, i]


def eig(M):
    """Eigendecomposition of a real square matrix.

    Parameters
    ----------
    M : (m, m) array_like
        Real matrix with finite entries.

    Returns
    -------
    EigenPairs
        Unit eigenvectors, residual-checked: ``||M v - lam v|| <= 1e-8 ||M||``.

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

    scale = spectral_norm(M)
    resid = np.linalg.norm(M @ vectors - vectors * values, axis=0)
    if np.any(resid > TOL_RESIDUAL * max(scale, 1e-300)):
        raise NumericError(
            "eigenpair residual %.3e exceeds %.1e * ||M|| (cond(V)=%.3e)"
            % (resid.max(), TOL_RESIDUAL, np.linalg.cond(vectors))
        )
    return EigenPairs(values=values, vectors=vectors)


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
    add, so it equals their sum entry for entry.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Y.shape != (n, n):
        raise ValueError(
            "shape mismatch: A %s vs Y %s" % (A.shape, Y.shape)
        )
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
    if not np.all(np.isfinite(S)):
        raise NumericError("Lyapunov solution is not finite (it leaves double range)")

    resid = spectral_norm(A.T @ S + S @ A + Y)
    if resid > TOL_RESIDUAL * spectral_norm(Y):
        raise NumericError(
            "Lyapunov residual %.3e exceeds %.1e * ||Y||" % (resid, TOL_RESIDUAL)
        )
    if np.any(np.linalg.eigvalsh(S) <= 0):
        raise NumericError(
            "Lyapunov solution is not positive definite "
            "(lambda_min = %.3e); is A Hurwitz?" % np.linalg.eigvalsh(S).min()
        )
    return S


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

    coeffs = np.poly(desired)
    if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
        raise ValueError("desired spectrum is not closed under conjugation")

    # copies of a target sit side by side, so each continues its chain
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


def spectral_norm(M):
    """Largest singular value (induced 2-norm)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def lambda_min_sym(M):
    """Smallest eigenvalue of a symmetric matrix.

    Raises ValueError if the input is asymmetric beyond 1e-12 relative,
    since the real-spectrum reading would silently be wrong there, and if
    an entry is NaN or infinite, which has no smallest eigenvalue to read.
    """
    M = np.asarray(M, dtype=float)
    scale = max(np.abs(M).max(), 1.0)
    if not scale < math.inf:
        raise ValueError("lambda_min_sym requires finite entries")
    asymmetry = np.abs(M - M.T).max()
    if not asymmetry <= 1e-12 * scale:
        raise ValueError(
            "lambda_min_sym requires a symmetric matrix; asymmetry %.3e" % asymmetry
        )
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def spectral_abscissa(M):
    """max Re lambda over the spectrum of M."""
    return float(np.max(np.linalg.eigvals(np.asarray(M, dtype=float)).real))


def is_hurwitz(M):
    """True when every eigenvalue satisfies Re lambda < -TOL_HURWITZ."""
    return spectral_abscissa(M) < -TOL_HURWITZ


def spectrum_distance(got, target):
    """Worst-case eigenvalue mismatch between two equal-size multisets.

    Matches the two spectra by minimum-cost assignment and returns the
    largest paired distance, so the result is pairing-order independent.
    The assignment comes from Crouse's shortest augmenting path solver
    (IEEE TAES 2016), ported step for step from the one behind
    ``scipy.optimize.linear_sum_assignment``; it picks the same pairing as
    scipy, ties included, so the returned float is the same as well.

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
    cost = cost.tolist()
    return max(row[j] for row, j in zip(cost, _min_cost_matching(cost)))


def _min_cost_matching(cost):
    """Column assigned to each row of a square cost list at minimum total cost.

    One shortest augmenting path per row with dual potentials ``u``, ``v``.
    The scan order of the columns, the tie rule and every floating-point
    expression follow scipy's implementation, which fixes the pairing among
    equal-cost optima.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        shortest = [math.inf] * n
        # reverse order makes a constant cost matrix give the identity
        remaining = list(range(n - 1, -1, -1))
        rows_seen = []
        cols_seen = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            rows_seen.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # among equal minima prefer a free column: it ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            # drop the column by moving the last one into its slot
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in rows_seen:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row
