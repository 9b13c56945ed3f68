"""Adversary-side state observer on the attack-induced pair.

The gain is designed so that sigma(Fbar + (B+L) Hbar) sits at the desired
poles: that matrix is the lower-right block of the block-triangularized
augmented Jacobian and governs how fast the estimate catches the state.
Placement happens on (Fbar, Hbar) with the combined gain Ltilde = B + L,
then L = Ltilde - B is recovered.

Also provides the augmented Jacobian pair used for the spectrum split
sigma(J_phi) = sigma(A) u sigma(Fbar + (B+L) Hbar), and the coupled field
that the integrator and the certificate checks evaluate (linear part
J_tilde).
"""

from __future__ import annotations

import numpy as np

from .errors import SynthesisError, ValidationError
from .numerics import (
    eig,
    place_poles_dual,
    spectral_abscissa,
    spectrum_distance,
)
from .report import Record

__all__ = [
    "ObserverDesign",
    "AugmentedJacobian",
    "CoupledField",
    "default_poles",
    "design_gain",
    "gain_from_vector",
    "augmented_jacobian",
    "coupled_field",
]

PLACEMENT_TOL = 1e-6


class ObserverDesign(Record):
    L: np.ndarray  # n x 1 innovation gain
    desired_poles: np.ndarray
    placed_poles: np.ndarray
    placement_error: float


def default_poles(A, n):
    """Real, unit-spaced targets from -(a0+n-1) to -a0, a0 = 1.5 |abscissa of A|.

    Keeps the observer strictly faster than the slowest loop mode.
    """
    a0 = 1.5 * abs(spectral_abscissa(A))
    return np.array([-(a0 + n - 1 - i) for i in range(n)], dtype=complex)


def design_gain(design, B, desired_poles=None) -> ObserverDesign:
    """Place sigma(Fbar + (B+L) Hbar) at ``desired_poles`` and recover L.

    Ltilde = B + L takes one PBH pencil row [pI - Fbar; -Hbar] per target
    (``numerics.place_poles_dual``); with one output it is unique.

    Parameters
    ----------
    design : AttackDesign
        Supplies the observable pair (Fbar, Hbar).
    B : (n, 1) array_like
        Closed-loop input column.
    desired_poles : optional length-n conjugate-closed sequence, Re < 0
        Defaults to :func:`default_poles` on Fbar's ambient loop.

    Raises
    ------
    ValidationError
        If ``desired_poles`` has the wrong size, a non-finite entry or a real
        part >= 0, or is not closed under conjugation.
    SynthesisError
        If the recomputed spectrum misses the target multiset by more than
        1e-6; the message carries the design's observability margin.
    """
    B = np.asarray(B, dtype=float).reshape(-1, 1)
    n = design.Fbar.shape[0]
    if desired_poles is None:
        desired_poles = default_poles(design.Fbar - B @ design.Hbar, n)
    desired_poles = np.asarray(desired_poles, dtype=complex).reshape(-1)
    if desired_poles.shape != (n,):
        raise ValidationError("expected %d poles" % n, field="desired_poles")
    if not (np.isfinite(desired_poles).all() and (desired_poles.real < 0).all()):
        raise ValidationError(
            "all desired poles need to be finite with strictly negative real parts",
            field="desired_poles",
        )

    try:
        Ltilde = place_poles_dual(design.Fbar, design.Hbar, desired_poles)
    except ValueError as exc:  # targets not closed under conjugation
        raise ValidationError(str(exc), field="desired_poles") from None
    obs = gain_from_vector(design, B, Ltilde - B, desired_poles)
    if obs.placement_error > PLACEMENT_TOL:
        raise SynthesisError(
            "placed spectrum misses target by %.3e (> %.1e); observability "
            "margin %.3e"
            % (obs.placement_error, PLACEMENT_TOL, design.observability_margin)
        )
    return obs


def gain_from_vector(design, B, L, desired_poles=None) -> ObserverDesign:
    """Rebuild an ObserverDesign from a stored gain vector, verbatim.

    Recomputes the placed spectrum and the placement error against
    ``desired_poles`` (taken to be the placed spectrum itself when omitted),
    so a reloaded gain reports the same diagnostics as a fresh design.
    """
    B = np.asarray(B, dtype=float).reshape(-1, 1)
    L = np.array(L, dtype=float).reshape(-1, 1)
    placed, _ = eig(design.Fbar + (B + L) @ design.Hbar)
    if desired_poles is None:
        desired_poles = placed.copy()
    desired_poles = np.asarray(desired_poles, dtype=complex).reshape(-1)
    err = spectrum_distance(placed, desired_poles)
    L.setflags(write=False)
    return ObserverDesign(
        L=L,
        desired_poles=desired_poles,
        placed_poles=placed,
        placement_error=float(err),
    )


class AugmentedJacobian(Record):
    """Origin Jacobian of the coupled (z, e) system and its triangular twin."""

    J_phi: np.ndarray
    J_tilde: np.ndarray
    T: np.ndarray


def augmented_jacobian(closed_loop, design, obs) -> AugmentedJacobian:
    """Assemble J_phi (coupled (z,e) coordinates) and J_tilde ((z, zhat)).

    The integer change of coordinates T = [[I,0],[I,I]] maps one to the
    other, making J_tilde block upper-triangular with diagonal blocks A and
    Fbar + (B+L) Hbar; hence the augmented spectrum is exactly the union of
    the loop spectrum and the placed observer spectrum.
    """
    n = closed_loop.n
    A, B = closed_loop.A, closed_loop.B
    Fbar, Hbar = design.Fbar, design.Hbar
    L = obs.L
    BH = B @ Hbar
    LH = L @ Hbar
    BLH = (B + L) @ Hbar

    J_phi = np.zeros((2 * n, 2 * n))
    J_phi[:n, :n] = Fbar
    J_phi[:n, n:] = BH
    J_phi[n:, :n] = BLH
    J_phi[n:, n:] = Fbar + LH

    J_tilde = np.zeros((2 * n, 2 * n))
    J_tilde[:n, :n] = A
    J_tilde[:n, n:] = BH
    J_tilde[n:, n:] = Fbar + BLH

    T = np.block([[np.eye(n), np.zeros((n, n))], [np.eye(n), np.eye(n)]])
    for M in (J_phi, J_tilde, T):
        M.setflags(write=False)
    return AugmentedJacobian(J_phi=J_phi, J_tilde=J_tilde, T=T)


class CoupledField(Record):
    """Vector field of the coupled system over columns S = [z; zhat].

    In factor form sdot = J_tilde s + K (C s)**2, squared entrywise, where
    J_tilde is the (z, zhat) Jacobian of :func:`augmented_jacobian`. The
    quadratic output only reads the plant: Q = blockdiag(Q_p, 0), so with
    Q_p = U diag(lam) U' the forms are z'Qz = lam'(U' z_p)**2 and zhat'Q zhat
    = lam'(U' zhat_p)**2. C = blockdiag(U', U') takes those 2 n_p factor rows
    off the plant parts of z and zhat, and K = [u lam', v lam'] sends their
    squares along u = [b; -l] and v = [0; b + l]. Calling it maps a (2n, m)
    array, one state per column, to its (2n, m) derivative. The RK4 stepper
    builds its stage maps from the same three arrays, which are read-only.
    """

    J_tilde: np.ndarray
    C: np.ndarray
    K: np.ndarray

    def __call__(self, S):
        return self.J_tilde @ S + self.K @ np.square(self.C @ S)


def coupled_field(closed_loop, design, obs) -> CoupledField:
    """The coupled field of a design: the attacked loop and its observer,

        zdot    = A z + B (z'Qz + Hbar zhat)
        zhatdot = A zhat + B m(zhat) + L (m(zhat) - ytilde),

    with the output model m(zhat) = zhat'Q zhat + 2 Hbar zhat that the
    adversary fits to the corrupted measurement. The observer sees ytilde =
    z'Qz + Hbar zhat rebuilt from the same (z, zhat), which gives the closed
    form of :class:`CoupledField`. One ``eigh`` of Q_p gives its factors;
    every eigenpair is kept, so no rank decision is made.
    """
    n, n_p = closed_loop.n, closed_loop.n_p
    b = closed_loop.B[:, 0]
    l = obs.L[:, 0]
    u = np.concatenate([b, -l])
    v = np.concatenate([np.zeros(n), b + l])
    lam, U = np.linalg.eigh(closed_loop.Q_p)
    C = np.zeros((2 * n_p, 2 * n))
    C[:n_p, :n_p] = U.T
    C[n_p:, n : n + n_p] = U.T
    K = np.hstack([np.outer(u, lam), np.outer(v, lam)])
    for M in (C, K):
        M.setflags(write=False)
    return CoupledField(
        J_tilde=augmented_jacobian(closed_loop, design, obs).J_tilde, C=C, K=K
    )
