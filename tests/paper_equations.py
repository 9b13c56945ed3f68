"""The paper's equations written out one at a time, as oracles for the tests.

The package evaluates the attacked loop and its observer as one coupled
field (``obsforge.observer.coupled_field``) and scores projection directions
in one array pass (``obsforge.attack._clearances``). The functions here are
the same maths in the paper's own form, one equation or one subspace at a
time, so the tests can hold the package's closed forms against them.
"""

import numpy as np


def output(closed_loop, z):
    """True sensor value h(z) = z'Qz; depends on the plant substate only."""
    z = np.asarray(z, dtype=float)
    return float(z @ closed_loop.Q @ z)


def attack_signal(design, zhat):
    """Scalar attack value a(zhat) = Hbar zhat = 2 pi' Q_p zhat_p."""
    zhat = np.asarray(zhat, dtype=float)
    return float(design.Hbar[0] @ zhat)


def plant_rhs(closed_loop, design, z, zhat):
    """Attacked loop: dz/dt = A z + B (z'Qz + a(zhat))."""
    z = np.asarray(z, dtype=float)
    zhat = np.asarray(zhat, dtype=float)
    a = float(design.Hbar[0] @ zhat)
    return closed_loop.A @ z + closed_loop.B[:, 0] * (z @ closed_loop.Q @ z + a)


def observer_rhs(closed_loop, design, obs, zhat, ytilde):
    """Observer: dzhat/dt = A zhat + B m(zhat) + L (m(zhat) - ytilde).

    m(zhat) = zhat'Q zhat + 2 Hbar zhat is the output model the adversary
    fits to the corrupted measurement; the factor 2 comes from the injected
    attack showing up both in the measurement and in the model gradient.
    """
    zhat = np.asarray(zhat, dtype=float)
    m = zhat @ closed_loop.Q @ zhat + 2.0 * float(design.Hbar[0] @ zhat)
    return (
        closed_loop.A @ zhat
        + closed_loop.B[:, 0] * m
        + obs.L[:, 0] * (m - float(ytilde))
    )


def error_rhs(closed_loop, design, obs, z, e):
    """Estimation error: de/dt = (Fbar+L Hbar) e + (B+L) Hbar z + (B+L)(2z'Qe + e'Qe).

    Algebraically identical to observer_rhs - plant_rhs under zhat = z + e
    and a consistent corrupted measurement; the subtraction-free form keeps
    the linear error matrix Fbar + L Hbar explicit.
    """
    z = np.asarray(z, dtype=float)
    e = np.asarray(e, dtype=float)
    BL = closed_loop.B[:, 0] + obs.L[:, 0]
    lin = (design.Fbar + obs.L @ design.Hbar) @ e
    return (
        lin
        + BL * float(design.Hbar[0] @ z)
        + BL * (2.0 * (z @ closed_loop.Q @ e) + e @ closed_loop.Q @ e)
    )


def clearance(sub, pi):
    """Angular clearance of pi from a ForbiddenSubspace: max over normals of |cos(pi, v)|.

    pi lies IN the subspace exactly when it is orthogonal to every normal,
    so the max is the right aggregation. A zero pi has clearance 0.0.
    """
    pi = np.asarray(pi, dtype=float)
    if not pi.any():
        return 0.0
    pi = pi / np.abs(pi).max()  # the clearance is scale-invariant; a huge pi must not overflow
    pi = pi / np.linalg.norm(pi)
    return max(abs(float(pi @ v)) / np.linalg.norm(v) for v in sub.normals)
