"""Region-of-attraction certificate for the coupled attack/observer loop.

Two Lyapunov solves (one for the attacked loop matrix Fbar, one for the
error matrix Fbar + L Hbar) combine into V(z, e) = z'P1 z + e'P2 e. Norm
bounds on the cross coupling and the quadratic nonlinearity give constants
c1, c3, c4; whenever c2 = c1 - c3 > 0 the sublevel set

    Omega_c = { (z, e) : V <= ((c2 - delta)/c4)^2 }

is certified: every trajectory starting inside satisfies Vdot <= -delta V.
:func:`certify` is the one certificate entry. The bound is conservative
and can be infeasible (c2 <= 0) for aggressive observer gains or attack
scalings; infeasibility is reported as data, never raised. Monte Carlo
helpers verify the decay inequality inside Omega_c and plain convergence
from a box of initial conditions; each integrates all of its samples as
one batch in the calling process, on a step grid whose stride (and, for
the decay check, horizon) is a module constant read at call time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ValidationError
from .numerics import (
    _asymmetry_bound,
    _check_index,
    _check_steps,
    is_hurwitz,
    solve_lyapunov,
    spectral_abscissa,
    spectral_norm,
)
from .observer import coupled_field
from .report import Reported, _log
from .sim import integrate_batch

__all__ = [
    "RoaEstimate",
    "DecayReport",
    "BoxReport",
    "verify_decay",
    "monte_carlo_box_check",
    "certify",
]

#: largest decay margin (Vdot + delta V)/V a verify_decay sample may show
TOL_DECAY = 1e-9
#: verify_decay's horizon and record stride, and monte_carlo_box_check's stride
DECAY_HORIZON = 2.0
DECAY_STRIDE = 10
BOX_STRIDE = 50
DEFAULT_DELTA_FRACTION = 0.1


class RoaEstimate(Reported):
    """Certificate data from :func:`certify`; ``feasible`` is c2 > 0 with every
    constant and the level inside double range, never an exception."""

    P1: np.ndarray
    P2: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    c1: float
    c3: float
    c4: float
    c2: float
    feasible: bool
    delta: float | None = None
    level: float | None = None
    notes: tuple = ()


def _weight(W, n, field):
    """W as a float array (the identity when None) and its symmetric part.

    Raises ValidationError naming ``field`` unless W is (n, n), finite,
    symmetric and positive definite.
    """
    W = np.eye(n) if W is None else np.asarray(W, dtype=float)
    if W.shape != (n, n):
        raise ValidationError("expected shape (%d, %d)" % (n, n), field=field)
    if not np.all(np.isfinite(W)):
        raise ValidationError("must have finite entries", field=field)
    if np.abs(W - W.T).max() > _asymmetry_bound(W):
        raise ValidationError("must be symmetric", field=field)
    if np.linalg.eigvalsh(W)[0] <= 0:
        raise ValidationError("must be positive definite", field=field)
    return W, 0.5 * W + 0.5 * W.T  # halves first: no overflow near the largest double


def _sample_in_ellipsoid(evecs, sqrt_evals, level, rng):
    """One point uniform in {x : x'Px <= level}, given P = V diag(s^2) V'.

    Gaussian direction, radius u^(1/d), then the P^(-1/2) map built from
    the eigenvectors V and square-root eigenvalues s of P; exact for
    quadratic sublevel sets, no rejections needed.
    """
    d = evecs.shape[0]
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    r = rng.uniform() ** (1.0 / d)
    x = evecs @ ((evecs.T @ g) / sqrt_evals)
    return math.sqrt(level) * r * x


def _integrate_seeded(closed_loop, design, obs, seed, n_samples, draw, fold, dt, horizon,
                      stride):
    """:func:`integrate_batch` over n_samples drawn rows (z0, zhat0); the blow-up times.

    Row j is ``draw(np.random.default_rng((seed, j)))``: one generator per
    sample, derived from the master seed by index, so each drawn row is
    independent of how many are drawn. The generators are built as
    ``default_rng`` builds them, minus its argument checks; numpy.random is
    imported here, on first use.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    n = closed_loop.n
    rows = np.empty((n_samples, 2 * n))
    for j in range(n_samples):
        rows[j] = draw(Generator(PCG64(SeedSequence((seed, j)))))
    return integrate_batch(
        closed_loop, design, obs, z0_batch=rows[:, :n], zhat0_batch=rows[:, n:], fold=fold,
        dt=dt, T=horizon, stride=stride,
    )


def _per_sample(**columns):
    """One dict per sample, ``index`` first, then the columns in the given order."""
    names = tuple(columns)
    return tuple(
        {"index": i, **dict(zip(names, row))}
        for i, row in enumerate(zip(*columns.values()))
    )


class DecayReport(Reported):
    n_samples: int
    seed: int
    delta: float
    level: float
    tol_decay: float
    fraction_satisfied: float
    worst_margin: float
    all_inside: bool
    n_diverged: int
    per_sample: tuple


def verify_decay(
    closed_loop,
    design,
    obs,
    estimate,
    n_samples=200,
    seed=7,
    dt=1e-3,
):
    """Empirically check Vdot <= -delta V + TOL_DECAY V inside the certified set.

    Initial (z0, e0) pairs are drawn uniformly in Omega_c (per-sample
    generators derived from the master seed by index, so the report is
    scheduling independent), trajectories integrated for DECAY_HORIZON,
    and Vdot evaluated analytically from the vector field at every
    DECAY_STRIDE-th step. The certificate guarantees satisfaction; a
    violation means a tolerance or implementation defect, which is exactly
    what this check hunts. TOL_DECAY, DECAY_HORIZON and DECAY_STRIDE are
    read at call time. Per-sample divergence (norm above
    :data:`sim.BATCH_NORM_LIMIT`) is recorded in the report, never raised.
    """
    if not estimate.feasible or estimate.level is None or estimate.delta is None:
        raise ValidationError(
            "need a feasible estimate with delta and level set "
            "(as certify returns for a feasible certificate)",
            field="estimate",
        )
    if not math.isfinite(estimate.level):
        raise ValidationError(
            "sampling an infinite level set is undefined (c4 = 0 case)",
            field="estimate",
        )
    _check_index(n_samples, "n_samples")
    _check_index(seed, "seed")
    _check_steps(dt, DECAY_HORIZON, DECAY_STRIDE, "horizon")  # before any sample is drawn
    _log(__name__, "debug", "verify_decay: %d samples", n_samples)
    n = closed_loop.n
    P = np.zeros((2 * n, 2 * n))
    P[:n, :n] = estimate.P1
    P[n:, n:] = estimate.P2

    evals, evecs = np.linalg.eigh(P)
    sqrt_evals = np.sqrt(evals)
    field = coupled_field(closed_loop, design, obs)
    bound = estimate.level * (1.0 + 1e-9)

    def draw(rng):  # (z, e) uniform in the set, as the row (z, zhat = z + e)
        x = _sample_in_ellipsoid(evecs, sqrt_evals, estimate.level, rng)
        x[n:] += x[:n]
        return x

    # per sample: the running largest margin (Vdot + delta V)/V over the
    # finite V > 0 records (-inf before any), whether there was such a
    # record, whether every finite V stayed in the set, and V at t = 0
    margin = np.full(n_samples, -math.inf)
    any_pos = np.zeros(n_samples, dtype=bool)
    inside = np.ones(n_samples, dtype=bool)
    V0 = np.empty(n_samples)

    def fold(rec, S):
        # analytic Vdot = 2 x'P xdot with x = (z, e) at this record
        x = S.copy()
        xdot = field(x)
        x[n:] -= x[:n]
        xdot[n:] -= xdot[:n]
        Px = P @ x
        V = np.einsum("ir,ir->r", Px, x)
        Vdot = 2.0 * np.einsum("ir,ir->r", Px, xdot)
        finite = np.isfinite(V)
        pos = finite & (V > 0)
        ratios = np.divide(Vdot + estimate.delta * V, V, out=np.full(V.shape, -math.inf), where=pos)
        np.maximum(margin, ratios, out=margin)  # NaN sticks, as under max
        np.logical_or(any_pos, pos, out=any_pos)
        np.logical_and(inside, ~finite | (V <= bound), out=inside)
        if rec == 0:
            V0[:] = V

    blowup = _integrate_seeded(
        closed_loop, design, obs, seed, n_samples, draw, fold, dt, DECAY_HORIZON, DECAY_STRIDE
    )

    # the margin should stay <= TOL_DECAY, and is 0.0 without any V > 0 record
    diverged = np.isfinite(blowup)
    margin = np.where(any_pos, margin, 0.0)
    inside &= ~diverged
    satisfied = ~diverged & (margin <= TOL_DECAY)
    return DecayReport(
        n_samples=n_samples,
        seed=seed,
        delta=estimate.delta,
        level=estimate.level,
        tol_decay=TOL_DECAY,
        fraction_satisfied=int(satisfied.sum()) / n_samples if n_samples else 1.0,
        # NaN margins never win, as under Python's max
        worst_margin=float(np.fmax.reduce(margin, initial=-math.inf)) if n_samples else 0.0,
        all_inside=bool(inside.all()),
        n_diverged=int(diverged.sum()),
        per_sample=_per_sample(
            satisfied=satisfied.tolist(), margin=margin.tolist(),
            stayed_inside=inside.tolist(), diverged=diverged.tolist(),
            V0=V0.tolist(),
        ),
    )


class BoxReport(Reported):
    n_samples: int
    seed: int
    box_halfwidth: float
    horizon: float
    fraction_converged: float
    max_transient_norm: float
    n_diverged: int
    per_sample: tuple


def monte_carlo_box_check(
    closed_loop,
    design,
    obs,
    box_halfwidth=0.5,
    n_samples=500,
    horizon=5.0,
    seed=0,
    dt=1e-3,
):
    """Sample (z0, zhat0) uniformly in a box and check convergence by horizon.

    Convergence means ||(z, e)(T)|| < 1e-3 ||(z, e)(0)|| (a zero initial
    state must stay exactly zero); the norms are read every BOX_STRIDE-th
    step, a constant read at call time. Per-sample divergence (norm above
    :data:`sim.BATCH_NORM_LIMIT`) is recorded in the report, never raised.
    """
    n = closed_loop.n
    w = float(box_halfwidth)
    if w < 0:
        raise ValidationError("must be nonnegative", field="box_halfwidth")
    if not math.isfinite(2.0 * w):  # the width of the box numpy draws from
        raise ValidationError("box width must be finite, got %r" % (w,), field="box_halfwidth")
    _check_index(n_samples, "n_samples")
    _check_index(seed, "seed")
    _check_steps(dt, horizon, BOX_STRIDE, "horizon")  # before any sample is drawn
    _log(__name__, "debug", "monte_carlo_box_check: %d samples", n_samples)

    # per sample: the norm of (z, e) at t = 0, its running peak over the
    # records (NaN ones never win) and its value at the last record
    initial = np.empty(n_samples)
    peak = np.full(n_samples, math.nan)
    final = np.empty(n_samples)

    def fold(rec, S):
        # (samples, 2n) rows, as a record holds them, so the sums round alike
        rows = S.T.copy()
        Z, E = rows[:, :n], rows[:, n:] - rows[:, :n]
        norm = np.sqrt(np.einsum("si,si->s", Z, Z) + np.einsum("si,si->s", E, E))
        if rec == 0:
            initial[:] = norm
        np.fmax(peak, norm, out=peak)
        final[:] = norm

    blowup = _integrate_seeded(
        closed_loop, design, obs, seed, n_samples, lambda rng: rng.uniform(-w, w, 2 * n), fold,
        dt, horizon, BOX_STRIDE,
    )

    # a diverged sample's last record is NaN, so its final norm reads inf,
    # and so does its peak if no record is finite
    diverged = np.isfinite(blowup)
    final[~np.isfinite(final)] = math.inf
    converged = ~diverged & np.where(
        initial == 0.0, final == 0.0, final < 1e-3 * initial
    )
    peak[np.isnan(peak)] = math.inf
    per_sample = _per_sample(
        converged=converged.tolist(), initial_norm=initial.tolist(),
        final_norm=final.tolist(), peak_norm=peak.tolist(), diverged=diverged.tolist(),
        blowup_time=[t if div else None for t, div in zip(blowup.tolist(), diverged.tolist())],
    )
    return BoxReport(
        n_samples=n_samples,
        seed=seed,
        box_halfwidth=w,
        horizon=float(horizon),
        fraction_converged=int(converged.sum()) / n_samples if n_samples else 1.0,
        max_transient_norm=float(peak.max(initial=0.0)),
        n_diverged=int(diverged.sum()),
        per_sample=per_sample,
    )


def certify(closed_loop, design, obs, W1=None, W2=None, delta_fraction=DEFAULT_DELTA_FRACTION):
    """The certificate of the coupled loop; infeasibility comes back as data.

    P1 solves Fbar'P1 + P1 Fbar = -W1 for the attacked loop and P2 the same
    with W2 for the error matrix Fbar + L Hbar; the weights default to the
    identity. Both matrices must be Hurwitz; note the error matrix differs
    from the placement target Fbar + (B+L) Hbar, so placement alone does not
    guarantee it. Then c1 bounds the linear decay, c3 the (z, e) cross
    coupling (linear in the attack row Hbar, so it vanishes as gamma -> 0)
    and c4 the quadratic output nonlinearity. When c2 = c1 - c3 > 0 the
    decay margin is delta = delta_fraction * c2 and the certified sublevel
    value is ((c2 - delta)/c4)^2; c4 = 0 (no quadratic nonlinearity at all)
    makes the bound global, and the level is then the +inf sentinel with a
    note.

    Returns a RoaEstimate: feasible with delta and level filled in, or
    infeasible with notes explaining which requirement failed (c2 <= 0, a
    matrix not Hurwitz, a Lyapunov solve that fails its checks, or a
    constant or level past double range). A weight that is not an (n, n)
    finite symmetric positive definite matrix raises ValidationError naming
    W1 or W2, and a delta outside (0, c2) one naming delta.
    """
    n = closed_loop.n
    (W1, Y1), (W2, Y2) = _weight(W1, n, "W1"), _weight(W2, n, "W2")
    Fbar, Hbar, B = design.Fbar, design.Hbar, closed_loop.B
    FLH = Fbar + obs.L @ Hbar
    notes = ()
    if not is_hurwitz(Fbar):
        notes = ("Fbar is not Hurwitz (abscissa %.3e)" % spectral_abscissa(Fbar),)
    elif not is_hurwitz(FLH):
        notes = (
            "error matrix Fbar + L Hbar is not Hurwitz (abscissa %.3e); "
            "the certificate requires it even though pole placement targets "
            "Fbar + (B+L) Hbar" % spectral_abscissa(FLH),
        )
    else:
        try:
            P1, P2 = solve_lyapunov(Fbar, Y1), solve_lyapunov(FLH, Y2)
        except NumericError as exc:
            notes = (str(exc),)
    if notes:
        z, nan = np.zeros((n, n)), math.nan
        return RoaEstimate(P1=z, P2=z, W1=W1, W2=W2, c1=nan, c3=nan, c4=nan, c2=nan,
                           feasible=False, notes=notes)

    BL = B + obs.L
    eigvalsh = np.linalg.eigvalsh
    c1 = float(min(eigvalsh(Y1)[0], eigvalsh(Y2)[0])) / max(spectral_norm(P1), spectral_norm(P2))
    # numpy scalars, so that an overflow or a division by zero below raises
    # FloatingPointError; the numbers it cuts short stay NaN
    lmin1, lmin2 = eigvalsh(P1)[0], eigvalsh(P2)[0]
    c3 = c4 = c2 = delta = level = math.nan
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            c3 = (
                2.0 * spectral_norm(P1 @ B @ Hbar) + 2.0 * spectral_norm(Hbar.T @ BL.T @ P2)
            ) / np.sqrt(lmin1 * lmin2)
            c2 = float(c1 - c3)
            nQ = spectral_norm(closed_loop.Q)
            nP2BL = spectral_norm(P2 @ BL)
            c4 = (
                2.0 * spectral_norm(P1 @ B) * nQ / lmin1**1.5
                + 4.0 * nP2BL * nQ / (np.sqrt(lmin1) * lmin2)
                + 2.0 * nP2BL * nQ / lmin2**1.5
            )
            delta = float(delta_fraction * c2)
            level = float(((c2 - delta) / c4) ** 2) if c4 else math.inf
    except FloatingPointError:
        pass
    if not all(map(math.isfinite, (c1, c3, c4))):
        notes = (
            "certificate constants leave double range (c1 = %.6g, c3 = %.6g, "
            "c4 = %.6g); rescale the weights W1/W2" % (c1, c3, c4),
        )
    elif not c2 > 0.0:
        notes = (
            "c2 = c1 - c3 = %.6g <= 0: cross-coupling bound dominates; "
            "retune the observer gain or the weights W1/W2" % c2,
        )
    elif not 0.0 < delta < c2:
        raise ValidationError(
            "must lie strictly inside (0, c2) = (0, %.6g), got %.6g" % (c2, delta),
            field="delta",
        )
    elif math.isnan(level):
        notes = (
            "certified level ((c2 - delta)/c4)^2 leaves double range "
            "(c2 = %.6g, delta = %.6g, c4 = %.6g)" % (c2, delta, c4),
        )
    feasible = not notes
    if feasible and level == math.inf:
        notes = (
            "c4 = 0: no quadratic nonlinearity, the linear analysis is "
            "global and the sublevel bound degenerates to +inf",
        )
    return RoaEstimate(
        P1=P1, P2=P2, W1=W1, W2=W2, c1=float(c1), c3=float(c3), c4=float(c4), c2=c2,
        feasible=feasible, delta=delta if feasible else None,
        level=level if feasible else None, notes=notes,
    )
