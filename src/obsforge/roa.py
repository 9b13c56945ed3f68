"""Region-of-attraction certificate for the coupled attack/observer loop.

Two Lyapunov solves (one for the attacked loop matrix Fbar, one for the
error matrix Fbar + L Hbar) combine into V(z, e) = z'P1 z + e'P2 e. Norm
bounds on the cross coupling and the quadratic nonlinearity give constants
c1, c3, c4; whenever c2 = c1 - c3 > 0 the sublevel set

    Omega_c = { (z, e) : V <= ((c2 - delta)/c4)^2 }

is certified: every trajectory starting inside satisfies Vdot <= -delta V.
:func:`certify` is the one certificate entry. The bound is conservative
and can be infeasible (c2 <= 0) for aggressive observer gains or attack
scalings; infeasibility is reported as data, never raised. Monte Carlo helpers verify the decay inequality inside Omega_c and
plain convergence from a box of initial conditions; they run their samples
in chunks, one per usable CPU, with bit-identical reports.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .numerics import (
    _asymmetry_bound,
    is_hurwitz,
    solve_lyapunov,
    spectral_abscissa,
    spectral_norm,
)
from .observer import coupled_field
from .report import Reported
from .sim import _check_steps, integrate_batch

__all__ = [
    "RoaEstimate",
    "DecayReport",
    "BoxReport",
    "verify_decay",
    "monte_carlo_box_check",
    "certify",
]

TOL_DECAY = 1e-9
DEFAULT_DELTA_FRACTION = 0.1
#: state norm past which a Monte Carlo sample counts as diverged
BLOWUP_NORM = 1e6
#: narrowest sample chunk the Monte Carlo checks hand to a core of its own
_MIN_CHUNK = 128


@dataclass(frozen=True)
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


def _check_index(value, field):
    """Raise ValidationError naming ``field`` unless value is a nonnegative integer."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValidationError("must be a nonnegative integer, got %r" % (value,), field=field)


def _seeded_rows(seed, n_samples, width, draw, start=0):
    """(n_samples, width) rows; row j is ``draw(np.random.default_rng((seed, start + j)))``.

    One generator per sample, derived from the master seed by index, so each
    drawn row is independent of how many are drawn, of the chunk it is drawn
    in and of scheduling. So are the states integrated from it, as long as
    the chunks are cut at multiples of 8 samples (see :func:`_chunk_bounds`).
    """
    rows = np.empty((n_samples, width))
    for j in range(n_samples):
        rows[j] = draw(np.random.default_rng((seed, start + j)))
    return rows


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_bounds(n_samples):
    """Bounds ``[0, b_1, ..., n_samples]`` of the sample chunks of a Monte Carlo check.

    One chunk per usable CPU, each at least ``_MIN_CHUNK`` samples wide, so
    fewer when the samples are few. Every inner bound is a multiple of 8:
    BLAS gives a column of a chunk that starts at a multiple of 8 the kernel
    it has in the full-width batch, so every chunk reproduces the full-width
    bits (measured with OpenBLAS 0.3.31; cuts at 4 or 250 samples differ
    in the last ulps). Without ``os.fork``, or while other threads run, a
    fork is unsafe or impossible and all samples form one chunk.
    """
    k = max(1, min(_usable_cpus(), n_samples // _MIN_CHUNK))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        k = 1
    return [8 * (i * n_samples // (8 * k)) for i in range(k)] + [n_samples]


def _run_chunk_child(run, lo, hi, fd, inherited):
    """A forked child's whole life: ``run(lo, hi)``, its arrays or its exception
    pickled to ``fd``, then ``os._exit``; it never returns to the caller."""
    code = 1
    try:
        for fh in inherited:
            fh.close()
        try:
            data = pickle.dumps((True, run(lo, hi)))
        except BaseException as exc:  # handed to the parent, which re-raises it
            data = pickle.dumps((False, exc))
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _run_chunks(run, n_samples, name):
    """The per-sample arrays of ``run(lo, hi)`` over all samples, chunk by chunk.

    ``run`` returns a tuple of arrays with one entry per sample of [lo, hi).
    This process runs the first chunk of :func:`_chunk_bounds`; each other
    chunk runs in a forked child that sends its arrays back pickled over a
    pipe. The chunks are concatenated in order. A child's exception is
    raised here, and a child that ends without a result raises RuntimeError
    naming its chunk. Every child is reaped before this returns or raises;
    on an error the ones still running are killed first.
    """
    import logging  # here, so that importing obsforge does not load it

    bounds = _chunk_bounds(n_samples)
    logging.getLogger(__name__).debug("%s: sample chunks %s", name, bounds)
    if len(bounds) == 2:
        return run(0, n_samples)
    children = {}  # pid -> (read end, (lo, hi)), for every child not reaped yet
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _run_chunk_child(run, lo, hi, w, [fh for fh, _ in children.values()])
            os.close(w)
            children[pid] = (os.fdopen(r, "rb"), (lo, hi))
        parts = [run(bounds[0], bounds[1])]
        for pid in list(children):
            fh, (lo, hi) = children[pid]
            data = fh.read()
            fh.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                raise RuntimeError(
                    "%s: sample chunk [%d, %d) ended without a result (%s)"
                    % (name, lo, hi, "signal %d" % -code if code < 0 else "exit status %d" % code)
                )
            ok, value = pickle.loads(data)  # written by this process's own child
            if not ok:
                raise value
            parts.append(value)
    finally:
        for pid, (fh, _) in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return tuple(np.concatenate(columns) for columns in zip(*parts))


def _per_sample(**columns):
    """One dict per sample, ``index`` first, then the columns in the given order."""
    names = tuple(columns)
    return tuple(
        {"index": i, **dict(zip(names, row))}
        for i, row in enumerate(zip(*columns.values()))
    )


@dataclass(frozen=True)
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

    @property
    def all_satisfied(self):
        return self.fraction_satisfied == 1.0


def verify_decay(
    closed_loop,
    design,
    obs,
    estimate,
    n_samples=200,
    seed=7,
    dt=1e-3,
    horizon=2.0,
    stride=10,
    tol_decay=TOL_DECAY,
):
    """Empirically check Vdot <= -delta V + tol V inside the certified set.

    Initial (z0, e0) pairs are drawn uniformly in Omega_c (per-sample
    generators derived from the master seed by index, so the report is
    scheduling independent), trajectories integrated, and Vdot evaluated
    analytically from the vector field at every recorded instant. The
    certificate guarantees satisfaction; a violation means a tolerance or
    implementation defect, which is exactly what this check hunts.
    Per-sample divergence (norm above :data:`BLOWUP_NORM`) is recorded in
    the report, never raised.
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
    _check_steps(dt, horizon, stride, "horizon")  # before any chunk runs or forks
    n = closed_loop.n
    P = np.zeros((2 * n, 2 * n))
    P[:n, :n] = estimate.P1
    P[n:, n:] = estimate.P2

    evals, evecs = np.linalg.eigh(P)
    sqrt_evals = np.sqrt(evals)
    field = coupled_field(closed_loop, design, obs)
    bound = estimate.level * (1.0 + 1e-9)

    def run(lo, hi):
        samples = _seeded_rows(
            seed, hi - lo, 2 * n,
            lambda rng: _sample_in_ellipsoid(evecs, sqrt_evals, estimate.level, rng),
            start=lo,
        )
        Z0 = samples[:, :n]
        E0 = samples[:, n:]

        # per sample: the running largest margin (Vdot + delta V)/V over the
        # finite V > 0 records (-inf before any), whether there was such a
        # record, whether every finite V stayed in the set, and V at t = 0
        margin = np.full(hi - lo, -math.inf)
        any_pos = np.zeros(hi - lo, dtype=bool)
        inside = np.ones(hi - lo, dtype=bool)
        V0 = np.empty(hi - lo)

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

        _, _, _, blowup = integrate_batch(
            closed_loop, design, obs, Z0, Z0 + E0, dt=dt, T=horizon, stride=stride,
            norm_limit=BLOWUP_NORM, fold=fold,
        )
        return margin, any_pos, inside, V0, blowup

    margin, any_pos, inside, V0, blowup = _run_chunks(run, n_samples, "verify_decay")

    # the margin should stay <= tol_decay, and is 0.0 without any V > 0 record
    diverged = np.isfinite(blowup)
    margin = np.where(any_pos, margin, 0.0)
    inside &= ~diverged
    satisfied = ~diverged & (margin <= tol_decay)
    return DecayReport(
        n_samples=n_samples,
        seed=seed,
        delta=estimate.delta,
        level=estimate.level,
        tol_decay=tol_decay,
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


@dataclass(frozen=True)
class BoxReport(Reported):
    n_samples: int
    seed: int
    box_halfwidth: float
    horizon: float
    fraction_converged: float
    max_transient_norm: float
    n_diverged: int
    per_sample: tuple

    @property
    def all_converged(self):
        return self.fraction_converged == 1.0


def monte_carlo_box_check(
    closed_loop,
    design,
    obs,
    box_halfwidth=0.5,
    n_samples=500,
    horizon=5.0,
    seed=0,
    dt=1e-3,
    stride=50,
):
    """Sample (z0, zhat0) uniformly in a box and check convergence by horizon.

    Convergence means ||(z, e)(T)|| < 1e-3 ||(z, e)(0)|| (a zero initial
    state must stay exactly zero). Per-sample divergence (norm above
    :data:`BLOWUP_NORM`) is recorded in the report, never raised.
    """
    n = closed_loop.n
    w = float(box_halfwidth)
    if w < 0:
        raise ValidationError("must be nonnegative", field="box_halfwidth")
    if not math.isfinite(2.0 * w):  # the width of the box numpy draws from
        raise ValidationError("box width must be finite, got %r" % (w,), field="box_halfwidth")
    _check_index(n_samples, "n_samples")
    _check_index(seed, "seed")
    _check_steps(dt, horizon, stride, "horizon")  # before any chunk runs or forks

    def run(lo, hi):
        states = _seeded_rows(
            seed, hi - lo, 2 * n, lambda rng: rng.uniform(-w, w, 2 * n), start=lo
        )
        Z0, Zh0 = states[:, :n], states[:, n:]

        # per sample: the norm of (z, e) at t = 0, its running peak over the
        # records (NaN ones never win) and its value at the last record
        initial = np.empty(hi - lo)
        peak = np.full(hi - lo, math.nan)
        final = np.empty(hi - lo)

        def fold(rec, S):
            # (samples, 2n) rows, as a record holds them, so the sums round alike
            rows = S.T.copy()
            Z, E = rows[:, :n], rows[:, n:] - rows[:, :n]
            norm = np.sqrt(np.einsum("si,si->s", Z, Z) + np.einsum("si,si->s", E, E))
            if rec == 0:
                initial[:] = norm
            np.fmax(peak, norm, out=peak)
            final[:] = norm

        _, _, _, blowup = integrate_batch(
            closed_loop, design, obs, Z0, Zh0, dt=dt, T=horizon, stride=stride,
            norm_limit=BLOWUP_NORM, fold=fold,
        )
        return initial, peak, final, blowup

    initial, peak, final, blowup = _run_chunks(run, n_samples, "monte_carlo_box_check")

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
