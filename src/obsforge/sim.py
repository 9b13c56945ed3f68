"""Fixed-step integration of the attacked loop coupled with its observer.

A single combined 2n-state vector field is integrated with classic RK4:

    zdot    = A z + B (z'Qz + Hbar zhat)
    zhatdot = A zhat + B m(zhat) + L (m(zhat) - ytilde)

with m(zhat) = zhat'Q zhat + 2 Hbar zhat and the corrupted measurement
ytilde = z'Qz + Hbar zhat rebuilt from the stage-consistent (z, zhat), not
held between steps. The field lives in :func:`observer.coupled_field`; its
linear part is the augmented Jacobian J_tilde. Fixed step keeps runs
deterministic bit-for-bit, which the golden tests rely on. The step grid
rule (dt, horizon and stride) is :func:`numerics._check_steps`, which the
CLI and the Monte Carlo checks apply as well.

In factor form the field is sdot = J_tilde s + K (C s)**2, squared
entrywise: the quadratic output reads only the plant, Q = blockdiag(Q_p,
0), so both forms z'Qz and zhat'Q zhat are sums of squares of 2 n_p factor
rows C s. Every RK4 stage point is then a fixed linear map of the state and
the squared factor rows of the earlier stages, and so is the step result;
:func:`_stage_maps` multiplies the tableau out into these maps once per
run. A step is three small products that write the factor rows of stages
2 to 4 into one buffer of states and squared factor rows, then one product
that gives the state's increment and the next factor rows. The state is
held component-major, one sample per column, so every array operation runs
over contiguous rows of length m; callers still pass and receive
(samples, 2n) rows.

Batch integration (used by the Monte Carlo checks) runs the same arithmetic
over a stack of initial conditions; per-sample blow-ups past
BATCH_NORM_LIMIT are recorded, not fatal. One sum of squares over all
samples screens each step for blow-up, and only a step that fails it
computes the per-sample norms. Records follow a schedule fixed before the
loop, so a step that records nothing costs only its products, their
squares and the screen. Each record goes to a fold, ``fold(rec, S)``, with
S the (2n, samples) state and NaN in the columns of samples that have
diverged: the default one fills the record array of :func:`integrate`,
and the Monte Carlo checks give :func:`integrate_batch` folds that keep
only O(samples) state.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DivergenceError, ValidationError
from .numerics import _check_steps
from .observer import coupled_field
from .report import Record, Reported

__all__ = [
    "Trajectory",
    "DecayFit",
    "integrate",
    "integrate_batch",
    "fit_decay",
    "trajectory_to_csv",
    "write_gnuplot_stub",
]

DEFAULT_DT = 1e-3
DEFAULT_T = 5.0
#: relative slack of the envelope fit_decay fits
FIT_SLACK = 0.05
NORM_LIMIT = 1e9
#: state norm past which a sample of integrate_batch counts as diverged
BATCH_NORM_LIMIT = 1e6


class Trajectory(Record):
    """Recorded run of the coupled system.

    ``e`` is stored as the exact float difference z_hat - z and ``y_tilde``
    as the exact sum y + a, so the bookkeeping identities hold bitwise.
    """

    times: np.ndarray
    z: np.ndarray
    z_hat: np.ndarray
    e: np.ndarray
    y: np.ndarray
    y_tilde: np.ndarray
    a: np.ndarray

    @property
    def e_norm(self):
        return np.linalg.norm(self.e, axis=1)

    @property
    def z_norm(self):
        return np.linalg.norm(self.z, axis=1)


def _stage_maps(field, dt):
    """RK4 for sdot = J s + K (C s)**2 as linear maps of X = [S; W1; ...; W4].

    With r = 2 n_p factor rows, W_j = (C S_j)**2 sits in rows 2n + r(j-1) to
    2n + rj - 1 of X. r rows suffice because Q = blockdiag(Q_p, 0): both
    quadratic forms read only the plant parts of z and zhat. Stage point k is
    S_k = R_k X and the step result is S' = R X, with K folded into the
    columns of W_k. Only the factor rows of a stage point are ever used, so
    the maps of stages 2, 3 and 4 come back as C R_k, cut to the leading
    columns they read: R_k reads S and W of the earlier stages only. The
    step map is [D; C(E + D)], E = [I 0], whose first rows hold the
    increment D = R - E alone: the caller adds S, as RK4 does, because a
    rounded 1 + O(dt) on the diagonal of R would perturb every step alike
    and compound over a run. Its last rows give the next state's factor
    rows C S' in the same product.
    """
    J, C, K = field.J_tilde, field.C, field.K
    w, r = K.shape
    E = np.eye(w, w + 4 * r)  # X -> S

    def slope(R, j):  # the field at S_j = R X, which has W_j in X
        Kj = J @ R
        Kj[:, w + r * j : w + r * (j + 1)] += K
        return Kj

    k1 = slope(E, 0)
    R2 = E + 0.5 * dt * k1
    k2 = slope(R2, 1)
    R3 = E + 0.5 * dt * k2
    k3 = slope(R3, 2)
    R4 = E + dt * k3
    k4 = slope(R4, 3)
    D = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    cut = [C @ M[:, : w + r * j] for j, M in enumerate((R2, R3, R4), start=1)]
    return cut + [np.vstack([D, C @ (E + D)])]


def _record_fold(out):
    """The default fold: each record's rows into ``out``."""

    def fold(rec, S):
        out[rec] = S.T

    return fold


def _rk4_batch(field, S0, dt, n_steps, stride, norm_limit, fold=None):
    """Shared RK4 core.

    Takes S0 as (n_samples, 2n) rows and steps them component-major, one
    state per column, in the buffer X = [S; W1; W2; W3; W4] of the states
    and the squared factor rows of the four stages. A step is three
    products with the stage maps of :func:`_stage_maps`, each written
    straight into its W_j rows of X and squared there, then one product
    with the step map, which gives the state's increment and the next
    state's factor rows together; their squares are the next W1. The
    products are the maps' bound ``ndarray.dot`` methods: the BLAS routine
    of ``np.dot`` on the same operands, without numpy's function dispatch.

    Divergence is screened once a step by the sum of squares of all of S,
    the ``dot`` of S's flat view with itself: if it is at most
    (norm_limit / 2)**2, clamped to the largest double, no column's norm
    can pass the limit, and NaN or inf fail the comparison.
    Only a failed screen computes the per-column norms that decide which
    samples blew up, so the screen changes no blow-up time and no record.
    Those norms are scaled (``np.hypot.reduce``), so a column counts as
    diverged when its norm passes the limit or is not finite, also for
    limits whose square leaves double range. A diverged sample's column
    of X is zeroed, so its norm stays 0 and never trips the limit again.
    Records follow a schedule fixed before the loop: an iterator gives the
    step of the next record.

    ``fold(rec, S)`` runs at record 0 (the initial state) and at every
    scheduled record, in order. S is the (2n, n_samples) state, one sample
    per column, with NaN in the column of every sample that has diverged:
    the stepper's own buffer while every sample lives, a masked copy after
    the first blow-up. Record 0 is the start as given, non-finite entries
    included. A fold reads S during the call, writes nothing to it and
    keeps no reference. Without a fold the default one fills the record
    array.

    Returns (times, states, blowup_times). states has shape
    (n_records, n_samples, 2n) without a fold, entries after a sample's
    divergence NaN, and is None with one. blowup_times holds the first
    instant a sample's norm exceeded the limit (NaN for samples that
    stayed finite).
    """
    m, w = S0.shape
    r = field.K.shape[1]
    rec_idx = list(range(0, n_steps + 1, stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    out = None
    if fold is None:
        out = np.empty((len(rec_idx), m, w))
        fold = _record_fold(out)
    blowup = np.full(m, np.nan)
    all_alive = True
    # a square past double range would let inf pass; the largest double fails it
    safe = min(0.25 * norm_limit * norm_limit, np.finfo(float).max)
    schedule = iter(enumerate(rec_idx[1:], start=1))  # (record, step); step 0 ends it
    rec, rec_step = next(schedule, (0, 0))

    M2, M3, M4, step = _stage_maps(field, dt)
    X = np.empty((w + 4 * r, m))
    S = X[:w]
    W1, W2, W3, W4 = (X[w + r * j : w + r * (j + 1)] for j in range(4))
    X2, X3, X4 = (X[: M.shape[1]] for M in (M2, M3, M4))
    G = np.empty((w + r, m))  # [D X; C S']
    D, CS = G[:w], G[w:]
    flat = X.reshape(-1)[: w * m]  # S as one row, for the screen's sum of squares
    dot2, dot3, dot4, dot_step, sumsq = M2.dot, M3.dot, M4.dot, step.dot, flat.dot
    square = np.square

    S[:] = S0.T
    fold(0, S)
    with np.errstate(over="ignore", invalid="ignore"):
        field.C.dot(S, out=W1)
        square(W1, out=W1)
        for k in range(1, n_steps + 1):
            dot2(X2, out=W2)
            square(W2, out=W2)
            dot3(X3, out=W3)
            square(W3, out=W3)
            dot4(X4, out=W4)
            square(W4, out=W4)
            dot_step(X, out=G)
            S += D
            square(CS, out=W1)

            if not sumsq(flat) <= safe:
                norms = np.hypot.reduce(S, axis=0)  # no square to overflow
                bad = ~(norms <= norm_limit)  # catches inf and NaN too
                if bad.any():
                    blowup[bad] = k * dt
                    all_alive = False
                    X[:, bad] = 0.0  # keep the arithmetic finite for the survivors
            if k == rec_step:
                fold(rec, S if all_alive else np.where(np.isnan(blowup), S, np.nan))
                rec, rec_step = next(schedule, (0, 0))
    times = np.asarray(rec_idx, dtype=float) * dt
    return times, out, blowup


def _run(closed_loop, design, obs, Z0, Zh0, dt, T, stride, norm_limit, fold=None):
    """:func:`_rk4_batch` on the rows [Z0, Zh0] after the entries' shared checks."""
    n_steps = _check_steps(dt, T, stride)
    field = coupled_field(closed_loop, design, obs)
    S0 = np.concatenate([Z0, Zh0], axis=1)
    return _rk4_batch(field, S0, dt, n_steps, stride, norm_limit, fold)


def integrate(closed_loop, design, obs, z0, zhat0, dt=DEFAULT_DT, T=DEFAULT_T, stride=1):
    """Integrate one run and record every ``stride``-th step (plus the last).

    Raises DivergenceError carrying the blow-up time if the combined state
    norm exceeds 1e9.
    """
    n = closed_loop.n
    z0 = np.asarray(z0, dtype=float).reshape(1, -1)  # one row of a batch
    zhat0 = np.asarray(zhat0, dtype=float).reshape(1, -1)
    if z0.shape != (1, n) or zhat0.shape != (1, n):
        raise ValidationError(
            "initial states must have length %d" % n, field="z0/zhat0"
        )
    times, states, blowup = _run(closed_loop, design, obs, z0, zhat0, dt, T, stride, NORM_LIMIT)
    if np.isfinite(blowup[0]):
        raise DivergenceError(
            "state norm exceeded %.1e at t = %.6g s" % (NORM_LIMIT, blowup[0]),
            time=float(blowup[0]),
        )
    Z = states[:, 0, :n]
    Zh = states[:, 0, n:]
    y = np.einsum("ij,ij->i", Z @ closed_loop.Q, Z)
    a = Zh @ design.Hbar[0]
    traj = Trajectory(
        times=times,
        z=Z,
        z_hat=Zh,
        e=Zh - Z,
        y=y,
        y_tilde=y + a,
        a=a,
    )
    return traj


def integrate_batch(closed_loop, design, obs, z0_batch, zhat0_batch, fold, dt=DEFAULT_DT,
                    T=DEFAULT_T, stride=1):
    """Integrate a stack of initial conditions with shared arithmetic.

    Keeps no record: the stepper calls ``fold(rec, S)`` at the initial
    state and at every ``stride``-th step (plus the last) instead (see
    :func:`_rk4_batch`; S is (2n, n_samples), z above zhat, NaN in a
    diverged sample's column). Returns the blow-up times: the first
    instant a sample's norm passed BATCH_NORM_LIMIT, NaN for the samples
    that stayed below it. Each row gets the arithmetic of
    :func:`integrate`, but BLAS picks its kernel by a row's place in the
    batch, so a row's states may differ in the last ulps from its run in
    another batch: within 1e-15 absolute on states of order 1, whatever
    the batch width.
    """
    n = closed_loop.n
    Z0 = np.atleast_2d(np.asarray(z0_batch, dtype=float))
    Zh0 = np.atleast_2d(np.asarray(zhat0_batch, dtype=float))
    if Z0.shape != Zh0.shape or Z0.shape[1] != n:
        raise ValidationError(
            "batch shapes must match and have width %d" % n, field="z0_batch"
        )
    return _run(closed_loop, design, obs, Z0, Zh0, dt, T, stride, BATCH_NORM_LIMIT, fold)[2]


def fit_decay(traj, series="e"):
    """Exponential envelope fit of a trajectory norm.

    Least squares on the log of the chosen norm series over every record
    gives the rate alpha (minus the slope). The intercept is then raised by
    the smallest amount that makes the line an envelope within the relative
    slack FIT_SLACK, read at call time; for a clean exponential that
    adjustment is zero and kappa comes out at 1. A norm that reaches
    exactly zero is fitted on the records before it; ``DecayFit.window`` is
    the fitted span.

    Parameters
    ----------
    traj : Trajectory
    series : "e" for the estimation error norm, "z" for the state norm

    Returns
    -------
    DecayFit

    Raises
    ------
    ValidationError
        If the trajectory has no records, the norm vanishes at the first
        record, or fewer than two usable points remain (degenerate fit).
    """
    if series == "e":
        norms = traj.e_norm
    elif series == "z":
        norms = traj.z_norm
    else:
        raise ValidationError("must be 'e' or 'z', got %r" % (series,), field="series")
    t = traj.times
    if t.size == 0:
        raise ValidationError("the trajectory has no samples", field="window")
    if norms[0] == 0.0:
        raise ValidationError("norm vanishes at the first record", field="window")

    zeros = np.nonzero(norms == 0.0)[0]
    used = int(zeros[0]) if zeros.size else t.size  # the prefix before the first exact zero
    if used < 2:
        raise ValidationError(
            "degenerate fit: only %d usable sample(s) in window" % used, field="window"
        )

    tw = t[:used]
    if not np.sum(tw * tw) > 0.0:  # polyfit would scale its time column by this norm, 0
        raise ValidationError(
            "degenerate fit: the squares of the window's times underflow to 0", field="window"
        )
    logn = np.log(norms[:used])
    slope, intercept = np.polyfit(tw, logn, 1)
    predicted = slope * tw + intercept
    ss_res = float(np.sum((logn - predicted) ** 2))
    ss_tot = float(np.sum((logn - logn.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)

    # raise the line just enough to dominate the window within the slack
    excess = float(np.max(logn - predicted)) - np.log1p(FIT_SLACK)
    if excess > 0.0:
        intercept += excess

    e0 = norms[0]
    alpha = -float(slope)
    kappa = float(np.exp(intercept) / e0) if e0 > 0 else float(np.exp(intercept))
    return DecayFit(
        kappa=kappa,
        alpha=alpha,
        r_squared=r_squared,
        window=(float(tw[0]), float(tw[-1])),
        n_points=used,
        fit_slack=FIT_SLACK,
    )


class DecayFit(Reported):
    """Envelope norm(t) <= kappa exp(-alpha t) norm(0) (1 + fit_slack)."""

    kappa: float
    alpha: float
    r_squared: float
    window: tuple
    n_points: int
    fit_slack: float


def trajectory_to_csv(traj, path):
    """Write `t,z1..zn,zhat1..zhatn,e1..en,y,ytilde,a` rows at 17 significant digits."""
    n = traj.z.shape[1]
    header = ",".join(
        ["t"]
        + ["z%d" % (i + 1) for i in range(n)]
        + ["zhat%d" % (i + 1) for i in range(n)]
        + ["e%d" % (i + 1) for i in range(n)]
        + ["y", "ytilde", "a"]
    )
    table = np.column_stack(
        [traj.times, traj.z, traj.z_hat, traj.e, traj.y, traj.y_tilde, traj.a]
    )
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % tuple(r) for r in table.tolist())


def write_gnuplot_stub(csv_path, script_path, n):
    """Companion gnuplot script: states vs estimates, then the two norms."""
    csv_name = os.path.basename(str(csv_path))
    norm_z = " + ".join("$%d**2" % (2 + i) for i in range(n))
    norm_e = " + ".join("$%d**2" % (2 + 2 * n + i) for i in range(n))
    lines = [
        "# gnuplot script stub; run: gnuplot -persist %s" % os.path.basename(str(script_path)),
        "set datafile separator ','",
        "csv = '%s'" % csv_name,
        "set key outside",
        "set xlabel 't [s]'",
        "",
        "# states against their estimates",
        "plot \\",
    ]
    parts = []
    for i in range(n):
        parts.append("  csv using 1:%d with lines title 'z%d'" % (2 + i, i + 1))
        parts.append(
            "  csv using 1:%d with lines dashtype 2 title 'zhat%d'" % (2 + n + i, i + 1)
        )
    lines.append(", \\\n".join(parts))
    lines += [
        "",
        "pause -1 'press return for the norm plot'",
        "set logscale y",
        "set ylabel 'norm'",
        "plot \\",
        "  csv using 1:(sqrt(%s)) with lines title '||z||', \\" % norm_z,
        "  csv using 1:(sqrt(%s)) with lines title '||e||'" % norm_e,
    ]
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
