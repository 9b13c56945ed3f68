"""Reference computations the benchmark checks obsforge's outputs against.

Nothing here calls obsforge. Each check takes plain arrays or parsed
reports and returns a list of problems (empty when the output is right):

* the coupled loop/observer field is written again from the equations in
  the ``sim`` module docstring and integrated with ``scipy.integrate.solve_ivp``
  at tight tolerance;
* observability is decided by the PBH test, stability and placement by
  ``np.linalg.eigvals``;
* the scaling bound and the certificate matrices come from
  ``scipy.linalg.solve_continuous_lyapunov`` (Bartels-Stewart), not from the
  program's Kronecker solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov
from scipy.optimize import linear_sum_assignment
from scipy.signal import place_poles

#: PBH margin (relative to the pair's norm) below which a pair counts as unobservable
PBH_TOL = 1e-8
#: the program's documented placement tolerance
PLACEMENT_TOL = 1e-6
#: the program's documented Lyapunov residual tolerance
LYAP_RESIDUAL_TOL = 1e-8
#: agreement asked of the program's matrices and constants with the reference solves
REL_TOL = 1e-7
#: RK4 at dt = 1e-3 against the tight solve_ivp run, relative to the initial norm
TRAJ_TOL = 2e-8
#: the same for a box sample's final norm, relative to that norm (about 1e-8 of the initial one)
FINAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# linear algebra references


def assemble(system):
    """(A, B, Q, n_p) of the closed loop, from a system dict of the JSON schema.

    A = [[A_p, B_p C_c], [0, A_c]], B = [B_p D_c; B_c], Q = blkdiag(Q_p, 0).
    """
    p, c = system["plant"], system["controller"]
    A_p, B_p, Q_p = (np.asarray(p[k], dtype=float) for k in ("A_p", "B_p", "Q_p"))
    A_c, B_c, C_c = (np.asarray(c[k], dtype=float) for k in ("A_c", "B_c", "C_c"))
    n_p, n_c = A_p.shape[0], A_c.shape[0]
    A = np.block([[A_p, B_p.reshape(-1, 1) @ C_c.reshape(1, -1)], [np.zeros((n_c, n_p)), A_c]])
    B = np.vstack([B_p.reshape(-1, 1) * float(c["D_c"]), B_c.reshape(-1, 1)])
    Q = np.zeros((n_p + n_c, n_p + n_c))
    Q[:n_p, :n_p] = Q_p
    return A, B, Q, n_p


def pbh_margin(F, H):
    """min over eigenvalues lam of F of sigma_min([lam I - F; H]), relative to ||[F; H]||."""
    F = np.asarray(F, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = F.shape[0]
    scale = max(np.linalg.norm(F, 2), np.linalg.norm(H, 2), 1e-300)
    return min(
        np.linalg.svd(np.vstack([lam * np.eye(n) - F, H]), compute_uv=False)[-1]
        for lam in np.linalg.eigvals(F)
    ) / scale


def pbh_observable(F, H):
    return bool(pbh_margin(F, H) > PBH_TOL)


def spectrum_gap(got, want):
    """Largest distance between two eigenvalue multisets after optimal matching."""
    cost = np.abs(np.asarray(got, dtype=complex)[:, None] - np.asarray(want, dtype=complex)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def lyapunov(A, W):
    """S with A'S + SA = -W, by Bartels-Stewart."""
    return solve_continuous_lyapunov(np.asarray(A, dtype=float).T, -np.asarray(W, dtype=float))


def lyapunov_residual(A, W):
    """Relative residual of the Bartels-Stewart solution: whether the equation is solvable to the program's tolerance."""
    S = lyapunov(A, W)
    return np.linalg.norm(A.T @ S + S @ A + W, 2) / np.linalg.norm(W, 2)


def knv_placement_gap(F, H, poles):
    """Placement error reached by scipy's KNV placement on the dual pair: what a sound placement achieves."""
    K = place_poles(np.asarray(F).T, np.atleast_2d(H).T, poles).gain_matrix
    return spectrum_gap(np.linalg.eigvals(F - K.T @ np.atleast_2d(H)), poles)


def _rel(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))) / max(np.max(np.abs(want)), 1e-300))


def check_design(A, B, Q, n_p, d):
    """Check one attack/observer/certificate design against reference solves.

    ``d`` holds plain arrays and numbers: pi_star, gamma, gamma_max, Y, Hbar,
    Fbar (optional), L, desired_poles, W1, W2, P1, P2, c1, c3, feasible.
    """
    problems = []
    B = np.asarray(B, dtype=float).reshape(-1, 1)
    Hbar = np.atleast_2d(np.asarray(d["Hbar"], dtype=float))
    L = np.asarray(d["L"], dtype=float).reshape(-1, 1)
    Q_p = Q[:n_p, :n_p]
    pi_star = np.asarray(d["pi_star"], dtype=float)

    S = lyapunov(A, d["Y"])
    gmax = np.linalg.eigvalsh(d["Y"])[0] / (4.0 * np.linalg.norm(S @ B, 2) * np.linalg.norm(Q_p @ pi_star))
    if abs(d["gamma_max"] - gmax) > REL_TOL * gmax:
        problems.append("gamma_max %.12g, reference %.12g" % (d["gamma_max"], gmax))
    want_H = np.zeros_like(Hbar)
    want_H[0, :n_p] = 2.0 * (d["gamma"] * pi_star) @ Q_p
    if _rel(Hbar, want_H) > REL_TOL:
        problems.append("Hbar is not 2 gamma pi*' Q_p")
    Fbar = A + B @ Hbar
    if d.get("Fbar") is not None and _rel(d["Fbar"], Fbar) > REL_TOL:
        problems.append("Fbar is not A + B Hbar")
    if not np.max(np.linalg.eigvals(Fbar).real) < 0:
        problems.append("Fbar is not Hurwitz")
    if not pbh_observable(Fbar, Hbar):
        problems.append("(Fbar, Hbar) is unobservable by PBH (margin %.3e)" % pbh_margin(Fbar, Hbar))
    gap = spectrum_gap(np.linalg.eigvals(Fbar + (B + L) @ Hbar), d["desired_poles"])
    if gap > PLACEMENT_TOL:
        problems.append("placed spectrum misses the requested poles by %.3e" % gap)

    FLH = Fbar + L @ Hbar
    if np.max(np.linalg.eigvals(FLH).real) >= 0:
        if d["feasible"]:
            problems.append("certificate feasible although Fbar + L Hbar is not Hurwitz")
        return problems
    P1, P2 = lyapunov(Fbar, d["W1"]), lyapunov(FLH, d["W2"])
    for name, got, want in (("P1", d["P1"], P1), ("P2", d["P2"], P2)):
        if _rel(got, want) > REL_TOL:
            problems.append("%s differs from the reference solve by %.3e relative" % (name, _rel(got, want)))
    lmin1, lmin2 = np.linalg.eigvalsh(P1)[0], np.linalg.eigvalsh(P2)[0]
    c1 = min(np.linalg.eigvalsh(d["W1"])[0], np.linalg.eigvalsh(d["W2"])[0]) / max(
        np.linalg.norm(P1, 2), np.linalg.norm(P2, 2)
    )
    c3 = (
        2.0 * np.linalg.norm(P1 @ B @ Hbar, 2) + 2.0 * np.linalg.norm(Hbar.T @ (B + L).T @ P2, 2)
    ) / math.sqrt(lmin1 * lmin2)
    for name, got, want in (("c1", d["c1"], c1), ("c3", d["c3"], c3)):
        if abs(got - want) > REL_TOL * abs(want):
            problems.append("%s = %.12g, reference %.12g" % (name, got, want))
    if bool(d["feasible"]) != bool(c1 - c3 > 0):
        problems.append("feasible = %s, but c1 - c3 = %.6g" % (d["feasible"], c1 - c3))
    return problems


# ---------------------------------------------------------------------------
# the coupled field, from the sim module's equations


def coupled_field(A, B, Q, Hbar, L):
    """d/dt [z; zhat] with zdot = A z + B (z'Qz + Hbar zhat) and
    zhatdot = A zhat + B m + L (m - ytilde), m = zhat'Q zhat + 2 Hbar zhat,
    ytilde = z'Qz + Hbar zhat."""
    b = np.asarray(B, dtype=float).reshape(-1)
    h = np.asarray(Hbar, dtype=float).reshape(-1)
    l = np.asarray(L, dtype=float).reshape(-1)
    n = b.size

    def rhs(_t, s):
        z, zh = s[:n], s[n:]
        ytilde = z @ Q @ z + h @ zh
        m = zh @ Q @ zh + 2.0 * (h @ zh)
        return np.concatenate([A @ z + b * ytilde, A @ zh + b * m + l * (m - ytilde)])

    return rhs


def reference_run(field, z0, zhat0, times):
    """Tight-tolerance solution of the coupled field at the given instants, rows [z, zhat]."""
    sol = solve_ivp(
        field, (times[0], times[-1]), np.concatenate([z0, zhat0]),
        method="DOP853", t_eval=times, rtol=1e-12, atol=1e-15,
    )
    if not sol.success:
        raise RuntimeError("reference integration failed: %s" % sol.message)
    return sol.y.T


def check_trajectory_csv(table, header, field, Q, Hbar):
    """trajectory.csv rows against the reference run and the bookkeeping identities.

    ``table`` is the parsed CSV (t, z, zhat, e, y, ytilde, a), ``header`` its
    column names.
    """
    problems = []
    n = (table.shape[1] - 4) // 3
    want = ["t"] + ["%s%d" % (k, i + 1) for k in ("z", "zhat", "e") for i in range(n)] + ["y", "ytilde", "a"]
    if list(header) != want:
        return ["CSV header %s, expected %s" % (header, want)]
    t, z, zh, e = table[:, 0], table[:, 1 : n + 1], table[:, n + 1 : 2 * n + 1], table[:, 2 * n + 1 : 3 * n + 1]
    y, ytilde, a = table[:, -3], table[:, -2], table[:, -1]
    if not np.array_equal(e, zh - z):
        problems.append("e != zhat - z in %d rows" % np.any(e != zh - z, axis=1).sum())
    if not np.array_equal(ytilde, y + a):
        problems.append("ytilde != y + a in %d rows" % (ytilde != y + a).sum())
    h = np.asarray(Hbar, dtype=float).reshape(-1)
    scale = max(np.abs(y).max(), 1e-300)
    if np.abs(y - np.einsum("ti,ij,tj->t", z, Q, z)).max() > 1e-12 * scale:
        problems.append("y != z'Qz")
    if np.abs(a - zh @ h).max() > 1e-12 * max(np.abs(a).max(), 1e-300):
        problems.append("a != Hbar zhat")
    ref = reference_run(field, z[0], zh[0], t)
    err = np.abs(np.hstack([z, zh]) - ref).max() / np.linalg.norm(ref[0])
    if err > TRAJ_TOL:
        problems.append("trajectory departs from the reference run by %.3e relative" % err)
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo reports


def box_initial_state(seed, index, halfwidth, n):
    """Sample ``index`` of the box check: uniform in [-w, w]^(2n) from the
    per-sample generator (seed, index), split into (z0, zhat0)."""
    s = np.random.default_rng((seed, index)).uniform(-halfwidth, halfwidth, 2 * n)
    return s[:n], s[n:]


def check_box_report(report, field, n, indices, dt=1e-3, stride=50):
    """A box-check report: every sample converged, and the samples in
    ``indices`` regenerated and integrated by the reference agree with it."""
    problems = []
    per = report["per_sample"]
    n_conv = sum(1 for s in per if s["converged"])
    if len(per) != report["n_samples"] or n_conv != report["n_samples"]:
        problems.append("%d of %d box samples converged" % (n_conv, report["n_samples"]))
    if report["fraction_converged"] != n_conv / max(len(per), 1):
        problems.append("fraction_converged %r disagrees with the per-sample flags" % report["fraction_converged"])
    T = report["horizon"]
    steps = int(round(T / dt))
    times = np.unique(np.append(np.arange(0, steps + 1, stride), steps)) * dt
    for i in indices:
        z0, zh0 = box_initial_state(report["seed"], i, report["box_halfwidth"], n)
        ref = reference_run(field, z0, zh0, times)
        norms = np.sqrt(np.sum(ref[:, :n] ** 2, axis=1) + np.sum((ref[:, n:] - ref[:, :n]) ** 2, axis=1))
        s = per[i]
        if abs(s["initial_norm"] - norms[0]) > 1e-12 * norms[0]:
            problems.append("sample %d: initial norm %.17g, regenerated %.17g" % (i, s["initial_norm"], norms[0]))
        for key, want, tol in (("final_norm", norms[-1], FINAL_TOL * norms[-1]),
                               ("peak_norm", norms.max(), TRAJ_TOL * norms[0])):
            if not abs(s[key] - want) <= tol:
                problems.append("sample %d: %s %.9e, reference %.9e" % (i, key, s[key], want))
        if s["converged"] != bool(norms[-1] < 1e-3 * norms[0]):
            problems.append("sample %d: converged flag disagrees with the reference run" % i)
    return problems


def check_decay_report(report, level):
    """verify_decay report: every sample satisfies the decay inequality and stays in the set."""
    problems = []
    per = report["per_sample"]
    bad = [s["index"] for s in per if not (s["satisfied"] and s["stayed_inside"] and not s["diverged"])]
    if bad or len(per) != report["n_samples"]:
        problems.append("decay samples failing or missing: %s" % bad[:10])
    if report["fraction_satisfied"] != 1.0 or not report["all_inside"] or report["n_diverged"]:
        problems.append("decay summary: fraction %r, all_inside %r, diverged %r" % (
            report["fraction_satisfied"], report["all_inside"], report["n_diverged"]))
    if max(s["margin"] for s in per) > report["tol_decay"]:
        problems.append("a decay margin exceeds tol_decay")
    if any(not 0.0 < s["V0"] <= level * (1 + 1e-9) for s in per):
        problems.append("a decay sample starts outside the certified set")
    return problems


def check_certified_decay(field, n, P1, P2, delta, level, seed, n_points=4, horizon=2.0, tol=1e-9):
    """Draw points on sublevel sets of V inside the certified level, integrate
    them with the reference and check Vdot <= -delta V (+ tol V) and V <= level
    along the way. This checks the certificate itself, not verify_decay."""
    problems = []
    P = np.block([[P1, np.zeros((n, n))], [np.zeros((n, n)), P2]])
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, horizon, 201)
    for k in range(n_points):
        x = rng.standard_normal(2 * n)
        x *= math.sqrt(level * rng.uniform(0.25, 1.0) / (x @ P @ x))
        z0, e0 = x[:n], x[n:]
        ref = reference_run(field, z0, z0 + e0, times)
        for s in ref:
            z, e = s[:n], s[n:] - s[:n]
            d = field(0.0, s)
            dz, de = d[:n], d[n:] - d[:n]
            V = z @ P1 @ z + e @ P2 @ e
            Vdot = 2.0 * (z @ P1 @ dz + e @ P2 @ de)
            if V > level * (1 + 1e-9) or Vdot > (-delta + tol) * V:
                problems.append("point %d leaves the decay certificate (V %.3e, Vdot/V %.3e)" % (k, V, Vdot / V))
                break
    return problems
