"""Acceptance gate: pinned values and budgets for the bundled reference design.

Each test prints exactly one `criterion NN ...: PASS|FAIL` line so the run
log doubles as the acceptance report. Tolerances and runtime budgets are
fixed here and must not be loosened; randomized suites run on frozen seeds.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import null_space

from obsforge import attack, numerics, observer, refcase, roa, sim
from obsforge.errors import SynthesisError

EXPECTED_LOOP_EIGS = np.array(
    [-3.5 + 1.94j, -3.5 - 1.94j, -7.0 + 5.66j, -7.0 - 5.66j]
)
EXPECTED_PI = np.array([0.77, -2.30])
DESIRED_POLES = np.array([-9.5, -10.5, -11.5, -12.5])


def _report(num, label, ok, detail=""):
    line = "criterion %s (%s): %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += " [%s]" % detail
    print(line)
    return ok


def _best_time(fn, repeats):
    fn()  # warm the code path before timing
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_loop_spectrum(ref_system):
    _, _, cl = ref_system
    pairs = numerics.eig(cl.A)
    dist = numerics.spectrum_distance(pairs.values, EXPECTED_LOOP_EIGS)
    elapsed = _best_time(lambda: numerics.eig(cl.A), repeats=10)
    ok = dist <= 0.01 and elapsed < 1e-3
    assert _report(
        "01", "closed-loop spectrum", ok,
        "distance %.2e (tol 0.01), %.3g ms (budget 1 ms)" % (dist, 1e3 * elapsed),
    )


def test_criterion_02_scaling_bound(ref_system):
    plant, _, cl = ref_system
    pi_star = np.array([1.0, -3.0])
    Y = 0.2 * np.eye(cl.n)
    bound = attack.gamma_max(cl.A, cl.B, plant.Q_p, pi_star, Y)
    elapsed = _best_time(
        lambda: attack.gamma_max(cl.A, cl.B, plant.Q_p, pi_star, Y), repeats=5
    )
    ok = abs(bound - 0.85) <= 0.02 and elapsed < 1e-2
    assert _report(
        "02", "attack scaling bound", ok,
        "gamma_max %.6f (0.85 +/- 0.02), %.3g ms (budget 10 ms)"
        % (bound, 1e3 * elapsed),
    )


def test_criterion_03_scaled_projection(ref_design):
    err = np.abs(ref_design.pi - EXPECTED_PI).max()
    ok = err <= 0.02
    assert _report(
        "03", "scaled projection vector", ok,
        "pi [%.4f, %.4f], worst error %.2e (tol 0.02)"
        % (ref_design.pi[0], ref_design.pi[1], err),
    )


def test_criterion_04_forbidden_set_classification(ref_system):
    plant, controller, _ = ref_system
    forbidden = attack.forbidden_set(plant, controller)
    ranks = [int(np.linalg.matrix_rank(np.vstack(sub.normals))) for sub in forbidden]
    counts = [len(sub.normals) for sub in forbidden]
    # two independent normals per subspace in a 2-dim projection space means
    # only the zero vector is excluded
    ok = (
        len(forbidden) > 0
        and all(c == 2 for c in counts)
        and all(r == 2 for r in ranks)
    )
    assert _report(
        "04", "forbidden set is the origin only", ok,
        "%d subspaces, normal counts %s, ranks %s" % (len(forbidden), counts, ranks),
    )


def test_criterion_05_observer_placement(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    placed = numerics.eig(
        ref_design.Fbar + (cl.B + ref_observer.L) @ ref_design.Hbar
    ).values
    dist = numerics.spectrum_distance(placed, DESIRED_POLES.astype(complex))
    ok = dist <= 1e-6
    assert _report(
        "05", "observer pole placement", ok, "distance %.2e (tol 1e-6)" % dist
    )


def test_criterion_06_augmented_spectrum_union(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    aug = observer.augmented_jacobian(cl, ref_design, ref_observer)
    got = numerics.eig(aug.J_phi).values
    union = np.concatenate([numerics.eig(cl.A).values, ref_observer.placed_poles])
    dist = numerics.spectrum_distance(got, union)
    ok = dist <= 1e-6
    assert _report(
        "06", "augmented spectrum is the union", ok,
        "distance %.2e (tol 1e-6)" % dist,
    )


def test_criterion_07_convergence_envelopes(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    z0 = np.array(refcase.REFERENCE_Z0)
    zhat0 = np.array(refcase.REFERENCE_ZHAT0)

    def run():
        return sim.integrate(cl, ref_design, ref_observer, z0, zhat0, dt=1e-3, T=5.0)

    sim.integrate(cl, ref_design, ref_observer, z0, zhat0, dt=1e-3, T=0.05)
    t0 = time.perf_counter()
    traj = run()
    elapsed = time.perf_counter() - t0

    checks = []
    for series, norms in (("e", traj.e_norm), ("z", traj.z_norm)):
        fit = sim.fit_decay(traj, fit_slack=0.05, series=series)
        envelope = (
            fit.kappa * norms[0] * np.exp(-fit.alpha * traj.times) * (1.0 + 0.05)
        )
        checks.append(bool(fit.alpha > 0 and np.all(norms <= envelope * (1.0 + 1e-12))))
    ratio = float(traj.e_norm[-1] / traj.e_norm[0])
    ok = all(checks) and ratio < 1e-6 and elapsed < 1.0
    assert _report(
        "07", "convergence envelopes", ok,
        "envelopes %s, final ratio %.3e (tol 1e-6), %.3g s (budget 1 s)"
        % (checks, ratio, elapsed),
    )


def test_criterion_08_certified_decay(cert_instance):
    cl, design, obs, est = cert_instance
    assert est.delta == pytest.approx(0.1 * est.c2, rel=1e-12)
    t0 = time.perf_counter()
    report = roa.verify_decay(
        cl, design, obs, est, n_samples=200, seed=7, tol_decay=1e-9
    )
    elapsed = time.perf_counter() - t0
    ok = (
        report.all_satisfied
        and report.all_inside
        and report.n_diverged == 0
        and report.worst_margin <= 1e-9
        and elapsed < 30.0
    )
    assert _report(
        "08", "certified decay inequality", ok,
        "%d/%d satisfied, worst margin %.3e, %.3g s (budget 30 s)"
        % (
            round(report.fraction_satisfied * report.n_samples),
            report.n_samples,
            report.worst_margin,
            elapsed,
        ),
    )


def test_criterion_09_box_convergence(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    t0 = time.perf_counter()
    report = roa.monte_carlo_box_check(
        cl,
        ref_design,
        ref_observer,
        box_halfwidth=0.5,
        n_samples=500,
        horizon=5.0,
        seed=0,
        dt=1e-3,
    )
    elapsed = time.perf_counter() - t0
    ok = report.all_converged and report.n_diverged == 0 and elapsed < 60.0
    assert _report(
        "09", "box of initial conditions converges", ok,
        "%d/%d converged, %.3g s (budget 60 s)"
        % (round(report.fraction_converged * report.n_samples), report.n_samples, elapsed),
    )


def test_criterion_10a_pbh_brute_force_agreement(make_random_system):
    rng = np.random.default_rng(42)
    n_systems = 0
    inside_checked = 0
    clear_checked = 0
    while n_systems < 200:
        n_p = int(rng.integers(2, 4))
        n_c = int(rng.integers(1, 3))
        plant, controller, cl = make_random_system(rng, n_p=n_p, n_c=n_c)
        forbidden = attack.forbidden_set(plant, controller)
        for sub in forbidden:
            null = null_space(np.vstack(sub.normals))
            if null.shape[1] == 0:
                continue  # only pi = 0 is in this subspace
            pi_in = null @ rng.standard_normal(null.shape[1])
            norm = np.linalg.norm(pi_in)
            if norm < 1e-9:
                continue
            pi_in /= norm
            F, H = attack._reference_pair(cl, pi_in)
            verdict = attack.is_observable(F, H)
            assert not verdict.observable, (
                "projection inside %s classified observable (margin %.3e)"
                % (sub.tag, verdict.margin)
            )
            inside_checked += 1
        probes = 0
        tries = 0
        while probes < 3 and tries < 200:
            tries += 1
            pi = rng.standard_normal(n_p)
            pi /= np.linalg.norm(pi)
            clearance = min((sub.margin(pi) for sub in forbidden), default=1.0)
            if clearance < 1e-3:
                continue
            F, H = attack._reference_pair(cl, pi)
            verdict = attack.is_observable(F, H)
            assert verdict.observable, (
                "projection clear of every subspace (clearance %.3e) classified "
                "unobservable (margin %.3e)" % (clearance, verdict.margin)
            )
            probes += 1
            clear_checked += 1
        n_systems += 1
    ok = n_systems == 200 and inside_checked > 100 and clear_checked == 600
    assert _report(
        "10a", "eigenvector test agrees with rank test", ok,
        "%d systems, %d inside probes, %d clear probes"
        % (n_systems, inside_checked, clear_checked),
    )


def test_criterion_10b_scaling_sweep_keeps_stability(make_random_system):
    rng = np.random.default_rng(1234)
    fractions = (0.05, 0.3, 0.6, 0.9, 0.99, 0.999)
    n_systems = 0
    attempts = 0
    worst_abscissa = -math.inf
    while n_systems < 50 and attempts < 500:
        attempts += 1
        plant, controller, cl = make_random_system(rng)
        try:
            base = attack.build_design(cl, seed=attempts)
        except SynthesisError:
            continue
        for f in fractions:
            d = attack.build_design(cl, pi_star=base.pi_star, gamma_fraction=f)
            abscissa = numerics.spectral_abscissa(d.Fbar)
            worst_abscissa = max(worst_abscissa, abscissa)
            assert numerics.is_hurwitz(d.Fbar)
            assert attack.is_observable(d.Fbar, d.Hbar).observable
        n_systems += 1
    ok = n_systems == 50
    assert _report(
        "10b", "attack scaling below the bound keeps stability", ok,
        "%d systems x %d fractions, worst abscissa %.4g"
        % (n_systems, len(fractions), worst_abscissa),
    )


def test_criterion_10c_error_dynamics_identity(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        z = rng.normal(scale=2.0, size=4)
        zhat = rng.normal(scale=2.0, size=4)
        ytilde = z @ cl.Q @ z + float(ref_design.Hbar[0] @ zhat)
        lhs = observer.observer_rhs(
            cl, ref_design, ref_observer, zhat, ytilde
        ) - observer.plant_rhs(cl, ref_design, z, zhat)
        rhs = observer.error_rhs(cl, ref_design, ref_observer, z, zhat - z)
        scale = max(1.0, float(np.linalg.norm(lhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    ok = worst <= 1e-10
    assert _report(
        "10c", "error dynamics algebraic identity", ok,
        "worst relative residual %.3e over 1000 points (tol 1e-10)" % worst,
    )


def test_criterion_10d_rk4_convergence_order(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    z0 = np.array(refcase.REFERENCE_Z0)
    zhat0 = np.array(refcase.REFERENCE_ZHAT0)

    def final_state(dt):
        traj = sim.integrate(
            cl, ref_design, ref_observer, z0, zhat0, dt=dt, T=0.5, stride=10**6
        )
        return np.concatenate([traj.z[-1], traj.z_hat[-1]])

    ref = final_state(1.25e-4)
    dts = np.array([0.02, 0.01, 0.005])
    errs = np.array([np.linalg.norm(final_state(dt) - ref) for dt in dts])
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = abs(slope - 4.0) <= 0.3
    assert _report(
        "10d", "integrator convergence order", ok,
        "observed slope %.3f (expect 4 +/- 0.3)" % slope,
    )
