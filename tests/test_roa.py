"""Tests for the Lyapunov certificate, its constants, and the Monte Carlo checks."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from obsforge import attack, observer, roa
from obsforge.errors import SynthesisError, ValidationError
from obsforge.numerics import is_hurwitz
from records import batch_record, replace


def test_lyapunov_pairs_solve_certificate_equations(cert_instance):
    # certify's P1 and P2 solve the two certificate Lyapunov equations
    cl, design, obs, est = cert_instance
    W1 = np.eye(cl.n)
    W2 = np.eye(cl.n)
    P1, P2 = est.P1, est.P2
    FLH = design.Fbar + obs.L @ design.Hbar
    r1 = design.Fbar.T @ P1 + P1 @ design.Fbar + W1
    r2 = FLH.T @ P2 + P2 @ FLH + W2
    assert np.abs(r1).max() <= 1e-8 * np.abs(P1).max()
    assert np.abs(r2).max() <= 1e-8 * np.abs(P2).max()
    assert np.linalg.eigvalsh(P1)[0] > 0
    assert np.linalg.eigvalsh(P2)[0] > 0


def test_lyapunov_pairs_reject_unstable_error_matrix(ref_system):
    _, _, cl = ref_system
    design = attack.build_design(
        cl, pi_star=np.array([1.0, -3.0]), gamma_fraction=0.1, Y=0.2 * np.eye(cl.n)
    )
    # L = -50 B flips an eigenvalue of Fbar + L Hbar across the axis even
    # though the placement target Fbar + (B+L) Hbar is a separate matrix.
    obs = observer.gain_from_vector(design, cl.B, -50.0 * cl.B)
    assert not is_hurwitz(design.Fbar + obs.L @ design.Hbar)
    est = roa.certify(cl, design, obs)
    assert not est.feasible
    assert len(est.notes) == 1
    assert est.notes[0].startswith("error matrix Fbar + L Hbar is not Hurwitz")
    assert np.all(est.P1 == 0) and np.all(est.P2 == 0)
    assert all(math.isnan(c) for c in (est.c1, est.c2, est.c3, est.c4))
    assert est.delta is None and est.level is None


def test_weight_matrix_validation(cert_instance):
    cl, design, obs, _ = cert_instance
    bad = np.eye(4)
    bad[0, 1] = 0.2
    for name, W, reason in (
        ("W1", np.eye(3), "shape"),
        ("W2", np.eye(3), "shape"),
        ("W1", bad, "symmetric"),
        ("W2", bad, "symmetric"),
        ("W1", -np.eye(4), "positive definite"),
        ("W2", -np.eye(4), "positive definite"),
    ):
        with pytest.raises(ValidationError, match=reason) as excinfo:
            roa.certify(cl, design, obs, **{name: W})
        assert excinfo.value.field == name


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["W1", "W2"])
def test_certify_rejects_nonfinite_weight(cert_instance, name, bad):
    # an inf entry used to reach solve_lyapunov and escape as LinAlgError
    cl, design, obs, _ = cert_instance
    W = np.eye(cl.n)
    W[0, 0] = bad
    with pytest.raises(ValidationError, match="finite entries") as excinfo:
        roa.certify(cl, design, obs, **{name: W})
    assert excinfo.value.field == name


@pytest.mark.parametrize(
    "w1, w2, note",
    [
        # used to raise LinAlgError, then to overflow inside the Lyapunov
        # solve; P1 is finite, but lambda_min(P1) lambda_min(P2) overflows
        (1e308, 1.0, "certificate constants leave double range"),
        (1.0, 1e300, "certificate constants leave double range"),  # OverflowError
        (1.0, 1e-250, "certificate constants leave double range"),  # ZeroDivisionError
        # lmin1**1.5 overflowed to inf, so c4 read 0 and the set global
        (1e305, 1e305, "certificate constants leave double range"),
    ],
)
def test_certify_extreme_weights_are_infeasible_data(ref_system, ref_design, ref_observer, w1, w2, note):
    _, _, cl = ref_system
    I = np.eye(cl.n)
    est = roa.certify(cl, ref_design, ref_observer, W1=w1 * I, W2=w2 * I)
    assert not est.feasible
    assert est.delta is None and est.level is None
    assert len(est.notes) == 1 and est.notes[0].startswith(note)
    assert not all(map(math.isfinite, (est.c1, est.c3, est.c4)))


def test_certify_level_past_double_range_is_infeasible_data(cert_instance):
    # a tiny output weight leaves c1, c3 alone and makes c4 tiny, so the
    # level ((c2 - delta)/c4)**2 overflows
    cl, design, obs, est = cert_instance
    out = roa.certify(replace(cl, Q=1e-160 * cl.Q), design, obs)
    assert (out.c1, out.c3, out.c2) == (est.c1, est.c3, est.c2)
    assert 0.0 < out.c4 < 1e-150
    assert not out.feasible
    assert out.delta is None and out.level is None
    assert len(out.notes) == 1 and out.notes[0].startswith("certified level")


def test_constants_match_direct_formulas(make_random_system, cert_instance):
    # Recompute every constant and the level from scratch with plain numpy
    # calls and compare against certify on its own Lyapunov pairs.
    def direct(P1, P2, W1, W2, B, L, Q, Hbar):
        lminP1 = np.linalg.eigvalsh(P1)[0]
        lminP2 = np.linalg.eigvalsh(P2)[0]
        BL = B + L
        c1 = min(np.linalg.eigvalsh(W1)[0], np.linalg.eigvalsh(W2)[0]) / max(
            np.linalg.norm(P1, 2), np.linalg.norm(P2, 2)
        )
        c3 = (
            2.0 * np.linalg.norm(P1 @ B @ Hbar, 2)
            + 2.0 * np.linalg.norm(Hbar.T @ BL.T @ P2, 2)
        ) / math.sqrt(lminP1 * lminP2)
        nQ = np.linalg.norm(Q, 2)
        c4 = (
            2.0 * np.linalg.norm(P1 @ B, 2) * nQ / lminP1**1.5
            + 4.0 * np.linalg.norm(P2 @ BL, 2) * nQ / (math.sqrt(lminP1) * lminP2)
            + 2.0 * np.linalg.norm(P2 @ BL, 2) * nQ / lminP2**1.5
        )
        return c1, c3, c4

    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(80):
        if checked >= 50:
            break
        plant, controller, cl = make_random_system(rng)
        try:
            design = attack.build_design(cl, gamma_fraction=0.1, seed=trial)
        except SynthesisError:
            continue
        obs = observer.gain_from_vector(design, cl.B, -0.9 * cl.B)
        if not is_hurwitz(design.Fbar + obs.L @ design.Hbar):
            continue
        M1 = rng.normal(size=(cl.n, cl.n))
        M2 = rng.normal(size=(cl.n, cl.n))
        W1 = M1 @ M1.T + 0.5 * np.eye(cl.n)
        W2 = M2 @ M2.T + 0.5 * np.eye(cl.n)
        est = roa.certify(cl, design, obs, W1=W1, W2=W2)
        c1, c3, c4 = direct(est.P1, est.P2, W1, W2, cl.B, obs.L, cl.Q, design.Hbar)
        assert est.c1 == pytest.approx(c1, rel=1e-12)
        assert est.c3 == pytest.approx(c3, rel=1e-12)
        assert est.c4 == pytest.approx(c4, rel=1e-12)
        assert est.c2 == pytest.approx(c1 - c3, rel=1e-12, abs=1e-12)
        assert est.feasible == (est.c2 > 0)
        if est.feasible:
            delta = 0.1 * (c1 - c3)
            assert est.delta == pytest.approx(delta, rel=1e-12)
            assert est.level == pytest.approx(((c1 - c3 - delta) / c4) ** 2, rel=1e-11)
        checked += 1
    assert checked >= 50


def test_constants_frozen_for_feasible_instance(cert_instance):
    _, _, _, est = cert_instance
    assert est.feasible
    assert est.c1 == pytest.approx(2.89302390759828, rel=1e-9)
    assert est.c3 == pytest.approx(1.81242755052382, rel=1e-9)
    assert est.c2 == pytest.approx(1.08059635707446, rel=1e-9)
    assert est.c4 == pytest.approx(16.5390356650406, rel=1e-9)
    assert est.delta == pytest.approx(0.108059635707446, rel=1e-9)
    assert est.level == pytest.approx(0.00345773455145611, rel=1e-9)
    assert est.notes == ()


def test_reference_design_certificate_infeasible(ref_system, ref_design, ref_observer):
    # The headline gain is aggressive enough that the cross-coupling bound
    # dominates; the certificate reports that as data with the knobs named.
    _, _, cl = ref_system
    est = roa.certify(cl, ref_design, ref_observer)
    assert not est.feasible
    assert est.c1 == pytest.approx(1.78513926921375, rel=1e-9)
    assert est.c3 == pytest.approx(133.958361895806, rel=1e-9)
    assert est.c2 == pytest.approx(-132.173222626592, rel=1e-9)
    assert est.c4 == pytest.approx(688.897393349275, rel=1e-9)
    assert est.delta is None
    assert est.level is None
    joined = " ".join(est.notes)
    assert "c2" in joined
    assert "W1" in joined
    # an infeasible certificate admits no delta, so delta_fraction is not read
    assert roa.certify(cl, ref_design, ref_observer, delta_fraction=2.0).notes == est.notes


def test_roa_level_validates_delta(cert_instance):
    # delta = delta_fraction * c2 must lie strictly inside (0, c2)
    cl, design, obs, _ = cert_instance
    for fraction in (0.0, 1.0, 2.0):
        with pytest.raises(ValidationError, match=r"\(0, ") as excinfo:
            roa.certify(cl, design, obs, delta_fraction=fraction)
        assert excinfo.value.field == "delta"


def test_roa_level_monotone_in_delta(cert_instance):
    cl, design, obs, _ = cert_instance
    levels = [roa.certify(cl, design, obs, delta_fraction=f).level for f in (0.1, 0.5, 0.9)]
    assert levels[0] > levels[1] > levels[2] > 0


def test_roa_level_infinite_without_quadratic_term(cert_instance):
    cl, design, obs, est = cert_instance
    out = roa.certify(replace(cl, Q=0), design, obs)
    assert out.c4 == 0.0
    assert (out.c1, out.c3) == (est.c1, est.c3)
    assert out.feasible
    assert out.level == math.inf
    assert any("c4" in note for note in out.notes)


def test_ellipsoid_sampler_fills_sublevel_set(cert_instance):
    cl, _, _, est = cert_instance
    P = np.zeros((2 * cl.n, 2 * cl.n))
    P[: cl.n, : cl.n] = est.P1
    P[cl.n :, cl.n :] = est.P2
    evals, evecs = np.linalg.eigh(P)
    rng = np.random.default_rng(5)
    values = []
    for _ in range(400):
        x = roa._sample_in_ellipsoid(evecs, np.sqrt(evals), est.level, rng)
        values.append(float(x @ P @ x))
    values = np.array(values)
    assert values.max() <= est.level * (1.0 + 1e-9)
    assert values.max() >= 0.9 * est.level
    assert values.min() <= 0.5 * est.level


def test_verify_decay_certificate_holds(cert_instance):
    cl, design, obs, est = cert_instance
    report = roa.verify_decay(cl, design, obs, est, n_samples=25, seed=7)
    assert report.fraction_satisfied == 1.0
    assert report.all_inside
    assert report.n_diverged == 0
    assert report.worst_margin < 0.0
    assert len(report.per_sample) == 25
    assert report.delta == est.delta
    assert all(s["V0"] <= est.level * (1.0 + 1e-9) for s in report.per_sample)


def test_verify_decay_reads_tol_decay_at_call_time(cert_instance, monkeypatch):
    cl, design, obs, est = cert_instance
    monkeypatch.setattr(roa, "TOL_DECAY", -1e3)
    report = roa.verify_decay(cl, design, obs, est, n_samples=5, seed=7)
    assert report.tol_decay == -1e3
    assert report.worst_margin > -1e3
    assert report.fraction_satisfied == 0.0


def test_empty_batches_integrate(cert_instance):
    cl, design, obs, est = cert_instance
    none = np.zeros((0, cl.n))
    Z, Zh, blowup = batch_record(cl, design, obs, none, none, T=0.1)
    assert Z.shape == Zh.shape == (101, 0, cl.n)
    assert blowup.shape == (0,)
    box = roa.monte_carlo_box_check(cl, design, obs, n_samples=0, horizon=0.1)
    assert (box.fraction_converged, box.max_transient_norm) == (1.0, 0.0)
    assert (box.n_diverged, box.per_sample) == (0, ())
    decay = roa.verify_decay(cl, design, obs, est, n_samples=0)
    assert (decay.fraction_satisfied, decay.worst_margin) == (1.0, 0.0)
    assert (decay.n_diverged, decay.per_sample) == (0, ())


def test_verify_decay_requires_complete_estimate(cert_instance):
    cl, design, obs, est = cert_instance
    with pytest.raises(ValidationError, match="feasible"):
        roa.verify_decay(cl, design, obs, replace(est, feasible=False))
    with pytest.raises(ValidationError, match="level"):
        roa.verify_decay(cl, design, obs, replace(est, delta=None, level=None))
    with pytest.raises(ValidationError, match="infinite"):
        roa.verify_decay(cl, design, obs, replace(est, level=math.inf))


def test_verify_decay_flags_violations_outside_certified_set(cert_instance):
    # Inflating the level by 1e6 samples far outside the certified region,
    # so decay failures and divergences must show up in the report.
    cl, design, obs, est = cert_instance
    inflated = replace(est, level=est.level * 1e6)
    report = roa.verify_decay(cl, design, obs, inflated, n_samples=40, seed=7)
    assert report.fraction_satisfied < 1.0
    assert report.n_diverged > 0
    assert not report.all_inside


def test_box_check_zero_width_is_trivial(cert_instance):
    cl, design, obs, _ = cert_instance
    report = roa.monte_carlo_box_check(
        cl, design, obs, box_halfwidth=0.0, n_samples=5, horizon=0.05
    )
    assert report.fraction_converged == 1.0
    assert report.max_transient_norm == 0.0
    assert report.n_diverged == 0


def test_box_check_rejects_negative_width(cert_instance):
    cl, design, obs, _ = cert_instance
    with pytest.raises(ValidationError, match="nonnegative"):
        roa.monte_carlo_box_check(cl, design, obs, box_halfwidth=-1.0)


@pytest.mark.parametrize("halfwidth", [np.nan, np.inf, 1e308])
def test_box_check_rejects_width_numpy_cannot_draw(cert_instance, halfwidth):
    # 1e308 is finite, but the box it spans, 2e308, is not
    cl, design, obs, _ = cert_instance
    with pytest.raises(ValidationError) as excinfo:
        roa.monte_carlo_box_check(cl, design, obs, box_halfwidth=halfwidth)
    assert excinfo.value.field == "box_halfwidth"


@pytest.mark.parametrize("n_samples", [-1, 2.5])
def test_monte_carlo_checks_reject_bad_sample_counts(cert_instance, n_samples):
    cl, design, obs, est = cert_instance
    with pytest.raises(ValidationError) as box:
        roa.monte_carlo_box_check(cl, design, obs, n_samples=n_samples)
    with pytest.raises(ValidationError) as decay:
        roa.verify_decay(cl, design, obs, est, n_samples=n_samples)
    assert box.value.field == decay.value.field == "n_samples"


@pytest.mark.parametrize("n_samples", [0, 5])
@pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
def test_monte_carlo_checks_reject_bad_seeds(cert_instance, seed, n_samples):
    # refused before any sample is drawn, so also when there are none to draw
    cl, design, obs, est = cert_instance
    with pytest.raises(ValidationError) as box:
        roa.monte_carlo_box_check(cl, design, obs, n_samples=n_samples, seed=seed)
    with pytest.raises(ValidationError) as decay:
        roa.verify_decay(cl, design, obs, est, n_samples=n_samples, seed=seed)
    assert box.value.field == decay.value.field == "seed"


def test_box_check_overflowing_start_is_silent(cert_instance):
    # the squares of 1e300 starts overflow from the very first factor rows;
    # that is divergence data, recorded without any RuntimeWarning
    cl, design, obs, _ = cert_instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = roa.monte_carlo_box_check(
            cl, design, obs, box_halfwidth=1e300, n_samples=4, horizon=0.01
        )
    assert report.n_diverged == 4
    assert [s["blowup_time"] for s in report.per_sample] == [1e-3] * 4


def test_box_check_records_divergence(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    report = roa.monte_carlo_box_check(
        cl,
        ref_design,
        ref_observer,
        box_halfwidth=1e5,
        n_samples=8,
        horizon=1.0,
        seed=0,
    )
    assert report.n_diverged > 0
    assert report.fraction_converged < 1.0
    for sample in report.per_sample:
        if sample["diverged"]:
            assert isinstance(sample["blowup_time"], float)
            assert not sample["converged"]


@pytest.mark.parametrize("halfwidth", [1e5, 0.0, 0.5])
def test_box_check_per_sample_matches_loop(ref_system, ref_design, ref_observer, halfwidth):
    """The column reductions give the verdicts of a per-sample loop, exactly."""
    _, _, cl = ref_system
    n, m, seed = cl.n, 8, 3
    report = roa.monte_carlo_box_check(
        cl, ref_design, ref_observer, box_halfwidth=halfwidth, n_samples=m,
        horizon=5.0, seed=seed,
    )
    states = np.array([
        np.random.default_rng((seed, i)).uniform(-halfwidth, halfwidth, 2 * n)
        for i in range(m)
    ])
    Z, Zh, blowup = batch_record(
        cl, ref_design, ref_observer, states[:, :n], states[:, n:], dt=1e-3, T=5.0, stride=50
    )
    E = Zh - Z
    combined = np.sqrt(np.einsum("tsi,tsi->ts", Z, Z) + np.einsum("tsi,tsi->ts", E, E))
    expected = []
    for i in range(m):
        ci = combined[:, i]
        diverged = bool(np.isfinite(blowup[i]))
        initial = float(ci[0])
        final = float(ci[-1]) if np.isfinite(ci[-1]) else math.inf
        if diverged:
            converged = False
        elif initial == 0.0:
            converged = final == 0.0
        else:
            converged = final < 1e-3 * initial
        expected.append({
            "index": i,
            "converged": converged,
            "initial_norm": initial,
            "final_norm": final,
            "peak_norm": float(np.nanmax(ci)) if np.isfinite(ci).any() else math.inf,
            "diverged": diverged,
            "blowup_time": float(blowup[i]) if diverged else None,
        })
    assert report.per_sample == tuple(expected)
    assert report.max_transient_norm == max([0.0] + [s["peak_norm"] for s in expected])
    assert report.n_diverged == sum(s["diverged"] for s in expected)
    assert report.fraction_converged == sum(s["converged"] for s in expected) / m


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_verify_decay_per_sample_matches_loop(cert_instance, scale):
    """The column reductions give the verdicts of a per-sample loop, exactly.

    At 1e6 times the certified level samples leave the set and diverge.
    """
    cl, design, obs, est = cert_instance
    est = replace(est, level=est.level * scale)
    n, m, seed = cl.n, 12, 7
    report = roa.verify_decay(cl, design, obs, est, n_samples=m, seed=seed)
    P = np.zeros((2 * n, 2 * n))
    P[:n, :n], P[n:, n:] = est.P1, est.P2
    evals, evecs = np.linalg.eigh(P)
    samples = np.array([
        roa._sample_in_ellipsoid(
            evecs, np.sqrt(evals), est.level, np.random.default_rng((seed, i))
        )
        for i in range(m)
    ])
    Z, Zh, blowup = batch_record(
        cl, design, obs, samples[:, :n], samples[:, :n] + samples[:, n:], dt=1e-3, T=2.0,
        stride=10,
    )
    # V and Vdot at every record of every sample, as verify_decay evaluates them
    x = np.concatenate([Z.reshape(-1, n).T, Zh.reshape(-1, n).T])
    xdot = observer.coupled_field(cl, design, obs)(x)
    x[n:] -= x[:n]
    xdot[n:] -= xdot[:n]
    Px = P @ x
    V = np.einsum("ir,ir->r", Px, x).reshape(Z.shape[:2])
    Vdot = 2.0 * np.einsum("ir,ir->r", Px, xdot).reshape(Z.shape[:2])
    expected = []
    for i in range(m):
        Vi, Vdi = V[:, i], Vdot[:, i]
        finite = np.isfinite(Vi)
        diverged = bool(np.isfinite(blowup[i]))
        pos = finite & (Vi > 0)
        ratios = (Vdi[pos] + est.delta * Vi[pos]) / Vi[pos]
        margin = float(ratios.max()) if ratios.size else 0.0
        inside = bool(np.all(Vi[finite] <= est.level * (1.0 + 1e-9)) and not diverged)
        expected.append({
            "index": i,
            "satisfied": bool(margin <= roa.TOL_DECAY and not diverged),
            "margin": margin,
            "stayed_inside": inside,
            "diverged": diverged,
            "V0": float(Vi[0]),
        })
    if scale > 1.0:
        assert any(s["diverged"] for s in expected)
    assert report.per_sample == tuple(expected)
    assert report.worst_margin == max(s["margin"] for s in expected)
    assert report.n_diverged == sum(s["diverged"] for s in expected)
    assert report.fraction_satisfied == sum(s["satisfied"] for s in expected) / m
    assert report.all_inside == all(s["stayed_inside"] for s in expected)


def _set_steps(monkeypatch, knobs, **constants):
    """``knobs`` without the step settings a check reads from roa constants
    (``constants`` maps knob to constant), each such setting patched in."""
    knobs = dict(knobs)
    for knob, constant in constants.items():
        if knob in knobs:
            monkeypatch.setattr(roa, constant, knobs.pop(knob))
    return knobs


def _box_report_by_record(cl, design, obs, box_halfwidth=0.5, n_samples=500, horizon=5.0,
                          seed=0, dt=1e-3, stride=50):
    """Reference for monte_carlo_box_check: integrate with the full state
    record, then reduce the (records, samples) norm table column by column."""
    n, w = cl.n, float(box_halfwidth)
    states = np.empty((n_samples, 2 * n))
    for j in range(n_samples):
        states[j] = np.random.default_rng((seed, j)).uniform(-w, w, 2 * n)
    Z, Zh, blowup = batch_record(
        cl, design, obs, states[:, :n], states[:, n:], dt=dt, T=horizon, stride=stride
    )
    E = Zh - Z
    combined = np.sqrt(np.einsum("tsi,tsi->ts", Z, Z) + np.einsum("tsi,tsi->ts", E, E))
    diverged = np.isfinite(blowup)
    initial = combined[0]
    final = np.where(np.isfinite(combined[-1]), combined[-1], math.inf)
    converged = ~diverged & np.where(initial == 0.0, final == 0.0, final < 1e-3 * initial)
    peak = np.fmax.reduce(combined, axis=0)
    peak[np.isnan(peak)] = math.inf
    return roa.BoxReport(
        n_samples=n_samples, seed=seed, box_halfwidth=w, horizon=float(horizon),
        fraction_converged=int(converged.sum()) / n_samples if n_samples else 1.0,
        max_transient_norm=float(peak.max(initial=0.0)),
        n_diverged=int(diverged.sum()),
        per_sample=roa._per_sample(
            converged=converged.tolist(), initial_norm=initial.tolist(),
            final_norm=final.tolist(), peak_norm=peak.tolist(), diverged=diverged.tolist(),
            blowup_time=[t if d else None for t, d in zip(blowup.tolist(), diverged.tolist())],
        ),
    )


def _decay_report_by_record(cl, design, obs, est, n_samples=200, seed=7, dt=1e-3,
                            horizon=2.0, stride=10):
    """Reference for verify_decay: integrate with the full state record, then
    evaluate V and Vdot on every record of every sample in one field call."""
    n = cl.n
    P = np.zeros((2 * n, 2 * n))
    P[:n, :n], P[n:, n:] = est.P1, est.P2
    evals, evecs = np.linalg.eigh(P)
    sqrt_evals = np.sqrt(evals)
    samples = np.empty((n_samples, 2 * n))
    for j in range(n_samples):
        rng = np.random.default_rng((seed, j))
        samples[j] = roa._sample_in_ellipsoid(evecs, sqrt_evals, est.level, rng)
    Z, Zh, blowup = batch_record(
        cl, design, obs, samples[:, :n], samples[:, :n] + samples[:, n:], dt=dt, T=horizon,
        stride=stride,
    )
    shape = Z.shape[:2]
    x = np.empty((2 * n, shape[0] * shape[1]))
    x[:n] = Z.reshape(-1, n).T
    x[n:] = Zh.reshape(-1, n).T
    xdot = observer.coupled_field(cl, design, obs)(x)
    x[n:] -= x[:n]
    xdot[n:] -= xdot[:n]
    Px = P @ x
    V = np.einsum("ir,ir->r", Px, x).reshape(shape)
    Vdot = 2.0 * np.einsum("ir,ir->r", Px, xdot).reshape(shape)
    diverged = np.isfinite(blowup)
    finite = np.isfinite(V)
    pos = finite & (V > 0)
    ratios = np.divide(Vdot + est.delta * V, V, out=np.full(V.shape, -math.inf), where=pos)
    margin = np.where(pos.any(axis=0), ratios.max(axis=0), 0.0)
    inside = ~diverged & np.all(~finite | (V <= est.level * (1.0 + 1e-9)), axis=0)
    satisfied = ~diverged & (margin <= roa.TOL_DECAY)
    return roa.DecayReport(
        n_samples=n_samples, seed=seed, delta=est.delta, level=est.level, tol_decay=roa.TOL_DECAY,
        fraction_satisfied=int(satisfied.sum()) / n_samples if n_samples else 1.0,
        worst_margin=float(np.fmax.reduce(margin, initial=-math.inf)) if n_samples else 0.0,
        all_inside=bool(inside.all()),
        n_diverged=int(diverged.sum()),
        per_sample=roa._per_sample(
            satisfied=satisfied.tolist(), margin=margin.tolist(),
            stayed_inside=inside.tolist(), diverged=diverged.tolist(), V0=V[0].tolist(),
        ),
    )


@pytest.mark.parametrize(
    "knobs, diverging",
    [
        (dict(seed=0), False),
        (dict(seed=1), False),
        (dict(seed=2), False),
        (dict(box_halfwidth=3.0, n_samples=100, seed=1), True),
        (dict(n_samples=40, horizon=1.0, stride=37, seed=4), False),  # 37 does not divide 1000
        (dict(n_samples=0, horizon=0.5), False),
        (dict(n_samples=1, horizon=0.5), False),
        (dict(box_halfwidth=3.0, n_samples=520, horizon=1.0, seed=1), True),
        (dict(n_samples=255, horizon=0.5), False),
    ],
)
def test_box_check_matches_record_reduction(monkeypatch, ref_system, ref_design, ref_observer,
                                            knobs, diverging):
    """The per-record fold gives the report of reducing the full record, exactly."""
    _, _, cl = ref_system
    report = roa.monte_carlo_box_check(
        cl, ref_design, ref_observer, **_set_steps(monkeypatch, knobs, stride="BOX_STRIDE")
    )
    assert report == _box_report_by_record(cl, ref_design, ref_observer, **knobs)
    assert (report.n_diverged > 0) == diverging


@pytest.mark.parametrize(
    "scale, knobs, diverging",
    [
        (1.0, dict(seed=0), False),
        (1.0, dict(seed=1), False),
        (1.0, dict(seed=2), False),
        (1e6, dict(n_samples=60, seed=3), True),  # far outside the certified set
        (1.0, dict(n_samples=40, horizon=1.0, stride=37, seed=4), False),
        (1.0, dict(n_samples=0, horizon=0.5), False),
        (1.0, dict(n_samples=1, horizon=0.5), False),
        (1.0, dict(n_samples=520, horizon=0.5, seed=1), False),
        (1e6, dict(n_samples=300, horizon=0.5, seed=3), True),  # most diverge
    ],
)
def test_verify_decay_matches_record_reduction(monkeypatch, cert_instance, scale, knobs,
                                               diverging):
    """The per-record fold gives the report of reducing the full record, exactly."""
    cl, design, obs, est = cert_instance
    est = replace(est, level=est.level * scale)
    report = roa.verify_decay(
        cl, design, obs, est,
        **_set_steps(monkeypatch, knobs, horizon="DECAY_HORIZON", stride="DECAY_STRIDE"),
    )
    assert report == _decay_report_by_record(cl, design, obs, est, **knobs)
    assert (report.n_diverged > 0) == diverging


@pytest.mark.parametrize(
    "knobs, field",
    [
        (dict(horizon=0.0), "horizon"),
        (dict(horizon=math.inf), "horizon"),
        (dict(dt=0.0), "dt"),
        (dict(stride=0), "stride"),
        (dict(dt=4e-4, horizon=1.0003), "horizon"),  # 2500.75 steps
    ],
)
def test_step_grid_refused_before_any_sample_is_drawn(monkeypatch, cert_instance, knobs, field):
    cl, design, obs, est = cert_instance
    box_knobs = _set_steps(monkeypatch, knobs, stride="BOX_STRIDE")
    decay_knobs = _set_steps(monkeypatch, knobs, horizon="DECAY_HORIZON", stride="DECAY_STRIDE")

    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    for check in (
        lambda: roa.monte_carlo_box_check(cl, design, obs, n_samples=500, **box_knobs),
        lambda: roa.verify_decay(cl, design, obs, est, n_samples=500, **decay_knobs),
    ):
        with pytest.raises(ValidationError) as info:
            check()
        assert info.value.field == field


def test_monte_carlo_checks_keep_no_state_record(cert_instance):
    # the default box check records 101 states of 500 samples (3.2 MB) and
    # verify_decay 201 of 200 (2.6 MB) if it keeps the run; folding each
    # record as it comes keeps only per-sample arrays and the report. A
    # small warm-up call first, so that numpy's one-off first-call
    # allocations do not count against the check
    cl, design, obs, est = cert_instance
    roa.monte_carlo_box_check(cl, design, obs, n_samples=2, horizon=0.1)
    roa.verify_decay(cl, design, obs, est, n_samples=2)
    for check in (
        lambda: roa.monte_carlo_box_check(cl, design, obs),
        lambda: roa.verify_decay(cl, design, obs, est, n_samples=200),
    ):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_box_check_reference_subset_converges(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    report = roa.monte_carlo_box_check(
        cl,
        ref_design,
        ref_observer,
        box_halfwidth=0.5,
        n_samples=50,
        horizon=5.0,
        seed=0,
    )
    assert report.fraction_converged == 1.0
    assert report.n_diverged == 0
    assert report.max_transient_norm < 10.0


def test_certify_unstable_gain_reports_not_raises(ref_system):
    _, _, cl = ref_system
    design = attack.build_design(
        cl, pi_star=np.array([1.0, -3.0]), gamma_fraction=0.1, Y=0.2 * np.eye(cl.n)
    )
    obs = observer.gain_from_vector(design, cl.B, -50.0 * cl.B)
    est = roa.certify(cl, design, obs)
    assert not est.feasible
    assert math.isnan(est.c1)
    assert math.isnan(est.c2)
    assert math.isnan(est.c3)
    assert math.isnan(est.c4)
    assert any("not Hurwitz" in note for note in est.notes)


def test_certify_unstable_attack_matrix_is_infeasible_data(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    design = replace(ref_design, Fbar=ref_design.Fbar + 10.0 * np.eye(cl.n))
    est = roa.certify(cl, design, ref_observer)
    assert not est.feasible
    assert math.isnan(est.c2)
    assert len(est.notes) == 1 and est.notes[0].startswith("Fbar is not Hurwitz (abscissa ")


def test_certify_reports_lyapunov_residual_failure(make_random_system):
    # this draw's error-matrix Lyapunov solve misses the 1e-8 residual check
    rng = np.random.default_rng(775)
    _, _, cl = make_random_system(rng)
    design = attack.build_design(cl, seed=int(rng.integers(0, 2**31)))
    obs = observer.design_gain(design, cl.B)
    est = roa.certify(cl, design, obs)
    assert not est.feasible
    assert math.isnan(est.c2)
    assert any("Lyapunov residual" in note for note in est.notes)


def test_reports_serialize_to_json(cert_instance, make_random_system):
    cl, design, obs, est = cert_instance
    decay = roa.verify_decay(cl, design, obs, est, n_samples=5, seed=7)
    box = roa.monte_carlo_box_check(
        cl, design, obs, box_halfwidth=0.1, n_samples=5, horizon=1.0
    )
    # the residual-failure draw above: an infeasible estimate with NaN constants
    rng = np.random.default_rng(775)
    _, _, bad_cl = make_random_system(rng)
    bad_design = attack.build_design(bad_cl, seed=int(rng.integers(0, 2**31)))
    bad = roa.certify(bad_cl, bad_design, observer.design_gain(bad_design, bad_cl.B))
    assert math.isnan(bad.c2)
    for report in (est, decay, box, bad):
        payload = report.as_dict()
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload
    assert bad.as_dict()["c2"] == "nan"
