"""Tests for the RK4 integrator, the decay fit, and the trajectory exports."""

import types

import numpy as np
import pytest

from obsforge import attack, observer, refcase, sim
from obsforge.errors import DivergenceError, ValidationError
from paper_equations import attack_signal, observer_rhs, output, plant_rhs
from records import batch_record, replace


def _reference_run(ref_system, ref_design, ref_observer, dt=1e-3, T=5.0, stride=10):
    _, _, cl = ref_system
    return sim.integrate(
        cl,
        ref_design,
        ref_observer,
        np.array(refcase.REFERENCE_Z0),
        np.array(refcase.REFERENCE_ZHAT0),
        dt=dt,
        T=T,
        stride=stride,
    )


def test_equilibrium_stays_at_zero(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    traj = sim.integrate(
        cl, ref_design, ref_observer, np.zeros(4), np.zeros(4), dt=1e-3, T=0.1
    )
    assert np.all(traj.z == 0.0)
    assert np.all(traj.z_hat == 0.0)
    assert np.all(traj.y == 0.0)
    assert np.all(traj.a == 0.0)


def test_rk4_fourth_order_convergence(ref_system, ref_design, ref_observer):
    # Richardson study against a much finer run: halving dt should shrink
    # the terminal error by roughly 2^4.
    _, _, cl = ref_system
    z0 = np.array(refcase.REFERENCE_Z0)
    zhat0 = np.array(refcase.REFERENCE_ZHAT0)
    T = 0.5

    def final_state(dt):
        traj = sim.integrate(
            cl, ref_design, ref_observer, z0, zhat0, dt=dt, T=T, stride=10**6
        )
        return np.concatenate([traj.z[-1], traj.z_hat[-1]])

    ref = final_state(1.25e-4)
    dts = np.array([0.02, 0.01, 0.005])
    errs = np.array([np.linalg.norm(final_state(dt) - ref) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.7 <= slope <= 4.3


def test_bookkeeping_identities_hold_bitwise(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    traj = _reference_run(ref_system, ref_design, ref_observer, T=0.05, stride=1)
    assert np.array_equal(traj.e, traj.z_hat - traj.z)
    assert np.array_equal(traj.y_tilde, traj.y + traj.a)
    assert np.array_equal(traj.a, traj.z_hat @ ref_design.Hbar[0])
    y = np.einsum("ij,ij->i", traj.z @ cl.Q, traj.z)
    assert np.array_equal(traj.y, y)


def test_recording_stride_keeps_final_sample(ref_system, ref_design, ref_observer):
    # 100 steps with stride 7 does not land on the endpoint, which must be
    # appended anyway.
    traj = _reference_run(ref_system, ref_design, ref_observer, T=0.1, stride=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
    assert traj.times[1] == pytest.approx(7e-3, abs=1e-12)


def test_divergence_raises_with_blowup_time(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    huge = 1e5 * np.ones(4)
    with pytest.raises(DivergenceError) as excinfo:
        sim.integrate(cl, ref_design, ref_observer, huge, -huge, dt=1e-3, T=1.0)
    assert excinfo.value.time is not None
    assert 0.0 < excinfo.value.time <= 1.0


def test_integrate_batch_matches_single_runs(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    rng = np.random.default_rng(11)
    Z0 = rng.uniform(-0.3, 0.3, (3, 4))
    Zh0 = rng.uniform(-0.3, 0.3, (3, 4))
    Z, Zh, blowup = batch_record(cl, ref_design, ref_observer, Z0, Zh0, dt=1e-3, T=0.2, stride=10)
    assert not np.isfinite(blowup).any()
    for i in range(3):
        traj = sim.integrate(
            cl, ref_design, ref_observer, Z0[i], Zh0[i], dt=1e-3, T=0.2, stride=10
        )
        assert Z.shape[0] == traj.times.shape[0] == 21
        assert np.allclose(Z[:, i], traj.z, rtol=0, atol=1e-13)
        assert np.allclose(Zh[:, i], traj.z_hat, rtol=0, atol=1e-13)


def test_integrate_batch_divergence_semantics(ref_system, ref_design, ref_observer):
    # a growing row, a row that starts non-finite and two survivors; the
    # per-column norm runs only on steps whose sum of squares fails the screen
    _, _, cl = ref_system
    # row 1 passes the batch limit 1e6 and integrate's 1e9 in the same step
    Z0 = np.array([[0.1] * 4, [50.0] * 4, [np.nan, 0.0, 0.0, 0.0], [-0.2] * 4])
    Z, Zh, blowup = batch_record(cl, ref_design, ref_observer, Z0, -Z0, dt=1e-3, T=1.0)
    assert np.array_equal(blowup, [np.nan, 0.021, 0.001, np.nan], equal_nan=True)
    with pytest.raises(DivergenceError) as excinfo:
        sim.integrate(cl, ref_design, ref_observer, Z0[1], -Z0[1], dt=1e-3, T=1.0)
    assert excinfo.value.time == blowup[1]
    times = 1e-3 * np.arange(1001)
    for i in (1, 2):
        after = times >= blowup[i]
        assert np.isnan(Z[after, i]).all() and np.isnan(Zh[after, i]).all()
    assert np.isfinite(Z[times < blowup[1], 1]).all()
    for i in (0, 3):
        traj = sim.integrate(cl, ref_design, ref_observer, Z0[i], -Z0[i], dt=1e-3, T=1.0)
        assert np.array_equal(traj.times, times)
        assert np.allclose(Z[:, i], traj.z, rtol=0, atol=1e-13)
        assert np.allclose(Zh[:, i], traj.z_hat, rtol=0, atol=1e-13)


def test_integrate_batch_fold_sees_every_record(ref_system, ref_design, ref_observer):
    # a fold gets record 0 and every scheduled record in order, the state
    # as (2n, samples) columns with NaN in the columns of diverged samples;
    # a NaN start passes record 0 as is, and a live sample's rows are the
    # record integrate keeps of it
    _, _, cl = ref_system
    n = cl.n
    Z0 = np.array([[0.1] * 4, [50.0] * 4, [-0.2] * 4, [np.nan] * 4])
    kw = dict(dt=1e-3, T=0.1, stride=7)
    seen = []

    def fold(rec, S):
        assert S.shape == (2 * n, 4) and rec == len(seen)
        seen.append(S.T.copy())

    blowup = sim.integrate_batch(cl, ref_design, ref_observer, Z0, -Z0, fold, **kw)
    times = 1e-3 * np.array([0, 7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84, 91, 98, 100])
    assert blowup[3] == 1e-3 and blowup[1] == times[3]  # 0.021 s, the record at step 21
    assert len(seen) == len(times)  # 100 steps, stride 7, and the last
    assert np.array_equal(seen[0], np.concatenate([Z0, -Z0], axis=1), equal_nan=True)
    for t, rows in zip(times, seen):  # a dead sample reads NaN, never zeros
        assert np.isnan(rows[blowup <= t]).all()
    for i in (0, 2):
        traj = sim.integrate(cl, ref_design, ref_observer, Z0[i], -Z0[i], **kw)
        assert np.array_equal(traj.times, times)
        got = np.stack(seen)[:, i]
        assert np.abs(got - np.concatenate([traj.z, traj.z_hat], axis=1)).max() <= 1e-15


def test_integrate_batch_matches_plain_rk4(ref_system, ref_design, ref_observer):
    # independent oracle: textbook RK4 over the written-out right-hand sides
    _, _, cl = ref_system
    n = cl.n
    dt, T = 1e-3, 0.1
    rng = np.random.default_rng(23)
    Z0 = rng.uniform(-0.5, 0.5, (3, n))
    Zh0 = rng.uniform(-0.5, 0.5, (3, n))
    Z, Zh, blowup = batch_record(cl, ref_design, ref_observer, Z0, Zh0, dt=dt, T=T, stride=10)
    assert not np.isfinite(blowup).any()

    def rhs(s):
        z, zhat = s[:n], s[n:]
        ytilde = output(cl, z) + attack_signal(ref_design, zhat)
        return np.concatenate(
            [
                plant_rhs(cl, ref_design, z, zhat),
                observer_rhs(cl, ref_design, ref_observer, zhat, ytilde),
            ]
        )

    for i in range(3):
        s = np.concatenate([Z0[i], Zh0[i]])
        for _ in range(int(round(T / dt))):
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * dt * k1)
            k3 = rhs(s + 0.5 * dt * k2)
            k4 = rhs(s + dt * k3)
            s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = np.concatenate([Z[-1, i], Zh[-1, i]])
        assert np.linalg.norm(got - s) <= 1e-12 * np.linalg.norm(s)


def test_integrate_batch_width_bound(ref_system, ref_design, ref_observer):
    # BLAS picks its kernel by batch width, so a row's states depend on the
    # width it runs in by a few ulps: up to 4.4e-16 with OpenBLAS 0.3.31 on a
    # 2-vCPU x86 host
    _, _, cl = ref_system
    n = cl.n
    # the default box check's first 0.5 s
    S0 = np.array([np.random.default_rng((0, j)).uniform(-0.5, 0.5, 2 * n) for j in range(500)])

    def run(rows):
        Z, Zh, blowup = batch_record(
            cl, ref_design, ref_observer, S0[rows, :n], S0[rows, n:], T=0.5, stride=50
        )
        assert not np.isfinite(blowup).any()
        return np.concatenate([Z, Zh], axis=2)

    full = run(slice(None))
    assert 0.3 < np.abs(full).max() < 2.0  # states of order 1
    for width, count in ((1, 8), (33, 66), (250, 500)):
        for start in range(0, count, width):
            rows = slice(start, start + width)
            assert np.abs(run(rows) - full[:, rows]).max() <= 1e-15, (width, start)
    for i in range(2):
        traj = sim.integrate(
            cl, ref_design, ref_observer, S0[i, :n], S0[i, n:], T=0.5, stride=50
        )
        assert np.abs(np.concatenate([traj.z, traj.z_hat], axis=1) - full[:, i]).max() <= 1e-15


def _classic_rk4(field, S, dt, n_steps):
    """Textbook four-stage RK4 on (2n, m) columns, one field call per stage."""
    for _ in range(n_steps):
        k1 = field(S)
        k2 = field(S + 0.5 * dt * k1)
        k3 = field(S + 0.5 * dt * k2)
        k4 = field(S + dt * k3)
        S = S + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return S


@pytest.fixture
def reference_field(ref_system, ref_design, ref_observer):
    return observer.coupled_field(ref_system[2], ref_design, ref_observer)


@pytest.fixture
def random_n8_field(make_random_system):
    _, _, cl = make_random_system(np.random.default_rng(9), n_p=4, n_c=4)
    design = attack.build_design(cl)
    return observer.coupled_field(cl, design, observer.design_gain(design, cl.B))


@pytest.fixture
def indefinite_field(indefinite_case):
    return observer.coupled_field(*indefinite_case)


# the box check's half-width on the reference design; some samples of the
# random design (gain norm 132 against 30) blow up from 0.1 within 0.4 s;
# the indefinite case has n_p = 3, n_c = 2 and a singular indefinite Q_p
@pytest.mark.parametrize(
    "case, amplitude",
    [("reference_field", 0.5), ("random_n8_field", 0.01), ("indefinite_field", 0.1)],
)
@pytest.mark.parametrize("m", [1, 7, 500])
@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_stage_maps_match_classic_rk4(request, case, amplitude, m, dt):
    # the stage-map stepper against RK4 written out over the same field
    field = request.getfixturevalue(case)
    S0 = np.random.default_rng(m).uniform(-amplitude, amplitude, (m, field.J_tilde.shape[0]))
    n_steps = 40
    times, states, blowup = sim._rk4_batch(field, S0, dt, n_steps, 8, sim.NORM_LIMIT)
    assert not np.isfinite(blowup).any()
    assert np.array_equal(times, dt * np.array([0, 8, 16, 24, 32, 40]))
    for r, k in enumerate(range(0, n_steps + 1, 8)):
        ref = _classic_rk4(field, S0.T, dt, k).T
        err = np.linalg.norm(states[r] - ref, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1)), (r, err.max())


def _matmul_rk4_batch(field, S0, dt, n_steps, stride, norm_limit):
    """Reference for sim._rk4_batch: the same stage maps stepped with
    np.matmul, a max-abs screen over a scratch buffer, per-record dict
    lookups, a per-record ``alive.all()``, direct writes of the record and
    an unscaled norm check. The stepper must equal it bit for bit while no
    live column's norm lies between 1.3e154, where the squares of that norm
    overflow, and the limit (see test_rk4_batch_screen_past_double_range)."""
    m, w = S0.shape
    r = field.K.shape[1]
    rec_idx = list(range(0, n_steps + 1, stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    rec_pos = {k: i for i, k in enumerate(rec_idx)}
    out = np.full((len(rec_idx), m, w), np.nan)
    blowup = np.full(m, np.nan)
    alive = np.ones(m, dtype=bool)
    safe = 0.5 * norm_limit / np.sqrt(w)

    *stages, step = sim._stage_maps(field, dt)
    X = np.empty((w + 4 * r, m))
    S = X[:w]
    W = [X[w + r * j : w + r * (j + 1)] for j in range(4)]
    reads = [X[: M.shape[1]] for M in stages]
    G = np.empty((w + r, m))
    D, CS = G[:w], G[w:]
    P = np.empty((w, m))

    S[:] = S0.T
    out[0] = S0
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(field.C, S, out=W[0])
        np.square(W[0], out=W[0])
        for k in range(1, n_steps + 1):
            for j in range(3):
                np.matmul(stages[j], reads[j], out=W[j + 1])
                np.square(W[j + 1], out=W[j + 1])
            np.matmul(step, X, out=G)
            S += D
            np.square(CS, out=W[0])

            np.abs(S, out=P)
            if not P.max(initial=0.0) <= safe:
                norms = np.linalg.norm(S, axis=0)
                bad = alive & ~(norms <= norm_limit)
                if np.any(bad):
                    blowup[bad] = k * dt
                    alive &= ~bad
                    X[:, bad] = 0.0
            if k in rec_pos:
                if alive.all():
                    out[rec_pos[k]] = S.T
                else:
                    row = out[rec_pos[k]]
                    row[alive] = S.T[alive]
    return np.asarray(rec_idx, dtype=float) * dt, out, blowup


@pytest.mark.parametrize("m", [1, 7, 33, 500])
@pytest.mark.parametrize("start", ["finite", "diverging", "nan"])
@pytest.mark.parametrize("stride", [1, 7])
def test_rk4_batch_bitwise_matches_matmul_loop(reference_field, m, start, stride):
    # np.dot and np.matmul reach the same BLAS routine, and the screen and
    # the record schedule only decide when work runs, so every output is
    # the reference loop's to the bit. Row 0 starts NaN or grows past each
    # limit: gradually past 1e3 (819 to 1202 at step 20), at once past 1e9,
    # and only as NaN past 1e300, whose squared half overflows
    S0 = np.random.default_rng(m).uniform(-0.5, 0.5, (m, 8))
    if start == "diverging":
        S0[0] = 50.0
    elif start == "nan":
        S0[0, 2] = np.nan
    for norm_limit in (1e3, 1e9, 1e300):
        got = sim._rk4_batch(reference_field, S0, 1e-3, 60, stride, norm_limit)
        want = _matmul_rk4_batch(reference_field, S0, 1e-3, 60, stride, norm_limit)
        assert np.isfinite(got[2][0]) == (start != "finite")
        for g, r in zip(got, want):
            assert np.array_equal(g, r, equal_nan=True), norm_limit


def test_rk4_batch_screen_past_double_range():
    # sdot = 1000 s multiplies a column by 1 + 1 + 1/2 + 1/6 + 1/24 a step.
    # Past 1.3e154 the sum of squares overflows, so every step fails the
    # screen, whose threshold (1e300 / 2)**2 is clamped to the largest
    # double. The exact check's scaled norms then pass 1e300 only when a
    # column does: the one from 1e290 at step 24 (8.9e299 after 23 steps),
    # while the one from 1e140 ends near 2e157 and stays alive
    w = 2
    field = types.SimpleNamespace(J_tilde=1e3 * np.eye(w), C=np.zeros((1, w)), K=np.zeros((w, 1)))
    S0 = np.array([[1e290, 0.0], [1e140, -1e140], [1.0, -1.0]])
    times, states, blowup = sim._rk4_batch(field, S0, 1e-3, 40, 1, 1e300)
    assert blowup[0] == 24 * 1e-3 and np.isnan(blowup[1:]).all()
    assert np.isfinite(states[:24, 0]).all() and np.isnan(states[24:, 0]).all()
    assert 8e299 < states[23, 0, 0] < 1e300
    assert np.isfinite(states[:, 1:]).all() and states[-1, 1, 0] > 1e157


def test_rk4_batch_screen_failing_on_healthy_columns(reference_field):
    # 500 columns of norm 1 against norm_limit 10: the sum of squares
    # exceeds (10 / 2)**2 on every step, so the exact per-column check runs
    # each time, finds nothing and must leave the run as a limit of 1e9 does
    S0 = np.random.default_rng(5).standard_normal((500, 8))
    S0 /= np.linalg.norm(S0, axis=1)[:, None]
    tight = sim._rk4_batch(reference_field, S0, 1e-3, 50, 1, 10.0)
    loose = sim._rk4_batch(reference_field, S0, 1e-3, 50, 1, 1e9)
    assert np.all(np.einsum("tsi,tsi->t", tight[1], tight[1]) > 25.0)
    assert not np.isfinite(tight[2]).any()
    for t, l in zip(tight, loose):
        assert np.array_equal(t, l, equal_nan=True)  # blow-up times are all NaN


def test_integrate_validates_inputs(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    z0 = np.zeros(4)
    with pytest.raises(ValidationError, match="positive"):
        sim.integrate(cl, ref_design, ref_observer, z0, z0, dt=0.0)
    with pytest.raises(ValidationError, match="horizon"):
        sim.integrate(cl, ref_design, ref_observer, z0, z0, dt=1e-3, T=1e-4)
    with pytest.raises(ValidationError, match="length"):
        sim.integrate(cl, ref_design, ref_observer, np.zeros(3), z0)
    with pytest.raises(ValidationError, match="width"):
        sim.integrate_batch(cl, ref_design, ref_observer, np.zeros((2, 3)), np.zeros((2, 3)), None)


@pytest.mark.parametrize(
    "knobs, field",
    [
        ({"stride": 0}, "stride"),
        ({"stride": -3}, "stride"),
        ({"stride": 2.5}, "stride"),
        ({"T": np.inf}, "T"),
        ({"T": np.nan}, "T"),
        ({"dt": np.inf}, "dt"),
        ({"dt": np.nan}, "dt"),
        ({"dt": 1e-300, "T": 1e300}, "T"),
        ({"dt": 4e-4, "T": 1.0003}, "T"),  # 2500.75 steps: used to end at 1.0004
    ],
)
def test_step_checks_name_the_bad_knob(ref_system, ref_design, ref_observer, knobs, field):
    _, _, cl = ref_system
    z0 = np.zeros(4)
    with pytest.raises(ValidationError) as single:
        sim.integrate(cl, ref_design, ref_observer, z0, z0, **knobs)
    with pytest.raises(ValidationError) as batch:
        sim.integrate_batch(cl, ref_design, ref_observer, z0[None], z0[None], None, **knobs)
    assert single.value.field == batch.value.field == field


def _synthetic_traj(times, e_norms, z_norms=None):
    n = times.shape[0]
    e = np.outer(e_norms, np.array([1.0, 0.0, 0.0, 0.0]))
    z = np.outer(
        z_norms if z_norms is not None else np.zeros(n),
        np.array([1.0, 0.0, 0.0, 0.0]),
    )
    zeros = np.zeros(n)
    return sim.Trajectory(
        times=times, z=z, z_hat=z + e, e=e, y=zeros, y_tilde=zeros, a=zeros
    )


def test_fit_decay_recovers_synthetic_exponential():
    times = np.linspace(0.0, 3.0, 301)
    traj = _synthetic_traj(times, 0.7 * np.exp(-2.0 * times))
    fit = sim.fit_decay(traj)
    assert fit.alpha == pytest.approx(2.0, abs=1e-6)
    assert fit.kappa == pytest.approx(1.0, rel=1e-6)
    assert fit.r_squared > 0.999999
    assert fit.n_points == 301


def test_fit_decay_prefix_before_exact_zero():
    times = np.linspace(0.0, 1.0, 101)
    norms = np.exp(-3.0 * times)
    norms[60:] = 0.0
    fit = sim.fit_decay(_synthetic_traj(times, norms))
    assert fit.n_points == 60
    assert fit.alpha == pytest.approx(3.0, abs=1e-6)


def test_fit_envelope_majorizes_both_series(ref_system, ref_design, ref_observer):
    traj = _reference_run(ref_system, ref_design, ref_observer)
    for series, norms in (("e", traj.e_norm), ("z", traj.z_norm)):
        fit = sim.fit_decay(traj, series=series)
        assert fit.alpha > 0
        envelope = (
            fit.kappa
            * norms[0]
            * np.exp(-fit.alpha * traj.times)
            * (1.0 + fit.fit_slack)
        )
        assert np.all(norms <= envelope * (1.0 + 1e-12))


def test_fit_decay_reads_fit_slack_at_call_time(ref_system, ref_design, ref_observer, monkeypatch):
    traj = _reference_run(ref_system, ref_design, ref_observer, T=1.0)
    base = sim.fit_decay(traj)
    monkeypatch.setattr(sim, "FIT_SLACK", 0.5)
    wide = sim.fit_decay(traj)
    assert (base.fit_slack, wide.fit_slack) == (0.05, 0.5)
    assert wide.alpha == base.alpha
    assert wide.kappa <= base.kappa  # more slack never raises the line further


def test_fit_decay_validation():
    times = np.linspace(0.0, 1.0, 11)
    traj = _synthetic_traj(times, np.exp(-times))
    with pytest.raises(ValidationError, match="'e' or 'z'"):
        sim.fit_decay(traj, series="x")
    with pytest.raises(ValidationError, match="no samples") as excinfo:
        sim.fit_decay(_synthetic_traj(np.empty(0), np.empty(0)))
    assert excinfo.value.field == "window"
    dead = _synthetic_traj(times, np.zeros(11))
    with pytest.raises(ValidationError, match="vanishes"):
        sim.fit_decay(dead)
    with pytest.raises(ValidationError, match="vanishes"):
        sim.fit_decay(traj, series="z")  # z stays identically zero here
    with pytest.raises(ValidationError, match="only 1 usable sample"):
        sim.fit_decay(_synthetic_traj(times[:3], np.array([1.0, 0.0, 0.5])))


def test_fit_decay_on_times_whose_squares_underflow():
    # at dt = 1e-200 every t**2 underflows to 0, which polyfit's column
    # scaling turns into NaN and a LinAlgError; at 1e-162 some do not
    tiny = _synthetic_traj(np.arange(4) * 1e-200, np.array([1.0, 0.9, 0.8, 0.7]))
    with pytest.raises(ValidationError, match="degenerate fit") as excinfo:
        sim.fit_decay(tiny)
    assert excinfo.value.field == "window"
    small = _synthetic_traj(np.arange(4) * 1e-162, np.array([1.0, 0.9, 0.8, 0.7]))
    assert sim.fit_decay(small).n_points == 4


def test_trajectory_csv_roundtrip(tmp_path, ref_system, ref_design, ref_observer):
    traj = _reference_run(ref_system, ref_design, ref_observer, T=0.02, stride=2)
    a = traj.a.copy()
    a[0] = -0.0
    traj = replace(traj, a=a)
    path = tmp_path / "traj.csv"
    sim.trajectory_to_csv(traj, path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == (
        "t,z1,z2,z3,z4,zhat1,zhat2,zhat3,zhat4,e1,e2,e3,e4,y,ytilde,a"
    )
    table = np.loadtxt(path, skiprows=1, delimiter=",")
    expected = np.column_stack(
        [traj.times, traj.z, traj.z_hat, traj.e, traj.y, traj.y_tilde, traj.a]
    )
    assert np.array_equal(table, expected)
    # the bytes are those of formatting each value on its own
    lines = [",".join("%.17g" % v for v in row) + "\n" for row in expected]
    assert lines[0].endswith(",-0\n")
    with open(path, "rb") as fh:
        fh.readline()
        assert fh.read() == "".join(lines).encode("utf-8")


def test_gnuplot_stub_contents(tmp_path):
    script = tmp_path / "plot.gp"
    sim.write_gnuplot_stub("trajectory.csv", script, 4)
    text = script.read_text(encoding="utf-8")
    assert "set datafile separator ','" in text
    assert "csv = 'trajectory.csv'" in text
    assert "zhat3" in text
    assert "set logscale y" in text
