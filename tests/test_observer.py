import re

import numpy as np
import pytest

from obsforge import attack, observer
from obsforge.errors import SynthesisError, ValidationError
from obsforge.numerics import spectrum_distance
from paper_equations import attack_signal, error_rhs, observer_rhs, output, plant_rhs


def test_design_gain_reference_frozen(ref_observer):
    L = ref_observer.L[:, 0]
    expected = [-6.700599273067, 6.454422038557, 27.720442610797, 4.914976485788]
    assert L == pytest.approx(expected, abs=1e-6)
    assert ref_observer.placement_error < 1e-6
    assert spectrum_distance(
        ref_observer.placed_poles,
        np.array([-9.5, -10.5, -11.5, -12.5], dtype=complex),
    ) < 1e-6


def test_gain_recovery_consistency(ref_system, ref_design, ref_observer):
    # the placement ran on Ltilde = L + B, and F + (B+L) H == F + Ltilde H
    _, _, cl = ref_system
    Ltilde = ref_observer.L + cl.B
    lhs = ref_design.Fbar + (cl.B + ref_observer.L) @ ref_design.Hbar
    rhs = ref_design.Fbar + Ltilde @ ref_design.Hbar
    assert np.array_equal(lhs, rhs)


def test_default_poles_structure(ref_system):
    _, _, cl = ref_system
    poles = observer.default_poles(cl.A, cl.n)
    assert poles.shape == (cl.n,)
    assert np.all(poles.real < 0) and np.all(poles.imag == 0)
    spacing = np.diff(np.sort(poles.real))
    assert np.allclose(spacing, 1.0)
    assert np.max(poles.real) == pytest.approx(-1.5 * 3.5, rel=1e-9)


def test_design_gain_validations(ref_design, ref_system):
    _, _, cl = ref_system
    with pytest.raises(ValidationError, match="poles"):
        observer.design_gain(ref_design, cl.B, desired_poles=np.array([-1.0, -2.0]))
    with pytest.raises(ValidationError, match="negative"):
        observer.design_gain(
            ref_design, cl.B, desired_poles=np.array([0.5, -2.0, -3.0, -4.0])
        )


def test_design_gain_default_poles_work(ref_design, ref_system):
    _, _, cl = ref_system
    obs = observer.design_gain(ref_design, cl.B)
    assert obs.placement_error < 1e-6


def test_design_gain_miss_is_synthesis_error(make_random_system):
    # a barely observable pair (Krylov margin 2.3e-9) that passes the gate,
    # whose placement misses PLACEMENT_TOL (by 1.3e-5 where it was seen)
    _, _, cl = make_random_system(np.random.default_rng([99, 8, 192]), 4, 4)
    design = attack.build_design(cl, seed=192)
    with pytest.raises(SynthesisError) as info:
        observer.design_gain(design, cl.B)
    miss = re.fullmatch(
        r"placed spectrum misses target by (\S+) \(> 1\.0e-06\); observability margin (\S+)",
        str(info.value),
    )
    assert miss is not None, str(info.value)
    assert float(miss.group(1)) > observer.PLACEMENT_TOL
    assert miss.group(2) == "%.3e" % design.observability_margin


@pytest.mark.parametrize("n", [8, 10])
def test_design_gain_places_every_gated_draw(make_random_system, n):
    # Ackermann's formula places n = 10 draw 1 more than 1e-6 off target
    placed = 0
    for i in range(40):
        _, _, cl = make_random_system(np.random.default_rng([99, n, i]), n // 2, n // 2)
        try:
            design = attack.build_design(cl, seed=i)
        except SynthesisError:
            continue  # the Krylov gate rejects the pair
        assert observer.design_gain(design, cl.B).placement_error <= observer.PLACEMENT_TOL
        placed += 1
    assert placed > 0


def test_error_identity_sampled(ref_system, ref_design, ref_observer):
    # two routes to the error derivative: direct formula vs observer - plant,
    # and the closed-form coupled field against both written-out forms
    _, _, cl = ref_system
    field = observer.coupled_field(cl, ref_design, ref_observer)
    rng = np.random.default_rng(17)
    for _ in range(100):
        z = rng.standard_normal(cl.n)
        e = rng.standard_normal(cl.n)
        zhat = z + e
        ytilde = output(cl, z) + attack_signal(ref_design, zhat)
        zhat_dot = observer_rhs(cl, ref_design, ref_observer, zhat, ytilde)
        z_dot = plant_rhs(cl, ref_design, z, zhat)
        e_dot = error_rhs(cl, ref_design, ref_observer, z, e)
        scale = max(1.0, np.linalg.norm(zhat_dot), np.linalg.norm(z_dot))
        assert np.linalg.norm(e_dot - (zhat_dot - z_dot)) <= 1e-10 * scale

        s_dot = field(np.concatenate([z, zhat])[:, None])[:, 0]
        dz, dzh = s_dot[: cl.n], s_dot[cl.n :]
        ref = np.concatenate([z_dot, zhat_dot])
        assert np.linalg.norm(s_dot - ref) <= 1e-10 * np.linalg.norm(ref)
        ref_err = np.concatenate([z_dot, e_dot])
        got_err = np.concatenate([dz, dzh - dz])
        assert np.linalg.norm(got_err - ref_err) <= 1e-10 * np.linalg.norm(ref_err)


def test_coupled_field_indefinite_singular_qp(indefinite_case):
    # factor form with n_p != n_c and Q_p of both signs plus a zero
    # eigenvalue, against the written-out plant and observer fields
    cl, design, obs = indefinite_case
    field = observer.coupled_field(cl, design, obs)
    assert field.C.shape == (2 * cl.n_p, 2 * cl.n)
    rng = np.random.default_rng(23)
    for _ in range(100):
        z = rng.standard_normal(cl.n)
        zhat = z + rng.standard_normal(cl.n)
        ytilde = output(cl, z) + attack_signal(design, zhat)
        ref = np.concatenate([
            plant_rhs(cl, design, z, zhat),
            observer_rhs(cl, design, obs, zhat, ytilde),
        ])
        s_dot = field(np.concatenate([z, zhat])[:, None])[:, 0]
        assert np.linalg.norm(s_dot - ref) <= 1e-10 * np.linalg.norm(ref)
    # a state along Q_p's null vector has no quadratic term at all
    z = np.zeros(cl.n)
    z[:3] = (1.0, -1.0, 1.0)
    s = np.concatenate([z, z])[:, None]
    lin = field.J_tilde @ s
    assert np.abs(field(s) - lin).max() <= 1e-14 * np.abs(lin).max()


def test_error_rhs_zero_at_origin(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    z = np.zeros(cl.n)
    assert np.array_equal(error_rhs(cl, ref_design, ref_observer, z, z), z)
    assert np.array_equal(plant_rhs(cl, ref_design, z, z), z)
    s = np.zeros((2 * cl.n, 1))
    assert np.array_equal(observer.coupled_field(cl, ref_design, ref_observer)(s), s)


def test_augmented_jacobian_blocks(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    n = cl.n
    aug = observer.augmented_jacobian(cl, ref_design, ref_observer)
    F = ref_design.Fbar
    H = ref_design.Hbar
    B = cl.B
    L = ref_observer.L
    assert np.allclose(aug.J_phi[:n, :n], F, atol=1e-14)
    assert np.allclose(aug.J_phi[:n, n:], B @ H, atol=1e-14)
    assert np.allclose(aug.J_phi[n:, :n], (B + L) @ H, atol=1e-14)
    assert np.allclose(aug.J_phi[n:, n:], F + L @ H, atol=1e-14)
    # transformed form: loop block decouples from the corrected error block
    assert np.allclose(aug.J_tilde[:n, :n], cl.A, atol=1e-14)
    assert np.all(aug.J_tilde[n:, :n] == 0.0)
    assert np.allclose(aug.J_tilde[n:, n:], F + (B + L) @ H, atol=1e-14)


def test_augmented_similarity(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    n = cl.n
    aug = observer.augmented_jacobian(cl, ref_design, ref_observer)
    T = aug.T
    Tinv = np.block([[np.eye(n), np.zeros((n, n))], [-np.eye(n), np.eye(n)]])
    assert np.allclose(T @ Tinv, np.eye(2 * n), atol=1e-14)
    scale = max(1.0, np.abs(aug.J_phi).max())
    assert np.abs(T @ aug.J_phi @ Tinv - aug.J_tilde).max() <= 1e-12 * scale


def test_augmented_spectrum_union(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    aug = observer.augmented_jacobian(cl, ref_design, ref_observer)
    got = np.linalg.eigvals(aug.J_phi)
    expected = np.concatenate(
        [np.linalg.eigvals(cl.A), ref_observer.placed_poles]
    )
    assert spectrum_distance(got, expected) < 1e-6


def test_jacobian_matches_finite_difference(ref_system, ref_design, ref_observer):
    # central differences kill the quadratic terms at the origin exactly
    _, _, cl = ref_system
    n = cl.n
    aug = observer.augmented_jacobian(cl, ref_design, ref_observer)

    def phi(x):
        z, e = x[:n], x[n:]
        zd = plant_rhs(cl, ref_design, z, z + e)
        ed = error_rhs(cl, ref_design, ref_observer, z, e)
        return np.concatenate([zd, ed])

    h = 1e-5
    J_fd = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        step = np.zeros(2 * n)
        step[j] = h
        J_fd[:, j] = (phi(step) - phi(-step)) / (2.0 * h)
    scale = max(1.0, np.abs(aug.J_phi).max())
    assert np.abs(J_fd - aug.J_phi).max() <= 1e-9 * scale


def test_gain_from_vector_roundtrip(ref_system, ref_design, ref_observer):
    _, _, cl = ref_system
    rebuilt = observer.gain_from_vector(
        ref_design, cl.B, ref_observer.L, ref_observer.desired_poles
    )
    assert np.array_equal(rebuilt.L, ref_observer.L)
    assert rebuilt.placement_error == pytest.approx(
        ref_observer.placement_error, abs=1e-12
    )


def test_unobservable_pair_fails_placement():
    # a zero output row cannot be placed; the failure must be loud
    from obsforge.errors import NumericError

    class Stub:
        Fbar = np.diag([-1.0, -2.0])
        Hbar = np.zeros((1, 2))

    with pytest.raises(NumericError, match="unobservable"):
        observer.design_gain(
            Stub(), np.ones((2, 1)), desired_poles=np.array([-4.0, -5.0])
        )
