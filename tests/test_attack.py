import inspect
import warnings

import numpy as np
import pytest
import scipy.linalg

from obsforge import attack, model
from obsforge.errors import (
    AssumptionError,
    ConditioningWarning,
    SynthesisError,
    ValidationError,
)
from obsforge.numerics import is_hurwitz
from paper_equations import attack_signal, clearance


def _pair(cl, pi):
    """Induced pair built from scratch, independent of the library path."""
    H = np.zeros((1, cl.n))
    H[0, : cl.n_p] = 2.0 * np.asarray(pi, dtype=float) @ cl.Q_p
    return cl.A + cl.B @ H, H


def test_forbidden_reference_structure(ref_system):
    _, _, cl = ref_system
    fset, notes = attack.forbidden_set(cl)
    assert len(fset) == 2
    tags = sorted(sub.tag for sub in fset)
    assert tags == ["ControllerEig(0)", "PlantEig(0)"]
    for sub in fset:
        assert len(sub.normals) == 2
        assert np.linalg.matrix_rank(np.vstack(sub.normals)) == 2
        assert not sub.degenerate
    assert notes == ()


def test_forbidden_real_eigs_are_hyperplanes():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.eye(2)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    fset, _ = attack.forbidden_set(model.assemble(plant, controller))
    assert len(fset) == 3  # two plant eigenpairs, one controller eigenpair
    for sub in fset:
        assert len(sub.normals) == 1
    # plant normals for Q_p = I are the eigenvectors themselves
    plant_normals = sorted(
        tuple(np.round(np.abs(sub.normals[0]), 6))
        for sub in fset
        if sub.source == "plant"
    )
    assert plant_normals == [(0.0, 1.0), (1.0, 0.0)]


def test_forbidden_zero_qp_vacuous():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.zeros((2, 2))
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    fset, notes = attack.forbidden_set(model.assemble(plant, controller))
    assert len(fset) == 0
    assert len(notes) == 3
    assert all("vacuous" in note for note in notes)


def test_forbidden_complex_pair_losing_a_normal_is_degenerate():
    # Q_p = diag(1, 0) zeroes one of the two normals of the complex pair
    plant = model.PlantModel(
        A_p=np.array([[-1.0, 2.0], [-1.0, -1.0]]),
        B_p=np.array([[0.0], [1.0]]),
        Q_p=np.diag([1.0, 0.0]),
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=0.0
    )
    cl = model.assemble(plant, controller)
    fset, notes = attack.forbidden_set(cl)
    assert [(s.tag, s.degenerate, len(s.normals)) for s in fset] == [
        ("PlantEig(0)", True, 1),
        ("ControllerEig(0)", False, 1),
    ]
    assert len(notes) == 1
    assert "plant eigenpair 0" in notes[0]
    assert "one normal vanished; constraint degenerates to a single hyperplane" in notes[0]
    design = attack.build_design(cl)
    assert design.forbidden_notes == notes


def test_forbidden_shared_eigenvalue_is_assumption_error():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.eye(2)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-1.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    with pytest.raises(AssumptionError, match="coincides with a plant eigenvalue"):
        attack.forbidden_set(model.assemble(plant, controller))


def test_forbidden_defective_matrix_warns():
    plant = model.PlantModel(
        A_p=np.array([[-1.0, 1.0], [0.0, -1.0]]),  # Jordan block
        B_p=np.array([[1.0], [1.0]]),
        Q_p=np.eye(2),
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    with pytest.warns(ConditioningWarning):
        attack.forbidden_set(model.assemble(plant, controller))


def test_defective_matrix_warning_names_the_callers_line():
    # a direct call and one through build_design both point at the user's line
    plant = model.PlantModel(
        A_p=np.array([[-1.0, 1.0], [0.0, -1.0]]),  # Jordan block
        B_p=np.array([[1.0], [1.0]]),
        Q_p=np.eye(2),
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    cl = model.assemble(plant, controller)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        direct = inspect.currentframe().f_lineno + 1
        attack.forbidden_set(cl)
        chained = inspect.currentframe().f_lineno + 1
        attack.build_design(cl, pi_star=np.array([1.0, -3.0]))
    assert [w.category for w in caught] == [ConditioningWarning] * 2
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, direct), (__file__, chained)]


def test_forbidden_singular_eigenvectors_read_inf_condition(monkeypatch):
    # np.linalg.cond's reading of a singular matrix: inf, and no RuntimeWarning
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.eye(2)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    singular = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.linalg.cond(singular) == np.inf
    real_eig = attack.eig

    def eig(M):
        values, vectors = real_eig(M)
        if M.shape != (2, 2):
            return values, vectors
        return values, singular

    monkeypatch.setattr(attack, "eig", eig)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        attack.forbidden_set(model.assemble(plant, controller))
    assert [w.category for w in caught] == [ConditioningWarning]
    assert "plant matrix looks defective (eigenvector condition inf)" in str(caught[0].message)


def test_margin_semantics():
    sub = attack.ForbiddenSubspace(
        normals=(np.array([1.0, 0.0]),), source="plant", index=0, eigenvalue=-1.0
    )
    got = attack._clearances((sub,), [[1.0, 0.0], [0.0, 1.0]])
    assert got.shape == (2, 1)
    assert got[:, 0] == pytest.approx([1.0, 0.0])
    # choose_pi_star refuses a zero pi before scoring it; the oracle gives it 0
    assert clearance(sub, [0.0, 0.0]) == 0.0


def test_pbh_vs_bruteforce_sampled(make_random_system):
    # scaled-down version of the acceptance suite: same dual route
    rng = np.random.default_rng(42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for _ in range(30):
            plant, controller, cl = make_random_system(
                rng, n_p=int(rng.integers(2, 4)), n_c=int(rng.integers(1, 3))
            )
            fset, _ = attack.forbidden_set(cl)
            for sub in fset:
                null = scipy.linalg.null_space(np.vstack(sub.normals))
                if null.shape[1] == 0:
                    continue
                pi_in = null @ rng.standard_normal(null.shape[1])
                if np.linalg.norm(pi_in) < 1e-9:
                    continue
                observable, _ = attack.is_observable(*_pair(cl, pi_in))
                assert not observable
            for _ in range(3):
                pi = rng.standard_normal(plant.n_p)
                if fset and min(clearance(s, pi) for s in fset) < 1e-3:
                    continue
                observable, _ = attack.is_observable(*_pair(cl, pi))
                assert observable


def test_choose_pi_star_rejects_forbidden_direction():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.eye(2)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    cl = model.assemble(plant, controller)
    fset, _ = attack.forbidden_set(cl)
    # [0, 1] is orthogonal to the PlantEig(0) normal e1
    with pytest.raises(ValidationError, match="PlantEig"):
        attack.choose_pi_star(cl, fset, pi_star=np.array([0.0, 1.0]))
    with pytest.raises(ValidationError, match="nonzero"):
        attack.choose_pi_star(cl, fset, pi_star=np.zeros(2))


def test_choose_pi_star_seeded_and_clear(ref_system):
    _, _, cl = ref_system
    fset, _ = attack.forbidden_set(cl)
    a = attack.choose_pi_star(cl, fset, seed=9)
    b = attack.choose_pi_star(cl, fset, seed=9)
    assert np.array_equal(a, b)
    assert min(clearance(sub, a) for sub in fset) > attack.TOL_MARGIN


def test_gamma_max_reference_frozen(ref_system):
    _, _, cl = ref_system
    g = attack.gamma_max(
        cl.A, cl.B, cl.Q_p, np.array([1.0, -3.0]), 0.2 * np.eye(cl.n)
    )
    assert g == pytest.approx(0.8500422425763366, rel=1e-12)


def test_gamma_max_inverse_scaling(ref_system):
    # ||Q_p pi*|| is linear in pi*, so doubling pi* halves the bound
    _, _, cl = ref_system
    Y = 0.2 * np.eye(cl.n)
    g1 = attack.gamma_max(cl.A, cl.B, cl.Q_p, np.array([1.0, -3.0]), Y)
    g2 = attack.gamma_max(cl.A, cl.B, cl.Q_p, np.array([2.0, -6.0]), Y)
    assert g2 == pytest.approx(g1 / 2.0, rel=1e-12)


def test_gamma_max_annihilated_direction():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]),
        B_p=np.array([[1.0], [1.0]]),
        Q_p=np.diag([1.0, 0.0]),
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    cl = model.assemble(plant, controller)
    with pytest.raises(ZeroDivisionError):
        attack.gamma_max(cl.A, cl.B, cl.Q_p, np.array([0.0, 1.0]), 0.2 * np.eye(cl.n))


def test_scaling_preserves_stability_sampled(make_random_system):
    # scaled-down version of the acceptance sweep
    rng = np.random.default_rng(1234)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for _ in range(10):
            plant, controller, cl = make_random_system(
                rng, n_p=int(rng.integers(2, 4)), n_c=int(rng.integers(1, 3))
            )
            fset, _ = attack.forbidden_set(cl)
            pistar = attack.choose_pi_star(cl, fset, seed=int(rng.integers(1 << 30)))
            gmax = attack.gamma_max(cl.A, cl.B, plant.Q_p, pistar, 0.2 * np.eye(cl.n))
            for f in (0.05, 0.5, 0.99, 0.999):
                F, H = _pair(cl, f * gmax * pistar)
                assert is_hurwitz(F)
                observable, _ = attack.is_observable(F, H)
                assert observable


def test_is_observable_zero_row():
    # no output at all: the observability matrix is zero, and the margin is 0, not nan
    result = attack.is_observable(np.diag([-1.0, -2.0]), np.zeros((1, 2)))
    assert result == (False, 0.0)


def test_build_design_reference_frozen(ref_design):
    assert ref_design.gamma_max == pytest.approx(0.8500422425763366, rel=1e-12)
    assert ref_design.gamma == pytest.approx(0.9 * 0.8500422425763366, rel=1e-12)
    assert ref_design.pi == pytest.approx([0.765038018318703, -2.295114054956109], rel=1e-9)
    assert ref_design.observability_margin == pytest.approx(7.910496615980e-04, rel=1e-9)
    assert is_hurwitz(ref_design.Fbar)


def test_build_design_reports_fbar_not_hurwitz(ref_system, monkeypatch):
    # the scaling bound rules this out; only a tolerance breach reaches it
    _, _, cl = ref_system
    monkeypatch.setattr(attack, "is_hurwitz", lambda F: False)
    with pytest.raises(SynthesisError) as exc:
        attack.build_design(cl, pi_star=np.array([1.0, -3.0]), gamma_fraction=0.9)
    assert str(exc.value) == (
        "Fbar is not Hurwitz at gamma=0.765038 despite gamma < gamma_max=0.850042; "
        "tolerance breach, not expected under the scaling bound"
    )


def test_build_design_validates_fraction(ref_system):
    _, _, cl = ref_system
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError, match="gamma_fraction"):
            attack.build_design(cl, pi_star=np.array([1.0, -3.0]), gamma_fraction=bad)


@pytest.mark.parametrize("seed", [None, -1, 1.5, "3"])
def test_build_design_rejects_a_seed_that_is_no_index(ref_system, seed):
    # None would draw an unseeded pi*; the others would reach numpy's own errors
    _, _, cl = ref_system
    with pytest.raises(ValidationError) as info:
        attack.build_design(cl, seed=seed)
    assert info.value.field == "seed"


def test_attack_signal_row_semantics(ref_system, ref_design):
    # the design's Hbar row carries the paper's attack a = 2 pi' Q_p zhat_p
    plant, _, _ = ref_system
    rng = np.random.default_rng(2)
    for _ in range(10):
        zhat = rng.standard_normal(4)
        a = attack_signal(ref_design, zhat)
        assert a == pytest.approx(2.0 * ref_design.pi @ plant.Q_p @ zhat[: plant.n_p], rel=1e-12)
        assert attack_signal(ref_design, 2.0 * zhat) == pytest.approx(2.0 * a, rel=1e-12)
    # the attack reads only the plant part of the estimate
    only_ctrl = np.array([0.0, 0.0, 1.3, -0.7])
    assert attack_signal(ref_design, only_ctrl) == 0.0


def test_induced_pair_construction(ref_system, ref_design):
    # Fbar and Hbar match the from-scratch assembly exactly
    _, _, cl = ref_system
    F, H = _pair(cl, ref_design.pi)
    assert np.array_equal(ref_design.Hbar, H)
    assert np.array_equal(ref_design.Fbar, F)


def _candidates(seed, n_p, n_candidates=64):
    samples = np.random.default_rng(seed).standard_normal((n_candidates, n_p))
    return samples / np.linalg.norm(samples, axis=1, keepdims=True)


def test_clearance_kernel_matches_margin_loop(make_random_system, monkeypatch):
    # the winner is compared even where the Krylov test would reject it
    monkeypatch.setattr(
        attack, "is_observable", lambda F, H: (True, 1.0)
    )
    rng = np.random.default_rng(505)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for n in range(4, 13):
            for _ in range(2):
                plant, controller, cl = make_random_system(rng, n_p=n // 2, n_c=n - n // 2)
                fset, _ = attack.forbidden_set(cl)
                for seed in (0, 1, 7, 123):
                    samples = _candidates(seed, plant.n_p)
                    per_sub = attack._clearances(fset, samples)
                    loop = np.array([[clearance(s, p) for s in fset] for p in samples])
                    np.testing.assert_allclose(per_sub, loop, rtol=0, atol=1e-14)
                    if plant.n_p == 2:  # the clearance of a huge pi is its direction's
                        unit = np.array([1.0, -3.0]) / np.sqrt(10.0)
                        np.testing.assert_allclose(
                            [clearance(s, [1e300, -3e300]) for s in fset],
                            attack._clearances(fset, unit)[0],
                            rtol=0, atol=1e-14,
                        )
                    worst = loop.min(axis=1)
                    np.testing.assert_allclose(
                        per_sub.min(axis=1), worst, rtol=0, atol=1e-14
                    )
                    chosen = attack.choose_pi_star(cl, fset, seed=seed)
                    assert np.array_equal(chosen, samples[int(np.argmax(worst))])


def test_choose_pi_star_empty_set_takes_first_candidate(ref_system):
    _, _, cl = ref_system
    empty = ()
    assert attack._clearances(empty, _candidates(3, cl.n_p)).shape == (64, 0)
    for seed in (0, 3, 9):
        chosen = attack.choose_pi_star(cl, empty, seed=seed)
        assert np.array_equal(chosen, _candidates(seed, cl.n_p)[0])


def test_choose_pi_star_no_candidate_clears(ref_system, monkeypatch):
    _, _, cl = ref_system
    fset, _ = attack.forbidden_set(cl)
    best = max(min(clearance(s, p) for s in fset) for p in _candidates(4, cl.n_p))
    # |cos| never exceeds 1, so no candidate clears a unit margin
    monkeypatch.setattr(attack, "TOL_MARGIN", 1.0)
    with pytest.raises(SynthesisError, match="no sampled candidate clears") as exc:
        attack.choose_pi_star(cl, fset, seed=4)
    assert "(best %.3e)" % best in str(exc.value)


def test_choose_pi_star_names_first_violated_subspace():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0, -3.0]), B_p=np.ones((3, 1)), Q_p=np.eye(3)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-4.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=1.0
    )
    cl = model.assemble(plant, controller)
    fset, _ = attack.forbidden_set(cl)
    first, second = fset[:2]
    # orthogonal to the single normal of each of the first two subspaces
    pi = np.cross(first.normals[0], second.normals[0])
    inside = [s.tag for s in fset if clearance(s, pi) <= attack.TOL_MARGIN]
    assert inside == [first.tag, second.tag]
    with pytest.raises(ValidationError) as exc:
        attack.choose_pi_star(cl, fset, pi_star=pi)
    msg = str(exc.value)
    assert "forbidden subspace %s (eigenvalue %s, margin " % (first.tag, first.eigenvalue) in msg
    assert second.tag not in msg


def test_choose_pi_star_scores_in_one_pass(ref_system, monkeypatch):
    # the search scores every candidate in one array pass, never per subspace
    _, _, cl = ref_system
    fset, _ = attack.forbidden_set(cl)
    seeded = attack.choose_pi_star(cl, fset, seed=9)
    supplied = attack.choose_pi_star(cl, fset, pi_star=np.array([1.0, -3.0]))

    calls = []
    clearances = attack._clearances

    def counted(forbidden, directions):
        calls.append(np.atleast_2d(directions).shape[0])
        return clearances(forbidden, directions)

    monkeypatch.setattr(attack, "_clearances", counted)
    assert np.array_equal(attack.choose_pi_star(cl, fset, seed=9), seeded)
    assert np.array_equal(
        attack.choose_pi_star(cl, fset, pi_star=np.array([1.0, -3.0])), supplied
    )
    assert calls == [attack.N_CANDIDATES, 1]
