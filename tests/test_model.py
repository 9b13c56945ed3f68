import json
import warnings

import numpy as np
import pytest

from obsforge import model
from obsforge.errors import ValidationError


def test_assemble_reference_blocks(ref_system):
    plant, controller, cl = ref_system
    n_p, n_c = plant.n_p, controller.A_c.shape[0]
    assert cl.n == n_p + n_c
    # exact block layout
    assert np.array_equal(cl.A[:n_p, :n_p], plant.A_p)
    assert np.array_equal(cl.A[:n_p, n_p:], plant.B_p @ controller.C_c)
    assert np.array_equal(cl.A[n_p:, :n_p], np.zeros((n_c, n_p)))
    assert np.array_equal(cl.A[n_p:, n_p:], controller.A_c)
    assert np.array_equal(cl.B[:n_p], plant.B_p * controller.D_c)
    assert np.array_equal(cl.B[n_p:], controller.B_c)
    assert np.array_equal(cl.Q[:n_p, :n_p], plant.Q_p)
    assert np.all(cl.Q[n_p:, :] == 0.0) and np.all(cl.Q[:, n_p:] == 0.0)


def test_output_reads_plant_substate(ref_system):
    plant, _, cl = ref_system
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(cl.n)
        xp = z[: plant.n_p]
        assert cl.output(z) == pytest.approx(float(xp @ plant.Q_p @ xp), abs=1e-14)


def test_validate_assumptions_reference(ref_system):
    plant, controller, cl = ref_system
    report = model.validate_assumptions(plant, controller, cl)
    assert report.all_passed
    assert report.a_hurwitz and report.spectra_disjoint
    assert report.bpcc_nonzero and report.qp_symmetric
    assert report.spectral_abscissa == pytest.approx(-3.5, abs=1e-9)
    d = report.as_dict()
    assert d["all_passed"] is True
    assert set(d) == {
        "a_hurwitz", "spectral_abscissa", "spectra_disjoint", "min_eigenvalue_gap",
        "bpcc_nonzero", "bpcc_norm", "qp_symmetric", "all_passed",
    }
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_shared_pole_flagged():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.eye(2)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-1.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=0.5
    )
    cl = model.assemble(plant, controller)
    report = model.validate_assumptions(plant, controller, cl)
    assert not report.spectra_disjoint
    assert report.min_eigenvalue_gap == pytest.approx(0.0, abs=1e-12)
    assert not report.all_passed


def test_zero_coupling_flagged():
    plant = model.PlantModel(
        A_p=np.diag([-1.0, -2.0]), B_p=np.array([[1.0], [1.0]]), Q_p=np.eye(2)
    )
    controller = model.ControllerModel(
        A_c=np.array([[-3.0]]), B_c=np.array([[1.0]]), C_c=np.array([[0.0]]), D_c=0.5
    )
    cl = model.assemble(plant, controller)
    report = model.validate_assumptions(plant, controller, cl)
    assert not report.bpcc_nonzero
    assert not report.all_passed


def test_unstable_loop_flagged():
    plant = model.PlantModel(
        A_p=np.array([[0.5]]), B_p=np.array([[1.0]]), Q_p=np.array([[1.0]])
    )
    controller = model.ControllerModel(
        A_c=np.array([[-1.0]]), B_c=np.array([[1.0]]), C_c=np.array([[1.0]]), D_c=0.0
    )
    cl = model.assemble(plant, controller)
    report = model.validate_assumptions(plant, controller, cl)
    # loop matrix is block triangular, so the unstable plant pole survives
    assert not report.a_hurwitz
    assert report.spectral_abscissa == pytest.approx(0.5, abs=1e-12)


def test_qp_asymmetry_rejected():
    with pytest.raises(ValidationError, match="Q_p"):
        model.PlantModel(
            A_p=-np.eye(2),
            B_p=np.ones((2, 1)),
            Q_p=np.array([[1.0, 0.1], [0.0, 1.0]]),
        )


def test_qp_roundoff_dust_symmetrized():
    Q = np.array([[1.0, 1e-14], [0.0, 1.0]])
    plant = model.PlantModel(A_p=-np.eye(2), B_p=np.ones((2, 1)), Q_p=Q)
    assert np.array_equal(plant.Q_p, plant.Q_p.T)


def test_qp_symmetry_tolerance_scales_with_entries():
    # an asymmetry of 9.3e-10 (4 ulps) between entries of 2e6 is float dust,
    # as the certificate's weight check reads it: the tolerance scales with the
    # largest entry
    Q = np.array([[1e6, 2000000.000000001], [2e6, 1e6]])
    assert Q[0, 1] != Q[1, 0]
    plant = model.PlantModel(A_p=-np.eye(2), B_p=np.ones((2, 1)), Q_p=Q)
    assert np.array_equal(plant.Q_p, plant.Q_p.T)
    controller = model.ControllerModel(
        A_c=-3.0 * np.eye(2), B_c=np.ones((2, 1)), C_c=np.array([[1.0, 0.5]]), D_c=1.0
    )
    cl = model.assemble(plant, controller)
    assert model.validate_assumptions(plant, controller, cl).qp_symmetric
    # a hand-built loop keeps the asymmetric block, which is judged by the same rule
    Qraw = np.zeros((4, 4))
    Qraw[:2, :2] = Q
    raw = model.ClosedLoop(A=cl.A, B=cl.B, Q=Qraw, n_p=2, n_c=2)
    assert model.validate_assumptions(plant, controller, raw).qp_symmetric
    Qraw[0, 1] += 1e-5
    assert not model.validate_assumptions(plant, controller, raw).qp_symmetric


@pytest.mark.parametrize(
    "B_p, C_c, D_c, product",
    [
        ([[1e300], [1.0]], [[1e300, 0.0]], 1.0, "B_p C_c"),
        ([[1e300], [1.0]], [[1.0, 0.0]], 1e300, "B_p D_c"),
    ],
)
def test_assemble_rejects_overflowing_product(B_p, C_c, D_c, product):
    plant = model.PlantModel(A_p=-np.eye(2), B_p=np.array(B_p), Q_p=np.eye(2))
    controller = model.ControllerModel(
        A_c=-3.0 * np.eye(2), B_c=np.ones((2, 1)), C_c=np.array(C_c), D_c=D_c
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            model.assemble(plant, controller)
    assert info.value.field == product


def test_shape_validation_messages():
    with pytest.raises(ValidationError, match="B_p"):
        model.PlantModel(A_p=-np.eye(2), B_p=np.ones((3, 1)), Q_p=np.eye(2))
    with pytest.raises(ValidationError, match="C_c"):
        model.ControllerModel(
            A_c=-np.eye(2),
            B_c=np.ones((2, 1)),
            C_c=np.ones((2, 2)),
            D_c=1.0,
        )
    with pytest.raises(ValidationError):
        model.PlantModel(
            A_p=np.array([[np.inf, 0.0], [0.0, -1.0]]),
            B_p=np.ones((2, 1)),
            Q_p=np.eye(2),
        )


def test_system_json_roundtrip(tmp_path, ref_system):
    plant, controller, _ = ref_system
    data = {
        "plant": {
            "A_p": plant.A_p.tolist(),
            "B_p": plant.B_p.tolist(),
            "Q_p": plant.Q_p.tolist(),
        },
        "controller": {
            "A_c": controller.A_c.tolist(),
            "B_c": controller.B_c.tolist(),
            "C_c": controller.C_c.tolist(),
            "D_c": controller.D_c,
        },
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    plant2, controller2 = model.load_system(path)
    assert np.array_equal(plant2.A_p, plant.A_p)
    assert np.array_equal(controller2.A_c, controller.A_c)
    assert controller2.D_c == controller.D_c


def test_system_json_field_errors(tmp_path):
    good = {
        "plant": {"A_p": [[-1.0]], "B_p": [[1.0]], "Q_p": [[1.0]]},
        "controller": {"A_c": [[-2.0]], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": 1.0},
    }

    bad = json.loads(json.dumps(good))
    bad["plant"]["A_p"] = [[-1.0, "x"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=r"plant\.A_p\[0\]\[1\]"):
        model.load_system(path)

    bad = json.loads(json.dumps(good))
    del bad["controller"]["D_c"]
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=r"controller\.D_c"):
        model.load_system(path)

    bad = json.loads(json.dumps(good))
    bad["plant"]["Q_p"] = [[1.0, 2.0], [3.0]]
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=r"plant\.Q_p\[1\]"):
        model.load_system(path)


def test_truncated_json_reports_position(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"plant": {"A_p": [[-1.0]],')
    with pytest.raises(ValidationError, match="line"):
        model.load_system(path)
