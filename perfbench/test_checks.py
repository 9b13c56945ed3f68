"""Each benchmark check passes the program's real output and fails a corrupted copy.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import os
import shutil

import numpy as np
import pytest

import checks
import workloads
from obsforge import attack, model, observer, refcase, roa, sim


@pytest.fixture(scope="module")
def ref():
    _, _, cl = refcase.reference_system()
    Y = 0.2 * np.eye(cl.n)
    design = attack.build_design(cl, pi_star=np.array([1.0, -3.0]), gamma_fraction=0.9, Y=Y)
    obs = observer.design_gain(design, cl.B, desired_poles=np.array(workloads.REF_POLES))
    est = roa.certify(cl, design, obs)
    field = checks.coupled_field(cl.A, cl.B, cl.Q, design.Hbar, obs.L)
    return cl, design, obs, est, Y, field


@pytest.fixture(scope="module")
def cert(ref):
    cl, _, _, _, Y, _ = ref
    design = attack.build_design(cl, pi_star=np.array([1.0, -3.0]), gamma_fraction=0.1, Y=Y)
    obs = observer.gain_from_vector(design, cl.B, -0.9 * cl.B)
    est = roa.certify(cl, design, obs)
    return design, obs, est, checks.coupled_field(cl.A, cl.B, cl.Q, design.Hbar, obs.L)


def _design_problems(ref, **corrupt):
    cl, design, obs, est, Y, _ = ref
    d = workloads.design_dict(design, obs, est, Y)
    d.update(corrupt)
    return checks.check_design(cl.A, cl.B, cl.Q, cl.n_p, d)


def test_design_check_passes_reference(ref):
    assert _design_problems(ref) == []


@pytest.mark.parametrize("field, factor", [("L", 1.001), ("gamma_max", 1.0001), ("P1", 1.0001), ("c3", 0.999)])
def test_design_check_catches_perturbation(ref, field, factor):
    d = workloads.design_dict(*ref[1:4], ref[4])
    assert _design_problems(ref, **{field: np.asarray(d[field]) * factor})


def test_design_check_catches_flipped_feasibility(ref):
    assert any("feasible" in p for p in _design_problems(ref, feasible=True))


def test_pbh_detects_unobservable_pair():
    F = np.diag([-1.0, -2.0, -3.0])
    assert checks.pbh_observable(F, np.array([[1.0, 1.0, 1.0]]))
    assert not checks.pbh_observable(F, np.array([[1.0, 0.0, 1.0]]))


def _csv_table(traj):
    table = np.column_stack([traj.times, traj.z, traj.z_hat, traj.e, traj.y, traj.y_tilde, traj.a])
    n = traj.z.shape[1]
    header = ["t"] + ["%s%d" % (k, i + 1) for k in ("z", "zhat", "e") for i in range(n)] + ["y", "ytilde", "a"]
    return table, header


def test_trajectory_check(ref):
    cl, design, obs, _, _, field = ref
    traj = sim.integrate(cl, design, obs, np.array(refcase.REFERENCE_Z0), np.array(refcase.REFERENCE_ZHAT0))
    table, header = _csv_table(traj)
    assert checks.check_trajectory_csv(table, header, field, cl.Q, design.Hbar) == []

    shifted = table.copy()
    shifted[1:, 1:] = table[:-1, 1:]  # every state row one step late
    assert any("departs" in p for p in checks.check_trajectory_csv(shifted, header, field, cl.Q, design.Hbar))
    bad_e = table.copy()
    bad_e[100, 9] += 1e-12
    assert any("e != zhat - z" in p for p in checks.check_trajectory_csv(bad_e, header, field, cl.Q, design.Hbar))
    bad_y = table.copy()
    bad_y[7, -2] *= 1 + 1e-9
    assert any("ytilde" in p for p in checks.check_trajectory_csv(bad_y, header, field, cl.Q, design.Hbar))


@pytest.fixture(scope="module")
def box(ref):
    cl, design, obs, _, _, _ = ref
    return roa.monte_carlo_box_check(cl, design, obs, n_samples=20, seed=11).as_dict()


def test_box_check(ref, box):
    field, n = ref[5], ref[0].n
    assert checks.check_box_report(box, field, n, [3, 17]) == []

    flipped = copy.deepcopy(box)
    flipped["per_sample"][5]["converged"] = False
    assert checks.check_box_report(flipped, field, n, [3])

    for key, factor in (("peak_norm", 1 + 1e-6), ("final_norm", 1 + 1e-5)):
        drifted = copy.deepcopy(box)
        drifted["per_sample"][3][key] *= factor
        assert any("sample 3: " + key in p for p in checks.check_box_report(drifted, field, n, [3]))


def test_decay_checks(ref, cert):
    cl = ref[0]
    design, obs, est, field = cert
    report = roa.verify_decay(cl, design, obs, est, n_samples=20, seed=5).as_dict()
    assert checks.check_decay_report(report, est.level) == []
    flipped = copy.deepcopy(report)
    flipped["per_sample"][4]["satisfied"] = False
    assert checks.check_decay_report(flipped, est.level)
    outside = copy.deepcopy(report)
    outside["per_sample"][2]["V0"] = 2 * est.level
    assert checks.check_decay_report(outside, est.level)

    assert checks.check_certified_decay(field, cl.n, est.P1, est.P2, est.delta, est.level, seed=1) == []
    assert checks.check_certified_decay(field, cl.n, est.P1, est.P2, 3 * est.c1, est.level, seed=1)


def test_ledger_attribution():
    sweep = workloads.DesignSweep(root=".", seed=0, out_dir=".")
    rng = np.random.default_rng([workloads.DesignSweep.BANK_SEED, 12, 0])
    system = workloads.draw_system(rng, 6, 6)
    with pytest.raises(workloads.CHAIN_ERRORS) as exc:
        sweep.chain(12, 0, system)
    entry = sweep.attribute(12, 0, system, exc.value)
    assert entry["fault"] == "krylov_rank_test" and entry["pbh_observable"]

    # Q_p = 0: no attack can induce observability, so the rejection is right
    plant, controller, _ = system
    plant = model.PlantModel(A_p=plant.A_p, B_p=plant.B_p, Q_p=np.zeros_like(plant.Q_p))
    system = (plant, controller, model.assemble(plant, controller))
    with pytest.raises(workloads.CHAIN_ERRORS) as exc:
        sweep.chain(12, 0, system)
    entry = sweep.attribute(12, 0, system, exc.value)
    assert entry["fault"] is None and entry["pbh_observable"] is False


def test_cli_report_checks(tmp_path):
    pipe = workloads.CliPipeline(root=".", seed=4, out_dir=str(tmp_path))
    pipe.setup()
    ops = pipe.round(in_process=True)
    assert [o.ok for o in ops] == [True] * 5
    first = ops[0].out[2]
    assert pipe.check(ops) == []

    def corrupted(name, edit):
        out = str(tmp_path / ("bad_" + name))
        shutil.copytree(first, out)
        path = os.path.join(out, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
        return out

    flipped = corrupted("roa.json", lambda t: t.replace('"converged": true', '"converged": false', 1))
    assert any(p.startswith("roa:") for p in pipe.check_reports(flipped))
    assert not pipe.same([o._replace(out=(o.out[0], o.out[1], flipped)) for o in ops], ops)

    def shift_rows(text):
        head, *rows = text.splitlines()
        late = [r.split(",", 1)[0] + "," + p.split(",", 1)[1] for r, p in zip(rows[1:], rows)]
        return "\n".join([head, rows[0]] + late) + "\n"  # states one step late

    assert any(p.startswith("simulate:") for p in pipe.check_reports(corrupted("trajectory.csv", shift_rows)))

    def perturb_gain(text):
        import json

        bundle = json.loads(text)
        bundle["observer"]["L"][0] *= 1.001
        return json.dumps(bundle)

    assert any(p.startswith("synthesize:") for p in pipe.check_reports(corrupted("bundle.json", perturb_gain)))
