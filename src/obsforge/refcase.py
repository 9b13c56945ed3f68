"""Bundled fourth-order reference case with frozen expected values.

A two-state plant with quadratic output in feedback with a two-state
dynamic controller. The numbers below (closed-loop spectrum, scaling bound,
attack parameter, observer gain, error-decay milestones) were frozen from
an independent computation and serve as the reproduction benchmark: the
``reproduce`` pipeline recomputes everything from the matrices and compares
against this table.

With identity certificate weights this design sits outside the provable
region-of-attraction regime (the cross-coupling constant c3 dwarfs c1), so
the frozen expectation records feasible = False; that the simulation still
converges shows how conservative the norm-based certificate is.
"""

from __future__ import annotations

import numpy as np

from . import attack, model, observer, roa, sim
from .numerics import spectrum_distance

__all__ = [
    "reference_system",
    "reference_dict",
    "expected_values",
    "run_reference_case",
    "REFERENCE_PI_STAR",
    "REFERENCE_GAMMA_FRACTION",
    "REFERENCE_Y_SCALE",
    "REFERENCE_POLES",
    "REFERENCE_Z0",
    "REFERENCE_ZHAT0",
]

REFERENCE_PI_STAR = (1.0, -3.0)
REFERENCE_GAMMA_FRACTION = 0.9
REFERENCE_Y_SCALE = 0.2
REFERENCE_POLES = (-9.5, -10.5, -11.5, -12.5)
REFERENCE_Z0 = (0.1, -0.15, 0.1, -0.1)
REFERENCE_ZHAT0 = (-0.1, 0.1, -0.1, 0.1)
REFERENCE_DT = 1e-3
REFERENCE_T = 5.0


def reference_dict():
    """The reference system in the JSON schema accepted by load_system."""
    return {
        "plant": {
            "A_p": [[-6.0, 2.0], [-5.0, -1.0]],
            "B_p": [[1.0], [1.0]],
            "Q_p": [[0.5, 0.0], [0.0, 0.5]],
        },
        "controller": {
            "A_c": [[-7.0, 4.0], [-8.0, -7.0]],
            "B_c": [[1.0], [1.0]],
            "C_c": [[1.0, 0.0]],
            "D_c": 1.0,
        },
    }


def reference_system():
    """(plant, controller, closed_loop) for the bundled case."""
    plant, controller = model.system_from_dict(reference_dict())
    return plant, controller, model.assemble(plant, controller)


def expected_values():
    """Frozen benchmark table with the tolerance for each entry."""
    return {
        "closed_loop_eigenvalues": {
            "value": [
                -3.5 + 1.936492j,
                -3.5 - 1.936492j,
                -7.0 + 5.656854j,
                -7.0 - 5.656854j,
            ],
            "tol": 0.01,
        },
        "gamma_max": {"value": 0.85, "tol": 0.02},
        "pi": {"value": [0.77, -2.30], "tol": 0.02},
        "placed_poles": {
            "value": [-9.5, -10.5, -11.5, -12.5],
            "tol": 1e-6,
        },
        # both plant and controller spectra are complex pairs, so every
        # forbidden subspace has two independent normals and the admissible
        # set of projection directions is the whole plane minus the origin
        "forbidden_origin_only": {"value": True},
        "error_ratio_at_T": {"value": 0.0, "max": 1e-6},
        "error_norm_milestones": {
            # t -> ||e(t)||, frozen from an independent fixed-step run
            "value": {
                0.5: 8.4896e-2,
                1.0: 1.4286e-2,
                2.0: 3.6373e-4,
                3.0: 6.4163e-6,
                4.0: 4.2878e-7,
            },
            "rel_tol": 0.01,
        },
        "roa_feasible": {"value": False},
        "roa_c1": {"value": 1.785139269213745, "rel_tol": 1e-6},
        "roa_c3": {"value": 133.9583618958063, "rel_tol": 1e-6},
    }


def _mismatches(key, row, got, T):
    """Mismatch lines for one row of the table, judged by the row's own bound.

    ``got`` is the deviation from the frozen value for a ``tol`` row and the
    recomputed value otherwise; a dict row checks each of its entries. None
    marks a row the run up to ``T`` cannot judge, which is a mismatch too.
    Bounds read ``not off <= bound``, so a NaN fails its row.
    """
    want = row["value"]
    if got is None:
        return ["%s: not judged at T=%g" % (key, T)]
    if isinstance(got, dict):
        return [
            line
            for t, value in got.items()
            for line in _mismatches("%s at t=%g" % (key, t), {**row, "value": want[t]}, value, T)
        ]
    if "tol" in row:
        failed = not got <= row["tol"]
        text = "off by %.3g (tol %.3g)" % (got, row["tol"])
    elif "rel_tol" in row:
        failed = not abs(got - want) <= row["rel_tol"] * abs(want)
        text = "%.9g, expected %.9g within %.3g relative" % (got, want, row["rel_tol"])
    elif "max" in row:
        failed = not got < row["max"]
        text = "%.3g, expected below %.3g" % (got, row["max"])
    else:
        failed = got != want
        text = "%s, expected %s" % (got, want)
    return ["%s: %s" % (key, text)] if failed else []


def run_reference_case(dt=REFERENCE_DT, T=REFERENCE_T):
    """Recompute the whole pipeline on the bundled case and diff the table.

    Returns (results, mismatches); an empty mismatch list means the
    benchmark reproduced within every frozen tolerance.
    """
    plant, controller, cl = reference_system()
    expected = expected_values()
    mismatches = []

    report = model.validate_assumptions(plant, controller, cl)
    if not report.all_passed:
        mismatches.append("standing assumptions failed: %s" % report.as_dict())

    eig_got = np.linalg.eigvals(cl.A)
    design = attack.build_design(
        cl,
        pi_star=np.array(REFERENCE_PI_STAR),
        gamma_fraction=REFERENCE_GAMMA_FRACTION,
        Y=REFERENCE_Y_SCALE * np.eye(cl.n),
    )
    obs = observer.design_gain(design, cl.B, desired_poles=np.array(REFERENCE_POLES))
    est = roa.certify(cl, design, obs)
    z0, zhat0 = np.array(REFERENCE_Z0), np.array(REFERENCE_ZHAT0)
    traj = sim.integrate(cl, design, obs, z0, zhat0, dt=dt, T=T)
    e0 = float(np.linalg.norm(zhat0 - z0))
    ratio = float(traj.e_norm[-1] / e0)
    milestones = {}  # None past the horizon: not judged
    for t_mark in expected["error_norm_milestones"]["value"]:
        idx = np.flatnonzero(np.isclose(traj.times, t_mark, atol=dt / 2))
        milestones[t_mark] = float(traj.e_norm[idx[0]]) if idx.size else None

    # what each row checks: the deviation for a tol row, else the value
    got = {
        "closed_loop_eigenvalues": spectrum_distance(
            eig_got, np.array(expected["closed_loop_eigenvalues"]["value"])
        ),
        "gamma_max": abs(design.gamma_max - expected["gamma_max"]["value"]),
        "pi": np.abs(design.pi - np.array(expected["pi"]["value"])).max(),
        "placed_poles": spectrum_distance(
            obs.placed_poles, np.array(expected["placed_poles"]["value"], dtype=complex)
        ),
        "forbidden_origin_only": len(design.forbidden) > 0 and all(
            np.linalg.matrix_rank(np.vstack(sub.normals)) == plant.n_p
            for sub in design.forbidden
        ),
        # the decay ratio is only judged at the full reference horizon
        "error_ratio_at_T": ratio if T >= REFERENCE_T else None,
        "error_norm_milestones": milestones,
        "roa_feasible": bool(est.feasible),
        "roa_c1": est.c1,
        "roa_c3": est.c3,
    }
    for key, row in expected.items():
        mismatches += _mismatches(key, row, got[key], T)

    fit = sim.fit_decay(traj)
    results = {
        "closed_loop_eigenvalues": [str(v) for v in eig_got],
        "spectrum_distance": got["closed_loop_eigenvalues"],
        "forbidden_origin_only": got["forbidden_origin_only"],
        "forbidden_subspaces": [
            {"tag": sub.tag, "n_normals": len(sub.normals)} for sub in design.forbidden
        ],
        "gamma_max": design.gamma_max,
        "gamma": design.gamma,
        "pi_star": design.pi_star.tolist(),
        "pi": design.pi.tolist(),
        "observability_margin": design.observability_margin,
        "L": obs.L[:, 0].tolist(),
        "placed_poles": [str(v) for v in obs.placed_poles],
        "placement_error": obs.placement_error,
        "roa": est.as_dict(),
        "error_ratio_at_T": ratio,
        "error_norm_milestones": {str(k): v for k, v in milestones.items() if v is not None},
        "decay_fit": fit.as_dict(),
        "dt": dt,
        "T": T,
        "reproduced": not mismatches,
    }
    return results, mismatches
