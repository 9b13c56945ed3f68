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


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


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

    eig_exp = np.array(expected["closed_loop_eigenvalues"]["value"])
    eig_got = np.linalg.eigvals(cl.A)
    eig_dist = spectrum_distance(eig_got, eig_exp)
    if eig_dist > expected["closed_loop_eigenvalues"]["tol"]:
        mismatches.append(
            "closed-loop spectrum off by %.3g (tol %.3g)"
            % (eig_dist, expected["closed_loop_eigenvalues"]["tol"])
        )

    forbidden = attack.forbidden_set(plant, controller)
    origin_only = len(forbidden) > 0 and all(
        np.linalg.matrix_rank(np.vstack(sub.normals)) == plant.n_p
        for sub in forbidden
    )
    if origin_only != expected["forbidden_origin_only"]["value"]:
        mismatches.append(
            "forbidden-set classification: origin_only=%s, expected %s"
            % (origin_only, expected["forbidden_origin_only"]["value"])
        )

    Y = REFERENCE_Y_SCALE * np.eye(cl.n)
    design = attack.build_design(
        cl,
        pi_star=np.array(REFERENCE_PI_STAR),
        gamma_fraction=REFERENCE_GAMMA_FRACTION,
        Y=Y,
    )
    if abs(design.gamma_max - expected["gamma_max"]["value"]) > expected["gamma_max"]["tol"]:
        mismatches.append(
            "gamma_max %.6g differs from %.6g by more than %.3g"
            % (design.gamma_max, expected["gamma_max"]["value"], expected["gamma_max"]["tol"])
        )
    pi_err = np.abs(design.pi - np.array(expected["pi"]["value"])).max()
    if pi_err > expected["pi"]["tol"]:
        mismatches.append(
            "attack parameter off by %.3g per component (tol %.3g)"
            % (pi_err, expected["pi"]["tol"])
        )

    obs = observer.design_gain(design, cl.B, desired_poles=np.array(REFERENCE_POLES))
    pole_dist = spectrum_distance(
        obs.placed_poles, np.array(expected["placed_poles"]["value"], dtype=complex)
    )
    if pole_dist > expected["placed_poles"]["tol"]:
        mismatches.append(
            "placed poles off by %.3g (tol %.3g)"
            % (pole_dist, expected["placed_poles"]["tol"])
        )

    est = roa.certify(cl, design, obs)
    if bool(est.feasible) != expected["roa_feasible"]["value"]:
        mismatches.append(
            "certificate feasibility %s, expected %s"
            % (est.feasible, expected["roa_feasible"]["value"])
        )
    for key, field in (("roa_c1", "c1"), ("roa_c3", "c3")):
        got = getattr(est, field)
        want = expected[key]["value"]
        if _rel_err(got, want) > expected[key]["rel_tol"]:
            mismatches.append(
                "certificate constant %s = %.9g, expected %.9g" % (field, got, want)
            )

    traj = sim.integrate(
        cl,
        design,
        obs,
        np.array(REFERENCE_Z0),
        np.array(REFERENCE_ZHAT0),
        dt=dt,
        T=T,
    )
    e0 = float(np.linalg.norm(np.array(REFERENCE_ZHAT0) - np.array(REFERENCE_Z0)))
    ratio = float(traj.e_norm[-1] / e0)
    if T >= REFERENCE_T and ratio >= expected["error_ratio_at_T"]["max"]:
        mismatches.append(
            "error ratio at T=%g is %.3g, expected below %.1g"
            % (T, ratio, expected["error_ratio_at_T"]["max"])
        )
    milestones = {}
    for t_mark, want in expected["error_norm_milestones"]["value"].items():
        idx = np.flatnonzero(np.isclose(traj.times, t_mark, atol=dt / 2))
        if idx.size == 0:
            continue
        got = float(traj.e_norm[idx[0]])
        milestones[t_mark] = got
        if abs(got - want) > expected["error_norm_milestones"]["rel_tol"] * abs(want):
            mismatches.append(
                "error norm at t=%g is %.6g, expected %.6g within %.0f%%"
                % (
                    t_mark,
                    got,
                    want,
                    100 * expected["error_norm_milestones"]["rel_tol"],
                )
            )

    fit = sim.fit_decay(traj)
    results = {
        "closed_loop_eigenvalues": [str(v) for v in eig_got],
        "spectrum_distance": eig_dist,
        "forbidden_origin_only": origin_only,
        "forbidden_subspaces": [
            {"tag": sub.tag, "n_normals": len(sub.normals)} for sub in forbidden
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
        "error_norm_milestones": {str(k): v for k, v in milestones.items()},
        "decay_fit": fit.as_dict(),
        "dt": dt,
        "T": T,
        "reproduced": not mismatches,
    }
    return results, mismatches
