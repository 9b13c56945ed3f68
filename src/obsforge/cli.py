"""Command-line front end.

Subcommands: validate, synthesize, simulate, roa, reproduce-paper. Each
reads an optional system JSON (falling back to the bundled reference case),
runs the corresponding pipeline, prints a short human-readable summary and
writes machine-readable JSON reports plus trajectory CSV / gnuplot stubs
into the output directory.

Exit codes: 0 success, 1 standing-assumption or synthesis failure, 2 input
error, 3 certificate infeasible (reports still written), 4 trajectory
divergence, 5 reference-case mismatch.

Reports are byte-identical across runs for a fixed (config, seed);
wall-clock metadata goes to a separate run_meta.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import attack, model, observer, refcase, roa, sim
from .errors import (
    AssumptionError,
    DivergenceError,
    NumericError,
    SynthesisError,
    ValidationError,
)
from .report import jsonable, read_json

__all__ = ["RunConfig", "main"]

log = logging.getLogger("obsforge")

EXIT_OK = 0
EXIT_ASSUMPTION = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4
EXIT_MISMATCH = 5


@dataclass
class RunConfig:
    """Validated knobs for one pipeline run.

    Each field is named after the argparse dest of its flag, so the parsed
    arguments map onto it as they are. ``y_scale`` has no flag: the attack
    bound gamma_max does not change when Y = y_scale * I is scaled, and a
    bundle records the value its bound used.
    """

    config: str | None = None
    pi: list | None = None
    gamma_fraction: float = 0.9
    y_scale: float = 0.2
    poles: list | None = None
    w1_scale: float = 1.0
    w2_scale: float = 1.0
    delta_fraction: float = 0.1
    dt: float = 1e-3
    horizon: float = 5.0
    seed: int = 0
    out: str = "out"
    z0: list | None = None
    zhat0: list | None = None
    bundle: str | None = None

    def __post_init__(self):
        for name in ("gamma_fraction", "delta_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValidationError("must lie in (0, 1), got %r" % value, field=name)
        for name in ("y_scale", "w1_scale", "w2_scale"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValidationError(
                    "must be positive and finite, got %r" % value, field=name
                )
        sim._check_steps(self.dt, self.horizon, 1, "horizon")
        if not 0 <= self.seed < math.inf or int(self.seed) != self.seed:
            raise ValidationError(
                "must be a nonnegative integer, got %r" % self.seed, field="seed"
            )
        self.seed = int(self.seed)


def _parse_vector(text, name):
    try:
        values = [float(tok) for tok in text.split(",")]  # an empty token is an error
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ValidationError(
        "expected comma-separated finite reals, got %r" % text, field=name
    )


# flags of the design chain: argparse dest -> (type, help). A reused bundle
# replaces the whole chain, so these are also the flags refused next to it.
_DESIGN_FLAGS = {
    "pi": (str, "target projection direction pi*, comma separated"),
    "gamma_fraction": (float, "fraction of the stability bound used for the attack scaling"),
    "poles": (str, "desired observer poles, comma separated"),
    "w1_scale": (float, "certificate weight W1 = scale*I"),
    "w2_scale": (float, "certificate weight W2 = scale*I"),
    "delta_fraction": (float, "decay margin delta as a fraction of c2"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="obs-forge",
        description=(
            "Sensor-attack synthesis, observer design, and region-of-"
            "attraction certification for linear plants with quadratic outputs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand registers only the flags it reads; defaults live in
    # RunConfig, and an omitted flag stays None so config_from_args skips it
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "reproduce-paper":
            # a bundle carries its own system, so it excludes --config
            source = p.add_mutually_exclusive_group()
            source.add_argument("--config", help="path to a system JSON definition")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="output directory")
        if name in ("simulate", "roa", "reproduce-paper"):
            p.add_argument("--dt", type=float, help="integration step")
            p.add_argument("--horizon", type=float, help="final time")
        if name in ("synthesize", "simulate", "roa"):
            for dest, (kind, help_text) in _DESIGN_FLAGS.items():
                p.add_argument("--" + dest.replace("_", "-"), type=kind, help=help_text)
        if name == "simulate":
            p.add_argument("--z0", help="initial plant/controller state, comma separated")
            p.add_argument("--zhat0", help="initial observer state, comma separated")
        if name in ("simulate", "roa"):
            source.add_argument(
                "--bundle",
                help="reuse a bundle.json from synthesize instead of redesigning",
            )
    return parser


def config_from_args(args):
    given = {k: v for k, v in vars(args).items() if v is not None and k != "command"}
    clash = [d for d in _DESIGN_FLAGS if d in given] if given.get("bundle") else []
    if clash:
        raise ValidationError(
            "%s cannot be used with --bundle, whose stored inputs fix the design"
            % ", ".join("--" + d.replace("_", "-") for d in clash),
            field="bundle",
        )
    for dest in ("pi", "poles", "z0", "zhat0"):
        if dest in given:  # an empty string means not given
            given[dest] = _parse_vector(given[dest], dest) if given[dest] else None
    return RunConfig(**given)


def _load_system(config):
    if config.config is None:
        log.info("no --config given, using the bundled reference system")
        return refcase.reference_system()
    plant, controller = model.load_system(config.config)
    return plant, controller, model.assemble(plant, controller)


def _write_json(path, payload):
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    log.info("wrote %s", path)


def _write_meta(config, argv):
    """Wall-clock and invocation metadata, kept out of the main reports."""
    import time

    os.makedirs(config.out, exist_ok=True)
    meta = {
        "argv": list(argv),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": config.seed,
        # the Monte Carlo checks run one sample chunk per usable CPU
        "usable_cpus": roa._usable_cpus(),
    }
    _write_json(os.path.join(config.out, "run_meta.json"), meta)


# the knobs a bundle stores under "config"; each key lowercased is its RunConfig field
_STORED_KEYS = ("gamma_fraction", "Y_scale", "W1_scale", "W2_scale", "delta_fraction", "seed")

#: largest relative difference between a stored bundle number and its recomputation
BUNDLE_REL_TOL = 1e-9


def _design_pipeline(config, cl):
    """Shared synthesis chain: attack row, observer gain, certificate."""
    design = attack.build_design(
        cl,
        pi_star=np.array(config.pi, dtype=float) if config.pi else None,
        gamma_fraction=config.gamma_fraction,
        Y=config.y_scale * np.eye(cl.n),
        seed=config.seed,
    )
    desired = np.array(config.poles, dtype=complex) if config.poles else None
    obs = observer.design_gain(design, cl.B, desired_poles=desired)
    est = roa.certify(
        cl,
        design,
        obs,
        W1=config.w1_scale * np.eye(cl.n),
        W2=config.w2_scale * np.eye(cl.n),
        delta_fraction=config.delta_fraction,
    )
    return design, obs, est


def _bundle_payload(config, plant, controller, design, obs, est):
    return {
        "system": {"plant": plant, "controller": controller},
        "config": {key: getattr(config, key.lower()) for key in _STORED_KEYS},
        "attack": {
            "pi_star": design.pi_star,
            "gamma_max": design.gamma_max,
            "gamma": design.gamma,
            "pi": design.pi,
            "Hbar": design.Hbar,
            "observability_margin": design.observability_margin,
            "forbidden_subspaces": [
                {
                    "tag": sub.tag,
                    "normals": sub.normals,
                    "eigenvalue": sub.eigenvalue,
                    "degenerate": sub.degenerate,
                }
                for sub in design.forbidden
            ],
            "forbidden_notes": design.forbidden.notes,
        },
        "observer": {
            "L": obs.L[:, 0],
            "desired_poles": obs.desired_poles,
            # eig returns a real array for a real spectrum; keep {re, im} entries
            "placed_poles": obs.placed_poles.astype(complex),
            "placement_error": obs.placement_error,
        },
        "roa": est,
    }


def _from_bundle(payload, path, convert=lambda value: value):
    """``convert`` of the entry at dotted ``path`` of a bundle payload.

    A missing entry, a non-object on the way, or a value ``convert`` rejects
    raises ValidationError naming the field, e.g. ``bundle.attack.pi``.
    """
    value, field = payload, "bundle"
    for key in path.split("."):
        if not isinstance(value, dict):
            raise ValidationError("expected a JSON object", field=field)
        field += "." + key
        if key not in value:
            raise ValidationError("missing", field=field)
        value = value[key]
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValidationError("expected numbers", field=field) from None


def _match(stored, fresh, field):
    """Raise ValidationError at the first entry of ``stored`` that ``fresh`` refutes.

    ``fresh`` is report JSON. Keys, lengths, bools, strings and nulls must
    match exactly; each number must lie within BUNDLE_REL_TOL relative of
    its counterpart.
    """
    if isinstance(fresh, dict):
        if not isinstance(stored, dict):
            raise ValidationError("expected a JSON object", field=field)
        if stored.keys() != fresh.keys():
            raise ValidationError(
                "expected keys %s, got %s" % (sorted(fresh), sorted(stored)), field=field
            )
        for key, value in fresh.items():
            _match(stored[key], value, "%s.%s" % (field, key))
    elif isinstance(fresh, list):
        if not isinstance(stored, list) or len(stored) != len(fresh):
            raise ValidationError("expected a list of %d entries" % len(fresh), field=field)
        for i, (entry, value) in enumerate(zip(stored, fresh)):
            _match(entry, value, "%s[%d]" % (field, i))
    elif isinstance(fresh, (int, float)) and not isinstance(fresh, bool):
        number = isinstance(stored, (int, float)) and not isinstance(stored, bool)
        if not (number and math.isclose(stored, fresh, rel_tol=BUNDLE_REL_TOL)):
            raise ValidationError(
                "stored %r differs from the recomputed %r by more than %.0e relative"
                % (stored, fresh, BUNDLE_REL_TOL),
                field=field,
            )
    elif type(stored) is not type(fresh) or stored != fresh:
        raise ValidationError("stored %r, recomputed %r" % (stored, fresh), field=field)


# where the synthesis chain's own input fields live in a bundle
_INPUT_ROOTS = {"pi_star": "bundle.attack", "desired_poles": "bundle.observer"}


def load_bundle(path):
    """Replay a bundle JSON through the synthesize chain, returning what _design_for_run does.

    The bundle's inputs (its system, the knobs under ``config``,
    ``attack.pi_star`` and ``observer.desired_poles``) go through RunConfig
    and _design_pipeline as in synthesize. Every stored field must then
    match the rebuilt bundle under _match's rule, so the returned design is
    the recomputed one, checked against the stored one. A malformed or
    refuted bundle raises ValidationError naming the field, e.g.
    ``bundle.roa.c3``; a system that breaks the standing assumptions raises
    AssumptionError naming each failed one before anything is replayed.
    """
    payload = read_json(path)
    system = _from_bundle(payload, "system")
    try:
        plant, controller = model.system_from_dict(system)
        cl = model.assemble(plant, controller)
    except ValidationError as exc:
        raise exc.under("bundle.system") from None
    _check_assumptions(plant, controller, cl, "bundle.system")
    keys = {k.lower(): k for k in _STORED_KEYS}
    values = {f: _from_bundle(payload, "config." + k, float) for f, k in keys.items()}
    values["pi"] = _from_bundle(payload, "attack.pi_star", lambda pi: [float(x) for x in pi])
    values["poles"] = _from_bundle(
        payload,
        "observer.desired_poles",
        lambda poles: [complex(p["re"], p["im"]) for p in poles],
    )
    try:  # RunConfig's own rules, reported under the bundle's key
        knobs = RunConfig(**values)
    except ValidationError as exc:
        raise ValidationError(exc.reason, keys[exc.field]).under("bundle.config") from None
    try:
        design, obs, est = _design_pipeline(knobs, cl)
    except ValidationError as exc:
        raise exc.under(_INPUT_ROOTS.get(exc.field, "bundle")) from None
    fresh = _bundle_payload(knobs, plant, controller, design, obs, est)
    _match(payload, jsonable(fresh), "bundle")
    return plant, controller, cl, design, obs, est


def _assumption_rows(report):
    """(label, passed) per standing assumption, with its numeric witness."""
    return [
        ("loop matrix Hurwitz (abscissa %.6g)" % report.spectral_abscissa, report.a_hurwitz),
        ("plant/controller spectra disjoint (gap %.6g)" % report.min_eigenvalue_gap, report.spectra_disjoint),
        ("coupling B_p C_c nonzero (norm %.6g)" % report.bpcc_norm, report.bpcc_nonzero),
        ("output weight symmetric", report.qp_symmetric),
    ]


def _check_assumptions(plant, controller, cl, where):
    """Raise AssumptionError naming each standing assumption ``where`` fails.

    Every path into _design_pipeline calls this first, so a loop that breaks
    an assumption is reported as such and not as a failed design.
    """
    report = model.validate_assumptions(plant, controller, cl)
    failed = [label for label, ok in _assumption_rows(report) if not ok]
    if failed:
        raise AssumptionError("%s fails %s" % (where, "; ".join(failed)))


def cmd_validate(config):
    plant, controller, cl = _load_system(config)
    report = model.validate_assumptions(plant, controller, cl)
    rows = _assumption_rows(report)
    width = max(len(r[0]) for r in rows)
    print("assumption checks")
    for label, ok in rows:
        print("  %-*s  %s" % (width, label, "pass" if ok else "FAIL"))
    _write_json(os.path.join(config.out, "assumptions.json"), report)
    return EXIT_OK if report.all_passed else EXIT_ASSUMPTION


def cmd_synthesize(config):
    plant, controller, _, design, obs, est = _design_for_run(config)
    payload = _bundle_payload(config, plant, controller, design, obs, est)
    _write_json(os.path.join(config.out, "bundle.json"), payload)
    print("gamma_max = %.6g, gamma = %.6g" % (design.gamma_max, design.gamma))
    print("pi = %s" % np.array2string(design.pi, precision=6))
    print("L  = %s" % np.array2string(obs.L[:, 0], precision=6))
    print(
        "placement error %.3g, observability margin %.3g"
        % (obs.placement_error, design.observability_margin)
    )
    if not est.feasible:
        print(
            "certificate infeasible (%s): the bundle was written, but no region "
            "of attraction is certified." % "; ".join(est.notes)
        )
        return EXIT_INFEASIBLE
    print(
        "certificate feasible: c2 = %.6g, delta = %.6g, level = %.6g"
        % (est.c2, est.delta, est.level)
    )
    return EXIT_OK


def _default_initial(config, cl):
    """z0 and zhat0 as given, else the reference case's for its loop, else +-0.1."""
    if config.z0 is None or config.zhat0 is None:
        ref = refcase.reference_system()[2]
        is_ref = all(np.array_equal(getattr(cl, k), getattr(ref, k)) for k in "ABQ")
    if config.z0 is not None:
        z0 = np.array(config.z0, dtype=float)
    elif is_ref:
        z0 = np.array(refcase.REFERENCE_Z0)
    else:
        z0 = 0.1 * np.array([(-1.0) ** i for i in range(cl.n)])
    if config.zhat0 is not None:
        zhat0 = np.array(config.zhat0, dtype=float)
    elif is_ref:
        zhat0 = np.array(refcase.REFERENCE_ZHAT0)
    else:
        zhat0 = -z0
    if z0.shape != (cl.n,):
        raise ValidationError("expected %d components" % cl.n, field="z0")
    if zhat0.shape != (cl.n,):
        raise ValidationError("expected %d components" % cl.n, field="zhat0")
    return z0, zhat0


def _design_for_run(config):
    """(plant, controller, cl, design, obs, est): a stored bundle replayed, or
    the synthesis chain run on the configured system."""
    if config.bundle:
        return load_bundle(config.bundle)
    plant, controller, cl = _load_system(config)
    _check_assumptions(plant, controller, cl, "system")
    return (plant, controller, cl) + _design_pipeline(config, cl)


def cmd_simulate(config):
    _, _, cl, design, obs, est = _design_for_run(config)
    z0, zhat0 = _default_initial(config, cl)
    traj = sim.integrate(cl, design, obs, z0, zhat0, dt=config.dt, T=config.horizon)
    try:
        fit = sim.fit_decay(traj)
    except ValidationError:
        fit = None  # identically zero error; the trajectory is still exported
    csv_path = os.path.join(config.out, "trajectory.csv")
    sim.trajectory_to_csv(traj, csv_path)
    sim.write_gnuplot_stub(
        "trajectory.csv", os.path.join(config.out, "plot_trajectory.gp"), cl.n
    )
    e0 = float(np.linalg.norm(zhat0 - z0))
    payload = {
        "z0": z0,
        "zhat0": zhat0,
        "dt": config.dt,
        "T": config.horizon,
        "final_error_norm": float(traj.e_norm[-1]),
        "final_state_norm": float(traj.z_norm[-1]),
        "error_ratio": float(traj.e_norm[-1] / e0) if e0 > 0 else 0.0,
        "decay_fit": fit,
    }
    _write_json(os.path.join(config.out, "simulate.json"), payload)
    rate = "alpha = %.4g" % fit.alpha if fit is not None else "no decay fit"
    print(
        "integrated %d steps; final ||e|| = %.3e, %s"
        % (len(traj.times) - 1, payload["final_error_norm"], rate)
    )
    return EXIT_OK


def cmd_roa(config):
    _, _, cl, design, obs, est = _design_for_run(config)
    box = roa.monte_carlo_box_check(
        cl, design, obs, horizon=config.horizon, seed=config.seed, dt=config.dt
    )
    payload = {"estimate": est, "box_check": box, "decay_check": None}
    code = EXIT_OK
    if est.feasible and est.level is not None and math.isfinite(est.level):
        decay = roa.verify_decay(cl, design, obs, est, seed=config.seed, dt=config.dt)
        payload["decay_check"] = decay
        print(
            "certificate feasible: level %.6g, decay satisfied on %d/%d samples"
            % (est.level, round(decay.fraction_satisfied * decay.n_samples), decay.n_samples)
        )
    else:
        print(
            "certificate infeasible (%s): report written without a decay check."
            % "; ".join(est.notes)
        )
        code = EXIT_INFEASIBLE
    print(
        "box check: %.1f%% of %d samples converged"
        % (100 * box.fraction_converged, box.n_samples)
    )
    _write_json(os.path.join(config.out, "roa.json"), payload)
    return code


def cmd_reproduce(config):
    results, mismatches = refcase.run_reference_case(dt=config.dt, T=config.horizon)
    payload = {"results": results, "mismatches": mismatches}
    _write_json(os.path.join(config.out, "reproduce.json"), payload)
    expected = refcase.expected_values()
    rows = [
        ("closed-loop spectrum", "dist %.2e (tol %.0e)" % (
            results["spectrum_distance"], expected["closed_loop_eigenvalues"]["tol"])),
        ("gamma_max", "%.6g (expect %.3g +/- %.2g)" % (
            results["gamma_max"], expected["gamma_max"]["value"], expected["gamma_max"]["tol"])),
        ("pi", "%s (expect %s +/- %.2g)" % (
            np.array2string(np.array(results["pi"]), precision=4),
            expected["pi"]["value"], expected["pi"]["tol"])),
        ("placed poles", "%s" % ", ".join(results["placed_poles"])),
        ("certificate feasible", str(results["roa"]["feasible"])),
        ("error ratio at T", "%.3e (expect < %.0e)" % (
            results["error_ratio_at_T"], expected["error_ratio_at_T"]["max"])),
    ]
    width = max(len(r[0]) for r in rows)
    print("reference-case reproduction")
    for label, value in rows:
        print("  %-*s  %s" % (width, label, value))
    if mismatches:
        print("MISMATCHES:")
        for line in mismatches:
            print("  - " + line)
        return EXIT_MISMATCH
    print("all rows within tolerance")
    return EXIT_OK


# subcommand name -> (handler, help), in the order --help lists them
_COMMANDS = {
    "validate": (cmd_validate, "check the standing assumptions on a system definition"),
    "synthesize": (cmd_synthesize, "design the attack row, observer gain, and certificate"),
    "simulate": (cmd_simulate, "integrate the attacked loop plus observer and fit decay"),
    "roa": (cmd_roa, "compute the certificate and Monte Carlo checks"),
    "reproduce-paper": (
        cmd_reproduce,
        "re-run the bundled reference design and diff against the frozen expected values",
    ),
}


def _setup_logging():
    level_name = os.environ.get("OBS_FORGE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ValidationError(
            "must be one of error, info, debug; got %r" % level_name,
            field="OBS_FORGE_LOG",
        )
    logging.basicConfig(
        level=levels[level_name], format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _setup_logging()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # unknown or misplaced flag (2), --help (0)
            return exc.code
        config = config_from_args(args)
        _write_meta(config, argv)  # also creates the output directory
        return _COMMANDS[args.command][0](config)
    except (ValidationError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print("trajectory diverged: %s" % exc, file=sys.stderr)
        return EXIT_DIVERGED
    except AssumptionError as exc:
        print("assumption failure: %s" % exc, file=sys.stderr)
        return EXIT_ASSUMPTION
    except (SynthesisError, NumericError, ZeroDivisionError) as exc:
        print("design failure: %s" % exc, file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
