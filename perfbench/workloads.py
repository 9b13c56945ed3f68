"""The three benchmark workloads: inputs, one round of operations, checks.

Every round of a workload runs the same operations on the same inputs, so
the share of failed operations is the same in every run. Outputs are
checked after the measured rounds, outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from collections import Counter, namedtuple

import numpy as np
from obsforge import attack, cli, model, observer, refcase, roa
from obsforge.errors import AssumptionError, NumericError, SynthesisError, ValidationError

import checks
import reference

Op = namedtuple("Op", "kind seconds ok out")

# The bundled reference design, as documented for `obs-forge synthesize`.
REF_PI = "1,-3"
REF_POLES = (-9.5, -10.5, -11.5, -12.5)


#: what the design chain raises when it rejects a system
CHAIN_ERRORS = (SynthesisError, NumericError, AssumptionError, ValidationError, ZeroDivisionError)


def design_dict(design, obs, est, Y):
    """What check_design needs, from the program's objects."""
    return {
        "pi_star": design.pi_star, "gamma": design.gamma, "gamma_max": design.gamma_max,
        "Y": Y, "Hbar": design.Hbar, "Fbar": design.Fbar, "L": obs.L,
        "desired_poles": obs.desired_poles, "W1": est.W1, "W2": est.W2,
        "P1": est.P1, "P2": est.P2, "c1": est.c1, "c3": est.c3, "feasible": est.feasible,
    }


#: the reference kernel runs before an operation when this long has passed since it last ran
REFERENCE_EVERY_S = 0.5


class Workload:
    """One workload; ``setup`` may run several times, ``round`` many times."""

    in_process = True

    def __init__(self, root, seed, out_dir):
        self.root, self.seed, self.out_dir = root, seed, out_dir
        self.reference_s = []  # every sample of the reference kernel, in order
        self._marks = []  # per operation timed since the last pairing: index of the sample before it
        self._reference_at = -math.inf

    def sample(self):
        self.reference_s.append(self.sample_reference())
        self._reference_at = time.perf_counter()

    def timed(self, fn, *args, **kwargs):
        """(result, seconds) of one operation. The reference kernel runs
        first, outside the timed region, at most every REFERENCE_EVERY_S."""
        if time.perf_counter() - self._reference_at >= REFERENCE_EVERY_S:
            self.sample()
        self._marks.append(len(self.reference_s) - 1)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - t0

    def paired_reference(self):
        """Samples the kernel once more, then gives for each operation timed
        since the last call the mean of the samples just before and just
        after it. Call it after every round, and ``sample`` before the first."""
        self.sample()
        marks, self._marks = self._marks, []
        return [(self.reference_s[m] + self.reference_s[m + 1]) / 2 for m in marks]

    def sample_reference(self):
        return reference.kernel()


# ---------------------------------------------------------------------------


class CliPipeline(Workload):
    """The documented user flow as fresh `obs-forge` processes, one after another."""

    in_process = False
    # (subcommand, expected exit code); 3 = certificate infeasible, reports written
    STEPS = (("validate", 0), ("synthesize", 3), ("simulate", 0), ("roa", 3), ("reproduce-paper", 0))
    REPORTS = ("assumptions.json", "bundle.json", "simulate.json", "trajectory.csv",
               "plot_trajectory.gp", "roa.json", "reproduce.json")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.z0 = rng.uniform(-0.2, 0.2, 4)
        self.zhat0 = rng.uniform(-0.2, 0.2, 4)
        self.n_rounds = 0

    def argv(self, sub, out):
        vec = lambda v: ",".join("%.17g" % x for x in v)
        common = ["--out", out, "--seed", str(self.seed)]
        bundle = ["--bundle", os.path.join(out, "bundle.json")]
        return [sub] + common + {
            "validate": [],
            "synthesize": ["--pi=" + REF_PI, "--poles=" + vec(REF_POLES)],
            "simulate": bundle + ["--z0=" + vec(self.z0), "--zhat0=" + vec(self.zhat0)],
            "roa": bundle,
            "reproduce-paper": [],
        }[sub]

    def round(self, tracer=None, in_process=False):
        out = os.path.join(self.out_dir, "round%d" % self.n_rounds)
        self.n_rounds += 1
        os.makedirs(out)
        ops = []
        for sub, want in self.STEPS:
            argv = self.argv(sub, out)
            if in_process:
                code, dt = self.timed(self.main_in_process, argv, sub, out, tracer)
            else:
                proc, dt = self.timed(
                    subprocess.run, [sys.executable, "-m", "obsforge.cli"] + argv,
                    cwd=self.root, env=child_env(self.root), capture_output=True, text=True,
                )
                code = proc.returncode
            ops.append(Op("cli_" + sub.split("-")[0], dt, code == want, (sub, code, out)))
        return ops

    def sample_reference(self):
        """The invocations run in child processes, so the kernel does too."""
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")],
            capture_output=True, text=True, check=True,
        )
        return float(proc.stdout)

    @staticmethod
    def main_in_process(argv, sub, out, tracer):
        """cli.main with its output discarded, in a span named cli.<sub> when traced."""
        ctx = tracer.span("cli." + sub) if tracer else contextlib.nullcontext()
        with ctx as span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if span is not None:
            span.attrs["report_bytes"] = os.path.getsize(os.path.join(out, REPORT_OF[sub]))
        return code

    def same(self, ops, first):
        """Same exit codes and byte-identical reports as the first round; the round's directory is then removed."""
        out, ref = ops[0].out[2], first[0].out[2]
        same = [o.out[1] for o in ops] == [o.out[1] for o in first] and all(
            _read(out, name) == _read(ref, name) for name in self.REPORTS)
        shutil.rmtree(out)
        return same

    def check(self, ops):
        problems = ["%s exited %d" % (sub, code) for sub, code, _ in (o.out for o in ops)
                    if code != dict(self.STEPS)[sub]]
        return problems + self.check_reports(ops[0].out[2])

    def check_reports(self, out):
        load = lambda name: json.loads(_read(out, name))
        problems = []
        assumptions, bundle = load("assumptions.json"), load("bundle.json")
        A, B, Q, n_p = checks.assemble(bundle["system"])
        n = A.shape[0]
        abscissa = np.linalg.eigvals(A).real.max()
        if not assumptions["all_passed"] or abs(assumptions["spectral_abscissa"] - abscissa) > 1e-9:
            problems.append("validate: report %s, reference abscissa %.12g" % (assumptions, abscissa))

        att, ob, cert = bundle["attack"], bundle["observer"], bundle["roa"]
        cfg = bundle["config"]
        d = {
            "pi_star": att["pi_star"], "gamma": att["gamma"], "gamma_max": att["gamma_max"],
            "Y": cfg["Y_scale"] * np.eye(n), "Hbar": att["Hbar"], "L": ob["L"],
            "desired_poles": [p["re"] + 1j * p["im"] for p in ob["desired_poles"]],
            "W1": np.asarray(cert["W1"]), "W2": np.asarray(cert["W2"]), "P1": np.asarray(cert["P1"]),
            "P2": np.asarray(cert["P2"]), "c1": cert["c1"], "c3": cert["c3"], "feasible": cert["feasible"],
        }
        problems += ["synthesize: " + p for p in checks.check_design(A, B, Q, n_p, d)]
        if sorted(p.real for p in d["desired_poles"]) != sorted(REF_POLES):
            problems.append("synthesize: bundle poles are not the requested ones")

        field = checks.coupled_field(A, B, Q, att["Hbar"], ob["L"])
        with open(os.path.join(out, "trajectory.csv")) as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)
        problems += ["simulate: " + p for p in checks.check_trajectory_csv(table, header, field, Q, att["Hbar"])]
        if not (np.array_equal(table[0, 1 : n + 1], self.z0) and np.array_equal(table[0, n + 1 : 2 * n + 1], self.zhat0)):
            problems.append("simulate: trajectory does not start at the requested z0, zhat0")
        sim = load("simulate.json")
        if not math.isclose(sim["final_error_norm"], np.linalg.norm(table[-1, 2 * n + 1 : 3 * n + 1]), rel_tol=1e-12):
            problems.append("simulate: final_error_norm disagrees with the CSV's last row")

        roa_report = load("roa.json")
        if roa_report["estimate"]["c3"] != cert["c3"] or roa_report["decay_check"] is not None:
            problems.append("roa: estimate differs from the bundle's, or a decay check ran on an infeasible certificate")
        idx = np.random.default_rng(self.seed).choice(roa_report["box_check"]["n_samples"], 3, replace=False)
        problems += ["roa: " + p for p in checks.check_box_report(roa_report["box_check"], field, n, idx)]

        rep = load("reproduce.json")
        if not rep["results"]["reproduced"] or rep["mismatches"]:
            problems.append("reproduce-paper: mismatches %s" % rep["mismatches"])
        if rep["results"]["roa"]["c1"] != cert["c1"] or rep["results"]["roa"]["c3"] != cert["c3"]:
            problems.append("reproduce-paper: certificate constants differ from the bundle's")
        return problems


def _read(directory, name):
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


REPORT_OF = {"validate": "assumptions.json", "synthesize": "bundle.json", "simulate": "simulate.json",
             "roa": "roa.json", "reproduce-paper": "reproduce.json"}


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """The box-convergence check on the headline design and verify_decay on a
    feasible instance, in-process; import and design are set-up cost."""

    def setup(self):
        _, _, cl = refcase.reference_system()
        Y = 0.2 * np.eye(cl.n)
        pi_star = np.array([1.0, -3.0])
        design = attack.build_design(cl, pi_star=pi_star, gamma_fraction=0.9, Y=Y)
        obs = observer.design_gain(design, cl.B, desired_poles=np.array(REF_POLES))
        head_est = roa.certify(cl, design, obs)
        # the test fixture `cert_instance`: a tenth of the bound and L = -0.9 B
        cdesign = attack.build_design(cl, pi_star=pi_star, gamma_fraction=0.1, Y=Y)
        cobs = observer.gain_from_vector(cdesign, cl.B, -0.9 * cl.B)
        est = roa.certify(cl, cdesign, cobs)
        self.cl, self.Y = cl, Y
        self.head = (design, obs, head_est)
        self.cert = (cdesign, cobs, est)

    def round(self, tracer=None, in_process=True):
        design, obs, _ = self.head
        cdesign, cobs, est = self.cert
        box, t_box = self.timed(roa.monte_carlo_box_check, self.cl, design, obs, seed=self.seed)
        decay, t_decay = self.timed(roa.verify_decay, self.cl, cdesign, cobs, est,
                                    n_samples=200, seed=self.seed)
        return [Op("box_check", t_box, True, box), Op("decay_check", t_decay, True, decay)]

    def same(self, ops, first):
        return all(o.out == f.out for o, f in zip(ops, first))

    def check(self, first):
        problems = []
        cl = self.cl
        A, B, Q = np.asarray(cl.A), np.asarray(cl.B), np.asarray(cl.Q)
        for label, (design, obs, est) in (("headline", self.head), ("cert_instance", self.cert)):
            d = design_dict(design, obs, est, self.Y)
            problems += ["%s design: %s" % (label, p) for p in checks.check_design(A, B, Q, cl.n_p, d)]
        design, obs, _ = self.head
        field = checks.coupled_field(A, B, Q, design.Hbar, obs.L)
        idx = np.random.default_rng(self.seed).choice(first[0].out.n_samples, 3, replace=False)
        problems += ["box check: " + p for p in checks.check_box_report(first[0].out.as_dict(), field, cl.n, idx)]

        cdesign, cobs, est = self.cert
        if not est.feasible:
            return problems + ["cert_instance: certificate is not feasible"]
        problems += ["decay check: " + p for p in checks.check_decay_report(first[1].out.as_dict(), est.level)]
        cfield = checks.coupled_field(A, B, Q, cdesign.Hbar, cobs.L)
        problems += ["certificate: " + p for p in checks.check_certified_decay(
            cfield, cl.n, est.P1, est.P2, est.delta, est.level, self.seed)]
        return problems


# ---------------------------------------------------------------------------


def draw_system(rng, n_p, n_c):
    """A random stable plant/controller pair that passes validation, drawn
    the way the test suite's `make_random_system` fixture draws them."""
    for _ in range(50):
        A_p = rng.standard_normal((n_p, n_p))
        A_p -= (np.max(np.linalg.eigvals(A_p).real) + rng.uniform(0.5, 2.0)) * np.eye(n_p)
        A_c = rng.standard_normal((n_c, n_c))
        A_c -= (np.max(np.linalg.eigvals(A_c).real) + rng.uniform(0.5, 2.0)) * np.eye(n_c)
        B_p = rng.standard_normal((n_p, 1))
        B_c = rng.standard_normal((n_c, 1))
        C_c = rng.standard_normal((1, n_c))
        M = rng.standard_normal((n_p, n_p))
        plant = model.PlantModel(A_p=A_p, B_p=B_p, Q_p=0.5 * (M + M.T))
        controller = model.ControllerModel(A_c=A_c, B_c=B_c, C_c=C_c, D_c=float(rng.standard_normal()))
        cl = model.assemble(plant, controller)
        if model.validate_assumptions(plant, controller, cl).all_passed:
            return plant, controller, cl
    raise RuntimeError("no valid random system in 50 draws")


class DesignSweep(Workload):
    """validate -> build_design -> design_gain -> certify on random systems of
    size n = 4, 8 and 12 (n_p = n_c = n/2)."""

    # Systems come from a fixed stream, not from --seed: the program rejects
    # a seed-dependent subset of random draws (Krylov rank test, Ackermann
    # placement, Kronecker Lyapunov residual), and the share of failed
    # operations must be the same in every run. The seed orders the attempts.
    BANK_SEED = 2605
    BANK = ((4, 16), (8, 16), (12, 8))

    def setup(self):
        bank = [(n, i, draw_system(np.random.default_rng([self.BANK_SEED, n, i]), n // 2, n // 2))
                for n, count in self.BANK for i in range(count)]
        order = np.random.default_rng(self.seed).permutation(len(bank))
        self.bank = [bank[k] for k in order]

    def chain(self, n, i, system):
        plant, controller, cl = system
        model.validate_assumptions(plant, controller, cl)
        design = attack.build_design(cl, seed=i)
        obs = observer.design_gain(design, cl.B)
        return design, obs, roa.certify(cl, design, obs)

    def attempt(self, n, i, system):
        try:
            return True, self.chain(n, i, system)
        except CHAIN_ERRORS as exc:
            return False, exc

    def round(self, tracer=None, in_process=True):
        ops = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ConditioningWarning on the large systems
            for n, i, system in self.bank:
                (ok, out), dt = self.timed(self.attempt, n, i, system)
                ops.append(Op("design_n%d" % n, dt, ok, out))
        return ops

    @staticmethod
    def _fingerprint(op):
        if not op.ok:
            return repr((type(op.out), str(op.out)))
        design, obs, est = op.out
        return repr((design.gamma_max, design.pi.tolist(), obs.L.tolist(), est.c1, est.c3))

    def same(self, ops, first):
        return [self._fingerprint(o) for o in ops] == [self._fingerprint(o) for o in first]

    def check(self, first):
        problems = []
        self.ledger = []
        for (n, i, system), op in zip(self.bank, first):
            cl = system[2]
            entry = {"n": n, "index": i, "outcome": "ok" if op.ok else "rejected"}
            if op.ok:
                design, obs, est = op.out
                d = design_dict(design, obs, est, 0.2 * np.eye(cl.n))
                problems += ["n=%d #%d: %s" % (n, i, p) for p in checks.check_design(
                    np.asarray(cl.A), np.asarray(cl.B), np.asarray(cl.Q), cl.n_p, d)]
                entry["pbh_observable"] = checks.pbh_observable(design.Fbar, design.Hbar)
            else:
                entry.update(self.attribute(n, i, system, op.out))
                if entry["fault"] is None:
                    problems.append("n=%d #%d: rejection not attributed to a known fault: %s: %s"
                                    % (n, i, entry["error"], entry["message"]))
            self.ledger.append(entry)
        return problems

    def attribute(self, n, i, system, exc):
        """Replay a rejected chain, capture the arguments of the call that
        failed, and ask the reference whether the program was wrong to fail."""
        seen = {}
        patched = [(attack, "is_observable"), (observer, "place_poles_dual"),
                   (attack, "solve_lyapunov"), (roa, "solve_lyapunov")]
        originals = [getattr(m, a) for m, a in patched]

        def recorder(attr, fn):
            def f(*args, **kwargs):
                seen[attr] = args
                return fn(*args, **kwargs)
            return f

        for (mod, attr), fn in zip(patched, originals):
            setattr(mod, attr, recorder(attr, fn))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self.chain(n, i, system)
        except CHAIN_ERRORS:
            pass
        finally:
            for (mod, attr), fn in zip(patched, originals):
                setattr(mod, attr, fn)

        msg = str(exc)
        entry = {"error": type(exc).__name__, "message": msg, "fault": None, "pbh_observable": None}
        if "observab" in msg and "is_observable" in seen:
            F, H = seen["is_observable"][:2]
            entry["pbh_margin"] = checks.pbh_margin(F, H)
            entry["pbh_observable"] = checks.pbh_observable(F, H)
            if entry["pbh_observable"]:
                entry["fault"] = "krylov_rank_test"
        elif "placed spectrum" in msg and "place_poles_dual" in seen:
            F, H, poles = seen["place_poles_dual"]
            entry["pbh_observable"] = checks.pbh_observable(F, H)
            if checks.knv_placement_gap(F, H, poles) <= checks.PLACEMENT_TOL:
                entry["fault"] = "ackermann_placement"
        elif "Lyapunov residual" in msg and "solve_lyapunov" in seen:
            A, W = seen["solve_lyapunov"]
            if checks.lyapunov_residual(np.asarray(A), np.asarray(W)) <= checks.LYAP_RESIDUAL_TOL:
                entry["fault"] = "kronecker_lyapunov"
        return entry

    def ledger_counts(self):
        counts = Counter((e["n"], e["outcome"] if e["outcome"] == "ok" else e["fault"]) for e in self.ledger)
        return {"n=%d" % n: {k: v for (m, k), v in sorted(counts.items(), key=str) if m == n}
                for n, _ in self.BANK}


WORKLOADS = {"cli_pipeline": CliPipeline, "monte_carlo": MonteCarlo, "design_sweep": DesignSweep}
