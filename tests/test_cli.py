"""End-to-end tests of the obs-forge command line front end."""

import ast
import copy
import gc
import inspect
import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import obsforge
from obsforge import cli, observer, refcase, roa
from obsforge.errors import NumericError, ValidationError
from obsforge.report import Record

# obsforge.__all__: the submodules, the layers' public names, the version
PUBLIC_API = {
    "attack", "cli", "model", "numerics", "observer", "refcase", "roa", "sim",
    "AssumptionError", "AssumptionReport", "AttackDesign", "AugmentedJacobian",
    "BoxReport", "ClosedLoop", "ConditioningWarning", "ControllerModel",
    "CoupledField", "DecayFit", "DecayReport", "DivergenceError",
    "ForbiddenSubspace", "NumericError", "ObserverDesign",
    "PlantModel", "RoaEstimate", "SynthesisError", "Trajectory", "ValidationError",
    "__version__", "assemble", "augmented_jacobian",
    "build_design", "certify", "choose_pi_star", "coupled_field", "default_poles",
    "design_gain", "fit_decay", "forbidden_set",
    "gain_from_vector", "gamma_max", "integrate", "integrate_batch",
    "is_observable", "load_system", "monte_carlo_box_check",
    "system_from_dict", "trajectory_to_csv", "validate_assumptions",
    "verify_decay", "write_gnuplot_stub",
}

FEASIBLE_SYSTEM = {
    "plant": {"A_p": [[-2.0]], "B_p": [[1.0]], "Q_p": [[0.05]]},
    "controller": {"A_c": [[-3.0]], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": 1.0},
}
FEASIBLE_FLAGS = ["--pi", "1", "--gamma-fraction", "0.1", "--poles=-2.1,-3.1"]

SHARED_POLE_SYSTEM = {
    "plant": {"A_p": [[-1.0]], "B_p": [[1.0]], "Q_p": [[0.5]]},
    "controller": {"A_c": [[-1.0]], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": 1.0},
}


def _write_config(tmp_path, payload, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_reference_system(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["validate", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "assumptions.json")
    assert report["all_passed"] is True
    assert report["a_hurwitz"] is True
    assert "pass" in capsys.readouterr().out
    meta = _read_json(out / "run_meta.json")
    assert meta["seed"] == 0
    assert "validate" in meta["argv"]


def _run_clean(args):
    """Run the interpreter on ``args`` with obsforge's source on the path."""
    src = os.path.dirname(os.path.dirname(obsforge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable] + args, capture_output=True, text=True, env=env, timeout=120,
    )


def _run_module_clean(tmp_path, module):
    proc = _run_clean(
        ["-W", "error", "-m", module, "validate", "--out", str(tmp_path / "out")]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_module_entry_point_runs_without_warnings(tmp_path):
    # `python -m obsforge.cli` must not find the module already imported
    # by the package, or runpy warns before running it
    _run_module_clean(tmp_path, "obsforge.cli")


def test_package_entry_point_runs_without_warnings(tmp_path):
    _run_module_clean(tmp_path, "obsforge")


def test_every_public_name_resolves_after_plain_import():
    # cli is not imported by ``import obsforge`` but resolves on first access
    code = (
        "import sys, obsforge\n"
        "assert 'obsforge.cli' not in sys.modules\n"
        "print([n for n in obsforge.__all__ if not hasattr(obsforge, n)])"
    )
    proc = _run_clean(["-W", "error", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip() == "[]"


def test_plain_import_loads_no_layer():
    # the layers and numpy load on first use of a name, not with the package
    code = (
        "import sys, obsforge\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('obsforge.')))"
    )
    proc = _run_clean(["-W", "error", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == ["obsforge.errors"]


def test_package_api_is_each_layers_api():
    # __all__ is built from the layers' own __all__, in order; a dunder probe
    # (copy, pickle, inspect) loads no layer
    code = (
        "import sys, obsforge\n"
        "assert not hasattr(obsforge, '__wrapped__')\n"
        "print(sorted(m for m in sys.modules if m.startswith('obsforge.')))\n"
        "from obsforge import attack, errors, model, observer, roa, sim\n"
        "layers = [attack, model, observer, roa, sim]\n"
        "print(obsforge.__all__ == ['attack', 'cli', 'model', 'numerics', 'observer',"
        " 'refcase', 'roa', 'sim', *errors.__all__, *(n for m in layers for n in m.__all__),"
        " '__version__'])"
    )
    proc = _run_clean(["-W", "error", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['obsforge.errors']", "True"]


def test_function_level_imports_are_the_deliberate_deferrals():
    # each import inside a function defers a load some process does not need;
    # any other belongs at its module's top
    deferred = {}
    for path in sorted(Path(obsforge.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    names = {node.module} if node.module else {a.name for a in node.names}
                else:
                    continue
                deferred.setdefault("%s.%s" % (path.stem, fn.name), set()).update(names)
    assert deferred == {
        "cli._design_pipeline": {"attack", "observer", "roa"},
        "cli.cmd_reproduce": {"sim"},
        "cli.cmd_roa": {"roa"},
        "cli.cmd_simulate": {"sim"},
        "cli._setup_logging": {"logging"},
        "roa._integrate_seeded": {"numpy.random"},
    }


def _cli_process(argv, module="obsforge.cli"):
    """(process, names in sys.modules at its exit, gc.get_freeze_count() at
    its exit) of a fresh interpreter that runs ``python -m module`` on argv."""
    code = (
        "import gc, runpy, sys\n"
        "sys.argv[1:] = %r\n"
        "try:\n"
        "    runpy.run_module(%r, run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print((sorted(sys.modules), gc.get_freeze_count()))\n" % (argv, module)
    )
    proc = _run_clean(["-W", "error", "-c", code])
    loaded, frozen = ast.literal_eval(proc.stdout.splitlines()[-1])
    return proc, set(loaded), frozen


@pytest.mark.parametrize("module", ["obsforge.cli", "obsforge"])
def test_process_entries_freeze_the_start_up_heap(tmp_path, module):
    proc, _, frozen = _cli_process(["validate", "--out", str(tmp_path / "o")], module)
    assert proc.returncode == 0, proc.stderr
    assert frozen > 0


def test_main_leaves_the_collector_as_the_caller_had_it(tmp_path, monkeypatch):
    # run() is the process entry and freezes; main(argv) runs inside callers
    # such as these tests and the benchmark's traced rounds, so it must not
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(gc.get_freeze_count()))
    monkeypatch.setattr(sys, "argv", ["obs-forge", "validate", "--out", str(tmp_path / "r")])
    assert cli.run() == 0
    assert len(freezes) == 1
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            assert cli.main(["validate", "--out", str(tmp_path / str(enabled))]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(freezes) == 1


def test_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"obs-forge": "obsforge.cli:run"}


def test_process_and_in_process_flows_write_the_same_reports(tmp_path, capsys):
    # the benchmark's flow: fresh `python -m obsforge.cli` processes against
    # cli.main in this process, exit codes and every report but run_meta.json
    def argv(sub, out):
        bundle = ["--bundle", str(out / "bundle.json")]
        return [sub, "--out", str(out), "--seed", "3"] + {
            "validate": [],
            "synthesize": ["--pi=1,-3", "--poles=-9.5,-10.5,-11.5,-12.5"],
            "simulate": bundle + ["--z0=0.1,-0.05,0.12,-0.08", "--zhat0=-0.1,0.15,0.02,0.07"],
            "roa": bundle,
            "reproduce-paper": [],
        }[sub]

    steps = ("validate", "synthesize", "simulate", "roa", "reproduce-paper")
    fresh, inner = tmp_path / "process", tmp_path / "in_process"
    codes = [_run_clean(["-m", "obsforge.cli"] + argv(sub, fresh)).returncode for sub in steps]
    assert codes == [0, 3, 0, 3, 0]
    assert [cli.main(argv(sub, inner)) for sub in steps] == codes
    capsys.readouterr()
    names = sorted(p.name for p in fresh.iterdir() if p.name != "run_meta.json")
    assert names == sorted(p.name for p in inner.iterdir() if p.name != "run_meta.json")
    assert len(names) == 7
    for name in names:
        assert (fresh / name).read_bytes() == (inner / name).read_bytes(), name


def test_validate_loads_only_its_layers(tmp_path, monkeypatch):
    monkeypatch.delenv("OBS_FORGE_LOG", raising=False)
    proc, loaded, _ = _cli_process(["validate", "--out", str(tmp_path / "o")])
    assert proc.returncode == 0, proc.stderr
    assert {"obsforge.model", "obsforge.refcase"} <= loaded
    assert not {
        "obsforge.attack", "obsforge.observer", "obsforge.roa", "obsforge.sim", "logging",
        "dataclasses",
    } & loaded


def test_logging_loads_only_when_lines_are_asked_for(tmp_path, monkeypatch):
    argv = ["validate", "--out", str(tmp_path / "o")]
    for level, loads in (("error", False), ("info", True), ("debug", True)):
        monkeypatch.setenv("OBS_FORGE_LOG", level)
        proc, loaded, _ = _cli_process(argv)
        assert proc.returncode == 0, proc.stderr
        assert ("logging" in loaded) == loads, level
        assert ("INFO obsforge: wrote " in proc.stderr) == loads, level


def test_public_api_is_pinned():
    assert len(obsforge.__all__) == len(PUBLIC_API) == 51
    assert set(obsforge.__all__) == PUBLIC_API
    for name in PUBLIC_API - {"__version__"}:
        value = getattr(obsforge, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules["obsforge." + name], name
        else:  # the object its defining module binds to that name
            assert value is getattr(sys.modules[value.__module__], name), name


def test_public_api_is_read_outside_the_tests():
    # each layer's public name, and each public method or property of its
    # records that is not a field, is read by the package, a demo or the
    # benchmark; code only the tests read belongs with the tests
    root = Path(__file__).resolve().parent.parent
    read = set()
    for d in ("src/obsforge", "demos", "perfbench"):
        for path in (root / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    unread = []
    for layer in obsforge._LAYERS:
        module = getattr(obsforge, layer)
        for name in module.__all__:
            if name not in read:
                unread.append(name)
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, Record):
                unread += [
                    "%s.%s" % (name, attr) for attr, member in vars(value).items()
                    if not attr.startswith("_") and attr not in value._fields
                    and (callable(member) or isinstance(member, property))
                    and attr not in read
                ]
    assert not unread, "read only by the tests: %s" % ", ".join(unread)


def test_optional_parameters_are_set_outside_the_tests():
    # each optional parameter of a submodule's public function is filled,
    # by keyword or by position, by some call in the package, a demo or the
    # benchmark; a value that only the tests set belongs in a module
    # constant. A call that passes the function on, as ``timed(f, a, b)``
    # does, fills it with the arguments after it. The one exception is
    # sim.integrate's stride: acceptance criterion 10d sets it to 10**6,
    # so that only the endpoint is recorded
    root = Path(__file__).resolve().parent.parent
    calls = []
    for d in ("src/obsforge", "demos", "perfbench"):
        for path in (root / d).rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def filled(function, index, param):
        for call in calls:
            args = call.args
            if name(call.func) != function:
                passed = [i for i, arg in enumerate(args) if name(arg) == function]
                if not passed:
                    continue
                args = args[passed[0] + 1 :]
            positional = 0  # the arguments ahead of any *args
            while positional < len(args) and not isinstance(args[positional], ast.Starred):
                positional += 1
            if param.kind is param.POSITIONAL_OR_KEYWORD and index < positional:
                return True
            if any(keyword.arg == param.name for keyword in call.keywords):
                return True
        return False

    unset = []
    for layer in obsforge.__all__:
        module = getattr(obsforge, layer)
        if not isinstance(module, types.ModuleType):
            continue
        for function in module.__all__:
            value = getattr(module, function)
            if not isinstance(value, types.FunctionType):
                continue
            for index, param in enumerate(inspect.signature(value).parameters.values()):
                if param.default is not param.empty and not filled(function, index, param):
                    unset.append("%s.%s(%s=)" % (layer, function, param.name))
    assert unset == ["sim.integrate(stride=)"], "set only by the tests: %s" % ", ".join(unset)


def test_wildcard_import_binds_the_public_api():
    code = (
        "before = set(dir())\n"
        "from obsforge import *\n"
        "print(sorted(set(dir()) - before - {'before'}))"
    )
    proc = _run_clean(["-W", "error", "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert set(ast.literal_eval(proc.stdout)) == PUBLIC_API


def test_cli_flow_does_not_import_scipy_optimize(tmp_path, monkeypatch):
    """The CLI flow runs on numpy alone and loads no scipy module.

    Importing ``scipy.optimize`` costs 0.54-0.64 s per process on a 2-vCPU
    x86 host, several times all of ``obsforge.cli``, and ``scipy.signal``
    1.2-1.3 s there. Nor does it load ``numpy.ma``, which the first
    ``np.unique`` call in a process imports (about 9 ms and 1.9 MB there),
    ``logging`` (about 5 ms there) without OBS_FORGE_LOG, or
    ``dataclasses``: the records are ``report.Record`` classes, which
    generate no methods at import.
    """
    monkeypatch.delenv("OBS_FORGE_LOG", raising=False)
    out = str(tmp_path / "out")
    bundle = os.path.join(out, "bundle.json")
    script = "\n".join([
        "import sys",
        "from obsforge import cli",
        "codes = [cli.main(argv) for argv in %r]" % [
            ["synthesize", "--out", out],
            ["simulate", "--bundle", bundle, "--horizon", "0.1", "--out", out],
            ["roa", "--bundle", bundle, "--horizon", "0.1", "--out", out],
            ["reproduce-paper", "--out", out],
        ],
        "print(codes, [name for name in sys.modules"
        " if name.split('.')[0] in ('scipy', 'logging', 'dataclasses')"
        " or name.split('.')[:2] == ['numpy', 'ma']])",
    ])
    proc = _run_clean(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[3, 0, 3, 0] []"


def test_subcommands_reject_flags_they_do_not_read(tmp_path):
    cfg = _write_config(tmp_path, FEASIBLE_SYSTEM)
    out = str(tmp_path / "o")
    assert cli.main(["synthesize", "--config", cfg, "--out", out] + FEASIBLE_FLAGS) == 0
    bundle = os.path.join(out, "bundle.json")
    # a bundle fixes the design, so the design chain's flags are refused next to it
    design_flags = (
        ["--pi", "5"],
        ["--gamma-fraction", "0.5"],
        ["--poles=-50,-60"],
        ["--w1-scale", "7"],
        ["--w2-scale", "7"],
        ["--delta-fraction", "0.5"],
    )
    for command in ("simulate", "roa"):
        for flag in design_flags:
            argv = [command, "--bundle", bundle, "--out", out] + flag
            assert cli.main(argv) == cli.EXIT_INPUT, argv
    for argv in (
        ["reproduce-paper", "--config", cfg, "--out", out],
        ["validate", "--poles=-1", "--out", out],
        ["validate", "--horizon", "1", "--out", out],
        ["synthesize", "--bundle", cfg, "--out", out],
        ["roa", "--z0", "0,0", "--out", out],
        # a bundle carries its own system; a config next to it is refused
        ["simulate", "--bundle", cfg, "--config", cfg, "--out", out],
        ["roa", "--bundle", cfg, "--config", cfg, "--out", out],
    ):
        assert cli.main(argv) == cli.EXIT_INPUT, argv


def test_validate_flags_shared_pole(tmp_path, capsys):
    cfg = _write_config(tmp_path, SHARED_POLE_SYSTEM)
    out = tmp_path / "out"
    code = cli.main(["validate", "--config", cfg, "--out", str(out)])
    assert code == 1
    report = _read_json(out / "assumptions.json")
    assert report["spectra_disjoint"] is False
    assert "FAIL" in capsys.readouterr().out


def test_malformed_config_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"plant": {', encoding="utf-8")
    code = cli.main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def _with(section, key, value):
    """FEASIBLE_SYSTEM with ``data[section][key]`` replaced by ``value``."""
    data = copy.deepcopy(FEASIBLE_SYSTEM)
    data[section][key] = value
    return data


@pytest.mark.parametrize(
    "payload, message",
    [
        (_with("plant", "A_p", -2.0), "plant.A_p: expected a non-empty nested array"),
        (_with("plant", "A_p", [[]]), "plant.A_p[0]: expected a non-empty row"),
        (_with("plant", "A_p", [[float("nan")]]), "plant.A_p[0][0]: entries must be finite doubles"),
        (_with("plant", "A_p", [[-2.0, 0.0]]), "plant.A_p: must be square with n_p >= 1"),
        ([], "$: system definition must be a JSON object"),
        (dict(FEASIBLE_SYSTEM, plant=[]), "plant: must be an object"),
        (_with("controller", "D_c", "1"), "controller.D_c: expected a finite scalar"),
    ],
    ids=["scalar-matrix", "empty-row", "nan-entry", "non-square", "list", "list-section", "text-D_c"],
)
def test_malformed_system_fields_are_input_errors(tmp_path, capsys, payload, message):
    cfg = _write_config(tmp_path, payload)
    code = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: %s" % message)


def test_missing_config_is_input_error(tmp_path):
    code = cli.main(
        ["validate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_synthesize_reference_reports_infeasible(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["synthesize", "--out", str(out)])
    assert code == 3
    bundle = _read_json(out / "bundle.json")
    # the chain's inputs and results, nothing re-derived from them
    assert sorted(bundle) == ["attack", "config", "observer", "roa", "system"]
    assert bundle["roa"]["feasible"] is False
    assert bundle["observer"]["placement_error"] <= observer.PLACEMENT_TOL
    assert len(bundle["observer"]["L"]) == 4
    assert len(bundle["attack"]["forbidden_subspaces"]) == 2
    # the reference spectra are real, yet every pole is stored as {re, im}
    for key in ("placed_poles", "desired_poles"):
        poles = bundle["observer"][key]
        assert len(poles) == 4
        assert all(isinstance(p, dict) and set(p) == {"re", "im"} for p in poles), key
    text = capsys.readouterr().out
    assert "infeasible" in text
    assert "W1" in text


def test_synthesize_feasible_instance(tmp_path, capsys):
    cfg = _write_config(tmp_path, FEASIBLE_SYSTEM)
    out = tmp_path / "out"
    code = cli.main(["synthesize", "--config", cfg, "--out", str(out)] + FEASIBLE_FLAGS)
    assert code == 0
    bundle = _read_json(out / "bundle.json")
    assert bundle["roa"]["feasible"] is True
    assert bundle["roa"]["level"] > 0
    assert "certificate feasible" in capsys.readouterr().out


def test_synthesize_rejects_failed_assumptions(tmp_path, capsys):
    cfg = _write_config(tmp_path, SHARED_POLE_SYSTEM)
    code = cli.main(["synthesize", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ASSUMPTION
    assert "system fails plant/controller spectra disjoint" in capsys.readouterr().err


def test_run_from_config_rejects_failed_assumptions(tmp_path, capsys):
    # simulate and roa design from --config through the same check as synthesize
    cfg = _write_config(tmp_path, SHARED_POLE_SYSTEM)
    for command in ("simulate", "roa"):
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_ASSUMPTION, command
        assert "system fails plant/controller spectra disjoint" in capsys.readouterr().err, command


def test_simulate_reference_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["simulate", "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "plot_trajectory.gp").exists()
    payload = _read_json(out / "simulate.json")
    assert payload["z0"] == list(refcase.REFERENCE_Z0)
    assert payload["error_ratio"] < 1e-6
    assert payload["decay_fit"]["alpha"] > 0


def test_simulate_zero_initial_conditions(tmp_path):
    out = tmp_path / "out"
    code = cli.main(
        ["simulate", "--out", str(out), "--z0", "0,0,0,0", "--zhat0", "0,0,0,0",
         "--horizon", "0.1"]
    )
    assert code == 0
    payload = _read_json(out / "simulate.json")
    assert payload["decay_fit"] is None
    assert payload["final_state_norm"] == 0.0
    table = np.loadtxt(out / "trajectory.csv", skiprows=1, delimiter=",")
    assert np.all(table[:, 1:] == 0.0)


def test_simulate_divergence_exit_code(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--out", str(tmp_path / "o"),
         "--z0", "1e5,1e5,1e5,1e5", "--zhat0=-1e5,-1e5,-1e5,-1e5",
         "--horizon", "1.0"]
    )
    assert code == 4
    assert "diverged" in capsys.readouterr().err


def test_roa_reference_infeasible_still_reports(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["roa", "--out", str(out), "--horizon", "2.0"])
    assert code == 3
    payload = _read_json(out / "roa.json")
    assert payload["estimate"]["feasible"] is False
    assert payload["decay_check"] is None
    assert payload["box_check"]["n_samples"] == 500


def test_roa_feasible_instance(tmp_path, capsys):
    cfg = _write_config(tmp_path, FEASIBLE_SYSTEM)
    out = tmp_path / "out"
    code = cli.main(["roa", "--config", cfg, "--out", str(out)] + FEASIBLE_FLAGS)
    assert code == 0
    payload = _read_json(out / "roa.json")
    assert payload["estimate"]["feasible"] is True
    assert payload["decay_check"]["fraction_satisfied"] == 1.0
    assert payload["box_check"]["fraction_converged"] == 1.0
    assert "feasible" in capsys.readouterr().out


def test_roa_refuses_a_dt_off_the_decay_grid_before_the_box_check(tmp_path, monkeypatch, capsys):
    # 0.003 divides the 3 s horizon but not verify_decay's fixed 2 s one; the
    # whole box check used to run first, then fail under the name horizon
    def no_box_check(*args, **kwargs):
        raise AssertionError("the box check ran")

    monkeypatch.setattr(roa, "monte_carlo_box_check", no_box_check)
    cfg = _write_config(tmp_path, FEASIBLE_SYSTEM)
    out = tmp_path / "out"
    argv = ["roa", "--config", cfg, "--out", str(out), "--dt", "0.003", "--horizon", "3"]
    assert cli.main(argv + FEASIBLE_FLAGS) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: dt: the 2 s decay horizon: must be a whole number of dt steps,"
        " got 2.0 = 666.666666667 * dt\n"
    )
    assert not (out / "roa.json").exists()


def test_bundle_reuse_for_simulate_and_roa(tmp_path):
    cfg = _write_config(tmp_path, FEASIBLE_SYSTEM)
    out_syn = tmp_path / "syn"
    assert cli.main(
        ["synthesize", "--config", cfg, "--out", str(out_syn)] + FEASIBLE_FLAGS
    ) == 0
    bundle_path = str(out_syn / "bundle.json")

    out_sim = tmp_path / "sim"
    code = cli.main(["simulate", "--bundle", bundle_path, "--out", str(out_sim)])
    assert code == 0
    payload = _read_json(out_sim / "simulate.json")
    assert len(payload["z0"]) == 2  # dimensions come from the bundle's system

    out_roa = tmp_path / "roa"
    code = cli.main(["roa", "--bundle", bundle_path, "--out", str(out_roa)])
    assert code == 0
    payload = _read_json(out_roa / "roa.json")
    assert payload["decay_check"] is not None


def test_default_initial_state_follows_the_system(tmp_path):
    # the reference loop starts from REFERENCE_Z0 whether it comes from
    # --config or from its bundle; any other loop starts from +-0.1
    other = refcase.reference_dict()
    other["plant"]["Q_p"] = [[0.6, 0.0], [0.0, 0.6]]
    alternating = [0.1, -0.1, 0.1, -0.1]
    for name, system, z0, zhat0 in (
        ("ref", refcase.reference_dict(), refcase.REFERENCE_Z0, refcase.REFERENCE_ZHAT0),
        ("other", other, alternating, [-v for v in alternating]),
    ):
        cfg = _write_config(tmp_path, system, name + ".json")
        out = str(tmp_path / name)
        assert cli.main(["synthesize", "--config", cfg, "--out", out]) == 3
        bundle = os.path.join(out, "bundle.json")
        for source in (["--config", cfg], ["--bundle", bundle]):
            sim_out = os.path.join(out, source[0][2:])
            argv = ["simulate", "--horizon", "0.1", "--out", sim_out] + source
            assert cli.main(argv) == 0, argv
            payload = _read_json(os.path.join(sim_out, "simulate.json"))
            assert payload["z0"] == list(z0), argv
            assert payload["zhat0"] == list(zhat0), argv


def test_reports_byte_identical_across_runs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["synthesize", "--out", str(out)]) == 3
        assert cli.main(["reproduce-paper", "--out", str(out)]) == 0
    for name in ("bundle.json", "reproduce.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_reproduce_designs_as_synthesize_does(tmp_path):
    # reproduce-paper runs synthesize's chain on the bundled case's inputs
    out = tmp_path / "out"
    argv = ["--out", str(out), "--seed", "3"]
    assert cli.main(["synthesize", "--pi=1,-3", "--poles=-9.5,-10.5,-11.5,-12.5"] + argv) == 3
    assert cli.main(["reproduce-paper"] + argv) == 0
    bundle = _read_json(out / "bundle.json")
    results = _read_json(out / "reproduce.json")["results"]
    sections = {
        "attack": ("gamma_max", "gamma", "pi_star", "pi", "observability_margin"),
        "observer": ("L", "placement_error"),
    }
    stored = {k: bundle[section][k] for section, keys in sections.items() for k in keys}
    stored["roa"] = bundle["roa"]
    assert {k: results[k] for k in stored} == stored


def test_reproduce_reference_passes(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["reproduce-paper", "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "reproduce.json")
    assert payload["mismatches"] == []
    assert payload["results"]["reproduced"] is True
    assert "within tolerance" in capsys.readouterr().out


def test_reproduce_short_horizon_claims_nothing(tmp_path, capsys):
    # the decay ratio and every milestone past T cannot be judged
    out = tmp_path / "out"
    code = cli.main(["reproduce-paper", "--horizon", "0.3", "--out", str(out)])
    assert code == cli.EXIT_MISMATCH
    payload = _read_json(out / "reproduce.json")
    assert payload["results"]["reproduced"] is False
    assert payload["mismatches"] == ["error_ratio_at_T: not judged at T=0.3"] + [
        "error_norm_milestones at t=%g: not judged at T=0.3" % t for t in (0.5, 1, 2, 3, 4)
    ]
    stdout = capsys.readouterr().out
    assert "MISMATCHES" in stdout and "within tolerance" not in stdout


@pytest.mark.parametrize(
    "key, perturb",
    [  # one row per bound kind: tol, rel_tol, max, exact, and a dict row
        pytest.param("gamma_max", lambda row: row.update(value=0.5), id="gamma_max"),
        pytest.param("roa_c3", lambda row: row.update(value=row["value"] * 1.01), id="roa_c3"),
        pytest.param("error_ratio_at_T", lambda row: row.update(max=1e-30), id="error_ratio_at_T"),
        pytest.param("roa_feasible", lambda row: row.update(value=True), id="roa_feasible"),
        pytest.param(
            "error_norm_milestones", lambda row: row["value"].update({2.0: 7.27e-4}),
            id="milestone",
        ),
    ],
)
def test_reproduce_detects_drift(tmp_path, monkeypatch, capsys, key, perturb):
    perturbed = copy.deepcopy(refcase.expected_values())
    perturb(perturbed[key])
    monkeypatch.setattr(refcase, "expected_values", lambda: perturbed)
    out = tmp_path / "out"
    code = cli.main(["reproduce-paper", "--out", str(out)])
    assert code == 5
    payload = _read_json(out / "reproduce.json")
    assert any(key in line for line in payload["mismatches"])
    assert "MISMATCHES" in capsys.readouterr().out


def test_reproduce_fails_nan_certificate_constants(tmp_path, monkeypatch):
    def raise_numeric(*args, **kwargs):
        raise NumericError("Lyapunov residual exceeds its tolerance")

    monkeypatch.setattr(roa, "solve_lyapunov", raise_numeric)
    out = tmp_path / "out"
    assert cli.main(["reproduce-paper", "--horizon", "0.5", "--out", str(out)]) == cli.EXIT_MISMATCH
    payload = _read_json(out / "reproduce.json")
    assert payload["results"]["reproduced"] is False
    for key in ("roa_c1", "roa_c3"):
        assert any(line.startswith(key) for line in payload["mismatches"]), payload["mismatches"]


def test_bad_pi_vector_is_input_error(tmp_path, capsys):
    code = cli.main(
        ["synthesize", "--out", str(tmp_path / "o"), "--pi", "1,abc"]
    )
    assert code == 2
    assert "pi" in capsys.readouterr().err


def test_bad_gamma_fraction_is_input_error(tmp_path):
    code = cli.main(
        ["synthesize", "--out", str(tmp_path / "o"), "--gamma-fraction", "1.5"]
    )
    assert code == 2


def test_invalid_log_level_is_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBS_FORGE_LOG", "chatty")
    code = cli.main(["validate", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "OBS_FORGE_LOG" in capsys.readouterr().err


def test_debug_log_names_sample_counts(tmp_path, monkeypatch):
    # each Monte Carlo check logs its sample count, and neither the log level
    # nor the CPU count reaches the deterministic reports or run_meta.json
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert cli.main(["roa", "--out", str(quiet), "--horizon", "0.5"]) == 3
    monkeypatch.setenv("OBS_FORGE_LOG", "debug")
    proc = _run_clean(["-m", "obsforge.cli", "roa", "--out", str(loud), "--horizon", "0.5"])
    assert proc.returncode == 3, proc.stderr
    assert "DEBUG obsforge.roa: monte_carlo_box_check: 500 samples\n" in proc.stderr
    assert (loud / "roa.json").read_bytes() == (quiet / "roa.json").read_bytes()
    for out in (loud, quiet):
        assert set(_read_json(out / "run_meta.json")) == {"argv", "timestamp", "seed"}


def test_subcommand_flag_sets(capsys):
    expected = {
        "validate": {"--help", "--config", "--seed", "--out"},
        "synthesize": {
            "--help", "--config", "--seed", "--out", "--pi", "--gamma-fraction",
            "--poles", "--w1-scale", "--w2-scale", "--delta-fraction",
        },
        "simulate": {
            "--help", "--config", "--bundle", "--seed", "--out", "--dt", "--horizon",
            "--pi", "--gamma-fraction", "--poles", "--w1-scale", "--w2-scale",
            "--delta-fraction", "--z0", "--zhat0",
        },
        "roa": {
            "--help", "--config", "--bundle", "--seed", "--out", "--dt", "--horizon",
            "--pi", "--gamma-fraction", "--poles", "--w1-scale", "--w2-scale",
            "--delta-fraction",
        },
        "reproduce-paper": {"--help", "--seed", "--out", "--dt", "--horizon"},
    }
    for command, flags in expected.items():
        assert cli.main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) == flags, command


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "--w2-scale", "inf"],
        ["synthesize", "--w1-scale", "inf"],
        ["synthesize", "--pi=nan,1"],
        ["simulate", "--horizon", "inf"],
        ["synthesize", "--poles=nan,-1,-2,-3"],
        ["simulate", "--z0=nan,0,0,0"],
    ],
)
def test_non_finite_knobs_are_input_errors(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("input error:") for line in err), err


@pytest.mark.parametrize(
    "argv",
    [
        ["--w1-scale", "1e308"],  # used to die in the SVD of an overflowed residual
        ["--w2-scale", "1e300"],  # used to die with OverflowError
        ["--w2-scale", "1e-250"],  # used to exit 1 on a division by zero
    ],
)
def test_extreme_certificate_weights_exit_infeasible(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli.main(["synthesize", "--out", str(out)] + argv) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == ""
    est = _read_json(out / "bundle.json")["roa"]
    assert est["feasible"] is False
    assert est["level"] is None
    assert len(est["notes"]) == 1


def test_y_scale_flag_is_gone(tmp_path, capsys):
    # gamma_max = lambda_min(Y) / (4 ||S B|| ||Q_p pi*||) with A'S + SA = -Y
    # does not change when Y is scaled, so the flag set nothing
    out = str(tmp_path / "o")
    for command in ("synthesize", "simulate", "roa"):
        assert cli.main([command, "--out", out, "--y-scale", "1"]) == cli.EXIT_INPUT
        assert "--y-scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["synthesize", "--pi=1,,-3"], "pi"),  # used to design as --pi=1,-3
        (["synthesize", "--pi=,"], "pi"),  # used to pick a seeded pi*
        (["synthesize", "--pi=1,-3,"], "pi"),
        (["synthesize", "--poles=-1, ,-2,-3,-4"], "poles"),
        (["simulate", "--z0=,"], "z0"),  # used to report a component count
        (["simulate", "--zhat0=0.1,,0.1,0.1,0.1"], "zhat0"),
    ],
)
def test_empty_vector_tokens_are_input_errors(tmp_path, capsys, argv, field):
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: %s: expected comma-separated finite reals" % field in err


@pytest.mark.parametrize("flag", ["z0", "zhat0"])
def test_initial_state_of_the_wrong_length_is_input_error(tmp_path, capsys, flag):
    argv = ["simulate", "--%s=1,2" % flag, "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "input error: %s: expected 4 components\n" % flag


def test_empty_vector_flag_means_not_given(tmp_path):
    out = tmp_path / "o"
    assert cli.main(["synthesize", "--out", str(out / "a"), "--pi="]) == cli.EXIT_INFEASIBLE
    assert cli.main(["synthesize", "--out", str(out / "b")]) == cli.EXIT_INFEASIBLE
    assert (out / "a" / "bundle.json").read_bytes() == (out / "b" / "bundle.json").read_bytes()


def test_horizon_must_be_whole_number_of_steps(tmp_path, capsys):
    # 1.0003 = 2500.75 steps of 0.0004: the run used to end at t = 1.0004
    # while simulate.json and roa.json reported T = 1.0003
    for horizon in ("1.0003", "1.0001"):
        for command in ("simulate", "roa"):
            argv = [command, "--out", str(tmp_path / "o"), "--dt", "0.0004", "--horizon", horizon]
            assert cli.main(argv) == cli.EXIT_INPUT, argv
            assert "input error: horizon: must be a whole number of dt steps" in capsys.readouterr().err
    with pytest.raises(ValidationError) as excinfo:
        cli.RunConfig(dt=4e-4, horizon=1.0003)
    assert excinfo.value.field == "horizon"
    for dt, horizon in ((4e-4, 1.0004), (1e-3, 0.3), (1e-3, 5.0), (1e-200, 3e-200), (1e-3, 1e-3)):
        assert cli.RunConfig(dt=dt, horizon=horizon).horizon == horizon


def test_horizon_past_double_range_steps_names_horizon(tmp_path, capsys):
    # used to reach sim.integrate and be reported under its argument name T
    argv = ["simulate", "--out", str(tmp_path / "o"), "--dt", "1e-300", "--horizon", "1e100"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "input error: horizon: horizon must span a finite number of steps" in capsys.readouterr().err


def test_simulate_on_tiny_steps_writes_null_fit(tmp_path):
    # every t**2 underflows at dt = 1e-200; the fit used to die in np.polyfit
    out = tmp_path / "o"
    argv = ["simulate", "--out", str(out), "--dt", "1e-200", "--horizon", "3e-200"]
    assert cli.main(argv) == cli.EXIT_OK
    payload = _read_json(out / "simulate.json")
    assert payload["decay_fit"] is None
    assert payload["T"] == 3e-200


def _assert_bundle_refused(path, field, out, capsys):
    """simulate --bundle and roa --bundle both exit 2 naming ``field``."""
    for command in ("simulate", "roa"):
        argv = [command, "--bundle", path, "--out", out]
        assert cli.main(argv) == cli.EXIT_INPUT, argv
        assert field in capsys.readouterr().err, argv


def test_malformed_bundle_is_input_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, FEASIBLE_SYSTEM)
    out = str(tmp_path / "o")
    assert cli.main(["synthesize", "--config", cfg, "--out", out] + FEASIBLE_FLAGS) == 0
    bundle = _read_json(os.path.join(out, "bundle.json"))
    no_observer = {k: v for k, v in bundle.items() if k != "observer"}
    text_pi = copy.deepcopy(bundle)
    text_pi["attack"]["pi"] = ["one"]
    long_gain = copy.deepcopy(bundle)
    long_gain["observer"]["L"].append(1.0)
    inf_weight = copy.deepcopy(bundle)
    inf_weight["config"]["W1_scale"] = "inf"
    wide_delta = copy.deepcopy(bundle)
    wide_delta["config"]["delta_fraction"] = 5.0
    text_matrix = copy.deepcopy(bundle)
    text_matrix["system"]["plant"]["A_p"] = [["x"]]
    no_controller = copy.deepcopy(bundle)
    del no_controller["system"]["controller"]
    long_pi = copy.deepcopy(bundle)
    long_pi["attack"]["pi"].append(1.0)
    list_roa = dict(bundle, roa=[])
    text_pi_star = copy.deepcopy(bundle)
    text_pi_star["attack"]["pi_star"] = "x"
    # stored attack fields are recomputed from the system and the knobs
    long_pi_star = copy.deepcopy(bundle)
    long_pi_star["attack"]["pi_star"] = [1.0, 2.0]
    edited_gamma_max = copy.deepcopy(bundle)
    edited_gamma_max["attack"]["gamma_max"] = 123
    # the replayed inputs meet the rules of synthesis; json writes NaN and Infinity
    nan_pi_star = copy.deepcopy(bundle)
    nan_pi_star["attack"]["pi_star"] = [float("nan")]
    nan_pole = copy.deepcopy(bundle)
    nan_pole["observer"]["desired_poles"][0]["re"] = float("nan")
    lone_complex_pole = copy.deepcopy(bundle)
    lone_complex_pole["observer"]["desired_poles"][0]["im"] = 1.0
    nan_seed = copy.deepcopy(bundle)
    nan_seed["config"]["seed"] = "nan"
    inf_seed = copy.deepcopy(bundle)
    inf_seed["config"]["seed"] = float("inf")
    # finite entries whose product in the loop matrix overflows
    overflow = copy.deepcopy(bundle)
    overflow["system"]["plant"]["B_p"] = [[1e300]]
    overflow["system"]["controller"]["C_c"] = [[1e300]]
    # written with the former, re-derived verification section
    old_format = dict(bundle, verification={"certificate_feasible": True})
    keys = "['attack', 'config', 'observer', 'roa', 'system']"
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"system": ', encoding="utf-8")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    for path, field in (
        (cfg, "bundle.system"),  # a system definition, not a bundle
        (_write_config(tmp_path, [bundle], "list.json"), "bundle:"),
        (_write_config(tmp_path, no_observer, "no_observer.json"), "bundle.observer"),
        (_write_config(tmp_path, text_pi, "text_pi.json"), "bundle.attack.pi"),
        (_write_config(tmp_path, long_gain, "long_gain.json"), "bundle.observer.L"),
        (_write_config(tmp_path, inf_weight, "inf_weight.json"), "bundle.config.W1_scale"),
        (_write_config(tmp_path, wide_delta, "wide_delta.json"), "bundle.config.delta_fraction"),
        (_write_config(tmp_path, text_matrix, "text_matrix.json"), "bundle.system.plant.A_p[0][0]"),
        (_write_config(tmp_path, no_controller, "no_controller.json"), "bundle.system.controller"),
        (_write_config(tmp_path, long_pi, "long_pi.json"), "bundle.attack.pi:"),
        (_write_config(tmp_path, list_roa, "list_roa.json"), "bundle.roa: expected a JSON object"),
        (_write_config(tmp_path, text_pi_star, "text_pi_star.json"), "bundle.attack.pi_star: expected numbers"),
        (_write_config(tmp_path, long_pi_star, "long_pi_star.json"), "bundle.attack.pi_star"),
        (_write_config(tmp_path, edited_gamma_max, "gmax.json"), "bundle.attack.gamma_max"),
        (_write_config(tmp_path, nan_pi_star, "nan_pi_star.json"), "bundle.attack.pi_star:"),
        (_write_config(tmp_path, nan_pole, "nan_pole.json"), "bundle.observer.desired_poles:"),
        (_write_config(tmp_path, lone_complex_pole, "lone.json"), "bundle.observer.desired_poles:"),
        (_write_config(tmp_path, nan_seed, "nan_seed.json"), "bundle.config.seed:"),
        (_write_config(tmp_path, inf_seed, "inf_seed.json"), "bundle.config.seed:"),
        (_write_config(tmp_path, overflow, "overflow.json"), "bundle.system.B_p C_c: product overflows"),
        (_write_config(tmp_path, old_format, "old_format.json"),
         "bundle: expected keys %s, got %s" % (keys, keys[:-1] + ", 'verification']")),
        (str(truncated), "%s: malformed JSON at line 1 column 12" % truncated),
        (str(binary), "%s: not UTF-8 text" % binary),
    ):
        _assert_bundle_refused(path, field, out, capsys)


@pytest.fixture(scope="module")
def reference_bundle(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("reference"))
    argv = ["synthesize", "--pi=1,-3", "--poles=-9.5,-10.5,-11.5,-12.5", "--out", out]
    assert cli.main(argv) == cli.EXIT_INFEASIBLE
    return _read_json(os.path.join(out, "bundle.json"))


# one edit per stored output the bundle's inputs determine: field -> edit
OUTPUT_EDITS = {
    "attack.Hbar": lambda rows: [[99.0] + rows[0][1:]],
    "attack.observability_margin": lambda margin: 0.5,
    "attack.forbidden_subspaces": lambda subspaces: [],
    "observer.placed_poles": lambda poles: [dict(p, re=5.0) for p in poles],
    "observer.placement_error": lambda error: 1.0,
    "roa.c3": lambda c3: -1.0,
    "roa.feasible": lambda feasible: True,
    "config.Y_scale": lambda y_scale: 0.3,  # a constant of the chain, stored and checked
}


@pytest.mark.parametrize("field", list(OUTPUT_EDITS))
def test_edited_bundle_output_is_input_error(tmp_path, capsys, reference_bundle, field):
    # each stored output must match its recomputation from the bundle's inputs
    bundle = copy.deepcopy(reference_bundle)
    section, key = field.split(".")
    bundle[section][key] = OUTPUT_EDITS[field](bundle[section][key])
    path = _write_config(tmp_path, bundle, "edited.json")
    _assert_bundle_refused(path, "bundle." + field, str(tmp_path / "o"), capsys)


@pytest.mark.parametrize(
    "B_p, C_c, D_c, product",
    [
        ([[1e300], [1.0]], [[1e300, 0.0]], 1.0, "B_p C_c"),
        ([[1e300], [1.0]], [[1.0, 0.0]], 1e300, "B_p D_c"),
    ],
)
def test_config_with_overflowing_product_is_input_error(tmp_path, B_p, C_c, D_c, product):
    # finite entries whose product in the loop matrices overflows
    cfg = _write_config(tmp_path, {
        "plant": {"A_p": [[-1.0, 0.0], [0.0, -2.0]], "B_p": B_p, "Q_p": [[1.0, 0.0], [0.0, 1.0]]},
        "controller": {"A_c": [[-3.0, 0.0], [0.0, -4.0]], "B_c": [[1.0], [1.0]], "C_c": C_c, "D_c": D_c},
    })
    for command in ("validate", "synthesize"):
        proc = _run_clean(["-m", "obsforge.cli", command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        assert proc.stderr == "input error: %s: product overflows to a non-finite entry\n" % product


def test_subnormal_attack_row_is_design_failure(tmp_path, capsys):
    # the gate passes the pair, but its placement gain is NaN in double precision
    argv = ["synthesize", "--gamma-fraction=1e-320", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_ASSUMPTION
    assert capsys.readouterr().err.startswith("design failure: the placement gain is not finite")


def test_bundle_breaking_assumptions_is_assumption_failure(tmp_path, capsys, reference_bundle):
    # the replay checks the standing assumptions first, as synthesize does
    bundle = copy.deepcopy(reference_bundle)
    bundle["system"]["plant"]["A_p"][0][0] = 5.0
    path = _write_config(tmp_path, bundle, "unstable.json")
    for command in ("simulate", "roa"):
        argv = [command, "--bundle", path, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_ASSUMPTION, argv
        assert "bundle.system fails loop matrix Hurwitz" in capsys.readouterr().err, argv


@pytest.mark.parametrize("scale", [1e150, 1e300])
def test_huge_pi_star_designs_as_its_direction(tmp_path, capsys, reference_bundle, scale):
    # the margins and the observability gate are judged on the direction of
    # pi*, and gamma * pi* does not depend on its scale
    out = str(tmp_path / "o")
    argv = ["synthesize", "--pi=%r,%r" % (scale, -3.0 * scale),
            "--poles=-9.5,-10.5,-11.5,-12.5", "--out", out]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.EXIT_INFEASIBLE
        bundle_path = os.path.join(out, "bundle.json")
        assert cli.main(["roa", "--bundle", bundle_path, "--out", out]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == ""
    bundle = _read_json(bundle_path)
    for section, key in (("attack", "pi"), ("observer", "L")):
        got, want = np.array(bundle[section][key]), np.array(reference_bundle[section][key])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), key
    assert bundle["attack"]["gamma"] * scale == pytest.approx(reference_bundle["attack"]["gamma"], rel=1e-12)


def test_pi_star_outside_double_range_is_input_error(tmp_path, capsys):
    # 1/|Q_p pi*| overflows, so no gamma scales this pi* in double precision
    argv = ["synthesize", "--pi=1e-320,-3e-320", "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.EXIT_INPUT
    assert "pi_star: scale 3.000e-320 puts gamma = inf" in capsys.readouterr().err
