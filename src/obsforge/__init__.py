"""Sensor-attack synthesis and state reconstruction for quadratic outputs.

A linear plant measured through a quadratic form has an unobservable
linearization at the origin, so no observer built on the plain model can
converge locally. This package takes the adversary's seat: it designs a
linear output-injection attack that makes the linearization observable,
scales it to keep the closed loop stable (stealthy), builds a Luenberger
observer on the attacked model, certifies a region of attraction for the
coupled plant/estimator dynamics, and simulates the whole loop.

``import obsforge`` loads this file and ``errors`` only, not numpy. Each
submodule and each public name of a layer loads on first use, e.g.
``obsforge.certify`` imports ``roa`` and what it needs; ``from obsforge
import *`` loads them all. Nothing here imports ``logging``: the CLI does,
only when OBS_FORGE_LOG asks for info or debug lines.

Modules
-------
model      plant/controller containers, closed-loop assembly, assumptions
attack     forbidden projection directions, scaling bound, attack design
observer   gain placement on the induced pair, rhs fields, Jacobians
roa        Lyapunov certificate, constants, Monte Carlo verification
sim        fixed-step integration, decay fits, CSV/plot emission
numerics   eigen/Lyapunov/placement primitives shared by the above
errors     exception taxonomy the CLI maps onto exit codes
refcase    bundled fourth-order benchmark with frozen expected values
report     the one conversion of results to report JSON, run metadata
cli        obs-forge command-line front end
"""

import sys

from . import errors
from .errors import *  # noqa: F401,F403 -- errors.__all__ is its API

__version__ = "0.1.0"

_SUBMODULES = ("attack", "cli", "model", "numerics", "observer", "refcase", "report", "roa", "sim")

# each public name of a layer -> the module that defines it; a layer's names
# are its __all__, in order
_HOME = {
    name: module
    for module, names in (
        ("attack", (
            "ForbiddenSubspace", "ForbiddenSet", "AttackDesign", "ObservabilityResult",
            "forbidden_set", "is_observable", "choose_pi_star", "gamma_max",
            "build_design", "attack_signal",
        )),
        ("model", (
            "PlantModel", "ControllerModel", "ClosedLoop", "AssumptionReport",
            "assemble", "validate_assumptions", "load_system", "system_from_dict",
        )),
        ("observer", (
            "ObserverDesign", "AugmentedJacobian", "CoupledField", "default_poles",
            "design_gain", "gain_from_vector", "plant_rhs", "observer_rhs",
            "error_rhs", "augmented_jacobian", "coupled_field",
        )),
        ("roa", (
            "RoaEstimate", "DecayReport", "BoxReport", "verify_decay",
            "monte_carlo_box_check", "certify",
        )),
        ("sim", (
            "Trajectory", "DecayFit", "integrate", "integrate_batch", "fit_decay",
            "trajectory_to_csv", "write_gnuplot_stub",
        )),
    )
    for name in names
}

__all__ = [
    "attack", "cli", "model", "numerics", "observer", "refcase", "roa", "sim",
    *errors.__all__, *_HOME,
    "__version__",
]


def __getattr__(name):
    # cli too loads only here, never by ``import obsforge``, so that
    # ``python -m obsforge.cli`` does not find it already imported
    home = name if name in _SUBMODULES else _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    path = "%s.%s" % (__name__, home)
    __import__(path)  # the interpreter's own import, not importlib's: -X importtime lists it
    module = sys.modules[path]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
