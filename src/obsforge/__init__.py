"""Sensor-attack synthesis and state reconstruction for quadratic outputs.

A linear plant measured through a quadratic form has an unobservable
linearization at the origin, so no observer built on the plain model can
converge locally. This package takes the adversary's seat: it designs a
linear output-injection attack that makes the linearization observable,
scales it to keep the closed loop stable (stealthy), builds a Luenberger
observer on the attacked model, certifies a region of attraction for the
coupled plant/estimator dynamics, and simulates the whole loop.

``import obsforge`` loads this file and ``errors`` only, not numpy. A
submodule loads on first use. The first use of a layer's public name, or of
``__all__`` as ``from obsforge import *`` makes, loads the five layers
(attack, model, observer, roa, sim) and binds their ``__all__`` names here.
Nothing here imports ``logging``: the CLI does, only when OBS_FORGE_LOG asks
for info or debug lines.

Modules
-------
model      plant/controller containers, closed-loop assembly, assumptions
attack     forbidden projection directions, scaling bound, attack design
observer   gain placement on the induced pair, coupled field, Jacobians
roa        Lyapunov certificate, constants, Monte Carlo verification
sim        fixed-step integration, decay fits, CSV/plot emission
numerics   eigen/Lyapunov/placement primitives shared by the above
errors     exception taxonomy the CLI maps onto exit codes
refcase    bundled fourth-order benchmark with frozen expected values
report     result records, their conversion to report JSON, the JSON reader
cli        obs-forge command-line front end
"""

import sys

from . import errors
from .errors import *  # noqa: F401,F403 -- errors.__all__ is its API

__version__ = "0.1.0"

# the submodules __all__ lists; report loads on first use too but is not listed
_SUBMODULES = ("attack", "cli", "model", "numerics", "observer", "refcase", "roa", "sim")
# the layers whose own __all__ is the rest of the package API, in its order
_LAYERS = ("attack", "model", "observer", "roa", "sim")


def __getattr__(name):
    # cli too loads only here, never by ``import obsforge``, so that
    # ``python -m obsforge.cli`` does not find it already imported
    if name in _SUBMODULES or name == "report":
        path = "%s.%s" % (__name__, name)
        __import__(path)  # the interpreter's own import, not importlib's: -X importtime lists it
        return sys.modules[path]
    # a dunder other than __all__ is a probe (copy, pickle, inspect): it loads no layer
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("__")):
        api = {n: getattr(m, n) for m in map(__getattr__, _LAYERS) for n in m.__all__}
        # bound here, so later lookups skip this function
        globals().update(api, __all__=[*_SUBMODULES, *errors.__all__, *api, "__version__"])
    if name in globals():
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})  # loads the layers first
