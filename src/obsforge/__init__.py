"""Sensor-attack synthesis and state reconstruction for quadratic outputs.

A linear plant measured through a quadratic form has an unobservable
linearization at the origin, so no observer built on the plain model can
converge locally. This package takes the adversary's seat: it designs a
linear output-injection attack that makes the linearization observable,
scales it to keep the closed loop stable (stealthy), builds a Luenberger
observer on the attacked model, certifies a region of attraction for the
coupled plant/estimator dynamics, and simulates the whole loop.

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
report     the one conversion of results to report JSON
cli        obs-forge command-line front end
"""

from . import attack, errors, model, numerics, observer, refcase, roa, sim
from .attack import *  # noqa: F401,F403 -- each module's __all__ is its API
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .observer import *  # noqa: F401,F403
from .roa import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "attack", "cli", "model", "numerics", "observer", "refcase", "roa", "sim",
    *attack.__all__, *errors.__all__, *model.__all__,
    *observer.__all__, *roa.__all__, *sim.__all__,
    "__version__",
]


def __getattr__(name):
    # cli is imported on first access, never by ``import obsforge``, so that
    # ``python -m obsforge.cli`` does not find it already imported
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
