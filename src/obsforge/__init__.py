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
refcase    bundled fourth-order benchmark with frozen expected values
report     the one conversion of results to report JSON
cli        obs-forge command-line front end
"""

from . import attack, model, numerics, observer, refcase, roa, sim
from .attack import (
    AttackDesign,
    ForbiddenSet,
    ForbiddenSubspace,
    ObservabilityResult,
    attack_signal,
    build_design,
    choose_pi_star,
    design_from_pi,
    forbidden_set,
    gamma_max,
    is_observable,
)
from .errors import (
    AssumptionError,
    ConditioningWarning,
    DivergenceError,
    NumericError,
    SynthesisError,
    ValidationError,
)
from .model import (
    AssumptionReport,
    ClosedLoop,
    ControllerModel,
    PlantModel,
    assemble,
    load_system,
    system_from_dict,
    validate_assumptions,
)
from .observer import (
    AugmentedJacobian,
    CoupledField,
    ObserverDesign,
    augmented_jacobian,
    coupled_field,
    default_poles,
    design_gain,
    error_rhs,
    gain_from_vector,
    observer_rhs,
    plant_rhs,
)
from .roa import (
    BoxReport,
    DecayReport,
    RoaEstimate,
    certify,
    lyapunov_pairs,
    lyapunov_value,
    monte_carlo_box_check,
    roa_constants,
    roa_level,
    verify_decay,
)
from .sim import (
    DecayFit,
    Trajectory,
    fit_decay,
    integrate,
    integrate_batch,
    trajectory_to_csv,
    write_gnuplot_stub,
)

__version__ = "0.1.0"

__all__ = [
    "attack",
    "cli",
    "model",
    "numerics",
    "observer",
    "refcase",
    "roa",
    "sim",
    "AttackDesign",
    "ForbiddenSet",
    "ForbiddenSubspace",
    "ObservabilityResult",
    "attack_signal",
    "build_design",
    "choose_pi_star",
    "design_from_pi",
    "forbidden_set",
    "gamma_max",
    "is_observable",
    "AssumptionError",
    "ConditioningWarning",
    "DivergenceError",
    "NumericError",
    "SynthesisError",
    "ValidationError",
    "AssumptionReport",
    "ClosedLoop",
    "ControllerModel",
    "PlantModel",
    "assemble",
    "load_system",
    "system_from_dict",
    "validate_assumptions",
    "AugmentedJacobian",
    "CoupledField",
    "ObserverDesign",
    "augmented_jacobian",
    "coupled_field",
    "default_poles",
    "design_gain",
    "error_rhs",
    "gain_from_vector",
    "observer_rhs",
    "plant_rhs",
    "BoxReport",
    "DecayReport",
    "RoaEstimate",
    "certify",
    "lyapunov_pairs",
    "lyapunov_value",
    "monte_carlo_box_check",
    "roa_constants",
    "roa_level",
    "verify_decay",
    "DecayFit",
    "Trajectory",
    "fit_decay",
    "integrate",
    "integrate_batch",
    "trajectory_to_csv",
    "write_gnuplot_stub",
    "__version__",
]
