"""Tests for the record base class and the report conversion (``obsforge.report``)."""

import copy
import json

import numpy as np
import pytest

from obsforge import attack, cli, model, observer, refcase, roa, sim
from obsforge.report import Record, Reported, jsonable

#: every record class of the package, by name
RECORDS = [
    "ForbiddenSubspace", "AttackDesign",  # attack
    "RunConfig",  # cli
    "PlantModel", "ControllerModel", "ClosedLoop", "AssumptionReport",  # model
    "ObserverDesign", "AugmentedJacobian", "CoupledField",  # observer
    "RoaEstimate", "DecayReport", "BoxReport",  # roa
    "Trajectory", "DecayFit",  # sim
]


class _Unlike:
    """A field value equal to nothing; numpy defers its comparisons to ``__eq__``."""

    __array_ufunc__ = None

    def __eq__(self, other):
        return False


@pytest.fixture(scope="module")
def instances(ref_system, ref_design, ref_observer, cert_instance):
    """One record of each class, as the other test modules make them."""
    plant, controller, cl = ref_system
    _, design, obs, est = cert_instance
    traj = sim.integrate(
        cl, ref_design, ref_observer, np.array(refcase.REFERENCE_Z0),
        np.array(refcase.REFERENCE_ZHAT0), T=0.05, stride=5,
    )
    made = [
        ref_design.forbidden[0],
        ref_design,
        cli.RunConfig(),
        plant,
        controller,
        cl,
        model.validate_assumptions(plant, controller, cl),
        ref_observer,
        observer.augmented_jacobian(cl, ref_design, ref_observer),
        observer.coupled_field(cl, ref_design, ref_observer),
        est,
        roa.verify_decay(cl, design, obs, est, n_samples=5),
        roa.monte_carlo_box_check(cl, design, obs, n_samples=4, horizon=0.1),
        traj,
        sim.fit_decay(traj),
    ]
    return {type(r).__name__: r for r in made}


def test_every_record_class_is_checked():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = {c.__name__ for c in subclasses(Record) if c.__module__.startswith("obsforge.")}
    assert found - {"Reported"} == set(RECORDS)


def test_reference_chain_builds_only_its_result_records(ref_system, monkeypatch):
    # helpers hand back plain tuples; a record is built only for a result the chain keeps
    built = set()
    init = Record.__init__

    def spy(self, *args, **kwargs):
        built.add(type(self).__name__)
        init(self, *args, **kwargs)

    plant, controller, cl = ref_system
    monkeypatch.setattr(Record, "__init__", spy)
    model.validate_assumptions(plant, controller, cl)
    design = attack.build_design(cl, pi_star=np.array(refcase.REFERENCE_PI_STAR))
    obs = observer.design_gain(design, cl.B, desired_poles=np.array(refcase.REFERENCE_POLES))
    roa.certify(cl, design, obs)
    assert built == {"AssumptionReport", "ForbiddenSubspace", "AttackDesign", "ObserverDesign", "RoaEstimate"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name, instances):
    record = instances[name]
    cls = type(record)
    declared = [f for c in reversed(cls.__mro__) for f in vars(c).get("__annotations__", {})]
    assert cls._fields == tuple(declared)
    values = {f: getattr(record, f) for f in declared}
    report = jsonable(record)
    # the report holds every field, in declared order
    assert list(report) == declared
    assert repr(record).startswith("%s(%s=" % (name, declared[0]))

    # keyword and positional construction rebuild the same report
    assert jsonable(cls(**values)) == report
    assert jsonable(cls(*values.values())) == report
    required = [f for f in declared if f in cls._required]
    if required:
        with pytest.raises(TypeError, match="missing required arguments: '%s'" % required[0]):
            cls(**{f: v for f, v in values.items() if f != required[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match="multiple values for argument '%s'" % declared[0]):
        cls(values[declared[0]], **values)
    with pytest.raises(TypeError, match="takes %d arguments" % len(declared)):
        cls(*values.values(), None)

    # frozen: no field can be assigned or deleted
    for f in declared:
        with pytest.raises(AttributeError):
            setattr(record, f, values[f])
        with pytest.raises(AttributeError):
            delattr(record, f)
        assert getattr(record, f) is values[f]

    # == compares the field values of two records of one class
    twin = copy.copy(record)
    assert twin is not record and twin == record
    for f in declared:
        changed = copy.copy(record)
        object.__setattr__(changed, f, _Unlike())
        assert changed != record, f
    assert record != object()


def test_assumption_report_derives_all_passed(instances):
    report = instances["AssumptionReport"]
    assert jsonable(report)["all_passed"] is True
    values = {f: getattr(report, f) for f in report._fields if f != "all_passed"}
    assert model.AssumptionReport(**{**values, "a_hurwitz": False}).all_passed is False
    assert isinstance(report, Reported) and report.as_dict() == jsonable(report)


def test_jsonable_numpy_scalars():
    out = jsonable({"n": np.int64(3), "ok": np.bool_(True), "x": np.float64(-np.inf)})
    assert out == {"n": 3, "ok": True, "x": "-inf"}
    assert type(out["n"]) is int and type(out["ok"]) is bool
    assert json.loads(json.dumps(out)) == out
