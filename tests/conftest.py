import numpy as np
import pytest

from obsforge import attack, model, observer, refcase, roa


@pytest.fixture(scope="session")
def ref_system():
    """Bundled fourth-order case: (plant, controller, closed_loop)."""
    return refcase.reference_system()


@pytest.fixture(scope="session")
def ref_design(ref_system):
    _, _, cl = ref_system
    return attack.build_design(
        cl,
        pi_star=np.array([1.0, -3.0]),
        gamma_fraction=0.9,
        Y=0.2 * np.eye(cl.n),
    )


@pytest.fixture(scope="session")
def ref_observer(ref_system, ref_design):
    _, _, cl = ref_system
    return observer.design_gain(
        ref_design, cl.B, desired_poles=np.array([-9.5, -10.5, -11.5, -12.5])
    )


@pytest.fixture(scope="session")
def cert_instance(ref_system):
    """Same loop, gentler attack and gain, so the certificate is feasible.

    The headline design pairs a strong attack with an aggressive gain and
    lands outside the provable regime (c2 < 0); this instance scales the
    attack to a tenth of the bound and uses L = -0.9 B, which keeps every
    term of the certificate alive while c2 stays positive.
    """
    _, _, cl = ref_system
    design = attack.build_design(
        cl,
        pi_star=np.array([1.0, -3.0]),
        gamma_fraction=0.1,
        Y=0.2 * np.eye(cl.n),
    )
    obs = observer.gain_from_vector(design, cl.B, -0.9 * cl.B)
    est = roa.certify(cl, design, obs)
    assert est.feasible, "fixture invariant: this instance certifies"
    return cl, design, obs, est


@pytest.fixture(scope="session")
def indefinite_case():
    """A 3-state plant under a 2-state controller whose Q_p is indefinite and
    singular: eigenvalues of both signs and a zero one, null vector (1, -1, 1).

    Returns (closed_loop, design, observer) from the seeded default chain.
    """
    rng = np.random.default_rng(0)
    A_p = rng.standard_normal((3, 3))
    A_p -= (np.max(np.linalg.eigvals(A_p).real) + 1.0) * np.eye(3)
    A_c = rng.standard_normal((2, 2))
    A_c -= (np.max(np.linalg.eigvals(A_c).real) + 1.5) * np.eye(2)
    Q_p = np.array([[1.0, 1.0, 0.0], [1.0, 0.5, -0.5], [0.0, -0.5, -0.5]])
    plant = model.PlantModel(A_p=A_p, B_p=rng.standard_normal((3, 1)), Q_p=Q_p)
    controller = model.ControllerModel(
        A_c=A_c,
        B_c=rng.standard_normal((2, 1)),
        C_c=rng.standard_normal((1, 2)),
        D_c=float(rng.standard_normal()),
    )
    cl = model.assemble(plant, controller)
    assert model.validate_assumptions(plant, controller, cl).all_passed
    design = attack.build_design(cl)
    return cl, design, observer.design_gain(design, cl.B)


@pytest.fixture
def make_random_system():
    """Factory for random stable plant/controller pairs that pass validation."""

    def factory(rng, n_p=2, n_c=2, qp_scale=1.0):
        for _ in range(50):
            A_p = rng.standard_normal((n_p, n_p))
            A_p -= (np.max(np.linalg.eigvals(A_p).real) + rng.uniform(0.5, 2.0)) * np.eye(n_p)
            A_c = rng.standard_normal((n_c, n_c))
            A_c -= (np.max(np.linalg.eigvals(A_c).real) + rng.uniform(0.5, 2.0)) * np.eye(n_c)
            B_p = rng.standard_normal((n_p, 1))
            B_c = rng.standard_normal((n_c, 1))
            C_c = rng.standard_normal((1, n_c))
            M = rng.standard_normal((n_p, n_p))
            Q_p = qp_scale * 0.5 * (M + M.T)
            plant = model.PlantModel(A_p=A_p, B_p=B_p, Q_p=Q_p)
            controller = model.ControllerModel(
                A_c=A_c, B_c=B_c, C_c=C_c, D_c=float(rng.standard_normal())
            )
            cl = model.assemble(plant, controller)
            report = model.validate_assumptions(plant, controller, cl)
            if report.all_passed:
                return plant, controller, cl
        raise RuntimeError("failed to draw a valid random system in 50 tries")

    return factory
