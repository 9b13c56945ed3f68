"""Plant, controller and closed-loop containers plus assumption checks.

The plant has linear dynamics with a scalar quadratic output y = x'Q_p x,
the controller is a linear SISO system driven by y, and the two assemble
into the closed loop

    zdot = A z + B h(z),    h(z) = z'Qz,

with A = [[A_p, B_p C_c], [0, A_c]], B = [B_p D_c; B_c], Q = blkdiag(Q_p, 0).
Synthesis downstream is only sound when A is Hurwitz, the plant and
controller spectra are disjoint and the coupling block B_p C_c is nonzero;
``validate_assumptions`` checks all of that and reports numeric witnesses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .numerics import TOL_HURWITZ, _asymmetry_bound, eig, spectral_abscissa, spectral_norm
from .report import Record, Reported, read_json

__all__ = [
    "PlantModel",
    "ControllerModel",
    "ClosedLoop",
    "AssumptionReport",
    "assemble",
    "validate_assumptions",
    "load_system",
    "system_from_dict",
]

TOL_GAP = 1e-9


def _as_matrix(value, shape, field):
    M = np.asarray(value, dtype=float)
    if M.shape != shape:
        raise ValidationError("expected shape %s, got %s" % (shape, M.shape), field=field)
    if not np.all(np.isfinite(M)):
        raise ValidationError("entries must be finite", field=field)
    M.setflags(write=False)
    return M


class PlantModel(Record):
    """Linear plant with quadratic scalar output y = x_p' Q_p x_p."""

    A_p: np.ndarray
    B_p: np.ndarray
    Q_p: np.ndarray

    def __post_init__(self):
        A_p = np.atleast_2d(np.asarray(self.A_p, dtype=float))
        n_p = A_p.shape[0]
        if n_p < 1 or A_p.shape != (n_p, n_p):
            raise ValidationError("must be square with n_p >= 1", field="A_p")
        B_p = np.asarray(self.B_p, dtype=float).reshape(-1, 1)
        Q_p = np.atleast_2d(np.asarray(self.Q_p, dtype=float))
        object.__setattr__(self, "A_p", _as_matrix(A_p, (n_p, n_p), "A_p"))
        object.__setattr__(self, "B_p", _as_matrix(B_p, (n_p, 1), "B_p"))
        Q_p = _as_matrix(Q_p, (n_p, n_p), "Q_p")
        asym, bound = np.abs(Q_p - Q_p.T).max(), _asymmetry_bound(Q_p)
        if asym > bound:
            raise ValidationError(
                "must be symmetric (asymmetry %.3e exceeds %.1e); quadratic "
                "forms only see the symmetric part, so this is a user error"
                % (asym, bound),
                field="Q_p",
            )
        # harmless float dust is folded into the symmetric part
        Qs = 0.5 * (Q_p + Q_p.T)
        Qs.setflags(write=False)
        object.__setattr__(self, "Q_p", Qs)

    @property
    def n_p(self):
        return self.A_p.shape[0]


class ControllerModel(Record):
    """SISO dynamic output feedback u = C_c x_c + D_c y."""

    A_c: np.ndarray
    B_c: np.ndarray
    C_c: np.ndarray
    D_c: float

    def __post_init__(self):
        A_c = np.atleast_2d(np.asarray(self.A_c, dtype=float))
        n_c = A_c.shape[0]
        if n_c < 1 or A_c.shape != (n_c, n_c):
            raise ValidationError("must be square with n_c >= 1", field="A_c")
        object.__setattr__(self, "A_c", _as_matrix(A_c, (n_c, n_c), "A_c"))
        B_c = np.asarray(self.B_c, dtype=float).reshape(-1, 1)
        object.__setattr__(self, "B_c", _as_matrix(B_c, (n_c, 1), "B_c"))
        C_c = np.asarray(self.C_c, dtype=float).reshape(1, -1)
        object.__setattr__(self, "C_c", _as_matrix(C_c, (1, n_c), "C_c"))
        D_c = self.D_c
        if np.ndim(D_c) != 0 or not np.isfinite(D_c):
            raise ValidationError("must be a finite scalar", field="D_c")
        object.__setattr__(self, "D_c", float(D_c))

    @property
    def n_c(self):
        return self.A_c.shape[0]


class ClosedLoop(Record):
    """Assembled loop zdot = A z + B z'Qz. Built by :func:`assemble`."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    n_p: int
    n_c: int

    @property
    def n(self):
        return self.n_p + self.n_c

    # block accessors, exact views of the assembly
    @property
    def A_p(self):
        return self.A[: self.n_p, : self.n_p]

    @property
    def A_c(self):
        return self.A[self.n_p :, self.n_p :]

    @property
    def BpCc(self):
        return self.A[: self.n_p, self.n_p :]

    @property
    def Q_p(self):
        return self.Q[: self.n_p, : self.n_p]


def assemble(plant: PlantModel, controller: ControllerModel) -> ClosedLoop:
    """Stack plant and controller into the closed-loop matrices.

    Only copies and the two products B_p C_c, B_p D_c are computed, so the
    blocks of the result reproduce the inputs exactly. A product that
    overflows raises ValidationError naming it.
    """
    # each entry of either product is one multiplication, so the product of
    # the largest factors overflows exactly when some entry does
    b = float(np.abs(plant.B_p).max())
    for name, c in (("B_p C_c", np.abs(controller.C_c).max()), ("B_p D_c", abs(controller.D_c))):
        if not math.isfinite(b * float(c)):
            raise ValidationError("product overflows to a non-finite entry", field=name)
    n_p, n_c = plant.n_p, controller.n_c
    n = n_p + n_c
    A = np.zeros((n, n))
    A[:n_p, :n_p] = plant.A_p
    A[:n_p, n_p:] = plant.B_p @ controller.C_c
    A[n_p:, n_p:] = controller.A_c
    B = np.vstack([plant.B_p * controller.D_c, controller.B_c])
    Q = np.zeros((n, n))
    Q[:n_p, :n_p] = plant.Q_p
    for M in (A, B, Q):
        M.setflags(write=False)
    return ClosedLoop(A=A, B=B, Q=Q, n_p=n_p, n_c=n_c)


class AssumptionReport(Reported):
    """Outcome of the standing-assumption checks with numeric witnesses."""

    a_hurwitz: bool
    spectral_abscissa: float
    spectra_disjoint: bool
    min_eigenvalue_gap: float
    bpcc_nonzero: bool
    bpcc_norm: float
    qp_symmetric: bool
    all_passed: bool = False  # set by __post_init__ from the four checks

    def __post_init__(self):
        object.__setattr__(
            self,
            "all_passed",
            self.a_hurwitz
            and self.spectra_disjoint
            and self.bpcc_nonzero
            and self.qp_symmetric,
        )


def validate_assumptions(plant, controller, closed_loop) -> AssumptionReport:
    """Check every standing assumption the synthesis pipeline relies on.

    Returns a report rather than raising: a failed assumption is a property
    of the given models, not a programming error.
    """
    abscissa = spectral_abscissa(closed_loop.A)
    lam_p, _ = eig(plant.A_p)
    lam_c, _ = eig(controller.A_c)
    gap = float(np.abs(lam_p[:, None] - lam_c[None, :]).min())
    bpcc = spectral_norm(plant.B_p @ controller.C_c)
    # PlantModel construction already rejects asymmetric Q_p; recheck the
    # assembled block so a hand-built ClosedLoop is caught too
    Qp = closed_loop.Q_p
    qp_sym = bool(np.abs(Qp - Qp.T).max() <= _asymmetry_bound(Qp))
    return AssumptionReport(
        a_hurwitz=bool(abscissa < -TOL_HURWITZ),
        spectral_abscissa=abscissa,
        spectra_disjoint=bool(gap > TOL_GAP),
        min_eigenvalue_gap=gap,
        bpcc_nonzero=bool(bpcc > TOL_GAP),
        bpcc_norm=bpcc,
        qp_symmetric=qp_sym,
    )


# ---------------------------------------------------------------------------
# system definition files

_PLANT_KEYS = ("A_p", "B_p", "Q_p")
_CONTROLLER_KEYS = ("A_c", "B_c", "C_c", "D_c")


def _matrix_from_json(value, field):
    """Row-major nested lists -> ndarray, with the field path in every error."""
    if not isinstance(value, list) or not value:
        raise ValidationError("expected a non-empty nested array", field=field)
    rows = value if isinstance(value[0], list) else [value]
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ValidationError("expected a non-empty row", field="%s[%d]" % (field, i))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                "row has %d entries, expected %d" % (len(row), width),
                field="%s[%d]" % (field, i),
            )
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValidationError(
                    "expected a number, got %r" % (entry,),
                    field="%s[%d][%d]" % (field, i, j),
                )
            if not np.isfinite(entry):
                raise ValidationError(
                    "entries must be finite doubles, got %r" % (entry,),
                    field="%s[%d][%d]" % (field, i, j),
                )
    return np.asarray(rows, dtype=float)


def system_from_dict(data) -> tuple[PlantModel, ControllerModel]:
    """Build (plant, controller) from a parsed system definition object."""
    if not isinstance(data, dict):
        raise ValidationError("system definition must be a JSON object", field="$")
    for section, keys in (("plant", _PLANT_KEYS), ("controller", _CONTROLLER_KEYS)):
        if section not in data:
            raise ValidationError("missing section", field=section)
        if not isinstance(data[section], dict):
            raise ValidationError("must be an object", field=section)
        for key in keys:
            if key not in data[section]:
                raise ValidationError("missing matrix", field="%s.%s" % (section, key))

    D_c = data["controller"]["D_c"]
    if isinstance(D_c, bool) or not isinstance(D_c, (int, float)) or not np.isfinite(D_c):
        raise ValidationError("expected a finite scalar", field="controller.D_c")

    def build(section, make, keys, **scalars):
        try:
            return make(**{k: _matrix_from_json(data[section][k], k) for k in keys}, **scalars)
        except ValidationError as exc:
            raise exc.under(section) from exc

    plant = build("plant", PlantModel, _PLANT_KEYS)
    controller = build("controller", ControllerModel, _CONTROLLER_KEYS[:3], D_c=float(D_c))
    return plant, controller


def load_system(path) -> tuple[PlantModel, ControllerModel]:
    """Read a JSON system definition file.

    Malformed JSON reports line and column from the parser; schema problems
    report the dotted field path.
    """
    return system_from_dict(read_json(path))
