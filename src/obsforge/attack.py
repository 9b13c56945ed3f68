"""Projection-vector synthesis: where observability can be induced from.

Injecting a = 2 pi' Q_p zhat_p into the measurement turns the unobservable
linearization (A, 0) into the pair (Fbar, Hbar) with Hbar = [2 pi' Q_p, 0]
and Fbar = A + B Hbar. That pair is observable for every pi outside a
finite union of low-dimensional subspaces; this module enumerates those
subspaces, picks a direction pi* clear of all of them, and scales it down
until Fbar provably stays Hurwitz.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionError,
    ConditioningWarning,
    SynthesisError,
    ValidationError,
)
from .numerics import (
    eig,
    is_hurwitz,
    solve_lyapunov,
    spectral_norm,
)

__all__ = [
    "ForbiddenSubspace",
    "ForbiddenSet",
    "AttackDesign",
    "ObservabilityResult",
    "forbidden_set",
    "is_observable",
    "choose_pi_star",
    "gamma_max",
    "build_design",
    "attack_signal",
]

#: relative sigma_min threshold deciding observability
TOL_OBS = 1e-9

#: minimum angular clearance a projection vector must keep from every subspace
TOL_MARGIN = 1e-6

#: eigenvector-matrix condition number past which eigenvectors are suspect
_COND_DEFECTIVE = 1e8


@dataclass(frozen=True)
class ForbiddenSubspace:
    """One unobservability constraint: pi must not be orthogonal to all normals.

    A real eigenpair contributes one normal (a hyperplane of bad pi); a
    complex-conjugate pair contributes the real and imaginary parts of its
    complex normal, cutting the bad set down to codimension 2. ``degenerate``
    marks subspaces that lost a vanishing normal.
    """

    normals: tuple
    source: str  # "plant" or "controller"
    index: int
    eigenvalue: complex
    degenerate: bool = False

    @property
    def tag(self):
        name = "PlantEig" if self.source == "plant" else "ControllerEig"
        return "%s(%d)" % (name, self.index)

    def margin(self, pi):
        """Angular clearance of pi: max over normals of |cos(pi, v)|.

        pi lies IN the subspace exactly when it is orthogonal to every
        normal, so the max is the right aggregation.
        """
        pi = np.asarray(pi, dtype=float)
        if not pi.any():
            return 0.0
        pi = _unit(pi)  # the clearance is scale-invariant; a huge pi must not overflow
        return max(abs(float(pi @ v)) / np.linalg.norm(v) for v in self.normals)


@dataclass(frozen=True)
class ForbiddenSet:
    """All forbidden subspaces plus notes about vacuous (dropped) constraints."""

    subspaces: tuple
    notes: tuple = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.subspaces)

    def __len__(self):
        return len(self.subspaces)


def _subspaces_from_eigpairs(pairs, normal_of, source, notes, zero_tol):
    """Shared plant/controller enumeration with conjugate dedup."""
    out = []
    for i, (lam, w) in enumerate(pairs):
        if abs(lam.imag) <= 1e-12 * max(1.0, abs(lam)):
            candidates = [normal_of(lam.real, w).real]
        elif lam.imag > 0:
            v = normal_of(lam, w)
            candidates = [v.real.copy(), v.imag.copy()]
        else:
            continue  # conjugate of an already-processed eigenvalue
        kept = [v for v in candidates if np.linalg.norm(v) > zero_tol]
        dropped = len(candidates) - len(kept)
        if not kept:
            notes.append(
                "%s eigenpair %d (lambda=%s): all normals vanish, constraint "
                "vacuous, subspace dropped" % (source, i, lam)
            )
            continue
        if dropped:
            notes.append(
                "%s eigenpair %d (lambda=%s): one normal vanished; constraint "
                "degenerates to a single hyperplane" % (source, i, lam)
            )
        out.append(
            ForbiddenSubspace(
                normals=tuple(kept),
                source=source,
                index=i,
                eigenvalue=complex(lam),
                degenerate=bool(dropped),
            )
        )
    return out


def _forbidden_from_blocks(A_p, A_c, BpCc, Q_p) -> ForbiddenSet:
    notes = []
    n_p = A_p.shape[0]
    zero_tol = 1e-12 * max(1.0, spectral_norm(Q_p))

    plant_pairs = eig(A_p)
    ctrl_pairs = eig(A_c)
    for name, pairs in (("plant", plant_pairs), ("controller", ctrl_pairs)):
        # np.linalg.cond's ratio, with its inf for a singular matrix
        sv = np.linalg.svd(pairs.vectors, compute_uv=False)
        cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
        if cond > _COND_DEFECTIVE:
            warnings.warn(
                "%s matrix looks defective (eigenvector condition %.3e); "
                "forbidden-set enumeration may be incomplete, the final "
                "observability check remains the authority" % (name, cond),
                ConditioningWarning,
                stacklevel=3,
            )

    subspaces = _subspaces_from_eigpairs(
        plant_pairs, lambda lam, w: Q_p @ w, "plant", notes, zero_tol
    )

    def ctrl_normal(lam, w):
        M = lam * np.eye(n_p) - A_p.astype(complex)
        try:
            x = np.linalg.solve(M, BpCc @ w)
        except np.linalg.LinAlgError as exc:
            raise AssumptionError(
                "controller eigenvalue %s coincides with a plant eigenvalue, "
                "(lambda I - A_p) is singular; disjoint spectra are required"
                % lam
            ) from exc
        return Q_p @ x

    subspaces += _subspaces_from_eigpairs(
        ctrl_pairs, ctrl_normal, "controller", notes, zero_tol
    )
    return ForbiddenSet(subspaces=tuple(subspaces), notes=tuple(notes))


def forbidden_set(plant, controller) -> ForbiddenSet:
    """Enumerate every subspace of projection vectors that kills observability.

    One constraint per plant eigenpair (normals from Q_p w_p) and one per
    controller eigenpair (normals from Q_p (lambda I - A_p)^{-1} B_p C_c w_c),
    conjugate pairs deduplicated. Call ``validate_assumptions`` first: the
    controller normals need the plant/controller spectra to be disjoint.
    """
    return _forbidden_from_blocks(
        plant.A_p, controller.A_c, plant.B_p @ controller.C_c, plant.Q_p
    )


@dataclass(frozen=True)
class ObservabilityResult:
    observable: bool
    margin: float

    def __bool__(self):
        return self.observable


def is_observable(F, Hrow) -> ObservabilityResult:
    """Rank test on the observability matrix [H; HF; ...; HF^{n-1}].

    The pair is declared observable when sigma_min > TOL_OBS * sigma_max;
    ``margin`` is that singular-value ratio (0 for the zero row).
    """
    F = np.asarray(F, dtype=float)
    rows = [np.atleast_2d(np.asarray(Hrow, dtype=float))]
    for _ in range(F.shape[0] - 1):
        rows.append(rows[-1] @ F)
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    if sv[0] == 0.0:
        return ObservabilityResult(observable=False, margin=0.0)
    margin = float(sv[-1] / sv[0])
    return ObservabilityResult(observable=bool(margin > TOL_OBS), margin=margin)


def _reference_pair(closed_loop, pi):
    """(Fbar, Hbar) for a given projection vector at its own scale."""
    n = closed_loop.n
    Hbar = np.zeros((1, n))
    Hbar[0, : closed_loop.n_p] = 2.0 * np.asarray(pi, dtype=float) @ closed_loop.Q_p
    Fbar = closed_loop.A + closed_loop.B @ Hbar
    return Fbar, Hbar


def _unit(pi):
    """pi / |pi| without overflow: scaled by its largest entry first."""
    pi = pi / np.abs(pi).max()
    return pi / np.linalg.norm(pi)


def _clearances(forbidden, directions):
    """Angular clearance of each direction from each subspace, in one pass.

    Returns an (m, len(forbidden)) array whose entry (i, j) is
    ``forbidden.subspaces[j].margin(directions[i])`` up to rounding, for
    nonzero directions: |cos| against every stacked normal, then the max
    within each subspace.
    """
    P = np.atleast_2d(np.asarray(directions, dtype=float))
    subspaces = list(forbidden)
    if not subspaces:
        return np.empty((P.shape[0], 0))
    N = np.vstack([v for s in subspaces for v in s.normals])
    starts = np.cumsum([0] + [len(s.normals) for s in subspaces[:-1]])
    cos = np.abs(P @ N.T) / np.outer(np.linalg.norm(P, axis=1), np.linalg.norm(N, axis=1))
    return np.maximum.reduceat(cos, starts, axis=1)


def choose_pi_star(
    closed_loop,
    forbidden,
    pi_star=None,
    seed=0,
    n_candidates=64,
    tol_margin=TOL_MARGIN,
):
    """Select a projection direction clear of every forbidden subspace.

    With ``pi_star`` given, validates and returns it; it is scored and
    checked on its unit direction, since neither the angular margin nor the
    observability of the induced pair depends on its scale, so a huge pi*
    is judged like its direction. Otherwise draws
    ``n_candidates`` unit-sphere samples from a seeded generator, scores all
    of them against every subspace in one array pass, and keeps the one
    maximizing the minimum angular margin (ties: lowest index, so the choice
    is reproducible). An empty forbidden set gives every candidate an
    infinite margin, so the first one wins. Either way the winning direction
    must make the reference-scale pair (Fbar, Hbar) observable.

    Raises
    ------
    ValidationError
        If a user-supplied pi* has the wrong length, is non-finite or zero,
        or sits inside a forbidden subspace; the message names the first
        violated subspace's source tag.
    SynthesisError
        If no candidate clears the margins, or the winner fails the
        observability check (e.g. Q_p = 0 makes induction impossible).
    """
    if pi_star is not None:
        pi_star = np.asarray(pi_star, dtype=float).reshape(-1)
        if pi_star.shape != (closed_loop.n_p,):
            raise ValidationError(
                "expected length %d, got %d" % (closed_loop.n_p, pi_star.size),
                field="pi_star",
            )
        if not np.isfinite(pi_star).all():
            raise ValidationError("entries must be finite", field="pi_star")
        if not pi_star.any():
            raise ValidationError("pi_star must be nonzero", field="pi_star")
        direction = _unit(pi_star)
        for s, m in zip(forbidden, _clearances(forbidden, direction)[0]):
            if m <= tol_margin:
                raise ValidationError(
                    "lies in forbidden subspace %s (eigenvalue %s, margin "
                    "%.3e <= %.1e)" % (s.tag, s.eigenvalue, m, tol_margin),
                    field="pi_star",
                )
        chosen = pi_star
    else:
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n_candidates, closed_loop.n_p))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        margins = _clearances(forbidden, samples).min(axis=1, initial=np.inf)
        best = int(np.argmax(margins))
        if not margins[best] > tol_margin:
            raise SynthesisError(
                "no sampled candidate clears margin %.1e (best %.3e); "
                "increase n_candidates or supply pi_star"
                % (tol_margin, margins[best])
            )
        chosen = direction = samples[best]

    obs = is_observable(*_reference_pair(closed_loop, direction))
    if not obs.observable:
        raise SynthesisError(
            "chosen pi* fails the observability check at reference scale "
            "(margin %.3e); the quadratic form may be too degenerate to "
            "induce observability" % obs.margin
        )
    return chosen


def gamma_max(A, B, Q_p, pi_star, Y):
    """Largest safe scaling of pi*: lambda_min(Y) / (4 ||S B|| ||Q_p pi*||).

    S solves A'S + SA = -Y. Any gamma strictly below the returned value
    keeps Fbar(gamma pi*) Hurwitz and the induced pair observable.
    """
    Q_p = np.asarray(Q_p, dtype=float)
    pi_star = np.asarray(pi_star, dtype=float)
    scale = float(np.abs(pi_star).max())  # |Q_p pi*| taken on the direction, then scaled
    qpi = math.hypot(*(Q_p @ (pi_star / scale))) * scale if scale else 0.0
    if qpi == 0.0:
        raise ZeroDivisionError(
            "Q_p @ pi_star = 0: pi* is annihilated by the quadratic form and "
            "no scaling bound exists"
        )
    S = solve_lyapunov(A, Y)
    return float(np.linalg.eigvalsh(np.asarray(Y, dtype=float))[0]) / (
        4.0 * float(np.linalg.norm(S @ B)) * qpi
    )


@dataclass(frozen=True)
class AttackDesign:
    """A fully scaled attack: direction, scaling, induced pair, and record."""

    pi_star: np.ndarray
    gamma: float
    gamma_max: float
    pi: np.ndarray
    Hbar: np.ndarray
    Fbar: np.ndarray
    forbidden: ForbiddenSet
    observability_margin: float


def build_design(
    closed_loop, pi_star=None, gamma_fraction=0.9, Y=None, seed=0, n_candidates=64
) -> AttackDesign:
    """Scale pi* by gamma = gamma_fraction * gamma_max and verify the result.

    ``pi_star`` of None lets choose_pi_star pick a direction (seeded); a
    supplied pi* is validated against the forbidden set. ``Y`` defaults to
    0.2 I. The returned design has been checked: gamma in (0, gamma_max),
    Fbar Hurwitz, (Fbar, Hbar) observable. Failures of those checks raise
    SynthesisError since the scaling bound guarantees them mathematically; a
    trip here means tolerances were breached.
    """
    if not 0.0 < gamma_fraction < 1.0:
        raise ValidationError(
            "must be strictly inside (0, 1), got %r" % (gamma_fraction,),
            field="gamma_fraction",
        )
    n = closed_loop.n
    if Y is None:
        Y = 0.2 * np.eye(n)
    forbidden = _forbidden_from_blocks(
        closed_loop.A_p, closed_loop.A_c, closed_loop.BpCc, closed_loop.Q_p
    )
    pi_star = choose_pi_star(
        closed_loop, forbidden, pi_star=pi_star, seed=seed, n_candidates=n_candidates
    )

    gmax = gamma_max(closed_loop.A, closed_loop.B, closed_loop.Q_p, pi_star, Y)
    gamma = gamma_fraction * gmax
    if not 0.0 < gamma < math.inf:  # only a pi* near the ends of double range
        raise ValidationError(
            "scale %.3e puts gamma = %.3e outside double range"
            % (np.abs(pi_star).max(), gamma),
            field="pi_star",
        )
    pi = gamma * pi_star
    Fbar, Hbar = _reference_pair(closed_loop, pi)
    obs = is_observable(Fbar, Hbar)
    if not obs.observable:
        raise SynthesisError(
            "scaled pair (Fbar, Hbar) lost observability (margin %.3e); "
            "tolerance breach, not expected under the scaling bound" % obs.margin
        )
    if not is_hurwitz(Fbar):
        raise SynthesisError(
            "Fbar is not Hurwitz at gamma=%.6g despite gamma < gamma_max=%.6g; "
            "tolerance breach, not expected under the scaling bound"
            % (gamma, gmax)
        )
    pi_star = np.array(pi_star, dtype=float)
    for arr in (pi_star, pi, Hbar, Fbar):
        arr.setflags(write=False)
    return AttackDesign(
        pi_star=pi_star,
        gamma=float(gamma),
        gamma_max=float(gmax),
        pi=pi,
        Hbar=Hbar,
        Fbar=Fbar,
        forbidden=forbidden,
        observability_margin=obs.margin,
    )


def attack_signal(design, zhat):
    """Scalar attack value a(zhat) = Hbar zhat = 2 pi' Q_p zhat_p."""
    zhat = np.asarray(zhat, dtype=float)
    return float(design.Hbar[0] @ zhat)
