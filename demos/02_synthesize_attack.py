#!/usr/bin/env python3
"""Design the sensor attack row that makes the quadratic output observable.

The attack adds a = Hbar(pi) zhat to the measurement. A projection vector
pi is admissible when it avoids every forbidden subspace (one per
closed-loop eigenpair); scaling pi below the stability bound keeps the
attacked loop matrix Fbar = A + B Hbar Hurwitz. This script classifies the
forbidden set, picks pi, and sweeps the scaling to show both properties.
"""

import argparse

import numpy as np

from obsforge import attack, numerics, refcase


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for the candidate search")
    parser.add_argument(
        "--pi", default="1,-3", help="target direction pi*, comma separated"
    )
    args = parser.parse_args()

    plant, controller, cl = refcase.reference_system()
    pi_star = np.array([float(t) for t in args.pi.split(",")])

    forbidden, _ = attack.forbidden_set(cl)
    print("forbidden subspaces (pi must not be orthogonal to all normals):")
    for sub in forbidden:
        rank = np.linalg.matrix_rank(np.vstack(sub.normals))
        print(
            "  %s  eigenvalue %+.3f%+.3fj  %d normals (rank %d)"
            % (sub.tag, sub.eigenvalue.real, sub.eigenvalue.imag, len(sub.normals), rank)
        )
    if all(np.linalg.matrix_rank(np.vstack(s.normals)) == cl.n_p for s in forbidden):
        print("every subspace has full-rank normals: only pi = 0 is excluded")

    Y = 0.2 * np.eye(cl.n)
    bound = attack.gamma_max(cl.A, cl.B, plant.Q_p, pi_star, Y)
    print("\npi* = %s, scaling bound gamma_max = %.6f" % (pi_star, bound))

    print("\nsweep of the scaling fraction:")
    print("  fraction   abscissa(Fbar)   observability margin")
    for f in (0.05, 0.3, 0.6, 0.9, 0.99):
        d = attack.build_design(cl, pi_star=pi_star, gamma_fraction=f, Y=Y, seed=args.seed)
        _, margin = attack.is_observable(d.Fbar, d.Hbar)
        print(
            "  %8.2f   %+13.4f   %20.3e"
            % (f, numerics.spectral_abscissa(d.Fbar), margin)
        )
    print("the loop stays Hurwitz and observable for every fraction below 1.")

    design = attack.build_design(cl, pi_star=pi_star, gamma_fraction=0.9, Y=Y, seed=args.seed)
    np.set_printoptions(precision=4, suppress=True)
    print("\nheadline design at fraction 0.9:")
    print("  pi   = %s" % design.pi)
    print("  Hbar = %s" % design.Hbar[0])
    print("  attacked spectrum: %s" % np.round(numerics.eig(design.Fbar)[0], 4))


if __name__ == "__main__":
    main()
