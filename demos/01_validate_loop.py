#!/usr/bin/env python3
"""Walk through the standing assumptions on the bundled feedback loop.

The toolkit works on a stable linear plant with a quadratic output sensor,
closed through a linear dynamic controller. This script assembles the
closed loop, prints the block structure, and runs the assumption checks
that every later design step relies on.
"""

import argparse

import numpy as np

from obsforge import model, numerics, refcase


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="optional system JSON; default is the bundled case")
    args = parser.parse_args()

    if args.config:
        plant, controller = model.load_system(args.config)
        cl = model.assemble(plant, controller)
    else:
        plant, controller, cl = refcase.reference_system()

    np.set_printoptions(precision=4, suppress=True)
    print("plant A_p:\n%s" % plant.A_p)
    print("controller A_c:\n%s" % controller.A_c)
    print("closed-loop matrix A (block upper triangular):\n%s" % cl.A)
    print("input column B = [B_p D_c; B_c]: %s" % cl.B[:, 0])
    print("output weight Q (plant block only):\n%s" % cl.Q)

    values, _ = numerics.eig(cl.A)
    print("\nclosed-loop spectrum:")
    for lam in values:
        print("  %+.6f %+.6fj" % (lam.real, lam.imag))
    print(
        "block triangular structure means this is the union of the plant "
        "and controller spectra."
    )

    report = model.validate_assumptions(plant, controller, cl)
    print("\nassumption checks:")
    print("  loop matrix Hurwitz:      %s (abscissa %.4f)" % (report.a_hurwitz, report.spectral_abscissa))
    print("  spectra disjoint:         %s (gap %.4f)" % (report.spectra_disjoint, report.min_eigenvalue_gap))
    print("  coupling B_p C_c nonzero: %s (norm %.4f)" % (report.bpcc_nonzero, report.bpcc_norm))
    print("  output weight symmetric:  %s" % report.qp_symmetric)
    print("all passed: %s" % report.all_passed)

    print(
        "\nthe quadratic sensor y = z'Qz has zero gradient at the origin, so "
        "the linearized pair (A, 0) is unobservable; the next demo builds the "
        "attack row that restores observability."
    )


if __name__ == "__main__":
    main()
