#!/usr/bin/env python3
"""One-screen summary of the magic trapping conditions for the bundled molecules."""

import argparse

from magictrap.magic import NoCrossingError, find_magic_field, magic_angle
from magictrap.polarizability import PolarizationVector
from magictrap.stark import StateLabel
from magictrap.units import load_molecule

PAIRS = [
    ((StateLabel(0, 0), StateLabel(1, 0)), "ground pair"),
    ((StateLabel(1, 0), StateLabel(1, 1, "+")), "J-tilde = 1 pair, + branch"),
    ((StateLabel(1, 0), StateLabel(1, 1, "-")), "J-tilde = 1 pair, - branch"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--molecules", nargs="+", default=["KRb", "RbCs"])
    ap.add_argument("--nu", type=float, default=9174.0)
    ap.add_argument("--emax", type=float, default=15.0)
    args = ap.parse_args()

    z = PolarizationVector.z()
    for name in args.molecules:
        mol = load_molecule(name)
        print(f"== {mol.name}  (B = {mol.b_mhz:.4g} MHz, d00 = {mol.d00_debye:.4g} D, "
              f"nu = {args.nu:g} cm^-1)")
        for pair, label in PAIRS:
            try:
                rep = find_magic_field(mol, pair, z, e_range=(0.0, args.emax),
                                       nu_cm=args.nu)
            except NoCrossingError:
                print(f"  {label:<28s}  no crossing below {args.emax:g} kV/cm")
                continue
            print(f"  {label:<28s}  E* = {rep.e_star_kv_cm:9.5f} kV/cm   "
                  f"beta* = {rep.beta_star:.8f}")
        ang = magic_angle((StateLabel(0, 0), StateLabel(1, 0)), mol, nu_cm=args.nu)
        print(f"  magic angle theta0 = {ang.theta0_deg:.10f} deg "
              f"(alpha_eff spread {ang.spread_au:.2e} a.u. across fields)")
        print()


if __name__ == "__main__":
    main()
