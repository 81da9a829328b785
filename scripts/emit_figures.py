#!/usr/bin/env python3
"""Dump the standard figure tables (fig2, fig3, fig4) for both molecules.

Writes CSV files into --outdir (default ./figures). Plotting is left to
whatever you like; the tables are long-format and self-describing.
"""

import argparse
import pathlib

from magictrap.cli import emit_figure_data


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--molecules", nargs="+", default=["KRb", "RbCs"])
    ap.add_argument("--nu", type=float, default=9174.0, help="wavenumber in cm^-1")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for molecule in args.molecules:
        for fig in ("fig2", "fig3", "fig4"):
            table = emit_figure_data(fig, molecule, nu_cm=args.nu)
            path = outdir / f"{fig}_{molecule.lower()}.csv"
            path.write_text(table.to_csv())
            print(f"wrote {path} ({len(table.columns[0])} rows)")


if __name__ == "__main__":
    main()
