"""Command-line surface: eigen, polar, sweep, find-magic-field, magic-angle,
lattice, convergence.

Every subcommand emits a CSV or JSON table with unit-tagged columns and a
"#" metadata header carrying enough context to reproduce the run; output is
byte-deterministic for fixed inputs. Exit codes: 0 success, 1 usage error,
2 computation error (each with a single-line "error: ..." on stderr).
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from pathlib import Path

import numpy as np

from . import __version__, stark
from .lattice import SeparationOfScalesError, plan_paper_lattice, plan_to_json
from .magic import (
    DegenerateDifferenceError,
    NoCrossingError,
    RefinementError,
    SweepGrid,
    emit_figure_data,
    find_magic_fields,
    magic_angle,
    sweep,
)
from .polarizability import PolarizationVector, alpha_tensor_closed_form, stark_shift
from .stark import StateLabel
from .tableio import Column, ResultTable
from .units import CM1_TO_MHZ, MoleculeFileError, MoleculeSpec, alpha_lambda_at, load_molecule

__all__ = ["main", "run", "emit_figure_data"]

_COMPUTE_ERRORS = (
    NoCrossingError,
    DegenerateDifferenceError,
    RefinementError,
    SeparationOfScalesError,
    MoleculeFileError,
    FileNotFoundError,
    ValueError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _states_arg(text: str):
    try:
        labels = [StateLabel.parse(part) for part in text.split(":") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not labels:
        raise argparse.ArgumentTypeError("empty state list")
    return labels


def _pair_arg(text: str):
    labels = _states_arg(text)
    if len(labels) != 2:
        raise argparse.ArgumentTypeError(f"pair needs exactly 2 states, got {len(labels)}")
    return tuple(labels)


def _range_arg(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"range must be 'lo:hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range bounds must be numbers, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range needs lo < hi, got {text!r}")
    return lo, hi


def _field_range_arg(text: str):
    lo, hi = _range_arg(text)
    if lo < 0:
        raise argparse.ArgumentTypeError(f"fields must be >= 0, got {text!r}")
    return lo, hi


def _finite_arg(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _nonneg_arg(text: str) -> float:
    x = _finite_arg(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return x


def _positive_arg(text: str) -> float:
    x = _finite_arg(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


def _grid_count_arg(noun: str):
    """Parser for a grid size, which needs both ends: an integer >= 2."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{noun} must be an integer, got {text!r}") from None
        if n < 2:
            raise argparse.ArgumentTypeError(f"need at least 2 {noun}, got {n}")
        return n

    return parse


# a ceiling on the basis size: eigh cost grows as j_max^3, and memory as j_max^2
_JMAX_CEILING = 200


def _check_basis(args) -> None:
    """Reject a --jmax above the ceiling, one stark would refuse, or one that drops a requested state."""
    if getattr(args, "jmax", 0) > _JMAX_CEILING:
        raise UsageError(f"--jmax must be <= {_JMAX_CEILING}, got {args.jmax}")
    labels = getattr(args, "states", None) or getattr(args, "pair", None)
    if labels is None:
        return
    try:
        stark._check_j_max(max(abs(lb.m) for lb in labels), args.jmax)
    except ValueError as exc:
        raise UsageError(f"--jmax: {exc}") from None
    for lb in labels:
        if lb.j_tilde > args.jmax:
            raise UsageError(f"--jmax: state {lb} needs J_tilde <= j_max = {args.jmax}")


def _pol_arg(text: str) -> str:
    try:
        PolarizationVector.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _expand_branches(labels):
    """Bare |M| > 0 labels stand for both members of the degenerate pair."""
    out = []
    for lb in labels:
        if lb.m != 0 and not lb.branch:
            out.append(StateLabel(lb.j_tilde, abs(lb.m), "+"))
            out.append(StateLabel(lb.j_tilde, abs(lb.m), "-"))
        else:
            out.append(lb)
    return out


def _common_meta(args, molecule: MoleculeSpec | None = None) -> dict:
    meta = {
        "command": "magictrap " + shlex.join(args.raw_argv),
        "version": __version__,
    }
    if molecule is not None:
        meta.update(
            molecule=molecule.name,
            B_MHz=f"{molecule.b_mhz:.12g}",
            d00_debye=f"{molecule.d00_debye:.12g}",
        )
    return meta


def _emit(args, text: str) -> None:
    if args.out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------- handlers


def _cmd_eigen(args) -> str:
    mol = load_molecule(args.molecule)
    table = ResultTable(
        columns=[
            Column("state", "1"),
            Column("E", "MHz"),
            Column("alignment_cos2", "1"),
        ]
    )
    table.meta.update(_common_meta(args, mol))
    table.meta.update(
        E_dc_kv_cm=f"{args.field:.12g}",
        beta=f"{mol.beta(args.field):.12g}",
        j_max=str(args.jmax),
    )
    systems = {m: stark.solve(mol, args.field, m, args.jmax) for m in {abs(lb.m) for lb in args.states}}
    for lb in args.states:
        sys_m = systems[abs(lb.m)]
        table.add_row(str(lb), sys_m.energy(lb.j_tilde), stark.alignment(sys_m, lb.j_tilde))
    return table.render(args.format, include_meta=not args.no_meta)


def _cmd_polar(args) -> str:
    mol = load_molecule(args.molecule)
    pol = PolarizationVector.parse(args.pol)
    a_par, a_perp = alpha_lambda_at(mol, args.nu)
    labels = _expand_branches(args.states)
    table = ResultTable(
        columns=[
            Column("state", "1"),
            Column("alpha_xx", "a.u."),
            Column("alpha_yy", "a.u."),
            Column("alpha_zz", "a.u."),
            Column("alpha_eff", "a.u."),
            Column("dE", "MHz"),
            Column("degenerate", "1"),
        ]
    )
    table.meta.update(_common_meta(args, mol))
    table.meta.update(
        E_dc_kv_cm=f"{args.field:.12g}",
        nu_cm=f"{args.nu:.12g}",
        alpha_par_au=f"{a_par:.12g}",
        alpha_perp_au=f"{a_perp:.12g}",
        polarization=args.pol,
        intensity_w_cm2=f"{args.intensity:.12g}",
        j_max=str(args.jmax),
    )
    systems = {m: stark.solve(mol, args.field, m, args.jmax) for m in {abs(lb.m) for lb in labels}}
    for lb in labels:
        tens = alpha_tensor_closed_form(systems[abs(lb.m)], lb, a_par, a_perp, pol)
        shift = stark_shift(tens, pol, args.intensity)
        table.add_row(
            str(lb), tens.xx, tens.yy, tens.zz,
            shift.alpha_eff_au, shift.delta_e_mhz, tens.degenerate,
        )
    return table.render(args.format, include_meta=not args.no_meta)


def _cmd_sweep(args) -> str:
    lo, hi = args.range
    if args.var == "E_dc" and lo < 0:
        raise UsageError(f"--range: fields must be >= 0, got {lo:g}:{hi:g}")
    mol = load_molecule(args.molecule)
    grid = SweepGrid(
        variable=args.var,
        start=lo,
        stop=hi,
        steps=args.steps,
        molecule=mol,
        e_dc_kv_cm=args.field,
        nu_cm=args.nu,
        polarization=PolarizationVector.parse(args.pol),
        j_max=args.jmax,
    )
    table = sweep(grid, _expand_branches(args.states), intensity_w_cm2=args.intensity)
    meta = _common_meta(args, mol)
    meta.update(table.meta)
    meta["polarization"] = args.pol
    table.meta = meta
    return table.render(args.format, include_meta=not args.no_meta)


def _cmd_find_magic_field(args) -> str:
    mol = load_molecule(args.molecule)
    pol = PolarizationVector.parse(args.pol)
    pair = args.pair
    reports = find_magic_fields(
        mol, pair, pol,
        e_range=args.range, nu_cm=args.nu, j_max=args.jmax,
        scan_points=args.scan_points,
    )
    table = ResultTable(
        columns=[
            Column("E_star", "kV/cm"),
            Column("beta_star", "1"),
            Column("alpha_eff_at_root", "a.u."),
            Column("alpha_diff_at_root", "a.u."),
            Column("bracket_lo", "kV/cm"),
            Column("bracket_hi", "kV/cm"),
            Column("achieved_tol", "kV/cm"),
        ]
    )
    table.meta.update(_common_meta(args, mol))
    table.meta.update(
        pair=f"{pair[0]}:{pair[1]}",
        polarization=args.pol,
        nu_cm=f"{args.nu:.12g}",
        range=f"{args.range[0]:.12g}:{args.range[1]:.12g}",
        j_max=str(args.jmax),
    )
    for rep in reports:
        table.add_row(
            rep.e_star_kv_cm, rep.beta_star, rep.alpha_eff_at_root,
            rep.alpha_diff_at_root, rep.bracket[0], rep.bracket[1], rep.achieved_tol,
        )
    return table.render(args.format, include_meta=not args.no_meta)


def _cmd_magic_angle(args) -> str:
    mol = load_molecule(args.molecule)
    lo, hi = args.range
    e_grid = np.linspace(lo, hi, args.steps)
    report = magic_angle(args.pair, mol, e_grid_kv_cm=e_grid, nu_cm=args.nu, j_max=args.jmax)
    table = ResultTable(
        columns=[
            Column("E_dc", "kV/cm"),
            Column("crossing_theta", "deg"),
            Column("theta0", "deg"),
            Column("alpha_spread_at_theta0", "a.u."),
            Column("no_common_angle", "1"),
            Column("degenerate", "1"),
        ]
    )
    table.meta.update(_common_meta(args, mol))
    table.meta.update(
        pair=f"{args.pair[0]}:{args.pair[1]}",
        nu_cm=f"{args.nu:.12g}",
        theta0_deg=f"{report.theta0_deg:.12g}",
        cos2_theta0="1/3",
        abar_au=f"{report.abar_au:.12g}",
        j_max=str(args.jmax),
    )
    for e_dc, angle in report.crossings:
        table.add_row(
            e_dc,
            float("nan") if angle is None else angle,
            report.theta0_deg,
            report.spread_au,
            report.no_common_angle,
            report.degenerate,
        )
    return table.render(args.format, include_meta=not args.no_meta)


def _cmd_lattice(args) -> str:
    if args.format == "csv":
        raise UsageError("the lattice plan is emitted as JSON only; use --format json")
    nu_a_hz = args.nu * CM1_TO_MHZ * 1e6
    plan = plan_paper_lattice(
        nu_a_hz=nu_a_hz,
        delta_b_hz=args.delta_b * 1e6,
        delta_c_hz=args.delta_c * 1e6,
        f_mot_hz=args.f_mot * 1e3,
        ratio_threshold=args.ratio,
    )
    return plan_to_json(plan)


def _cmd_convergence(args) -> str:
    mol = load_molecule(args.molecule)
    table = ResultTable(
        columns=[
            Column("state", "1"),
            Column("rel_change", "1"),
            Column("converged", "1"),
        ]
    )
    table.meta.update(_common_meta(args, mol))
    table.meta.update(
        E_dc_kv_cm=f"{args.field:.12g}",
        j_max=str(args.jmax),
        j_max_ref=str(args.jmax + 4),
        tol=f"{args.tol:.12g}",
    )
    for lb in args.states:
        rel = stark.check_convergence(mol, args.field, abs(lb.m), lb.j_tilde, args.jmax)
        table.add_row(str(lb), rel, rel < args.tol)
    return table.render(args.format, include_meta=not args.no_meta)


# ------------------------------------------------------------ parser setup


def build_parser() -> _Parser:
    parser = _Parser(prog="magictrap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"magictrap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_output(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--no-meta", action="store_true", help="suppress metadata header")

    def add_molecule(p):
        p.add_argument("--molecule", required=True, help="bundled name (KRb, RbCs) or path")

    p = sub.add_parser("eigen", help="dressed-state energies and alignment")
    add_molecule(p)
    p.add_argument("--field", type=_nonneg_arg, default=0.0, help="DC field in kV/cm")
    p.add_argument("--states", type=_states_arg, required=True, help="colon-separated J,M[,+-] list")
    p.add_argument("--jmax", type=int, default=10)
    add_output(p)
    p.set_defaults(handler=_cmd_eigen)

    p = sub.add_parser("polar", help="polarizability tensors and AC shifts")
    add_molecule(p)
    p.add_argument("--field", type=_nonneg_arg, default=0.0)
    p.add_argument("--nu", type=_finite_arg, default=9174.0, help="laser wavenumber in cm^-1")
    p.add_argument("--pol", type=_pol_arg, default="z", help="z, x, theta:<deg>, sigma+ or sigma-")
    p.add_argument("--states", type=_states_arg, required=True)
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--intensity", type=_nonneg_arg, default=1.0, help="W/cm^2")
    add_output(p)
    p.set_defaults(handler=_cmd_polar)

    p = sub.add_parser("sweep", help="1-D sweep over E_dc, theta or nu")
    add_molecule(p)
    p.add_argument("--var", choices=("E_dc", "theta", "nu"), required=True)
    p.add_argument("--range", type=_range_arg, required=True, help="lo:hi")
    p.add_argument("--steps", type=_grid_count_arg("steps"), default=61)
    p.add_argument("--field", type=_nonneg_arg, default=0.0, help="fixed DC field for theta/nu sweeps")
    p.add_argument("--nu", type=_finite_arg, default=9174.0, help="fixed wavenumber for E_dc/theta sweeps")
    p.add_argument("--pol", type=_pol_arg, default="z", help="fixed polarization for E_dc/nu sweeps")
    p.add_argument("--states", type=_states_arg, required=True)
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--intensity", type=_nonneg_arg, default=1.0)
    add_output(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("find-magic-field", help="field where a pair's alpha_eff curves cross")
    add_molecule(p)
    p.add_argument("--pair", type=_pair_arg, required=True, help="A:B, e.g. 0,0:1,0")
    p.add_argument("--pol", type=_pol_arg, default="z")
    p.add_argument("--range", type=_field_range_arg, default=(0.0, 15.0), help="search range lo:hi in kV/cm")
    p.add_argument("--nu", type=_finite_arg, default=9174.0)
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--scan-points", type=_grid_count_arg("scan points"), default=64)
    add_output(p)
    p.set_defaults(handler=_cmd_find_magic_field)

    p = sub.add_parser("magic-angle", help="magic polarization angle and its field independence")
    add_molecule(p)
    p.add_argument("--pair", type=_pair_arg, default=(StateLabel(0, 0), StateLabel(1, 0)))
    p.add_argument("--nu", type=_finite_arg, default=9174.0)
    p.add_argument("--range", type=_field_range_arg, default=(0.0, 6.0), help="DC field grid lo:hi in kV/cm")
    p.add_argument("--steps", type=_grid_count_arg("steps"), default=7)
    p.add_argument("--jmax", type=int, default=10)
    add_output(p)
    p.set_defaults(handler=_cmd_magic_angle)

    p = sub.add_parser("lattice", help="three-beam magic-angle lattice plan (JSON)")
    p.add_argument("--nu", type=_finite_arg, default=9174.0, help="reference beam wavenumber in cm^-1")
    p.add_argument("--delta-b", type=_finite_arg, default=80.0, help="beam b offset in MHz")
    p.add_argument("--delta-c", type=_finite_arg, default=160.0, help="beam c offset in MHz")
    p.add_argument("--f-mot", type=_positive_arg, default=25.0, help="trap motional frequency in kHz")
    p.add_argument("--ratio", type=_positive_arg, default=100.0, help="separation-of-scales threshold")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default="-")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("convergence", help="basis-size sensitivity of dressed energies")
    add_molecule(p)
    p.add_argument("--field", type=_nonneg_arg, default=15.0)
    p.add_argument(
        "--states",
        type=_states_arg,
        default=[StateLabel(0, 0), StateLabel(1, 0), StateLabel(1, 1)],
    )
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--tol", type=_positive_arg, default=1e-8)
    add_output(p)
    p.set_defaults(handler=_cmd_convergence)

    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:   # --help / --version paths
        return int(exc.code or 0)
    args.raw_argv = list(argv)
    try:
        _check_basis(args)
        text = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
