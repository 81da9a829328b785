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
import re
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
from .polarizability import PolarizationVector, alpha_eff, alpha_tensor_closed_form, stark_shift
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
    """Raises UsageError, and reads ``--opt -10:10`` as ``--opt=-10:10``.

    argparse takes a token such as ``-10:10`` or ``-1,0`` for an option of
    its own, so a value-taking option followed by one fails with "expected
    one argument". Each parser records its options and which of them take a
    value, and a token that starts with "-" and a digit or "." is joined to a
    preceding value-taking option: its full name, or a prefix that names no
    other option (argparse's own abbreviation rule). An ambiguous prefix is
    left alone, for argparse to report.
    """

    def __init__(self, *args, **kwargs):
        # filled by add_argument, which __init__ calls for --help
        self.options, self.value_options = set(), set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options.update(action.option_strings)
        if action.nargs != 0:
            self.value_options.update(action.option_strings)
        return action

    def _takes_value(self, token):
        if token.startswith("--") and token not in self.options:
            names = [name for name in self.options if name.startswith(token)]
            token = names[0] if len(names) == 1 else token
        return token in self.value_options

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if joined and self._takes_value(joined[-1]) and re.match(r"-[\d.]", token):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

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
    if hi - lo == math.inf:
        raise argparse.ArgumentTypeError(f"range width overflows, got {text!r}")
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
# ceilings on a grid (--steps, --scan-points): its points, and its points x (j_max + 1)^2,
# the size of the stack of blocks that one batched eigh holds
_GRID_CEILING = 100_000
_GRID_BASIS_CEILING = 2 ** 24


def _check_basis(args) -> None:
    """Reject a --jmax or grid above its ceiling, a --jmax stark would refuse or one that drops a state."""
    jmax = getattr(args, "jmax", 0)
    if jmax > _JMAX_CEILING:
        raise UsageError(f"--jmax must be <= {_JMAX_CEILING}, got {jmax}")
    labels = getattr(args, "states", None) or getattr(args, "pair", None)
    if labels is not None:
        try:
            stark._check_j_max(max(abs(lb.m) for lb in labels), jmax)
        except ValueError as exc:
            raise UsageError(f"--jmax: {exc}") from None
        for lb in labels:
            if lb.j_tilde > jmax:
                raise UsageError(f"--jmax: state {lb} needs J_tilde <= j_max = {jmax}")
    option = "--steps" if hasattr(args, "steps") else "--scan-points"
    points = getattr(args, "steps", getattr(args, "scan_points", 0))
    if points > _GRID_CEILING:
        raise UsageError(f"{option} must be <= {_GRID_CEILING}, got {points}")
    if points * (jmax + 1) ** 2 > _GRID_BASIS_CEILING:
        raise UsageError(f"{option} x (--jmax + 1)^2 must be <= {_GRID_BASIS_CEILING}, "
                         f"got {points} x {(jmax + 1) ** 2}")


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


def _render(args, mol: MoleculeSpec, columns, **meta) -> str:
    """The table in --format; its metadata starts with the command line and the molecule."""
    head = {
        "command": "magictrap " + shlex.join(args.raw_argv),
        "version": __version__,
        "molecule": mol.name,
        "B_MHz": f"{mol.b_mhz:.12g}",
        "d00_debye": f"{mol.d00_debye:.12g}",
    }
    return ResultTable(columns, {**head, **meta}).render(args.format, include_meta=not args.no_meta)


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
    labels = args.states
    systems = {m: stark.solve(mol, args.field, m, args.jmax) for m in {abs(lb.m) for lb in labels}}
    columns = [
        Column("state", "1", [str(lb) for lb in labels]),
        Column("E", "MHz", [float(systems[abs(lb.m)].energies[lb.j_tilde - abs(lb.m)]) for lb in labels]),
        Column("alignment_cos2", "1", [stark.alignment(systems[abs(lb.m)], lb.j_tilde) for lb in labels]),
    ]
    return _render(args, mol, columns, E_dc_kv_cm=f"{args.field:.12g}", beta=f"{mol.beta(args.field):.12g}",
                   j_max=str(args.jmax))


def _cmd_polar(args) -> str:
    mol = load_molecule(args.molecule)
    pol = PolarizationVector.parse(args.pol)
    a_par, a_perp = alpha_lambda_at(mol, args.nu)
    labels = _expand_branches(args.states)
    systems = {m: stark.solve(mol, args.field, m, args.jmax) for m in {abs(lb.m) for lb in labels}}
    tensors = [alpha_tensor_closed_form(systems[abs(lb.m)], lb, a_par, a_perp, pol) for lb in labels]
    alphas = [alpha_eff(tens, pol) for tens in tensors]
    columns = [
        Column("state", "1", [str(lb) for lb in labels]),
        Column("alpha_xx", "a.u.", [t.xx for t in tensors]),
        Column("alpha_yy", "a.u.", [t.yy for t in tensors]),
        Column("alpha_zz", "a.u.", [t.zz for t in tensors]),
        Column("alpha_eff", "a.u.", alphas),
        Column("dE", "MHz", [stark_shift(a, args.intensity) for a in alphas]),
        Column("degenerate", "1", [t.degenerate for t in tensors]),
    ]
    return _render(
        args, mol, columns,
        E_dc_kv_cm=f"{args.field:.12g}",
        nu_cm=f"{args.nu:.12g}",
        alpha_par_au=f"{a_par:.12g}",
        alpha_perp_au=f"{a_perp:.12g}",
        polarization=args.pol,
        intensity_w_cm2=f"{args.intensity:.12g}",
        j_max=str(args.jmax),
    )


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
    return _render(args, mol, table.columns, **{**table.meta, "polarization": args.pol})


def _cmd_find_magic_field(args) -> str:
    mol = load_molecule(args.molecule)
    reports = find_magic_fields(
        mol, args.pair, PolarizationVector.parse(args.pol),
        e_range=args.range, nu_cm=args.nu, j_max=args.jmax,
        scan_points=args.scan_points,
    )
    columns = [
        Column("E_star", "kV/cm", [r.e_star_kv_cm for r in reports]),
        Column("beta_star", "1", [r.beta_star for r in reports]),
        Column("alpha_eff_at_root", "a.u.", [r.alpha_eff_at_root for r in reports]),
        Column("alpha_diff_at_root", "a.u.", [r.alpha_diff_at_root for r in reports]),
        Column("bracket_lo", "kV/cm", [r.bracket[0] for r in reports]),
        Column("bracket_hi", "kV/cm", [r.bracket[1] for r in reports]),
        Column("achieved_tol", "kV/cm", [r.achieved_tol for r in reports]),
    ]
    return _render(
        args, mol, columns,
        pair=f"{args.pair[0]}:{args.pair[1]}",
        polarization=args.pol,
        nu_cm=f"{args.nu:.12g}",
        range=f"{args.range[0]:.12g}:{args.range[1]:.12g}",
        j_max=str(args.jmax),
    )


def _cmd_magic_angle(args) -> str:
    mol = load_molecule(args.molecule)
    e_grid = np.linspace(*args.range, args.steps)
    report = magic_angle(args.pair, mol, e_grid_kv_cm=e_grid, nu_cm=args.nu, j_max=args.jmax)
    fields, angles = zip(*report.crossings)
    n = len(fields)
    columns = [
        Column("E_dc", "kV/cm", fields),
        Column("crossing_theta", "deg", [math.nan if a is None else a for a in angles]),
        Column("theta0", "deg", [report.theta0_deg] * n),
        Column("alpha_spread_at_theta0", "a.u.", [report.spread_au] * n),
        Column("no_common_angle", "1", [report.no_common_angle] * n),
        Column("degenerate", "1", [report.degenerate] * n),
    ]
    return _render(
        args, mol, columns,
        pair=f"{args.pair[0]}:{args.pair[1]}",
        nu_cm=f"{args.nu:.12g}",
        theta0_deg=f"{report.theta0_deg:.12g}",
        cos2_theta0={1 / 3: "1/3", 1 / 5: "1/5", 3 / 7: "3/7"}[report.cos2_theta0],
        abar_au=f"{report.abar_au:.12g}",
        j_max=str(args.jmax),
    )


def _cmd_lattice(args) -> str:
    if args.format == "csv":
        raise UsageError("the lattice plan is emitted as JSON only; use --format json")
    plan = plan_paper_lattice(
        nu_a_hz=args.nu * CM1_TO_MHZ * 1e6,
        delta_b_hz=args.delta_b * 1e6,
        delta_c_hz=args.delta_c * 1e6,
        f_mot_hz=args.f_mot * 1e3,
        ratio_threshold=args.ratio,
    )
    return plan_to_json(plan)


def _cmd_convergence(args) -> str:
    mol = load_molecule(args.molecule)
    blocks = {m: stark.check_convergence(mol, args.field, m, args.jmax) for m in {abs(lb.m) for lb in args.states}}
    rel = np.array([blocks[abs(lb.m)][lb.j_tilde - abs(lb.m)] for lb in args.states])
    columns = [
        Column("state", "1", [str(lb) for lb in args.states]),
        Column("rel_change", "1", rel),
        Column("converged", "1", rel < args.tol),
    ]
    return _render(args, mol, columns, E_dc_kv_cm=f"{args.field:.12g}", j_max=str(args.jmax),
                   j_max_ref=str(args.jmax + 4), tol=f"{args.tol:.12g}")


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
