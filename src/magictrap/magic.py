"""Parameter sweeps, figure tables and root finding for magic trapping conditions.

A magic field for a state pair is the DC field at which their effective
polarizabilities coincide; a magic angle is the linear-polarization angle
doing the same job at every field.

One kernel feeds every table here. ``_alpha_effs`` makes a single
``stark.dressed_moments`` call per |M| block for a whole field grid (beta =
d E / B), and ``alpha_eff_from_moments`` turns the dressed <C_20> and
<C_2,+2> moments into alpha_eff; no per-field solve and no tensor is built.
Sweeps, the figure tables, the magic angle and the magic-field search all
read it.

Angles need no extra kernel call. For linear light cos(theta) z + sin(theta) x
the closed-form tensor has no xz element and the branch split is linear in
sin^2 theta, so

    alpha_eff(theta) = alpha_x sin^2(theta) + alpha_z cos^2(theta)

with alpha_x and alpha_z the values under x and z light: a theta grid is an
outer product of two kernel results.

Magic fields come from one batched scan of the same kernel; sign changes
between nodes are refined by Brent's method on it, one field at a time, and
a node where the difference is zero to within 1e-10 abar is itself a root. A
difference that is ~0 on most nodes (the magic angle) is degenerate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__, stark
from .polarizability import MAGIC_ANGLE_DEG, PolarizationVector, alpha_eff_from_moments
from .stark import StateLabel
from .tableio import Column, ResultTable
from .units import AU_POL_TO_MHZ_PER_W_CM2, MoleculeSpec, alpha_lambda_at, load_molecule

__all__ = [
    "SweepGrid",
    "CrossingReport",
    "PolarizationInvarianceReport",
    "MagicAngleReport",
    "NoCrossingError",
    "DegenerateDifferenceError",
    "RefinementError",
    "sweep",
    "emit_figure_data",
    "find_magic_field",
    "find_magic_fields",
    "magic_field_polarization_invariance",
    "magic_angle",
]

_SCAN_POINTS = 64
# a difference this far below the isotropic scale counts as identically zero
_DEGENERATE_RTOL = 1e-10


class NoCrossingError(RuntimeError):
    """No sign change of the polarizability difference in the search range."""


class DegenerateDifferenceError(RuntimeError):
    """Difference is identically ~0 on the range; a root would be spurious."""


class RefinementError(RuntimeError):
    """Brent refinement of a bracketed sign change did not converge."""


_VARIABLES = {"E_dc": ("E_dc", "kV/cm"), "theta": ("theta", "deg"), "nu": ("nu", "cm^-1")}


@dataclass(frozen=True)
class SweepGrid:
    """1-D grid over E_dc, theta or nu with the other knobs held fixed."""

    variable: str
    start: float
    stop: float
    steps: int
    molecule: MoleculeSpec
    e_dc_kv_cm: float = 0.0
    nu_cm: float = 9174.0
    polarization: PolarizationVector | None = None
    j_max: int = 10

    def __post_init__(self):
        if self.variable not in _VARIABLES:
            raise ValueError(f"variable must be one of {sorted(_VARIABLES)}, got {self.variable!r}")
        if not self.start < self.stop:
            raise ValueError("need start < stop")
        if self.steps < 2:
            raise ValueError("need steps >= 2")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _alpha_effs(molecule, labels, e_dc, alpha_par, alpha_perp, polarization, j_max):
    """alpha_eff of each label at the fields ``e_dc`` (kV/cm, any shape).

    One ``stark.dressed_moments`` call per |M| block covers the whole grid.
    ``alpha_par`` and ``alpha_perp`` may be arrays that broadcast against it.
    """
    for lb in labels:
        if lb.j_tilde > j_max:
            raise ValueError(f"J_tilde = {lb.j_tilde} outside block |M| = {abs(lb.m)}, J_max = {j_max}")
    betas = molecule.beta(np.asarray(e_dc, dtype=float))
    moments = {m: stark.dressed_moments(m, betas, j_max) for m in {abs(lb.m) for lb in labels}}
    out = []
    for lb in labels:
        _, c20, c22 = moments[abs(lb.m)]
        k = lb.j_tilde - abs(lb.m)
        out.append(alpha_eff_from_moments(lb, c20[..., k], c22[..., k], alpha_par, alpha_perp, polarization))
    return out


def _alpha_effs_theta(molecule, labels, e_dc, alpha_par, alpha_perp, theta_deg, j_max):
    """alpha_eff of each label over fields x linear-polarization angles.

    Each entry has shape ``np.shape(e_dc) + (len(theta_deg),)``: the outer
    product alpha_x sin^2 + alpha_z cos^2 of one x-light and one z-light call.
    """
    rad = np.radians(np.asarray(theta_deg, dtype=float))
    s, c = np.sin(rad), np.cos(rad)
    a_x = _alpha_effs(molecule, labels, e_dc, alpha_par, alpha_perp, PolarizationVector.x(), j_max)
    a_z = _alpha_effs(molecule, labels, e_dc, alpha_par, alpha_perp, PolarizationVector.z(), j_max)
    return [ax[..., None] * s * s + az[..., None] * c * c for ax, az in zip(a_x, a_z)]


def sweep(grid: SweepGrid, states, intensity_w_cm2: float = 1.0) -> ResultTable:
    """Per-state alpha_eff and AC shift along the grid, one row per point."""
    if intensity_w_cm2 < 0:
        raise ValueError("intensity must be >= 0")
    labels = list(states)
    var_name, var_unit = _VARIABLES[grid.variable]
    columns = [Column(var_name, var_unit)]
    for lb in labels:
        columns.append(Column(f"alpha_eff({lb})", "a.u."))
        columns.append(Column(f"dE({lb})", "MHz"))
    table = ResultTable(columns=columns)
    table.meta.update(
        molecule=grid.molecule.name,
        variable=grid.variable,
        intensity_w_cm2=f"{intensity_w_cm2:.12g}",
        j_max=str(grid.j_max),
    )

    mol, x = grid.molecule, grid.values
    pol = grid.polarization or PolarizationVector.z()
    if grid.variable == "theta":
        a_par, a_perp = alpha_lambda_at(mol, grid.nu_cm)
        alphas = _alpha_effs_theta(mol, labels, grid.e_dc_kv_cm, a_par, a_perp, x, grid.j_max)
        table.meta.update(E_dc_kv_cm=f"{grid.e_dc_kv_cm:.12g}", nu_cm=f"{grid.nu_cm:.12g}")
    elif grid.variable == "E_dc":
        a_par, a_perp = alpha_lambda_at(mol, grid.nu_cm)
        alphas = _alpha_effs(mol, labels, x, a_par, a_perp, pol, grid.j_max)
        table.meta.update(nu_cm=f"{grid.nu_cm:.12g}", polarization=str(pol))
    else:
        # nu sweep: the dressing is nu-independent, only the alpha table moves
        a_par, a_perp = np.array([alpha_lambda_at(mol, nu) for nu in x]).T
        alphas = _alpha_effs(mol, labels, grid.e_dc_kv_cm, a_par, a_perp, pol, grid.j_max)
        table.meta.update(E_dc_kv_cm=f"{grid.e_dc_kv_cm:.12g}", polarization=str(pol))

    cells = [x]
    for a in alphas:
        cells += [a, -a * intensity_w_cm2 * AU_POL_TO_MHZ_PER_W_CM2]
    for row in zip(*(c.tolist() for c in cells)):
        table.add_row(*row)
    return table


_FIG_STATES = (
    StateLabel(0, 0),
    StateLabel(1, 0),
    StateLabel(1, 1, "+"),
    StateLabel(1, 1, "-"),
)


def emit_figure_data(figure: str, molecule, nu_cm: float = 9174.0, j_max: int = 10) -> ResultTable:
    """Grid tables behind the standard plots.

    fig2: alpha_eff vs DC field, parallel (z) and perpendicular (x) panels.
    fig3: alpha_eff surface over (E_dc, theta) for the absolute ground state.
    fig4: alpha_eff vs theta at a ladder of DC fields, all four low states.
    """
    mol = molecule if isinstance(molecule, MoleculeSpec) else load_molecule(molecule)
    a_par, a_perp = alpha_lambda_at(mol, nu_cm)
    meta = {
        "figure": figure,
        "molecule": mol.name,
        "nu_cm": f"{nu_cm:.12g}",
        "alpha_par_au": f"{a_par:.12g}",
        "alpha_perp_au": f"{a_perp:.12g}",
        "j_max": str(j_max),
        "version": __version__,
    }
    names = [str(lb) for lb in _FIG_STATES]

    if figure == "fig2":
        table = ResultTable(
            columns=[
                Column("E_dc", "kV/cm"),
                Column("polarization", "1"),
                Column("state", "1"),
                Column("alpha_eff", "a.u."),
            ],
            meta=meta,
        )
        fields = np.linspace(0.0, 15.0, 61)
        panels = [
            (pol_name, np.array(_alpha_effs(mol, _FIG_STATES, fields, a_par, a_perp, pol, j_max)).T.tolist())
            for pol_name, pol in (("z", PolarizationVector.z()), ("x", PolarizationVector.x()))
        ]
        for i, e_dc in enumerate(fields.tolist()):
            for pol_name, alphas in panels:
                for name, a in zip(names, alphas[i]):
                    table.add_row(e_dc, pol_name, name, a)
        return table

    if figure == "fig3":
        table = ResultTable(
            columns=[
                Column("E_dc", "kV/cm"),
                Column("theta", "deg"),
                Column("alpha_eff", "a.u."),
            ],
            meta=meta,
        )
        fields = np.linspace(0.0, 6.0, 61)
        thetas = np.linspace(0.0, 90.0, 46)
        (alphas,) = _alpha_effs_theta(mol, _FIG_STATES[:1], fields, a_par, a_perp, thetas, j_max)
        for e_dc, row in zip(fields.tolist(), alphas.tolist()):
            for th, a in zip(thetas.tolist(), row):
                table.add_row(e_dc, th, a)
        return table

    if figure == "fig4":
        name = mol.name.lower()
        if name == "krb":
            fields = [0.6 * k for k in range(1, 11)]
        elif name == "rbcs":
            fields = [0.3 * k for k in range(1, 11)]
        else:
            base = mol.field_for_beta(0.15)
            fields = [base * k for k in range(1, 11)]
        table = ResultTable(
            columns=[
                Column("E_dc", "kV/cm"),
                Column("theta", "deg"),
                Column("state", "1"),
                Column("alpha_eff", "a.u."),
            ],
            meta=meta,
        )
        thetas = np.linspace(0.0, 90.0, 91)
        # axes (field, theta, state)
        alphas = np.stack(_alpha_effs_theta(mol, _FIG_STATES, fields, a_par, a_perp, thetas, j_max), axis=-1)
        for e_dc, per_theta in zip(fields, alphas.tolist()):
            for th, per_state in zip(thetas.tolist(), per_theta):
                for name, a in zip(names, per_state):
                    table.add_row(e_dc, th, name, a)
        return table

    raise ValueError(f"unknown figure {figure!r}; expected fig2, fig3 or fig4")


@dataclass(frozen=True)
class CrossingReport:
    state_a: StateLabel
    state_b: StateLabel
    molecule_name: str
    nu_cm: float
    polarization: str
    e_star_kv_cm: float
    beta_star: float
    bracket: tuple
    achieved_tol: float
    alpha_eff_at_root: float
    alpha_diff_at_root: float


def _root_brackets(vals) -> list:
    """Scan cells that hold a root, in scan order.

    ``(i, i)`` marks an exact zero on node i (the last node included);
    ``(i, i + 1)`` a strict sign change between neighbouring nodes. A zero
    node is never also the end of a sign-change cell, so it is reported once.
    """
    out = []
    for i, v in enumerate(vals):
        if v == 0.0:
            out.append((i, i))
        elif i + 1 < len(vals) and v * vals[i + 1] < 0.0:
            out.append((i, i + 1))
    return out


def find_magic_fields(
    molecule: MoleculeSpec,
    pair,
    polarization: PolarizationVector,
    e_range=(0.0, 15.0),
    nu_cm: float = 9174.0,
    j_max: int = 10,
    scan_points: int = _SCAN_POINTS,
) -> list:
    """All crossings of the pair's alpha_eff difference in the field range.

    The difference comes straight from the dressed moments: one batched
    ``stark.dressed_moments`` call per |M| block covers every scan node at
    beta = d E / B, and Brent refinement of each bracketed sign change, to
    a relative field tolerance well below 1e-8, evaluates the same kernel
    one field at a time. Raises NoCrossingError when the difference keeps
    one sign, DegenerateDifferenceError when it is identically ~0 over most
    of the range (e.g. magic-angle polarization).
    """
    state_a, state_b = pair
    lo, hi = float(e_range[0]), float(e_range[1])
    if not lo < hi:
        raise ValueError("need e_range[0] < e_range[1]")
    if lo < 0:
        raise ValueError("fields must be >= 0")
    if scan_points < 2:
        raise ValueError(f"need scan_points >= 2, got {scan_points}")
    a_par, a_perp = alpha_lambda_at(molecule, nu_cm)
    abar = (a_par + 2.0 * a_perp) / 3.0

    def alphas(e_dc):
        return _alpha_effs(molecule, pair, e_dc, a_par, a_perp, polarization, j_max)

    def diff(e_dc):
        a, b = alphas(e_dc)
        return a - b

    grid = np.linspace(lo, hi, scan_points)
    vals = diff(grid)

    near_zero = np.abs(vals) < _DEGENERATE_RTOL * abs(abar)
    if np.count_nonzero(near_zero) > 0.5 * scan_points:
        raise DegenerateDifferenceError(
            f"alpha_eff({state_a}) - alpha_eff({state_b}) is identically ~0 "
            f"over [{lo:.6g}, {hi:.6g}] kV/cm (within {_DEGENERATE_RTOL:g} of "
            f"abar = {abar:.6g} a.u. at {np.count_nonzero(near_zero)}/{scan_points} "
            "scan points); no isolated crossing exists"
        )

    reports = []
    # a node within the noise of zero is a root there, as at a tangent zero
    for i, j in _root_brackets(np.where(near_zero, 0.0, vals)):
        a, b = float(grid[i]), float(grid[j])
        if i == j:
            root, tol = a, 0.0
        else:
            from scipy.optimize import brentq   # imported here: slow to load, and only refinement needs it

            root, info = brentq(lambda e: float(diff(e)), a, b, xtol=1e-15, rtol=1e-12,
                                full_output=True, disp=False)
            if not info.converged:
                raise RefinementError(f"refinement of the crossing in [{a:.6g}, {b:.6g}] kV/cm did not "
                                      f"converge in {info.iterations} steps; narrow the range")
            tol = 1e-12 * abs(root) + 1e-15
        alpha_a, alpha_b = alphas(root)
        reports.append(
            CrossingReport(
                state_a=state_a,
                state_b=state_b,
                molecule_name=molecule.name,
                nu_cm=nu_cm,
                polarization=str(polarization),
                e_star_kv_cm=float(root),
                beta_star=molecule.beta(float(root)),
                bracket=(a, b),
                achieved_tol=tol,
                alpha_eff_at_root=float(alpha_a),
                alpha_diff_at_root=float(alpha_a - alpha_b),
            )
        )
    if not reports:
        raise NoCrossingError(
            f"no crossing of alpha_eff({state_a}) and alpha_eff({state_b}) in "
            f"[{lo:.6g}, {hi:.6g}] kV/cm; difference spans "
            f"[{vals.min():.6g}, {vals.max():.6g}] a.u."
        )
    return reports


def find_magic_field(
    molecule: MoleculeSpec,
    pair,
    polarization: PolarizationVector,
    e_range=(0.0, 15.0),
    nu_cm: float = 9174.0,
    j_max: int = 10,
    scan_points: int = _SCAN_POINTS,
) -> CrossingReport:
    """First (lowest-field) crossing in the range."""
    return find_magic_fields(molecule, pair, polarization, e_range, nu_cm, j_max, scan_points)[0]


@dataclass(frozen=True)
class PolarizationInvarianceReport:
    pair: tuple
    molecule_name: str
    entries: tuple       # (polarization text, E* or None, degenerate flag)
    max_rel_spread: float


def magic_field_polarization_invariance(
    molecule: MoleculeSpec,
    pair,
    e_range=(0.0, 15.0),
    nu_cm: float = 9174.0,
    j_max: int = 10,
    thetas_deg=(15.0, 30.0, MAGIC_ANGLE_DEG, 75.0),
) -> PolarizationInvarianceReport:
    """E* of an M=0 pair across z, x and a grid of linear polarizations.

    The magic-angle polarization is deliberately in the default grid: there
    the difference vanishes identically and the entry is flagged degenerate
    instead of reporting a spurious root.
    """
    state_a, state_b = pair
    if state_a.m != 0 or state_b.m != 0:
        raise ValueError("polarization invariance holds for M = 0 pairs only")
    pols = [("z", PolarizationVector.z()), ("x", PolarizationVector.x())]
    pols += [(f"theta:{t:.10g}", PolarizationVector.linear_deg(t)) for t in thetas_deg]
    entries = []
    found = []
    for text, pol in pols:
        try:
            rep = find_magic_field(molecule, pair, pol, e_range, nu_cm, j_max)
        except DegenerateDifferenceError:
            entries.append((text, None, True))
            continue
        entries.append((text, rep.e_star_kv_cm, False))
        found.append(rep.e_star_kv_cm)
    if len(found) >= 2:
        spread = (max(found) - min(found)) / (0.5 * (max(found) + min(found)))
    else:
        spread = 0.0
    return PolarizationInvarianceReport(
        pair=tuple(pair),
        molecule_name=molecule.name,
        entries=tuple(entries),
        max_rel_spread=spread,
    )


@dataclass(frozen=True)
class MagicAngleReport:
    molecule_name: str
    pair: tuple
    nu_cm: float
    theta0_deg: float
    cos2_theta0: float
    abar_au: float
    spread_au: float           # spread of alpha_eff(theta0) over states x fields
    crossings: tuple           # (E_dc, crossing angle in deg or None) per grid field
    no_common_angle: bool
    degenerate: bool           # alpha_par == alpha_perp: every angle is magic


def magic_angle(
    pair,
    molecule: MoleculeSpec,
    e_grid_kv_cm=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    nu_cm: float = 9174.0,
    j_max: int = 10,
) -> MagicAngleReport:
    """theta0 = arccos(1/sqrt(3)) plus numerical evidence across the fields.

    For every field in the grid the crossing angle of the pair's alpha_eff
    curves is located; M = 0 pairs share theta0 exactly, pairs containing an
    |M| > 0 branch do not share any angle and are flagged.
    """
    a_par, a_perp = alpha_lambda_at(molecule, nu_cm)
    abar = (a_par + 2.0 * a_perp) / 3.0
    da = a_par - a_perp
    if abs(da) <= 1e-14 * max(abs(a_par), abs(a_perp)):
        return MagicAngleReport(
            molecule_name=molecule.name, pair=tuple(pair), nu_cm=nu_cm,
            theta0_deg=MAGIC_ANGLE_DEG, cos2_theta0=1.0 / 3.0, abar_au=abar,
            spread_au=0.0, crossings=tuple((float(e), None) for e in e_grid_kv_cm),
            no_common_angle=False, degenerate=True,
        )
    fields = np.asarray(e_grid_kv_cm, dtype=float)
    a_x = _alpha_effs(molecule, pair, fields, a_par, a_perp, PolarizationVector.x(), j_max)
    a_z = _alpha_effs(molecule, pair, fields, a_par, a_perp, PolarizationVector.z(), j_max)
    s0, c0 = math.sin(math.radians(MAGIC_ANGLE_DEG)), math.cos(math.radians(MAGIC_ANGLE_DEG))
    at_theta0 = [ax * s0 * s0 + az * c0 * c0 for ax, az in zip(a_x, a_z)]
    # difference(theta) = d_zz cos^2 + d_xx sin^2; a root needs opposite signs
    d_zz = (a_z[0] - a_z[1]).tolist()
    d_xx = (a_x[0] - a_x[1]).tolist()
    tiny = 1e-12 * max(abs(abar), 1e-300)
    crossings = []
    missing = 0
    for e_dc, dz, dx in zip(fields.tolist(), d_zz, d_xx):
        # below tiny a difference is rounding noise around an exact zero (e.g.
        # d_xx of the p_z / p_y pair at E = 0): the crossing sits on the axis
        dz, dx = (0.0 if abs(d) < tiny else d for d in (dz, dx))
        if dz == dx == 0.0:
            # equal at every angle at this field; uninformative for commonality
            crossings.append((e_dc, None))
        elif dz * dx > 0.0:
            crossings.append((e_dc, None))
            missing += 1
        else:
            cos2 = dx / (dx - dz)
            crossings.append((e_dc, math.degrees(math.acos(math.sqrt(cos2)))))
    angles = [c[1] for c in crossings if c[1] is not None]
    spread_deg = (max(angles) - min(angles)) if len(angles) >= 2 else 0.0
    no_common = missing > 0 or spread_deg > 1e-6
    # as for the crossings, a spread below tiny is rounding noise around 0
    spread_au = float(np.max(at_theta0) - np.min(at_theta0))
    return MagicAngleReport(
        molecule_name=molecule.name,
        pair=tuple(pair),
        nu_cm=nu_cm,
        theta0_deg=MAGIC_ANGLE_DEG,
        cos2_theta0=1.0 / 3.0,
        abar_au=abar,
        spread_au=0.0 if spread_au < tiny else spread_au,
        crossings=tuple(crossings),
        no_common_angle=no_common,
        degenerate=False,
    )
