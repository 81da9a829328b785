"""Parameter sweeps and root finding for magic trapping conditions.

A magic field for a state pair is the DC field at which their effective
polarizabilities coincide; a magic angle is the linear-polarization angle
doing the same job at every field.

Magic fields come from one batched scan in beta = d E / B: a single
``stark.dressed_moments`` call per |M| block gives the dressed <C_20> and
<C_2,+2> moments at every scan node, and ``alpha_eff_from_moments`` turns
them into the pair's alpha_eff difference. Sign changes between nodes are
refined by Brent's method on that same kernel, one field at a time; a node
where the difference is exactly zero is itself a root. A difference that is
~0 on most nodes (the magic angle) is reported as degenerate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stark
from .polarizability import (
    MAGIC_ANGLE_DEG,
    PolarizationVector,
    alpha_eff,
    alpha_eff_from_moments,
    alpha_tensor_closed_form,
    stark_shift,
)
from .stark import StateLabel
from .tableio import Column, ResultTable
from .units import MoleculeSpec, alpha_lambda_at

__all__ = [
    "SweepGrid",
    "CrossingReport",
    "PolarizationInvarianceReport",
    "MagicAngleReport",
    "NoCrossingError",
    "DegenerateDifferenceError",
    "sweep",
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


def _systems_for(molecule, e_dc, labels, j_max):
    return {
        m_abs: stark.solve(molecule, e_dc, m_abs, j_max)
        for m_abs in sorted({abs(lb.m) for lb in labels})
    }


def _tensors_for(molecule, e_dc, labels, j_max, a_par, a_perp, polarization=None):
    systems = _systems_for(molecule, e_dc, labels, j_max)
    return [
        alpha_tensor_closed_form(systems[abs(lb.m)], lb, a_par, a_perp, polarization)
        for lb in labels
    ]


def sweep(grid: SweepGrid, states, intensity_w_cm2: float = 1.0) -> ResultTable:
    """Per-state alpha_eff and AC shift along the grid, one row per point."""
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

    pol = grid.polarization or PolarizationVector.z()
    if grid.variable == "theta":
        a_par, a_perp = alpha_lambda_at(grid.molecule, grid.nu_cm)
        tensors = _tensors_for(grid.molecule, grid.e_dc_kv_cm, labels, grid.j_max, a_par, a_perp)
        table.meta.update(E_dc_kv_cm=f"{grid.e_dc_kv_cm:.12g}", nu_cm=f"{grid.nu_cm:.12g}")
        for theta in grid.values:
            p = PolarizationVector.linear_deg(theta)
            row = [theta]
            for tens in tensors:
                shift = stark_shift(tens, p, intensity_w_cm2)
                row += [shift.alpha_eff_au, shift.delta_e_mhz]
            table.add_row(*row)
        return table

    if grid.variable == "E_dc":
        a_par, a_perp = alpha_lambda_at(grid.molecule, grid.nu_cm)
        table.meta.update(nu_cm=f"{grid.nu_cm:.12g}", polarization=str(pol))
        for e_dc in grid.values:
            tensors = _tensors_for(grid.molecule, e_dc, labels, grid.j_max, a_par, a_perp, pol)
            row = [e_dc]
            for tens in tensors:
                shift = stark_shift(tens, pol, intensity_w_cm2)
                row += [shift.alpha_eff_au, shift.delta_e_mhz]
            table.add_row(*row)
        return table

    # nu sweep: dressing is nu-independent, only the alpha table moves
    systems = _systems_for(grid.molecule, grid.e_dc_kv_cm, labels, grid.j_max)
    table.meta.update(E_dc_kv_cm=f"{grid.e_dc_kv_cm:.12g}", polarization=str(pol))
    for nu in grid.values:
        a_par, a_perp = alpha_lambda_at(grid.molecule, nu)
        row = [nu]
        for lb in labels:
            tens = alpha_tensor_closed_form(systems[abs(lb.m)], lb, a_par, a_perp, pol)
            shift = stark_shift(tens, pol, intensity_w_cm2)
            row += [shift.alpha_eff_au, shift.delta_e_mhz]
        table.add_row(*row)
    return table


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
    for lb in pair:
        if lb.j_tilde > j_max:
            raise ValueError(f"J_tilde = {lb.j_tilde} outside block |M| = {abs(lb.m)}, J_max = {j_max}")
    a_par, a_perp = alpha_lambda_at(molecule, nu_cm)
    abar = (a_par + 2.0 * a_perp) / 3.0

    def alphas(e_dc):
        betas = molecule.beta(np.asarray(e_dc, dtype=float))
        moments = {m: stark.dressed_moments(m, betas, j_max) for m in {abs(state_a.m), abs(state_b.m)}}
        out = []
        for lb in pair:
            _, c20, c22 = moments[abs(lb.m)]
            k = lb.j_tilde - abs(lb.m)
            out.append(alpha_eff_from_moments(lb, c20[..., k], c22[..., k], a_par, a_perp, polarization))
        return out

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
    for i, j in _root_brackets(vals):
        a, b = float(grid[i]), float(grid[j])
        if i == j:
            root, tol = a, 0.0
        else:
            from scipy.optimize import brentq   # imported here: slow to load, and only refinement needs it

            root = brentq(lambda e: float(diff(e)), a, b, xtol=1e-15, rtol=1e-12)
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
    pol0 = PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)
    tiny = 1e-12 * max(abs(abar), 1e-300)
    at_theta0 = []
    crossings = []
    missing = 0
    for e_dc in e_grid_kv_cm:
        tensors = _tensors_for(molecule, float(e_dc), pair, j_max, a_par, a_perp)
        at_theta0.extend(alpha_eff(t, pol0) for t in tensors)
        d_zz = tensors[0].zz - tensors[1].zz
        d_xx = tensors[0].xx - tensors[1].xx
        # difference(theta) = d_zz cos^2 + d_xx sin^2; a root needs opposite signs
        if abs(d_zz) < tiny and abs(d_xx) < tiny:
            # equal at every angle at this field; uninformative for commonality
            crossings.append((float(e_dc), None))
        elif d_zz * d_xx > 0.0:
            crossings.append((float(e_dc), None))
            missing += 1
        else:
            cos2 = d_xx / (d_xx - d_zz)
            crossings.append((float(e_dc), math.degrees(math.acos(math.sqrt(cos2)))))
    angles = [c[1] for c in crossings if c[1] is not None]
    spread_deg = (max(angles) - min(angles)) if len(angles) >= 2 else 0.0
    no_common = missing > 0 or spread_deg > 1e-6
    return MagicAngleReport(
        molecule_name=molecule.name,
        pair=tuple(pair),
        nu_cm=nu_cm,
        theta0_deg=MAGIC_ANGLE_DEG,
        cos2_theta0=1.0 / 3.0,
        abar_au=abar,
        spread_au=float(max(at_theta0) - min(at_theta0)),
        crossings=tuple(crossings),
        no_common_angle=no_common,
        degenerate=False,
    )
