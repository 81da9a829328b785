"""Parameter sweeps, figure tables and root finding for magic trapping conditions.

A magic field for a state pair is the DC field at which their effective
polarizabilities coincide; a magic angle is the linear-polarization angle
doing the same job at every field.

One kernel feeds every table here. ``_alpha_effs`` makes a single
``stark.dressed_moments`` call per |M| block for a whole field grid (beta =
d E / B), and ``alpha_eff_from_moments`` turns the dressed <C_20>, the one
moment a state needs (``stark`` derives the |M| = 1 coherence from it), into
alpha_eff under every polarization asked for; no per-field solve and no
tensor is built. Sweeps, the figure tables, the magic angle and the
magic-field search all read it.

Angles need no extra kernel call. For linear light cos(theta) z + sin(theta) x
the closed-form tensor has no xz element and the branch split is linear in
sin^2 theta, so

    alpha_eff(theta) = alpha_x sin^2(theta) + alpha_z cos^2(theta)

with alpha_x and alpha_z the values under x and z light: a theta grid is an
outer product of one kernel result under both. Theta grids, fig2's z and x
panels and the magic angle share one diagonalization per |M| block.

Magic fields come from one batched scan of the same kernel; sign changes
between nodes are refined by Brent's method on it, and a node where the
difference is zero to within 1e-10 abar is itself a root. A search evaluates
each field at most once: Brent's ends are scan nodes and its root is a point
it has already evaluated, so only its interior steps call the kernel again,
one field per call and one diagonalization per |M| block, the field a float
throughout. A difference that is ~0 on most nodes is degenerate instead.
For a pair with no |M| = 1 state the light alone can prove that (the magic
angle, an isotropic molecule; see ``_identically_zero``), and the search
then raises the scan's error after evaluating its first node alone.
``_brent`` ports SciPy's ``brentq`` with bitwise the same roots and step
counts, so the package needs numpy alone at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__, stark
from .polarizability import PolarizationVector, _require_branch, alpha_eff_from_moments, stark_shift
from .stark import StateLabel
from .tableio import Column, ResultTable
from .units import MoleculeSpec, alpha_lambda_at, load_molecule

__all__ = [
    "SweepGrid",
    "CrossingReport",
    "MagicAngleReport",
    "NoCrossingError",
    "DegenerateDifferenceError",
    "RefinementError",
    "sweep",
    "emit_figure_data",
    "find_magic_field",
    "find_magic_fields",
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


_VARIABLES = {"E_dc": "kV/cm", "theta": "deg", "nu": "cm^-1"}   # sweep variable -> unit


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
        # in the words of the CLI's --range, so no grid reaches numpy as inf or nan
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"range bounds must be finite, got {self.start:g}:{self.stop:g}")
        if not self.start < self.stop:
            raise ValueError("need start < stop")
        if float(self.stop) - float(self.start) == math.inf:
            raise ValueError(f"range width overflows, got {self.start:g}:{self.stop:g}")
        if self.steps < 2:
            raise ValueError("need steps >= 2")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def _check_beta(molecule, e_max):
    """Refuse a field grid whose largest field has an infinite beta = d E / B, before numpy warns."""
    if math.isinf(molecule.beta(float(e_max))):
        raise ValueError(f"beta = d E / B overflows at E_dc = {e_max:g} kV/cm")


def _alpha_effs(molecule, labels, e_dc, alpha_par, alpha_perp, polarizations, j_max):
    """alpha_eff of each label at the fields ``e_dc`` (kV/cm, any shape), per polarization.

    One ``stark.dressed_moments`` call per |M| block covers the whole grid
    and every polarization; the result holds one list of per-label arrays for
    each. ``alpha_par`` and ``alpha_perp`` may be arrays that broadcast against it.
    Labels are checked before any diagonalization: J_tilde against ``j_max``
    first, then that every |M| > 0 label names a branch.
    """
    for lb in labels:
        if lb.j_tilde > j_max:
            raise ValueError(f"J_tilde = {lb.j_tilde} outside block |M| = {abs(lb.m)}, J_max = {j_max}")
    for lb in labels:
        _require_branch(lb)
    # one field stays a float down to stark._eigh: no 0-d arrays on a Brent step
    betas = molecule.beta(float(e_dc) if np.ndim(e_dc) == 0 else np.asarray(e_dc, dtype=float))
    c20_blocks = {m: stark.dressed_moments(m, betas, j_max)[1] for m in {abs(lb.m) for lb in labels}}
    c20s = [c20_blocks[abs(lb.m)][..., lb.j_tilde - abs(lb.m)] for lb in labels]
    return [[alpha_eff_from_moments(lb, c20, alpha_par, alpha_perp, pol) for lb, c20 in zip(labels, c20s)]
            for pol in polarizations]


# built once: each caches the factors alpha_eff_from_moments reads of it
_X, _Z = PolarizationVector.x(), PolarizationVector.z()
_X_AND_Z = (_X, _Z)


def _alpha_effs_theta(molecule, labels, e_dc, alpha_par, alpha_perp, theta_deg, j_max):
    """alpha_eff of each label over fields x linear-polarization angles.

    Each entry has shape ``np.shape(e_dc) + (len(theta_deg),)``: the outer
    product alpha_x sin^2 + alpha_z cos^2 of the x-light and z-light values.
    """
    rad = np.radians(np.asarray(theta_deg, dtype=float))
    s, c = np.sin(rad), np.cos(rad)
    a_x, a_z = _alpha_effs(molecule, labels, e_dc, alpha_par, alpha_perp, _X_AND_Z, j_max)
    return [ax[..., None] * s * s + az[..., None] * c * c for ax, az in zip(a_x, a_z)]


def sweep(grid: SweepGrid, states, intensity_w_cm2: float = 1.0) -> ResultTable:
    """Per-state alpha_eff and AC shift along the grid, one row per point."""
    labels = list(states)
    mol, x = grid.molecule, grid.values
    _check_beta(mol, grid.stop if grid.variable == "E_dc" else grid.e_dc_kv_cm)
    meta = dict(molecule=mol.name, variable=grid.variable, intensity_w_cm2=f"{intensity_w_cm2:.12g}",
                j_max=str(grid.j_max))
    pol = grid.polarization or _Z
    if grid.variable == "theta":
        a_par, a_perp = alpha_lambda_at(mol, grid.nu_cm)
        alphas = _alpha_effs_theta(mol, labels, grid.e_dc_kv_cm, a_par, a_perp, x, grid.j_max)
        meta.update(E_dc_kv_cm=f"{grid.e_dc_kv_cm:.12g}", nu_cm=f"{grid.nu_cm:.12g}")
    elif grid.variable == "E_dc":
        a_par, a_perp = alpha_lambda_at(mol, grid.nu_cm)
        (alphas,) = _alpha_effs(mol, labels, x, a_par, a_perp, (pol,), grid.j_max)
        meta.update(nu_cm=f"{grid.nu_cm:.12g}", polarization=str(pol))
    else:
        # nu sweep: the dressing is nu-independent, only the alpha table moves
        a_par, a_perp = alpha_lambda_at(mol, x)
        (alphas,) = _alpha_effs(mol, labels, grid.e_dc_kv_cm, a_par, a_perp, (pol,), grid.j_max)
        meta.update(E_dc_kv_cm=f"{grid.e_dc_kv_cm:.12g}", polarization=str(pol))

    columns = [Column(grid.variable, _VARIABLES[grid.variable], x)]
    for lb, a in zip(labels, alphas):
        columns.append(Column(f"alpha_eff({lb})", "a.u.", a))
        columns.append(Column(f"dE({lb})", "MHz", stark_shift(a, intensity_w_cm2)))
    return ResultTable(columns, meta)


_FIG_STATES = (
    StateLabel(0, 0),
    StateLabel(1, 0),
    StateLabel(1, 1, "+"),
    StateLabel(1, 1, "-"),
)


def _long_table(axes, values, meta) -> ResultTable:
    """Long-format table of alpha_eff ``values`` over a grid, last axis fastest.

    ``axes`` holds one (name, unit, coordinates) triple per axis of ``values``.
    """
    index = np.indices([len(coords) for _, _, coords in axes]).reshape(len(axes), -1)
    columns = [Column(name, unit, coords, i) for (name, unit, coords), i in zip(axes, index)]
    return ResultTable(columns + [Column("alpha_eff", "a.u.", np.ravel(values))], meta)


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
    states = ("state", "1", [str(lb) for lb in _FIG_STATES])

    if figure == "fig2":
        fields = np.linspace(0.0, 15.0, 61)
        pols = {"z": _Z, "x": _X}
        # axes (polarization, state, field), laid out as (field, polarization, state)
        alphas = np.array(_alpha_effs(mol, _FIG_STATES, fields, a_par, a_perp, pols.values(), j_max))
        axes = [("E_dc", "kV/cm", fields), ("polarization", "1", list(pols)), states]
        return _long_table(axes, alphas.transpose(2, 0, 1), meta)

    if figure == "fig3":
        fields = np.linspace(0.0, 6.0, 61)
        thetas = np.linspace(0.0, 90.0, 46)
        (alphas,) = _alpha_effs_theta(mol, _FIG_STATES[:1], fields, a_par, a_perp, thetas, j_max)
        return _long_table([("E_dc", "kV/cm", fields), ("theta", "deg", thetas)], alphas, meta)

    if figure == "fig4":
        step = {"krb": 0.6, "rbcs": 0.3}.get(mol.name.lower()) or mol.field_for_beta(0.15)
        fields = step * np.arange(1, 11)
        thetas = np.linspace(0.0, 90.0, 91)
        # axes (field, theta, state)
        alphas = np.stack(_alpha_effs_theta(mol, _FIG_STATES, fields, a_par, a_perp, thetas, j_max), axis=-1)
        return _long_table([("E_dc", "kV/cm", fields), ("theta", "deg", thetas), states], alphas, meta)

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


def _identically_zero(pair, polarization, alpha_par, alpha_perp) -> bool:
    """Whether the light alone proves the pair's difference ~0 at every field.

    With no |M| = 1 label there is no coherence term, and the difference is
    da (2 w_z - w_perp)/3 (<C_20>_a - <C_20>_b). <C_20> lies in [-1/2, 1], so
    its size is at most |da (2 w_z - w_perp)|/2: zero at the magic angle (w_z =
    1/3) and for an isotropic molecule (da = 0). The allowance bounds the
    rounding of ``alpha_eff_from_moments``: each alpha_eff is a few ulps of
    2 (|abar| + |da|) off, far below 1e-12 of it, and 1e-300 covers subnormal
    results. Below 1e-10 abar, as the scan counts it, every scan node is ~0.
    Python floats throughout, so an overflow gives inf (no shortcut) and no warning.
    """
    if any(abs(lb.m) == 1 for lb in pair):
        return False
    w_perp, w_z = (float(w) for w in polarization._factors[:2])
    abar = (alpha_par + 2.0 * alpha_perp) / 3.0
    da = alpha_par - alpha_perp
    bound = 0.5 * abs(da * (2.0 * w_z - w_perp)) + 1e-12 * 2.0 * (abs(abar) + abs(da)) + 1e-300
    return bound < _DEGENERATE_RTOL * abs(abar)


def _root_brackets(vals) -> list:
    """Scan cells that hold a root, in scan order.

    ``(i, i)`` marks an exact zero on node i (the last node included);
    ``(i, i + 1)`` a strict sign change between neighbouring nodes. A zero
    node is never also the end of a sign-change cell, so it is reported once.
    """
    vals = np.asarray(vals, dtype=float)
    zero = vals == 0.0
    change = np.zeros_like(zero)
    change[:-1] = ~zero[:-1] & (vals[:-1] * vals[1:] < 0.0)
    return [(i, i) if zero[i] else (i, i + 1) for i in np.flatnonzero(zero | change).tolist()]


def _div(n, d):
    """``n / d`` as C divides: a zero divisor gives +-inf or nan, not an exception."""
    return n / d if d else n * math.copysign(math.inf, d)


def _brent(f, a, b, xtol, rtol, maxiter=100):
    """Root of ``f`` in [a, b] by Brent's method: (root, converged, iterations).

    A line-for-line port of SciPy's ``brentq`` (``Zeros/brentq.c``): the same
    float operations in the same order and the same sign-bit tests, so root,
    iteration count and evaluation count are bitwise SciPy's. As there, ends
    of one sign or a nan value (SciPy's nan guard) raise ValueError. An end
    point that is already a root returns after 0 iterations; SciPy leaves its
    count unset on that path.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    # numpy-float tolerances would turn the iterate into a numpy scalar, whose
    # 0 * inf in _div warns where brentq's C doubles are silent
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre, True, 0
    if fcur == 0:
        return xcur, True, 0
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for i in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True, i

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    return xcur, False, maxiter


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
    at one new field per step. No field is evaluated twice in a search:
    Brent's ends and the alpha_eff values reported at the root come from the
    scan or from Brent's own steps. Raises NoCrossingError when the
    difference keeps one sign, DegenerateDifferenceError when it is
    identically ~0 over most of the range (e.g. magic-angle polarization).
    A pair that the light provably cannot tell apart (``_identically_zero``)
    gets that error with every node counted after one evaluation at the
    first node, which raises any ValueError the scan would raise first.
    """
    state_a, state_b = pair
    lo, hi = float(e_range[0]), float(e_range[1])
    if not lo < hi:
        raise ValueError("need e_range[0] < e_range[1]")
    if lo < 0 or hi == math.inf:
        raise ValueError(f"e_range must lie in [0, inf), got {lo:g}:{hi:g}")
    if scan_points < 2:
        raise ValueError(f"need scan_points >= 2, got {scan_points}")
    _check_beta(molecule, hi)
    a_par, a_perp = alpha_lambda_at(molecule, nu_cm)
    abar = (a_par + 2.0 * a_perp) / 3.0

    def degenerate(count):
        return DegenerateDifferenceError(
            f"alpha_eff({state_a}) - alpha_eff({state_b}) is identically ~0 "
            f"over [{lo:.6g}, {hi:.6g}] kV/cm (within {_DEGENERATE_RTOL:g} of "
            f"abar = {abar:.6g} a.u. at {count}/{scan_points} "
            "scan points); no isolated crossing exists"
        )

    def kernel(e_dc):
        return _alpha_effs(molecule, pair, e_dc, a_par, a_perp, (polarization,), j_max)[0]

    if _identically_zero(pair, polarization, a_par, a_perp):
        kernel(lo)   # the scan's label, basis and branch errors, in its order, at its first node
        raise degenerate(scan_points)

    grid = np.linspace(lo, hi, scan_points)
    scan_a, scan_b = kernel(grid)
    vals = scan_a - scan_b
    # every field is evaluated once per search: a node evaluated alone gives
    # bitwise its scan value, so Brent's ends and the closing report read the
    # scan, and Brent's root is always a point it has already evaluated
    seen = dict(zip(grid.tolist(), zip(scan_a.tolist(), scan_b.tolist())))

    def alphas(e_dc):
        if e_dc not in seen:
            a, b = kernel(e_dc)
            seen[e_dc] = (float(a), float(b))
        return seen[e_dc]

    def diff(e_dc):
        a, b = alphas(e_dc)
        return a - b

    near_zero = np.abs(vals) < _DEGENERATE_RTOL * abs(abar)
    if np.count_nonzero(near_zero) > 0.5 * scan_points:
        raise degenerate(np.count_nonzero(near_zero))

    reports = []
    # a node within the noise of zero is a root there, as at a tangent zero
    for i, j in _root_brackets(np.where(near_zero, 0.0, vals)):
        a, b = float(grid[i]), float(grid[j])
        if i == j:
            root, tol = a, 0.0
        else:
            root, converged, iterations = _brent(diff, a, b, xtol=1e-15, rtol=1e-12)
            if not converged:
                raise RefinementError(f"refinement of the crossing in [{a:.6g}, {b:.6g}] kV/cm did not "
                                      f"converge in {iterations} steps; narrow the range")
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
                alpha_eff_at_root=alpha_a,
                alpha_diff_at_root=alpha_a - alpha_b,
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
    """The pair's family angle theta0 plus numerical evidence across the fields.

    At theta0 the <C_20> coefficient of alpha_eff(theta) vanishes, so every
    state of the family has the same alpha_eff at every field: cos^2 theta0 =
    1/3 for M = 0 and |M| >= 2, 1/5 and 3/7 for the |M| = 1 ``+`` and ``-``
    branches. A pair from two families is flagged and reported at 1/3. The
    crossing angle of the pair's curves is located at every grid field; the two
    branches of one |M| = 1 state meet only at theta = 0, which is no crossing.
    """
    # the coefficient is da (3 cos^2 - 1)/3, plus +-da sin^2/6 through t = (<C_20> - 1)/sqrt(6)
    # for an |M| = 1 branch (a branchless one is refused by _alpha_effs)
    families = {{"+": (1, 5), "-": (3, 7)}.get(lb.branch, (1, 3)) if abs(lb.m) == 1 else (1, 3) for lb in pair}
    num, den = families.pop() if len(families) == 1 else (1, 3)
    theta0 = math.degrees(math.acos(1.0 / math.sqrt(den / num)))   # MAGIC_ANGLE_DEG for 1/3
    a_par, a_perp = alpha_lambda_at(molecule, nu_cm)
    abar = (a_par + 2.0 * a_perp) / 3.0
    fields = np.asarray(e_grid_kv_cm, dtype=float)
    _check_beta(molecule, np.max(fields, initial=0.0))
    a_x, a_z = _alpha_effs(molecule, pair, fields, a_par, a_perp, _X_AND_Z, j_max)
    s0, c0 = math.sin(math.radians(theta0)), math.cos(math.radians(theta0))
    at_theta0 = [ax * s0 * s0 + az * c0 * c0 for ax, az in zip(a_x, a_z)]
    # difference(theta) = d_zz cos^2 + d_xx sin^2; a root needs opposite signs
    d_zz = (a_z[0] - a_z[1]).tolist()
    d_xx = (a_x[0] - a_x[1]).tolist()
    tiny = 1e-12 * max(abs(abar), 1e-300)
    # z light (theta = 0) cannot split the two branches of one state: their meeting there is no crossing
    branches_of_one_state = pair[0].m != 0 and len({(lb.j_tilde, abs(lb.m)) for lb in pair}) == 1
    crossings = []
    missing = 0
    for e_dc, dz, dx in zip(fields.tolist(), d_zz, d_xx):
        # below tiny a difference is rounding noise around an exact zero (e.g.
        # d_xx of the p_z / p_y pair at E = 0): the crossing sits on the axis
        dz, dx = (0.0 if abs(d) < tiny else d for d in (dz, dx))
        if dz == dx == 0.0:
            # equal at every angle at this field; uninformative for commonality
            crossings.append((e_dc, None))
        elif dz * dx > 0.0 or (branches_of_one_state and dz == 0.0):
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
        theta0_deg=theta0,
        cos2_theta0=num / den,
        abar_au=abar,
        spread_au=0.0 if spread_au < tiny else spread_au,
        crossings=tuple(crossings),
        no_common_angle=no_common,
        degenerate=abs(a_par - a_perp) <= 1e-14 * max(abs(a_par), abs(a_perp)),
    )
