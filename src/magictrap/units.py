"""Unit conversions and the molecule parameter registry.

Internal unit system, used by every other module: energies in MHz, DC fields
in kV/cm, dipole moments in Debye, polarizabilities in atomic units. All
conversion constants are defined once here, from CODATA-2018 exact values.
Molecules are ``MoleculeSpec`` records, loaded from a bundled name or a
file; ``alpha_lambda_at`` interpolates their alpha_par / alpha_perp table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "MoleculeSpec",
    "MoleculeFileError",
    "load_molecule",
    "alpha_lambda_at",
    "DEBYE_KVCM_TO_MHZ",
    "AU_POL_TO_MHZ_PER_W_CM2",
    "CM1_TO_MHZ",
]

# CODATA 2018 (h, c, e exact by SI definition)
H_PLANCK = 6.62607015e-34        # J s
C_LIGHT = 299792458.0            # m / s
E_CHARGE = 1.602176634e-19       # C
BOHR_RADIUS = 5.29177210903e-11  # m
HARTREE = 4.3597447222071e-18    # J
EPSILON_0 = 8.8541878128e-12     # F / m

DEBYE_SI = 1e-21 / C_LIGHT                                # C m
AU_POL_SI = E_CHARGE ** 2 * BOHR_RADIUS ** 2 / HARTREE    # C^2 m^2 / J

CM1_TO_MHZ = C_LIGHT * 100.0 / 1e6          # 29979.2458

# d * E / h for 1 Debye in a 1 kV/cm field, in MHz (~503.41)
DEBYE_KVCM_TO_MHZ = DEBYE_SI * 1e5 / H_PLANCK / 1e6

# AC shift per intensity for 1 a.u. of polarizability:
# Delta E = -alpha I / (2 eps0 c), expressed in MHz per W/cm^2 (~4.687e-8)
AU_POL_TO_MHZ_PER_W_CM2 = AU_POL_SI / (2 * EPSILON_0 * C_LIGHT * H_PLANCK) * 1e4 / 1e6


class MoleculeFileError(ValueError):
    """Molecule spec file failed to parse or violates an invariant."""


@dataclass(frozen=True)
class MoleculeSpec:
    """Per-molecule constants: B, d00, and tabulated alpha_par / alpha_perp(nu).

    Immutable after construction; shared freely across threads.
    """

    name: str
    b_mhz: float
    d00_debye: float
    nu_grid: tuple          # cm^-1, strictly increasing
    alpha_par: tuple        # a.u., same grid
    alpha_perp: tuple       # a.u., same grid

    def __post_init__(self):
        # B_GHz * 1e3 may overflow, so b_mhz is checked for finiteness too
        if not (math.isfinite(self.b_mhz) and self.b_mhz > 0):
            raise MoleculeFileError(f"B_GHz must be finite and > 0 (molecule {self.name!r})")
        if not (math.isfinite(self.d00_debye) and self.d00_debye >= 0):
            raise MoleculeFileError(f"d00_debye must be finite and >= 0 (molecule {self.name!r})")
        if len(self.nu_grid) < 2:
            raise MoleculeFileError(f"alpha table needs at least 2 rows (molecule {self.name!r})")
        if not (len(self.nu_grid) == len(self.alpha_par) == len(self.alpha_perp)):
            raise MoleculeFileError(f"alpha table columns have unequal lengths (molecule {self.name!r})")
        if not np.all(np.isfinite([self.nu_grid, self.alpha_par, self.alpha_perp])):
            raise MoleculeFileError(f"alpha table values must be finite (molecule {self.name!r})")
        diffs = np.diff(self.nu_grid)
        if not np.all(diffs > 0):
            raise MoleculeFileError(
                f"alpha table frequency grid must be strictly increasing (molecule {self.name!r})"
            )

    def beta(self, e_dc_kv_cm: float) -> float:
        """Dimensionless Stark parameter d*E/B."""
        return self.d00_debye * e_dc_kv_cm * DEBYE_KVCM_TO_MHZ / self.b_mhz

    def field_for_beta(self, beta: float) -> float:
        """DC field in kV/cm at which d*E/B equals ``beta``."""
        return beta * self.b_mhz / (self.d00_debye * DEBYE_KVCM_TO_MHZ)


_BUNDLED = {"krb": "krb.molecule", "rbcs": "rbcs.molecule"}


def _parse_molecule_text(text: str, origin: str) -> MoleculeSpec:
    name = None
    b_ghz = None
    d00 = None
    nus, pars, perps = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alpha:"):
            parts = line[len("alpha:"):].split()
            if len(parts) != 3:
                raise MoleculeFileError(
                    f"{origin}:{lineno}: alpha line needs 3 numbers (nu, alpha_par, alpha_perp)"
                )
            try:
                nu, par, perp = (float(p) for p in parts)
            except ValueError:
                raise MoleculeFileError(f"{origin}:{lineno}: alpha line is not numeric") from None
            nus.append(nu)
            pars.append(par)
            perps.append(perp)
            continue
        try:
            key, value = line.split(None, 1)
        except ValueError:
            raise MoleculeFileError(f"{origin}:{lineno}: expected 'key value'") from None
        if key == "name":
            name = value.strip()
        elif key == "B_GHz":
            try:
                b_ghz = float(value)
            except ValueError:
                raise MoleculeFileError(f"{origin}:{lineno}: B_GHz is not numeric") from None
        elif key == "d00_debye":
            try:
                d00 = float(value)
            except ValueError:
                raise MoleculeFileError(f"{origin}:{lineno}: d00_debye is not numeric") from None
        else:
            raise MoleculeFileError(f"{origin}:{lineno}: unknown key {key!r}")
    for field_name, val in (("name", name), ("B_GHz", b_ghz), ("d00_debye", d00)):
        if val is None:
            raise MoleculeFileError(f"{origin}: missing required key {field_name!r}")
    return MoleculeSpec(
        name=name,
        b_mhz=b_ghz * 1e3,
        d00_debye=d00,
        nu_grid=tuple(nus),
        alpha_par=tuple(pars),
        alpha_perp=tuple(perps),
    )


def load_molecule(name_or_path) -> MoleculeSpec:
    """Load a MoleculeSpec from a bundled name ("KRb", "RbCs") or a file path.

    Bundled names are resolved first, case-insensitively; anything else is
    treated as a path. Raises MoleculeFileError on parse or invariant
    failures, FileNotFoundError if the path does not exist.
    """
    key = str(name_or_path).lower()
    if key in _BUNDLED:
        text = resources.files("magictrap").joinpath("data", _BUNDLED[key]).read_text()
        return _parse_molecule_text(text, origin=f"bundled:{key}")
    path = Path(name_or_path)
    return _parse_molecule_text(path.read_text(), origin=str(path))


def alpha_lambda_at(spec: MoleculeSpec, nu_cm):
    """(alpha_parallel, alpha_perp) in a.u. at wavenumber ``nu_cm``.

    Linear interpolation on the molecule's table, exact at the nodes, at one
    wavenumber or a 1-D array of them. Raises ValueError outside the table.
    """
    grid = spec.nu_grid
    array = isinstance(nu_cm, np.ndarray) and nu_cm.ndim > 0
    for nu in nu_cm if array else (nu_cm,):
        if not (grid[0] <= nu <= grid[-1]):
            raise ValueError(f"nu = {nu} cm^-1 outside the tabulated range "
                             f"[{grid[0]}, {grid[-1]}] for molecule {spec.name!r}")
    par = np.interp(nu_cm, grid, spec.alpha_par)
    perp = np.interp(nu_cm, grid, spec.alpha_perp)
    return (par, perp) if array else (float(par), float(perp))
