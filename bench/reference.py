"""Independent reference physics for the benchmark's correctness checks.

Nothing here imports ``magictrap``. Angular matrix elements come from
Gauss-Legendre quadrature of normalized associated Legendre functions (not
from 3-j symbols), dressed states from ``numpy.linalg.eigh`` on the
dimensionless block H/B = diag J(J+1) - beta C10, and polarizabilities from
the rank-0 plus rank-2 closed form written out by hand. Molecule constants
for the bundled molecules are parsed from the data files directly.

Conventions match the package's documented ones: Condon-Shortley phase,
C_lq = sqrt(4 pi/(2l+1)) Y_lq, branch states (|+M> +- |-M>)/sqrt(2), linear
polarization at angle theta from the DC axis in the x-z plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

# CODATA 2018 exact SI values: d * E / h for 1 debye in 1 kV/cm, in MHz
DEBYE_KVCM_TO_MHZ = (1e-21 / 299792458.0) * 1e5 / 6.62607015e-34 / 1e6
# universal crossing of the (0,0):(1,0) pair in beta = d E / B
BETA_STAR_GROUND = 2.55442442960785
MAGIC_ANGLE_DEG = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
J_MAX = 10


@dataclass(frozen=True)
class Molecule:
    """Plain molecule constants: B in MHz, d in debye, alpha table in a.u."""

    name: str
    b_mhz: float
    d00_debye: float
    nu_grid: tuple
    alpha_par: tuple
    alpha_perp: tuple

    def beta(self, e_dc_kv_cm: float) -> float:
        return self.d00_debye * e_dc_kv_cm * DEBYE_KVCM_TO_MHZ / self.b_mhz

    def field_for_beta(self, beta: float) -> float:
        return beta * self.b_mhz / (self.d00_debye * DEBYE_KVCM_TO_MHZ)

    def alphas(self, nu_cm: float):
        """(abar, dalpha) at nu by linear interpolation of the table."""
        par = float(np.interp(nu_cm, self.nu_grid, self.alpha_par))
        perp = float(np.interp(nu_cm, self.nu_grid, self.alpha_perp))
        return (par + 2.0 * perp) / 3.0, par - perp


def parse_molecule_file(path: Path) -> Molecule:
    """Read a molecule file (``name``, ``B_GHz``, ``d00_debye``, ``alpha:`` rows)."""
    fields, rows = {}, []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alpha:"):
            rows.append(tuple(float(x) for x in line[len("alpha:"):].split()))
        else:
            key, value = line.split(None, 1)
            fields[key] = value.strip()
    nu, par, perp = zip(*rows)
    return Molecule(fields["name"], float(fields["B_GHz"]) * 1e3,
                    float(fields["d00_debye"]), nu, par, perp)


def _legendre_table(m: int, l_max: int, x: np.ndarray) -> dict:
    """Normalized P_l^m(x), l = m .. l_max, m >= 0, Condon-Shortley phase.

    Normalized so that Y_lm(theta, phi) = P_l^m(cos theta) e^{i m phi}.
    """
    s = np.sqrt(1.0 - x * x)
    pmm = np.full_like(x, math.sqrt(1.0 / (4.0 * math.pi)))
    for k in range(1, m + 1):
        pmm = -pmm * s * math.sqrt((2 * k + 1) / (2 * k))
    out = {m: pmm}
    if l_max > m:
        out[m + 1] = x * math.sqrt(2 * m + 3) * pmm
    for l in range(m + 2, l_max + 1):
        a_l = math.sqrt((4 * l * l - 1) / (l * l - m * m))
        a_prev = math.sqrt((4 * (l - 1) ** 2 - 1) / ((l - 1) ** 2 - m * m))
        out[l] = a_l * (x * out[l - 1] - out[l - 2] / a_prev)
    return out


def _theta_part(table_cache, l: int, m: int, x) -> np.ndarray:
    """theta-dependence of Y_lm for either sign of m: Y_{l,-m} = (-1)^m conj Y_lm."""
    tab = table_cache[abs(m)]
    return tab[l] if m >= 0 else (-1) ** abs(m) * tab[l]


@lru_cache(maxsize=None)
def c_matrix(l: int, q: int, m_bra: int, m_ket: int, j_max: int = J_MAX) -> np.ndarray:
    """<J m_bra| C_lq |J' m_ket> over J = |m_bra|..j_max, J' = |m_ket|..j_max.

    q must be >= 0 and equal m_bra - m_ket; the phi integral is then 2 pi.
    """
    if q < 0 or m_bra != q + m_ket:
        raise ValueError(f"need q >= 0 and m_bra = q + m_ket, got q={q}, {m_bra}, {m_ket}")
    x, w = np.polynomial.legendre.leggauss(2 * j_max + l + 4)
    tables = {mm: _legendre_table(mm, max(j_max, l), x) for mm in {abs(m_bra), abs(m_ket), q}}
    c_lq = math.sqrt(4.0 * math.pi / (2 * l + 1)) * tables[q][l]
    js_bra = range(abs(m_bra), j_max + 1)
    js_ket = range(abs(m_ket), j_max + 1)
    out = np.empty((len(js_bra), len(js_ket)))
    for a, j in enumerate(js_bra):
        fa = _theta_part(tables, j, m_bra, x)
        for b, jp in enumerate(js_ket):
            fb = _theta_part(tables, jp, m_ket, x)
            out[a, b] = 2.0 * math.pi * float(np.sum(w * fa * c_lq * fb))
    out.setflags(write=False)
    return out


def dressed_moments(m: int, beta: float, j_tilde: int, j_max: int = J_MAX):
    """(<C20>, <+1|C22|-1> coherence) of dressed state (j_tilde, |m|) at beta.

    The coherence is zero unless |m| = 1. Both are quadratic in the dressed
    row, so the eigenvector sign convention drops out.
    """
    m = abs(m)
    h = np.diag([float(j * (j + 1)) for j in range(m, j_max + 1)]) - beta * c_matrix(1, 0, m, m, j_max)
    _, vecs = np.linalg.eigh(h)
    u = vecs[:, j_tilde - m]
    c0 = float(u @ c_matrix(2, 0, m, m, j_max) @ u)
    t = float(u @ c_matrix(2, 2, 1, -1, j_max) @ u) if m == 1 else 0.0
    return c0, t


def tensor(m: int, branch: str, beta: float, j_tilde: int, abar: float, dalpha: float) -> np.ndarray:
    """Lab-frame 3x3 tensor of a dressed state; branches are (|+M> +- |-M>)/sqrt(2).

    The +-M coherence adds +-dalpha t/sqrt(6) to xx and subtracts it from yy.
    """
    c0, t = dressed_moments(m, beta, j_tilde)
    axx = abar - dalpha * c0 / 3.0
    azz = abar + 2.0 * dalpha * c0 / 3.0
    split = (1.0 if branch == "+" else -1.0 if branch == "-" else 0.0) * dalpha * t / math.sqrt(6.0)
    return np.diag([axx + split, axx - split, azz]).astype(complex)


def alpha_eff(m: int, branch: str, beta: float, j_tilde: int, abar: float, dalpha: float,
              theta_deg: float) -> float:
    """alpha_eff for linear polarization (sin theta, 0, cos theta)."""
    diag = np.real(np.diag(tensor(m, branch, beta, j_tilde, abar, dalpha)))
    th = math.radians(theta_deg)
    return float(diag[0] * math.sin(th) ** 2 + diag[2] * math.cos(th) ** 2)
