"""Rigid-rotor Stark problem, one M block at a time.

A DC field along z couples J to J +/- 1 within fixed M, giving a real
symmetric tridiagonal Hamiltonian in the |JM> basis. Eigenstates are labeled
by J_tilde (the field-free J they connect to adiabatically); within a block
that is simply ascending-energy order, since avoided crossings never close
for this one-parameter family. Fields are in kV/cm throughout.

Two calls diagonalize a block against the same cached ``_geometry`` matrices:
``solve`` at one field (energies in MHz, mixing rows), and ``dressed_moments``
over a whole beta = d E / B grid (energies in units of B, and the rank-2
moments <C_20>, <C_2,+2> that the polarizability depends on).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import c_tensor_element
from .units import DEBYE_KVCM_TO_MHZ, MoleculeSpec

__all__ = [
    "StateLabel",
    "StarkEigensystem",
    "solve",
    "alignment",
    "dressed_c20",
    "dressed_c22_coherence",
    "dressed_moments",
    "check_convergence",
]

_LABEL_RE = re.compile(r"^\s*(-?\d+)\s*,\s*(-?\d+)\s*(?:,\s*([+-])\s*)?$")


@dataclass(frozen=True)
class StateLabel:
    """Dressed-state label (J_tilde, M) with an optional +/- branch tag.

    Branch tags name the symmetric/antisymmetric combinations
    (|+M> +/- |-M>)/sqrt(2) of the degenerate pair and are only meaningful
    for |M| > 0; M = 0 states must carry no tag.
    """

    j_tilde: int
    m: int
    branch: str = ""

    def __post_init__(self):
        if self.branch not in ("", "+", "-"):
            raise ValueError(f"branch must be '', '+' or '-', got {self.branch!r}")
        if self.m == 0 and self.branch:
            raise ValueError("M = 0 states carry no +/- branch")
        if self.j_tilde < abs(self.m):
            raise ValueError(f"need J_tilde >= |M|, got ({self.j_tilde}, {self.m})")

    @classmethod
    def parse(cls, text: str) -> "StateLabel":
        """Parse "J,M" or "J,M,+" / "J,M,-" (unicode minus accepted)."""
        match = _LABEL_RE.match(text.replace("−", "-").replace("–", "-"))
        if match is None:
            raise ValueError(f"cannot parse state label {text!r}; expected 'J,M' or 'J,M,+/-'")
        j, m, br = match.groups()
        return cls(int(j), int(m), br or "")

    def __str__(self):
        tail = f",{self.branch}" if self.branch else ""
        return f"{self.j_tilde},{self.m}{tail}"


@dataclass(frozen=True)
class StarkEigensystem:
    """Diagonalized block. Rows of ``u`` are eigenstates ordered by energy.

    Row k is the state J_tilde = |M| + k expanded over the J basis
    (columns J = |M| .. J_max). Sign convention: the largest-magnitude
    entry of each row is positive, which makes u continuous in E and
    reduces to the identity at E = 0.
    """

    m: int
    j_max: int
    b_mhz: float
    de_mhz: float
    energies: np.ndarray
    u: np.ndarray

    @property
    def beta(self) -> float:
        return self.de_mhz / self.b_mhz

    @property
    def j_values(self) -> range:
        return range(abs(self.m), self.j_max + 1)

    def index_of(self, j_tilde: int) -> int:
        if not abs(self.m) <= j_tilde <= self.j_max:
            raise ValueError(f"J_tilde = {j_tilde} outside block |M| = {abs(self.m)}, J_max = {self.j_max}")
        return j_tilde - abs(self.m)

    def energy(self, j_tilde: int) -> float:
        return float(self.energies[self.index_of(j_tilde)])

    def amplitudes(self, j_tilde: int) -> np.ndarray:
        return self.u[self.index_of(j_tilde)]


@dataclass(frozen=True)
class _Geometry:
    """Field-independent rotor matrices of one |M| block over J = |M| .. J_max."""

    rot: np.ndarray    # diag J(J+1)
    c10: np.ndarray    # <JM|C_10|J'M>, tridiagonal
    c20: np.ndarray    # <JM|C_20|J'M>, pentadiagonal
    c22: np.ndarray    # <J,+1|C_2,+2|J',-1>; all zero unless |M| = 1


@lru_cache(maxsize=None)
def _geometry(m_abs: int, j_max: int) -> _Geometry:
    """The matrices every M-block calculation contracts against, built once.

    Matrix elements depend on |M| only, so +M and -M blocks share them.
    The arrays are read-only because every caller shares them.
    """
    js = range(m_abs, j_max + 1)

    def matrix(l, q, m, mp):
        return np.array([[c_tensor_element(l, q, j, m, jp, mp) for jp in js] for j in js])

    rot = np.diag([float(j * (j + 1)) for j in js])
    c10 = matrix(1, 0, m_abs, m_abs)
    c20 = matrix(2, 0, m_abs, m_abs)
    c22 = matrix(2, 2, 1, -1) if m_abs == 1 else np.zeros_like(c20)
    for a in (rot, c10, c20, c22):
        a.setflags(write=False)
    return _Geometry(rot=rot, c10=c10, c20=c20, c22=c22)


def _check_j_max(m: int, j_max: int) -> None:
    if j_max < abs(m) + 3:
        raise ValueError(f"j_max must be >= |m| + 3 (got j_max = {j_max}, m = {m})")


def solve(spec: MoleculeSpec, e_dc_kv_cm: float, m: int, j_max: int = 10) -> StarkEigensystem:
    """Diagonalize the M block at DC field ``e_dc_kv_cm``.

    H_{JJ'} = B J(J+1) delta_{JJ'} - d00 E <JM|C_10|J'M>, in MHz. Requires
    j_max >= |m| + 3 so every retained state has mixing headroom.
    """
    _check_j_max(m, j_max)
    if e_dc_kv_cm < 0:
        raise ValueError("E_dc must be >= 0")
    de_mhz = spec.d00_debye * e_dc_kv_cm * DEBYE_KVCM_TO_MHZ
    js = np.arange(abs(m), j_max + 1)
    energies, vecs = np.linalg.eigh(np.diag(spec.b_mhz * js * (js + 1)) - de_mhz * _geometry(abs(m), j_max).c10)
    # column k of vecs is state k; flip it so its largest-magnitude entry is positive
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(js))]
    u = (vecs * np.where(peak < 0.0, -1.0, 1.0)).T.copy()
    energies.setflags(write=False)
    u.setflags(write=False)
    return StarkEigensystem(m=m, j_max=j_max, b_mhz=spec.b_mhz, de_mhz=de_mhz, energies=energies, u=u)


def alignment(sys: StarkEigensystem, j_tilde: int) -> float:
    """<cos^2 theta> of the dressed state, via its rank-2 moment.

    cos^2 theta = (1 + 2 C_20)/3, so the dressed expectation is
    (1 + 2 <C_20>)/3 with <C_20> contracted through the mixing row.
    """
    return (1.0 + 2.0 * dressed_c20(sys, j_tilde)) / 3.0


def dressed_c20(sys: StarkEigensystem, j_tilde: int) -> float:
    """<C_20> in the dressed state: sum_{J J'} u_J u_J' <JM|C_20|J'M>."""
    row = sys.amplitudes(j_tilde)
    return float(row @ _geometry(abs(sys.m), sys.j_max).c20 @ row)


def dressed_c22_coherence(sys: StarkEigensystem, j_tilde: int) -> float:
    """<J_tilde,+1|C_2,+2|J_tilde,-1>, the rank-2 coherence of an |M|=1 pair.

    Zero for |M| != 1 since C_2q cannot bridge a 2|M| > 2 projection gap.
    """
    if abs(sys.m) != 1:
        return 0.0
    row = sys.amplitudes(j_tilde)
    return float(row @ _geometry(1, sys.j_max).c22 @ row)


def dressed_moments(m: int, betas, j_max: int = 10):
    """Energies and rank-2 moments of every state of one M block, batched over beta.

    Builds H/B = diag J(J+1) - beta C_10 for the whole array ``betas``
    (beta = d E / B, any shape) and diagonalizes the stack at once. Returns
    ``(energies, c20, c22)``, each of shape ``betas.shape + (n,)`` with the
    last axis over J_tilde = |M| .. j_max: energies in units of B, <C_20>,
    and the |M| = 1 coherence <J_tilde,+1|C_2,+2|J_tilde,-1> (zero for
    other |M|). Both moments are quadratic in the eigenvector, so its sign
    convention does not enter.
    """
    _check_j_max(m, j_max)
    betas = np.asarray(betas, dtype=float)
    if not np.all(np.isfinite(betas) & (betas >= 0)):
        raise ValueError("beta must be finite and >= 0")
    geo = _geometry(abs(m), j_max)
    energies, vecs = np.linalg.eigh(geo.rot - betas[..., None, None] * geo.c10)

    def moment(op):
        # column k of vecs is state k: sum_{J J'} v_Jk op_JJ' v_J'k
        return np.sum(vecs * (op @ vecs), axis=-2)

    c22 = moment(geo.c22) if abs(m) == 1 else np.zeros_like(energies)
    return energies, moment(geo.c20), c22


def check_convergence(
    spec: MoleculeSpec,
    e_dc_kv_cm: float,
    m: int,
    j_tilde: int,
    j_max: int = 10,
) -> float:
    """Relative energy change for one state between j_max and j_max + 4.

    The reference scale is max(|E at j_max + 4|, B): energies cross zero as
    the field sweeps, and B is the natural floor for the block.
    """
    e_lo = solve(spec, e_dc_kv_cm, m, j_max).energy(j_tilde)
    e_hi = solve(spec, e_dc_kv_cm, m, j_max + 4).energy(j_tilde)
    return abs(e_lo - e_hi) / max(abs(e_hi), spec.b_mhz)
