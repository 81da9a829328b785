"""Rigid-rotor Stark problem, one M block at a time.

A DC field along z couples J to J +/- 1 within fixed M, giving a real
symmetric tridiagonal Hamiltonian in the |JM> basis. Eigenstates are labeled
by J_tilde (the field-free J they connect to adiabatically); within a block
that is simply ascending-energy order, since avoided crossings never close
for this one-parameter family. Fields are in kV/cm throughout.

One routine, ``_eigh``, diagonalizes diag - x C_10 against the cached
``_geometry`` matrices, at one float coupling x (checked and scaled as a
float, so a one-field call builds no 0-d arrays) or over a stack of them, and
refuses a coupling that is not finite and >= 0 before LAPACK sees it.
``solve`` calls it at one field in MHz (diag (B J)(J+1), x = d E; mixing
rows), ``dressed_moments`` at one beta = d E / B or over a grid of them, in
units of B (x = beta; energies and the rank-2 moment <C_20>). The units stay
apart: B times the cached J(J+1) rounds differently from (B J)(J+1), and
``convergence`` prints a difference of nearly equal energies.

<C_20> is the only moment a state needs: as matrices over J,
<J,+1|C_2,+2|J',-1> = (<J,1|C_20|J',1> - delta_JJ')/sqrt(6), so the coherence
t = <J_tilde,+1|C_2,+2|J_tilde,-1> of an |M| = 1 pair is (<C_20> - 1)/sqrt(6)
in every dressed state (and t = 0 for |M| != 1).
"""

from __future__ import annotations

import math
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
    energies: np.ndarray
    u: np.ndarray

    def index_of(self, j_tilde: int) -> int:
        if not abs(self.m) <= j_tilde <= self.j_max:
            raise ValueError(f"J_tilde = {j_tilde} outside block |M| = {abs(self.m)}, J_max = {self.j_max}")
        return j_tilde - abs(self.m)

    def amplitudes(self, j_tilde: int) -> np.ndarray:
        return self.u[self.index_of(j_tilde)]


@dataclass(frozen=True)
class _Geometry:
    """Field-independent rotor matrices of one |M| block over J = |M| .. J_max."""

    rot: np.ndarray    # diag J(J+1)
    c10: np.ndarray    # <JM|C_10|J'M>, tridiagonal
    c20: np.ndarray    # <JM|C_20|J'M>, pentadiagonal


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
    for a in (rot, c10, c20):
        a.setflags(write=False)
    return _Geometry(rot=rot, c10=c10, c20=c20)


def _check_j_max(m: int, j_max: int) -> None:
    if j_max < abs(m) + 3:
        raise ValueError(f"j_max must be >= |m| + 3 (got j_max = {j_max}, m = {m})")


def _eigh(diag, c10, x, name):
    """Eigenvalues and eigenvector columns of diag - x C_10, at one coupling or a stack of them.

    ``x`` is a float (Python or numpy), giving one matrix, or an array of any
    shape, giving one matrix per entry; a float is checked and scaled as
    a float, without building 0-d arrays. A coupling that is not finite and
    >= 0 raises ValueError naming ``name`` before LAPACK sees it."""
    if isinstance(x, float):
        ok, scale = math.isfinite(x) and x >= 0, x
    else:
        x = np.asarray(x, dtype=float)
        ok, scale = np.all(np.isfinite(x) & (x >= 0)), x[..., None, None]
    if not ok:
        raise ValueError(f"{name} must be finite and >= 0")
    return np.linalg.eigh(diag - scale * c10)


def solve(spec: MoleculeSpec, e_dc_kv_cm: float, m: int, j_max: int = 10) -> StarkEigensystem:
    """Diagonalize the M block at DC field ``e_dc_kv_cm``.

    H_{JJ'} = B J(J+1) delta_{JJ'} - d00 E <JM|C_10|J'M>, in MHz. Requires
    j_max >= |m| + 3 so every retained state has mixing headroom. A finite
    field whose coupling d E overflows is refused with a message saying so.
    """
    _check_j_max(m, j_max)
    if e_dc_kv_cm < 0:   # with d00 = 0 the coupling would be -0.0, which _eigh accepts
        raise ValueError("E_dc must be finite and >= 0")
    coupling = spec.d00_debye * float(e_dc_kv_cm) * DEBYE_KVCM_TO_MHZ   # a float overflows to inf silently
    if math.isinf(coupling) and math.isfinite(e_dc_kv_cm):
        raise ValueError(f"d E overflows at E_dc = {e_dc_kv_cm:g} kV/cm")
    js = np.arange(abs(m), j_max + 1)
    energies, vecs = _eigh(np.diag(spec.b_mhz * js * (js + 1)), _geometry(abs(m), j_max).c10, coupling, "E_dc")
    # column k of vecs is state k; flip it so its largest-magnitude entry is positive
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(js))]
    u = (vecs * np.where(peak < 0.0, -1.0, 1.0)).T.copy()
    energies.setflags(write=False)
    u.setflags(write=False)
    return StarkEigensystem(m=m, j_max=j_max, energies=energies, u=u)


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


def dressed_moments(m: int, betas, j_max: int = 10):
    """Energies and <C_20> of every state of one M block, batched over beta.

    Builds H/B = diag J(J+1) - beta C_10 for the whole array ``betas``
    (beta = d E / B, any shape, or one float) and diagonalizes the stack at
    once. Returns ``(energies, c20)``, each of shape ``betas.shape + (n,)``
    with the last axis over J_tilde = |M| .. j_max: energies in units of B
    and <C_20>.
    The moment is quadratic in the eigenvector, so its sign convention does
    not enter.
    """
    _check_j_max(m, j_max)
    geo = _geometry(abs(m), j_max)
    energies, vecs = _eigh(geo.rot, geo.c10, betas, "beta")
    # column k of vecs is state k: sum_{J J'} v_Jk (C_20)_JJ' v_J'k
    return energies, np.sum(vecs * (geo.c20 @ vecs), axis=-2)


def check_convergence(spec: MoleculeSpec, e_dc_kv_cm: float, m: int, j_max: int = 10) -> np.ndarray:
    """Relative energy change of every state of the M block between j_max and j_max + 4.

    Entry k is the state J_tilde = |M| + k. Two diagonalizations serve the
    whole block. The reference scale is max(|E at j_max + 4|, B): energies
    cross zero as the field sweeps, and B is the natural floor for the block.
    """
    e_lo = solve(spec, e_dc_kv_cm, m, j_max).energies
    e_hi = solve(spec, e_dc_kv_cm, m, j_max + 4).energies[:len(e_lo)]
    return np.abs(e_lo - e_hi) / np.maximum(np.abs(e_hi), spec.b_mhz)
