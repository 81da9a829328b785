"""Lab-frame dynamic polarizability of field-dressed rotor states.

Two independent routes produce the same 3x3 tensor:

* a closed form: the molecular tensor splits into an isotropic part
  abar = (a_par + 2 a_perp)/3 and an anisotropy da = a_par - a_perp, and
  the state enters only through one rank-2 moment of the dressed
  wavefunction, <C_20>. It sets the diagonal, and for |M| = 1 it also fixes
  the coherence t = <C_2,+2> = (<C_20> - 1)/sqrt(6) that couples the
  degenerate +M/-M pair (the matrix identity is stated in ``stark``),
* a brute-force sum over intermediate rotational states built from
  transition amplitude factors, weighting Sigma (Lambda = 0) channels by
  a_par and Pi (Lambda = +-1) channels by a_perp. The amplitudes
  F[k, sigma, J] do not depend on the field: they sit in a read-only table
  cached per (|M|, branch, j_max, j_e_max), built from ``angular.f_factor``
  alone, and each tensor is one contraction of that table with the dressed
  row.

Route agreement is the package's central correctness check; see the tests.
The sum-over-states route never reads <C_20>, so route agreement also
checks the identity behind t.

Degenerate |M| > 0 pairs are treated in the two-dimensional subspace
{|+M>, |-M>}. The light's polarization selects the stationary combinations;
for linear polarization in the x-z plane these are exactly
(|+M> +- |-M>)/sqrt(2), which carry the +/- branch labels. The closed-form
tensor and ``alpha_eff_from_moments`` read one rule, ``_branch_orientation``,
for which combination is the + branch and when the light cannot split the pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .angular import c_tensor_element, f_factor  # noqa: F401  (c_tensor_element is looked up here by external tools)
from .stark import StarkEigensystem, StateLabel, dressed_c20
from .units import AU_POL_TO_MHZ_PER_W_CM2

__all__ = [
    "PolarizationVector",
    "PolarizabilityTensor",
    "alpha_tensor_closed_form",
    "alpha_tensor_sos",
    "alpha_eff",
    "alpha_eff_from_moments",
    "stark_shift",
    "MAGIC_ANGLE_DEG",
]

# arccos(1/sqrt(3)); cos^2 of it is exactly 1/3
MAGIC_ANGLE_DEG = math.degrees(math.acos(1.0 / math.sqrt(3.0)))

# relative threshold below which a 2x2 geometry operator counts as identity
_DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class PolarizationVector:
    """Complex unit polarization vector in the lab frame (DC field along z)."""

    eps: tuple

    def __post_init__(self):
        e = np.asarray(self.eps, dtype=complex)
        if e.shape != (3,):
            raise ValueError("polarization must be a 3-vector")
        norm = float(np.sum(np.abs(e) ** 2))
        if not abs(norm - 1.0) <= 1e-12:   # written so that a nan norm fails too
            raise ValueError(f"polarization must have unit norm, got |eps|^2 = {norm}")

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.eps, dtype=complex)

    @classmethod
    def linear_deg(cls, theta_deg: float) -> "PolarizationVector":
        """cos(theta) z_hat + sin(theta) x_hat, theta in degrees."""
        rad = math.radians(theta_deg)
        return cls((math.sin(rad), 0.0, math.cos(rad)))

    @classmethod
    def z(cls) -> "PolarizationVector":
        return cls((0.0, 0.0, 1.0))

    @classmethod
    def x(cls) -> "PolarizationVector":
        return cls((1.0, 0.0, 0.0))

    @classmethod
    def circular(cls, sense: str) -> "PolarizationVector":
        """sigma+- = -+(x_hat +- i y_hat)/sqrt(2)."""
        if sense == "+":
            return cls((-1 / math.sqrt(2), -1j / math.sqrt(2), 0.0))
        if sense == "-":
            return cls((1 / math.sqrt(2), -1j / math.sqrt(2), 0.0))
        raise ValueError(f"sense must be '+' or '-', got {sense!r}")

    @classmethod
    def parse(cls, text: str) -> "PolarizationVector":
        """Parse "z", "x", "theta:<deg>", "sigma+" or "sigma-"."""
        t = text.strip().lower()
        if t == "z":
            return cls.z()
        if t == "x":
            return cls.x()
        if t == "sigma+":
            return cls.circular("+")
        if t == "sigma-":
            return cls.circular("-")
        if t.startswith("theta:"):
            try:
                deg = float(t[len("theta:"):])
            except ValueError:
                deg = math.nan
            if not math.isfinite(deg):
                raise ValueError(f"bad angle in polarization {text!r}; need a finite number of degrees")
            return cls.linear_deg(deg)
        raise ValueError(
            f"cannot parse polarization {text!r}; expected z, x, theta:<deg>, sigma+ or sigma-"
        )

    @cached_property
    def _factors(self):
        """|eps_perp|^2, |eps_z|^2 and eps^T K eps*: all that ``alpha_eff_from_moments`` reads of the light."""
        e = self.array
        w = np.abs(e) ** 2
        # k stays a numpy scalar, so a float times k multiplies as numpy's array loops do (Python
        # 3.14 drops the float's zero imaginary part there, which can flip the sign of a zero)
        return w[0] + w[1], w[2], np.einsum("ab,a,b->", _K_COHERENCE, e, e.conj())

    def is_linear(self) -> bool:
        e = self.array
        # linear iff some global phase makes all components real
        phase_fixed = e * cmath.exp(-1j * cmath.phase(e[np.argmax(np.abs(e))]))
        return bool(np.max(np.abs(phase_fixed.imag)) < 1e-12)

    def __str__(self):
        e = self.array
        tol = 1e-12
        for text, hit in zip(_NAMED_TEXT, (np.abs(e - _NAMED_EPS) < tol).all(axis=1).tolist()):
            if hit:
                return text
        if abs(e[1]) < tol and e[0].real >= 0 and e[2].real >= 0 and self.is_linear():
            return f"theta:{math.degrees(math.atan2(e[0].real, e[2].real)):.10g}"
        return f"({e[0]:.6g}, {e[1]:.6g}, {e[2]:.6g})"


# the vectors that print by name, in the order __str__ tries them
_NAMED_TEXT = ("z", "x", "sigma+", "sigma-")
_NAMED_EPS = np.array([PolarizationVector.parse(text).array for text in _NAMED_TEXT])


@dataclass(frozen=True)
class PolarizabilityTensor:
    """3x3 Hermitian lab-frame tensor (a.u.) for one dressed state.

    ``degenerate`` is set when the light cannot split the |+M>, |-M> pair,
    in which case the branch assignment is conventional rather than physical.
    """

    matrix: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError("tensor must be 3x3")
        if np.max(np.abs(m - m.conj().T)) > 1e-9 * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("tensor must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def xx(self) -> float:
        return float(self.matrix[0, 0].real)

    @property
    def yy(self) -> float:
        return float(self.matrix[1, 1].real)

    @property
    def zz(self) -> float:
        return float(self.matrix[2, 2].real)


def _branch_sign(branch: str) -> int:
    return {"+": 1, "-": -1}[branch]


def _require_branch(label: StateLabel) -> None:
    """Refuse an |M| > 0 label without a +/- branch: it names two states."""
    if label.m != 0 and not label.branch:
        raise ValueError(f"state ({label.j_tilde},{label.m}) is one of a degenerate pair; request a +/- branch")


# quadratic form with <+M|...|-M> structure: (eps_x - i eps_y)(eps*_x - i eps*_y)
_K_COHERENCE = np.array(
    [[1.0, -1.0j, 0.0], [-1.0j, -1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
) / math.sqrt(6.0)


def _branch_orientation(c, alpha_par, alpha_perp):
    """Which stationary combination of a degenerate pair is the + branch.

    The light couples |+M> and |-M> through c = da t (eps^T K eps*), so the
    2x2 geometry operator is g I + [[0, c], [conj(c), 0]], with eigenvectors
    (1, +-conj(c)/|c|)/sqrt(2). The + branch is the one closer to
    (|+M> + |-M>)/sqrt(2). Returns, elementwise over ``c``: +1 where that is
    (1, conj(c)/|c|)/sqrt(2), i.e. Re c >= 0; -1 where it is
    (1, -conj(c)/|c|)/sqrt(2); and 0 where |c| is below _DEGENERACY_RTOL of
    the larger molecular polarizability, so the light cannot split the pair
    and the conventional (1, +-1)/sqrt(2) stay. A scalar ``c`` gives an int
    by the same comparisons, without building arrays; |c| comes from the
    ``np.abs`` loop in both cases, since Python's ``abs`` of a complex rounds
    differently.
    """
    if isinstance(c, np.ndarray):
        scale = np.maximum(np.maximum(np.abs(alpha_par), np.abs(alpha_perp)), 1e-300)
        return np.where(np.abs(c) <= _DEGENERACY_RTOL * scale, 0, np.where(c.real >= 0.0, 1, -1))
    if np.abs(c) <= _DEGENERACY_RTOL * max(abs(alpha_par), abs(alpha_perp), 1e-300):
        return 0
    return 1 if c.real >= 0.0 else -1


def alpha_tensor_closed_form(
    sys: StarkEigensystem,
    label: StateLabel,
    alpha_par: float,
    alpha_perp: float,
    polarization: PolarizationVector | None = None,
) -> PolarizabilityTensor:
    """Tensor from the rank-2 geometry of the dressed state, no state sums.

    The diagonal is abar - da <C_20>/3 (xx, yy) and abar + 2 da <C_20>/3
    (zz). For |M| > 0 the label must carry a +/- branch, and the coherence
    t = (<C_20> - 1)/sqrt(6) (|M| = 1; zero otherwise) adds da t K to the
    <+M|...|-M> block. By default the branch
    states are the conventional (|+M> +- |-M>)/sqrt(2), which is the case
    eps^T K eps* = 1; pass ``polarization`` to let the light field pick the
    stationary combinations instead (they coincide for linear polarization
    in the x-z plane).
    """
    if abs(label.m) != abs(sys.m):
        raise ValueError(f"label {label} does not belong to an |M| = {abs(sys.m)} block")
    abar = (alpha_par + 2.0 * alpha_perp) / 3.0
    da = alpha_par - alpha_perp
    c0 = dressed_c20(sys, label.j_tilde)
    axx = abar - da * c0 / 3.0
    azz = abar + 2.0 * da * c0 / 3.0
    matrix = np.diag([axx, axx, azz]).astype(complex)
    degenerate = False
    if label.m != 0:
        _require_branch(label)
        t = (c0 - 1.0) / math.sqrt(6.0) if abs(label.m) == 1 else 0.0
        e = None if polarization is None else polarization.array
        c = da * t * (1.0 if e is None else np.einsum("ab,a,b->", _K_COHERENCE, e, e.conj()))
        orientation = _branch_orientation(c, alpha_par, alpha_perp)
        degenerate = orientation == 0
        # the state is (1, w)/sqrt(2): start from (1, conj(c)/|c|), or from (1, 1)
        # when degenerate, and flip w when that is not the requested branch
        w = np.conj(c / abs(c)) if orientation else 1.0
        if _branch_sign(label.branch) * (orientation or 1) < 0:
            w = -w
        vec = np.array([1.0, w], dtype=complex) / math.sqrt(2)
        cross = np.conj(vec[0]) * vec[1] * da * t * _K_COHERENCE
        matrix = matrix + cross + cross.conj().T
    return PolarizabilityTensor(matrix=matrix, degenerate=degenerate)


@lru_cache(maxsize=None)
def _intermediate_states(j_e_max: int):
    out = []
    for lam in (0, 1, -1):
        for j_e in range(abs(lam), j_e_max + 1):
            for m_e in range(-j_e, j_e + 1):
                out.append((lam, j_e, m_e))
    return tuple(out)


@dataclass(frozen=True)
class _SosTable:
    """Field-independent transition amplitudes of one state family.

    ``amp[k, s, i]`` is f_factor(J_e, M_e, Lambda, J_i, |M|, branch, sigma_s)
    for intermediate state k, sigma_s in (x, y, z) and J_i = |M| .. j_max;
    ``lam[k]`` is that state's Lambda. Only states with a nonzero amplitude
    are kept.
    """

    amp: np.ndarray
    lam: np.ndarray


@lru_cache(maxsize=None)
def _sos_table(m_abs: int, branch: int, j_max: int, j_e_max: int) -> _SosTable:
    """Amplitudes for every basis J over _intermediate_states(j_e_max), built once.

    f_factor is only called where its selection rules allow a nonzero value,
    |J - J_e| <= 1 and |M_e -+ M| <= 1; every other entry is exactly zero.
    The arrays are read-only because every caller shares them.
    """
    js = range(m_abs, j_max + 1)
    amps, lams = [], []
    for lam, j_e, m_e in _intermediate_states(j_e_max):
        if abs(m_e - m_abs) > 1 and (not branch or abs(m_e + m_abs) > 1):
            continue
        f = np.zeros((3, len(js)), dtype=complex)
        for i, j in enumerate(js):
            if abs(j - j_e) <= 1:
                for s, sigma in enumerate(("x", "y", "z")):
                    f[s, i] = f_factor(j_e, m_e, lam, j, m_abs, branch=branch, sigma=sigma)
        if np.any(f):
            amps.append(f)
            lams.append(lam)
    amp = np.array(amps)
    lam = np.array(lams)
    amp.setflags(write=False)
    lam.setflags(write=False)
    return _SosTable(amp=amp, lam=lam)


def alpha_tensor_sos(
    sys: StarkEigensystem,
    label: StateLabel,
    alpha_par: float,
    alpha_perp: float,
    j_e_max: int | None = None,
) -> PolarizabilityTensor:
    """Tensor by explicit sum over intermediate rotational states.

    Sigma-channel (Lambda = 0) terms carry weight alpha_par, Pi-channel
    (Lambda = +-1) terms alpha_perp; rotational structure of the energy
    denominators is neglected, so weights factor out of the angular sums.
    Branch states use the conventional (|+M> +- |-M>)/sqrt(2) combinations.
    j_e_max must cover every J in the basis plus one unit of photon recoil
    in angular momentum; default is exactly that, sys.j_max + 1.

    The amplitudes F[k, sigma, J] do not depend on the field, so they come
    from a table cached per (|M|, branch, j_max, j_e_max) and built from
    ``f_factor`` alone. The dressed row u enters as A = F u, and the tensor
    is sum_k w_k A_k A_k^H with w_k = alpha_par (Lambda = 0) or alpha_perp.
    """
    if abs(label.m) != abs(sys.m):
        raise ValueError(f"label {label} does not belong to an |M| = {abs(sys.m)} block")
    _require_branch(label)
    if j_e_max is None:
        j_e_max = sys.j_max + 1
    if j_e_max < sys.j_max + 1:
        raise ValueError(f"j_e_max must be >= j_max + 1 = {sys.j_max + 1}")
    branch = _branch_sign(label.branch) if label.branch else 0
    table = _sos_table(abs(label.m), branch, sys.j_max, j_e_max)
    amp = table.amp @ sys.amplitudes(label.j_tilde)
    weight = np.where(table.lam == 0, alpha_par, alpha_perp)
    matrix = np.einsum("k,ka,kb->ab", weight, amp, amp.conj())
    return PolarizabilityTensor(matrix=matrix)


def alpha_eff(tensor: PolarizabilityTensor, polarization: PolarizationVector) -> float:
    """sum_{ss'} alpha_ss' eps_s eps*_s', real for Hermitian tensors."""
    e = polarization.array
    val = np.einsum("ab,a,b->", tensor.matrix, e, e.conj())
    return float(val.real)


def alpha_eff_from_moments(
    label: StateLabel,
    c20,
    alpha_par: float,
    alpha_perp: float,
    polarization: PolarizationVector,
):
    """alpha_eff straight from a state's <C_20>, vectorised over it.

    Equals ``alpha_eff(alpha_tensor_closed_form(sys, label, ...,
    polarization), polarization)`` without building tensors: ``c20`` is
    <C_20> (an array of any shape, e.g. from ``stark.dressed_moments``);
    ``alpha_par`` and ``alpha_perp`` may be arrays that broadcast against it.
    The diagonal part is
    (abar - da <C_20>/3) |eps_perp|^2 + (abar + 2 da <C_20>/3) |eps_z|^2. A
    +/- branch adds +/-|c|, where c = da t (eps^T K eps*) and the coherence
    is t = (<C_20> - 1)/sqrt(6) for |M| = 1 and zero otherwise. The sign is
    the one ``_branch_orientation`` gives that branch, or +/-Re c where the
    light cannot split the pair; the tensor route reads the same rule.
    """
    abar = (alpha_par + 2.0 * alpha_perp) / 3.0
    da = alpha_par - alpha_perp
    w_perp, w_z, k = polarization._factors
    c0 = np.asarray(c20, dtype=float)
    out = (abar - da * c0 / 3.0) * w_perp + (abar + 2.0 * da * c0 / 3.0) * w_z
    if label.m == 0:
        return out
    _require_branch(label)
    t = (c0 - 1.0) / math.sqrt(6.0) if abs(label.m) == 1 else 0.0
    c = da * t * k
    orientation = _branch_orientation(c, alpha_par, alpha_perp)
    if isinstance(c, np.ndarray):
        split = np.where(orientation == 0, c.real, orientation * np.abs(c))
    else:
        split = orientation * np.abs(c) if orientation else c.real
    return out + _branch_sign(label.branch) * split


def stark_shift(alpha_eff_au, intensity_w_cm2: float):
    """AC shift Delta E = -alpha_eff I / (2 eps0 c) in MHz, of one alpha_eff (a.u.) or an array of them.

    Refuses a negative intensity, and a shift that is not finite (one that overflows).
    """
    if intensity_w_cm2 < 0:
        raise ValueError("intensity must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        shift = -alpha_eff_au * intensity_w_cm2 * AU_POL_TO_MHZ_PER_W_CM2
    if not np.isfinite(shift).all():
        raise ValueError(f"AC shift at intensity {intensity_w_cm2:g} W/cm^2 is not finite")
    return shift
