"""Exact angular-momentum kernels for rotor matrix elements.

Conventions, fixed here once and imported everywhere else:

* Wigner 3-j symbols use Racah's single-sum formula in exact integer
  arithmetic (``math.factorial`` on Python ints, the alternating sum over
  one common denominator), with a single conversion to float at the end.
* Spherical vector components follow the Condon-Shortley phase,

      v_{+1} = -(v_x + i v_y)/sqrt(2)
      v_0    =  v_z
      v_{-1} = +(v_x - i v_y)/sqrt(2)

  so the inverse map is v_x = (v_{-1} - v_{+1})/sqrt(2),
  v_y = i (v_{-1} + v_{+1})/sqrt(2), v_z = v_0, which ``f_factor`` uses
  to form Cartesian amplitudes.
* C_{lq} denotes the Racah-normalized spherical harmonic
  sqrt(4 pi / (2l+1)) Y_{lq}.

Everything here is a pure function of its integer/float arguments; there is
no shared mutable state beyond a read-only memo table for 3-j values.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "three_j",
    "c_tensor_element",
    "f_factor",
]


@lru_cache(maxsize=None)
def three_j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3) for integer arguments.

    Evaluated with Racah's single-sum formula in exact integer arithmetic.
    The alternating sum is one integer over a common denominator: the
    product of its six factorials at their largest arguments, which every
    term's denominator divides. The value squared is then one ratio of
    integers, and the integer true division and square root are the only
    float roundings. Out-of-triangle or m-violating inputs return 0.0
    rather than raising.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if not (abs(j1 - j2) <= j3 <= j1 + j2):
        return 0.0
    f = math.factorial
    tmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    tmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    den = (
        f(tmax) * f(j3 - j2 + tmax + m1) * f(j3 - j1 + tmax - m2)
        * f(j1 + j2 - j3 - tmin) * f(j1 - tmin - m1) * f(j2 - tmin + m2)
    )
    num = 0
    for t in range(tmin, tmax + 1):
        term = den // (
            f(t) * f(j3 - j2 + t + m1) * f(j3 - j1 + t - m2)
            * f(j1 + j2 - j3 - t) * f(j1 - t - m1) * f(j2 - t + m2)
        )
        num += -term if t % 2 else term
    if num == 0:
        return 0.0
    sign = (-1) ** (j1 - j2 - m3) * (1 if num > 0 else -1)
    # value^2 = triangle * m-factorials * (num / den)^2, exactly; |value| <= 1
    top = (
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
        * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )
    return sign * math.sqrt(top * num * num / (f(j1 + j2 + j3 + 1) * den * den))


def c_tensor_element(l: int, q: int, J: int, M: int, Jp: int, Mp: int) -> float:
    """Matrix element <J M| C_{lq} |J' M'> of the Racah-normalized harmonic.

        (-1)^M sqrt((2J+1)(2J'+1)) (J l J'; -M q M') (J l J'; 0 0 0)

    Zero unless M = M' + q, and zero unless J + l + J' is even (the second
    3-j enforces the parity rule). Ranks l = 1, 2 are the supported surface;
    the formula itself is valid for any integer rank.
    """
    if M != Mp + q:
        return 0.0
    return (
        (-1) ** M
        * math.sqrt((2 * J + 1) * (2 * Jp + 1))
        * three_j(J, l, Jp, -M, q, Mp)
        * three_j(J, l, Jp, 0, 0, 0)
    )


def _f_factor_q(J_e: int, M_e: int, Lam: int, J: int, M: int, q: int) -> float:
    # Lab spherical component q of the transition amplitude; the Sigma ground
    # state fixes the body-frame dipole index to -Lam.
    if abs(Lam) > J_e or abs(M_e) > J_e or abs(M) > J:
        return 0.0
    return (
        (-1) ** (q + M_e)
        * math.sqrt((2 * J + 1) * (2 * J_e + 1))
        * three_j(J, 1, J_e, M, -q, -M_e)
        * three_j(J, 1, J_e, 0, Lam, -Lam)
    )


def f_factor(J_e: int, M_e: int, Lam: int, J: int, M: int, branch: int = 0,
             sigma: str = "z") -> complex:
    """Angular factor of <J M (+-)| d_sigma |J_e M_e Lam> for a unit transition moment.

    This is the orientation integral of three Wigner rotation matrices:
    ground rotor state Y_JM, the lab-frame Cartesian dipole component sigma
    re-expressed through body-frame spherical components, and the excited
    symmetric-top state sqrt((2J_e+1)/4pi) D^{J_e*}_{M_e Lam}. Evaluated
    exactly through 3-j contractions.

    branch = +1 or -1 selects the (|J,M> +- |J,-M>)/sqrt(2) combination used
    for the |M|-degenerate pair; branch = 0 means the plain |J M> state (the
    only meaningful choice for M = 0).

    Values are real for sigma in {x, z} and purely imaginary for sigma = y
    under the Condon-Shortley convention; quadratic observables always enter
    as F * conj(F). Zero unless |M_e - (+-M)| <= 1 and |Lam| <= J_e.
    """
    if branch:
        return (
            f_factor(J_e, M_e, Lam, J, M, 0, sigma)
            + branch * f_factor(J_e, M_e, Lam, J, -M, 0, sigma)
        ) / math.sqrt(2)
    if sigma == "z":
        return complex(_f_factor_q(J_e, M_e, Lam, J, M, 0))
    fm = _f_factor_q(J_e, M_e, Lam, J, M, -1)
    fp = _f_factor_q(J_e, M_e, Lam, J, M, +1)
    if sigma == "x":
        return complex((fm - fp) / math.sqrt(2))
    if sigma == "y":
        return 1j * (fm + fp) / math.sqrt(2)
    raise ValueError(f"sigma must be one of 'x', 'y', 'z', got {sigma!r}")
