"""Independent reference implementations used only by the test suite.

Nothing in this module imports from magictrap. 3-j values come from sympy,
spherical harmonics are built from associated Legendre functions, rotation
matrices from the explicit factorial sum, and the Stark problem is assembled
from quadrature matrix elements. Production kernels are therefore checked
against routes that share no code with them.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import lpmv


def three_j_ref(j1, j2, j3, m1, m2, m3):
    """Exact 3-j symbol via sympy, returned as float."""
    from sympy.physics.wigner import wigner_3j

    return float(wigner_3j(j1, j2, j3, m1, m2, m3))


def three_j_fraction(j1, j2, j3, m1, m2, m3):
    """Racah's single-sum formula with the alternating sum kept as a Fraction.

    The triangle factor and the sum are exact rationals; float() of the
    squared value is the one rounding before the square root.
    """
    if m1 + m2 + m3 != 0 or abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    f = math.factorial
    pre = Fraction(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
        * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3),
        f(j1 + j2 + j3 + 1),
    )
    total = Fraction(0)
    for t in range(max(0, j2 - j3 - m1, j1 - j3 + m2), min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1):
        total += Fraction((-1) ** t, f(t) * f(j3 - j2 + t + m1) * f(j3 - j1 + t - m2)
                          * f(j1 + j2 - j3 - t) * f(j1 - t - m1) * f(j2 - t + m2))
    if total == 0:
        return 0.0
    sign = (-1) ** (j1 - j2 - m3) * (1 if total > 0 else -1)
    return sign * math.sqrt(float(pre * total * total))


# ---------------------------------------------------------------------------
# Spherical harmonics and quadrature grids (no 3-j symbols involved)

def ylm(J, M, theta, phi):
    """Y_JM with the Condon-Shortley phase carried by scipy's lpmv."""
    Ma = abs(M)
    norm = math.sqrt((2 * J + 1) / (4 * math.pi)
                     * math.factorial(J - Ma) / math.factorial(J + Ma))
    base = norm * lpmv(Ma, J, np.cos(theta)) * np.exp(1j * Ma * np.asarray(phi))
    if M >= 0:
        return base
    return (-1) ** Ma * np.conj(base)


def c_lq(l, q, theta, phi):
    """Racah-normalized spherical harmonic sqrt(4pi/(2l+1)) Y_lq."""
    return math.sqrt(4 * math.pi / (2 * l + 1)) * ylm(l, q, theta, phi)


@lru_cache(maxsize=None)
def _sphere_grid(n_theta=64, n_phi=128):
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.arange(n_phi) * (2 * math.pi / n_phi)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    W = np.repeat(w[:, None], n_phi, axis=1) * (2 * math.pi / n_phi)
    return T, P, W


def quad_c_tensor(l, q, J, M, Jp, Mp):
    """<JM|C_lq|J'M'> by Gauss-Legendre x uniform-phi quadrature."""
    T, P, W = _sphere_grid()
    integrand = np.conj(ylm(J, M, T, P)) * c_lq(l, q, T, P) * ylm(Jp, Mp, T, P)
    return complex(np.sum(W * integrand))


def quad_alignment(coeffs, Js, M):
    """<cos^2 theta> for a dressed state sum_J coeffs[J] |J M>, by quadrature."""
    T, P, W = _sphere_grid()
    psi = np.zeros_like(T, dtype=complex)
    for c, J in zip(coeffs, Js):
        psi += c * ylm(J, M, T, P)
    return float(np.real(np.sum(W * np.abs(psi) ** 2 * np.cos(T) ** 2)))


# ---------------------------------------------------------------------------
# Wigner rotation matrices from the explicit factorial sum

def small_d(j, mp, m, beta):
    """d^j_{mp,m}(beta), Wigner's factorial-sum formula."""
    smin = max(0, m - mp)
    smax = min(j + m, j - mp)
    pre = math.sqrt(math.factorial(j + mp) * math.factorial(j - mp)
                    * math.factorial(j + m) * math.factorial(j - m))
    c = np.cos(beta / 2.0)
    s = np.sin(beta / 2.0)
    tot = 0.0
    for k in range(smin, smax + 1):
        denom = (math.factorial(j + m - k) * math.factorial(k)
                 * math.factorial(mp - m + k) * math.factorial(j - mp - k))
        tot = tot + (-1) ** (mp - m + k) / denom * c ** (2 * j + m - mp - 2 * k) * s ** (mp - m + 2 * k)
    return pre * tot


def wigner_D(j, m, k, phi, theta, gamma):
    """D^j_{mk}(phi, theta, gamma) = e^{-i m phi} d^j_{mk}(theta) e^{-i k gamma}."""
    return np.exp(-1j * m * np.asarray(phi)) * small_d(j, m, k, theta) * np.exp(-1j * k * gamma)


@lru_cache(maxsize=None)
def _grid_ylm(J, M):
    """ylm(J, M) on the quadrature grid, memoized (read-only)."""
    T, P, _ = _sphere_grid()
    out = ylm(J, M, T, P)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _grid_wigner_D(j, m, k, gamma):
    """wigner_D(j, m, k) on the quadrature grid at one gamma, memoized (read-only)."""
    T, P, _ = _sphere_grid()
    out = wigner_D(j, m, k, P, T, gamma)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _quad_f_spherical(Je, Me, Lam, J, M, n_gamma):
    """The q = -1, 0, +1 components behind quad_f_factor; x, y and z share them."""
    _, _, W = _sphere_grid()
    norm = math.sqrt((2 * Je + 1) / (4 * math.pi))
    gammas = np.arange(n_gamma) * (2 * math.pi / n_gamma)
    fq = {}
    for q in (-1, 0, 1):
        acc = 0j
        for g in gammas:
            integrand = (np.conj(_grid_ylm(J, M))
                         * np.conj(_grid_wigner_D(1, q, -Lam, g))
                         * norm * np.conj(_grid_wigner_D(Je, Me, Lam, g)))
            acc += np.sum(W * integrand) / n_gamma
        fq[q] = acc
    return fq


def quad_f_factor(Je, Me, Lam, J, M, sigma, branch=0, n_gamma=8):
    """Transition-amplitude angular factor by 3D quadrature over (phi, theta, gamma).

    Physical definition: the rotational part of <J M| d_sigma |Je Me Lam>
    for a unit molecular-frame transition moment, with the excited
    symmetric-top wavefunction sqrt((2Je+1)/4pi) D^{Je*}_{Me Lam} and the
    lab dipole d_q = sum_q' D^{1*}_{q q'} d^mol_{q'}; the Sigma ground state
    forces q' = -Lam. The integrand is gamma-independent once the body-frame
    indices balance; averaging over an explicit gamma grid checks that.
    Grid values of Y_JM and D^j_mk and the spherical components are memoized,
    so repeated and per-sigma calls reuse them.
    """
    if abs(Lam) > Je:
        return 0j
    if branch:
        return (quad_f_factor(Je, Me, Lam, J, M, sigma, 0, n_gamma)
                + branch * quad_f_factor(Je, Me, Lam, J, -M, sigma, 0, n_gamma)) / math.sqrt(2)
    if sigma not in ("x", "y", "z"):
        raise ValueError(sigma)
    fq = _quad_f_spherical(Je, Me, Lam, J, M, n_gamma)
    if sigma == "x":
        return (fq[-1] - fq[1]) / math.sqrt(2)
    if sigma == "y":
        return 1j * (fq[-1] + fq[1]) / math.sqrt(2)
    return fq[0]


# ---------------------------------------------------------------------------
# Rigid-rotor Stark references

def pt_c2(J, M):
    """Second-order perturbation coefficient: E = B J(J+1) + c2 (dE)^2/B + O(beta^4)."""
    if J == 0:
        return -1.0 / 6.0
    return (J * (J + 1) - 3 * M ** 2) / (2 * J * (J + 1) * (2 * J - 1) * (2 * J + 3))


@lru_cache(maxsize=None)
def _quad_c_cached(l, q, J, M, Jp, Mp):
    return quad_c_tensor(l, q, J, M, Jp, Mp)


def stark_ref(beta, M, J_max=10):
    """Dressed rotor from quadrature matrix elements: H/B = diag(J(J+1)) - beta <cos theta>."""
    Js = list(range(abs(M), J_max + 1))
    n = len(Js)
    H = np.zeros((n, n))
    for i, J in enumerate(Js):
        H[i, i] = J * (J + 1)
        if i + 1 < n:
            c10 = _quad_c_cached(1, 0, J, M, J + 1, M).real
            H[i, i + 1] = H[i + 1, i] = -beta * c10
    w, v = np.linalg.eigh(H)
    for k in range(n):
        imax = int(np.argmax(np.abs(v[:, k])))
        if v[imax, k] < 0:
            v[:, k] = -v[:, k]
    return Js, w, v


def c20_ref(beta, M, J_tilde, J_max=10):
    """<C_20> of the dressed state, still with quadrature matrix elements."""
    Js, w, v = stark_ref(beta, M, J_max)
    u = v[:, J_tilde - abs(M)]
    tot = 0.0
    for i, J in enumerate(Js):
        for j, Jp in enumerate(Js):
            if abs(J - Jp) in (0, 2):
                tot += u[i] * u[j] * _quad_c_cached(2, 0, J, M, Jp, M).real
    return tot


def beta_star_ref(J_max=10):
    """Dimensionless location of the (0,0)x(1,0) polarizability crossing."""
    diff = lambda b: c20_ref(b, 0, 0, J_max) - c20_ref(b, 0, 1, J_max)
    return brentq(diff, 1.0, 5.0, xtol=1e-13, rtol=1e-14)


if __name__ == "__main__":
    # Freeze-value report: run once, paste results into the test modules.
    print("three_j_ref(0,1,1;0,0,0) =", repr(three_j_ref(0, 1, 1, 0, 0, 0)))
    print("three_j_ref(1,1,2;0,0,0) =", repr(three_j_ref(1, 1, 2, 0, 0, 0)))
    print("quad_c(1,0,0,0,1,0)      =", quad_c_tensor(1, 0, 0, 0, 1, 0))
    print("quad_c(2,0,1,0,1,0)      =", quad_c_tensor(2, 0, 1, 0, 1, 0))
    print("quad_F(1,0,0, 0,0,z)     =", quad_f_factor(1, 0, 0, 0, 0, "z"))
    print("quad_F(2,1,1, 1,1,+,x)   =", quad_f_factor(2, 1, 1, 1, 1, "x", branch=+1))
    print("quad_F(2,1,1, 1,1,-,x)   =", quad_f_factor(2, 1, 1, 1, 1, "x", branch=-1))
    print("sum rule S|F|^2 (z,Lam0) =", sum(abs(quad_f_factor(Je, Me, 0, 0, 0, "z")) ** 2
                                            for Je in range(0, 3) for Me in range(-Je, Je + 1)))
    print("beta_star_ref            =", repr(beta_star_ref()))
    print("pt_c2(0,0), (1,0), (1,1) =", pt_c2(0, 0), pt_c2(1, 0), pt_c2(1, 1))
    for beta in (3.837, 20.0):
        for Jt in (0, 1):
            _, w10, _ = stark_ref(beta, 0, 10)
            _, w14, _ = stark_ref(beta, 0, 14)
            rel = abs(w10[Jt] - w14[Jt]) / max(abs(w14[Jt]), 1.0)
            print(f"convergence beta={beta} Jt={Jt}: rel change 10->14 = {rel:.3e}")
