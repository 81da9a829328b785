"""Angular kernels against exact and quadrature references."""

import math

import pytest

from magictrap.angular import (
    c_tensor_element,
    f_factor,
    three_j,
)

import oracles

# frozen from oracles.three_j_ref / quad_* (see oracles.py __main__ report)
FROZEN_3J = [
    ((0, 1, 1, 0, 0, 0), -0.5773502691896257),
    ((1, 1, 2, 0, 0, 0), 0.3651483716701107),
    ((1, 2, 1, 0, 0, 0), 0.3651483716701107),
    ((2, 2, 2, 0, 0, 0), -0.23904572186687872),
    ((1, 1, 2, 1, -1, 0), 0.18257418583505536),
]


@pytest.mark.parametrize("args,expected", FROZEN_3J)
def test_three_j_frozen(args, expected):
    assert three_j(*args) == pytest.approx(expected, rel=0, abs=1e-15)


def test_three_j_matches_symbolic_reference():
    for j1 in range(0, 5):
        for j2 in range(0, 5):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -m1 - m2
                        if abs(m3) > j3:
                            continue
                        ref = oracles.three_j_ref(j1, j2, j3, m1, m2, m3)
                        assert three_j(j1, j2, j3, m1, m2, m3) == pytest.approx(
                            ref, rel=0, abs=1e-14
                        ), (j1, j2, j3, m1, m2, m3)


def test_three_j_equals_fraction_reference():
    """Bitwise equal to Racah's sum in Fraction arithmetic for every j <= 8."""
    for j1 in range(0, 9):
        for j2 in range(0, 9):
            for j3 in range(abs(j1 - j2), min(j1 + j2, 8) + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(max(-j2, -j3 - m1), min(j2, j3 - m1) + 1):
                        args = (j1, j2, j3, m1, m2, -m1 - m2)
                        assert three_j(*args) == oracles.three_j_fraction(*args), args


def test_three_j_selection_rules():
    assert three_j(1, 1, 1, 1, 1, 1) == 0.0      # m sum
    assert three_j(1, 1, 3, 0, 0, 0) == 0.0      # triangle
    assert three_j(1, 1, 1, 0, 0, 0) == 0.0      # parity: odd j sum at m=0
    assert three_j(1, 1, 2, 2, -2, 0) == 0.0     # |m| > j


def test_three_j_column_swap_phase():
    # odd permutation multiplies by (-1)^(j1+j2+j3)
    for args in [(1, 2, 3, 1, -1, 0), (2, 2, 2, 1, 0, -1), (1, 1, 2, 1, 0, -1)]:
        j1, j2, j3, m1, m2, m3 = args
        phase = (-1) ** (j1 + j2 + j3)
        assert three_j(j2, j1, j3, m2, m1, m3) == pytest.approx(
            phase * three_j(*args), abs=1e-15
        )


def test_three_j_orthogonality_small():
    # sum over m1 at fixed (j3, m3): (2 j3 + 1) sum 3j^2 = 1
    for j1 in range(0, 7):
        for j2 in range(0, 7):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m3 in range(-j3, j3 + 1):
                    total = 0.0
                    for m1 in range(-j1, j1 + 1):
                        m2 = -m1 - m3
                        if abs(m2) > j2:
                            continue
                        total += (2 * j3 + 1) * three_j(j1, j2, j3, m1, m2, m3) ** 2
                    assert abs(total - 1.0) < 1e-13, (j1, j2, j3, m3)


def test_c_tensor_element_quadrature():
    for l in (1, 2):
        for q in range(-l, l + 1):
            for j in range(0, 4):
                for jp in range(0, 4):
                    for m in range(-j, j + 1):
                        mp = m - q
                        if abs(mp) > jp:
                            continue
                        ref = oracles.quad_c_tensor(l, q, j, m, jp, mp)
                        assert abs(ref.imag) < 1e-10
                        assert c_tensor_element(l, q, j, m, jp, mp) == pytest.approx(
                            ref.real, rel=0, abs=1e-9
                        ), (l, q, j, m, jp, mp)


def test_c_tensor_element_selection_rules():
    assert c_tensor_element(1, 0, 0, 0, 1, 1) == 0.0    # projection mismatch
    assert c_tensor_element(1, 0, 1, 0, 1, 0) == 0.0    # parity: J + 1 + J' odd
    assert c_tensor_element(2, 0, 0, 0, 1, 0) == 0.0    # triangle
    assert c_tensor_element(1, 0, 0, 0, 1, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    assert c_tensor_element(2, 0, 1, 0, 1, 0) == pytest.approx(0.4, abs=1e-15)


def test_c_tensor_element_symmetric_in_bra_ket():
    for j in range(0, 4):
        for jp in range(0, 4):
            for m in range(-min(j, jp), min(j, jp) + 1):
                for l in (1, 2):
                    assert c_tensor_element(l, 0, j, m, jp, m) == pytest.approx(
                        c_tensor_element(l, 0, jp, m, j, m), abs=1e-15
                    )


FROZEN_F = [
    # (J_e, M_e, Lam, J, M, branch, sigma), value
    ((1, 0, 0, 0, 0, 0, "z"), 0.5773502691896257 + 0j),
    ((2, 2, 1, 1, 1, +1, "x"), 0.27386127875258304 + 0j),   # sqrt(3/40)
    ((2, 2, 1, 1, 1, -1, "x"), 0.27386127875258304 + 0j),
    ((2, 1, 1, 1, 1, +1, "z"), -0.2738612787525830 + 0j),
    ((2, 1, -1, 1, 1, +1, "z"), -0.2738612787525831 + 0j),
    ((2, 0, 1, 1, 1, +1, "y"), 0.22360679774997907j),        # i/sqrt(20)
    ((2, 0, 1, 1, 1, -1, "y"), 0j),
    ((1, 1, 0, 1, 0, 0, "x"), 0j),                           # parity-blocked
    ((2, 1, 1, 1, 1, +1, "x"), 0j),                          # projection-blocked
]


@pytest.mark.parametrize("args,expected", FROZEN_F)
def test_f_factor_frozen(args, expected):
    j_e, m_e, lam, j, m, branch, sigma = args
    val = f_factor(j_e, m_e, lam, j, m, branch=branch, sigma=sigma)
    assert val == pytest.approx(expected, abs=1e-14)


def test_f_factor_quadrature_grid():
    """Production amplitudes equal the 3-D rotational-overlap quadrature."""
    for j_e in range(0, 4):
        for lam in (0, 1, -1):
            if abs(lam) > j_e:
                continue
            for m_e in range(-j_e, j_e + 1):
                for j in range(0, 3):
                    for m in range(-j, j + 1):
                        for sigma in ("x", "y", "z"):
                            ref = oracles.quad_f_factor(j_e, m_e, lam, j, m, sigma)
                            val = f_factor(j_e, m_e, lam, j, m, sigma=sigma)
                            assert val == pytest.approx(ref, abs=2e-9), (
                                j_e, m_e, lam, j, m, sigma,
                            )


def test_f_factor_branch_quadrature():
    for branch in (+1, -1):
        for sigma in ("x", "y", "z"):
            for m_e in (-1, 0, 1, 2):
                ref = oracles.quad_f_factor(2, m_e, 1, 1, 1, sigma, branch=branch)
                val = f_factor(2, m_e, 1, 1, 1, branch=branch, sigma=sigma)
                assert val == pytest.approx(ref, abs=2e-9)


def test_f_factor_isotropic_sum_rule():
    """J=0 state: each Cartesian direction soaks up 1/3 of the Sigma strength."""
    for sigma in ("x", "y", "z"):
        total = 0.0
        for j_e in range(0, 3):
            for m_e in range(-j_e, j_e + 1):
                total += abs(f_factor(j_e, m_e, 0, 0, 0, sigma=sigma)) ** 2
        assert total == pytest.approx(1.0 / 3.0, abs=1e-14), sigma


def test_f_factor_lambda_sign_symmetry():
    """F(-Lam) = (-1)^(J+1+J_e) F(Lam) at fixed everything else."""
    for j_e in range(1, 4):
        for m_e in range(-j_e, j_e + 1):
            for j in range(0, 3):
                for m in range(-j, j + 1):
                    for sigma in ("x", "y", "z"):
                        a = f_factor(j_e, m_e, 1, j, m, sigma=sigma)
                        b = f_factor(j_e, m_e, -1, j, m, sigma=sigma)
                        phase = (-1) ** (j + 1 + j_e)
                        assert b == pytest.approx(phase * a, abs=1e-14)


def test_f_factor_branch_lambda_me_reversal():
    """Combined M_e -> -M_e, Lam -> -Lam maps branches onto themselves:
    y picks up the branch sign, x the opposite."""
    for branch in (+1, -1):
        for j_e in range(1, 4):
            for m_e in range(-j_e, j_e + 1):
                fy = f_factor(j_e, m_e, 1, 1, 1, branch=branch, sigma="y")
                fy_r = f_factor(j_e, -m_e, -1, 1, 1, branch=branch, sigma="y")
                assert fy_r == pytest.approx(branch * fy, abs=1e-14)
                fx = f_factor(j_e, m_e, 1, 1, 1, branch=branch, sigma="x")
                fx_r = f_factor(j_e, -m_e, -1, 1, 1, branch=branch, sigma="x")
                assert fx_r == pytest.approx(-branch * fx, abs=1e-14)


def test_f_factor_sigma_validation():
    with pytest.raises(ValueError):
        f_factor(1, 0, 0, 0, 0, sigma="w")
