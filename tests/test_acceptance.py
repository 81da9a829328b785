"""End-to-end acceptance: one timed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; each criterion also enforces its runtime budget.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from magictrap.lattice import plan_paper_lattice, validate_plan
from magictrap.magic import find_magic_field
from magictrap.polarizability import (
    MAGIC_ANGLE_DEG,
    PolarizationVector,
    alpha_eff,
    alpha_tensor_closed_form,
    alpha_tensor_sos,
    stark_shift,
)
from magictrap.angular import c_tensor_element, three_j
from magictrap.stark import StateLabel, check_convergence, solve
from magictrap.units import (
    CM1_TO_MHZ,
    DEBYE_KVCM_TO_MHZ,
    MoleculeSpec,
    alpha_lambda_at,
    load_molecule,
)

import oracles

KRB = load_molecule("KRb")
RBCS = load_molecule("RbCs")
MOLECULES = (KRB, RBCS)
NU = 9174.0
Z = PolarizationVector.z()
X = PolarizationVector.x()
GROUND_PAIR = (StateLabel(0, 0), StateLabel(1, 0))


@contextlib.contextmanager
def criterion(n, budget_s, desc):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        dt = time.perf_counter() - t0
        ok = (not failed) and dt <= budget_s
        print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} ({dt:.2f}s): {desc}")
    assert dt <= budget_s, f"criterion {n} took {dt:.2f}s, budget {budget_s}s"


def test_01_magic_angle_erases_state_dependence():
    with criterion(1, 1.0, "alpha_eff at cos^2 theta = 1/3 equals abar for M=0 states"):
        pol = PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)
        for mol in MOLECULES:
            a_par, a_perp = alpha_lambda_at(mol, NU)
            abar = (a_par + 2.0 * a_perp) / 3.0
            fields = (0.0, 1.0, mol.field_for_beta(2.5), 6.0)
            values = []
            for e_dc in fields:
                sys = solve(mol, e_dc, 0, j_max=10)
                for label in (StateLabel(0, 0), StateLabel(1, 0)):
                    tens = alpha_tensor_closed_form(sys, label, a_par, a_perp)
                    values.append(alpha_eff(tens, pol))
            values = np.array(values)
            assert np.max(np.abs(values - abar)) <= 1e-12 * abs(abar), mol.name
            assert values.max() - values.min() <= 2e-12 * abs(abar), mol.name


def test_02_route_equivalence():
    with criterion(2, 10.0, "sum-over-states and closed-form tensors agree to 1e-10"):
        betas = (0.0, 0.5, 1.0, 2.5, 6.0, 8.0)
        for mol in MOLECULES:
            a_par, a_perp = alpha_lambda_at(mol, NU)
            for beta in betas:
                e_dc = mol.field_for_beta(beta) if beta else 0.0
                for m in (0, 1):
                    sys = solve(mol, e_dc, m, j_max=10)
                    labels = []
                    for jt in range(m, 4):
                        if m == 0:
                            labels.append(StateLabel(jt, 0))
                        else:
                            # branch pairs span both M = +1 and M = -1
                            labels.append(StateLabel(jt, m, "+"))
                            labels.append(StateLabel(jt, m, "-"))
                    for label in labels:
                        a = alpha_tensor_closed_form(sys, label, a_par, a_perp)
                        b = alpha_tensor_sos(sys, label, a_par, a_perp)
                        scale = max(float(np.max(np.abs(a.matrix))), 1.0)
                        diff = float(np.max(np.abs(a.matrix - b.matrix)))
                        assert diff <= 1e-10 * scale, (mol.name, beta, str(label), diff)
        # labels written with M = -1 fold onto the same pair
        sys = solve(KRB, KRB.field_for_beta(2.5), -1, j_max=10)
        a_par, a_perp = alpha_lambda_at(KRB, NU)
        a = alpha_tensor_closed_form(sys, StateLabel(1, -1, "+"), a_par, a_perp)
        b = alpha_tensor_sos(sys, StateLabel(1, -1, "+"), a_par, a_perp)
        assert float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-10 * float(
            np.max(np.abs(a.matrix))
        )


def test_03_magic_fields_land_in_expected_windows():
    with criterion(3, 5.0, "crossings at 10 (KRb), 2 and 4.7 (RbCs) kV/cm within 15%"):
        krb = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0), nu_cm=NU)
        assert abs(krb.e_star_kv_cm - 10.0) <= 0.15 * 10.0
        rbcs = find_magic_field(RBCS, GROUND_PAIR, Z, e_range=(0.0, 15.0), nu_cm=NU)
        assert abs(rbcs.e_star_kv_cm - 2.0) <= 0.15 * 2.0
        for branch in ("+", "-"):
            pair = (StateLabel(1, 0), StateLabel(1, 1, branch))
            rep = find_magic_field(RBCS, pair, Z, e_range=(0.0, 15.0), nu_cm=NU)
            assert abs(rep.e_star_kv_cm - 4.7) <= 0.15 * 4.7, branch


def test_04_magic_field_polarization_invariant():
    with criterion(4, 5.0, "M=0 magic field identical for z and x polarization"):
        for mol in MOLECULES:
            ez = find_magic_field(mol, GROUND_PAIR, Z, e_range=(0.0, 15.0), nu_cm=NU)
            ex = find_magic_field(mol, GROUND_PAIR, X, e_range=(0.0, 15.0), nu_cm=NU)
            rel = abs(ez.e_star_kv_cm - ex.e_star_kv_cm) / ez.e_star_kv_cm
            assert rel <= 1e-8, (mol.name, rel)


def test_05_beta_star_universality():
    with criterion(5, 10.0, "dimensionless crossing beta* is molecule- and alpha-independent"):
        a = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0), nu_cm=NU)
        b = find_magic_field(RBCS, GROUND_PAIR, Z, e_range=(0.0, 15.0), nu_cm=NU)
        assert abs(a.beta_star - b.beta_star) / a.beta_star <= 1e-6
        rng = np.random.default_rng(12345)
        stars = [a.beta_star]
        for _ in range(20):
            a_perp = rng.uniform(100.0, 500.0)
            da = rng.uniform(50.0, 600.0) * rng.choice([-1.0, 1.0])
            mol = MoleculeSpec(
                name="draw",
                b_mhz=KRB.b_mhz,
                d00_debye=KRB.d00_debye,
                nu_grid=(9000.0, 10000.0),
                alpha_par=(a_perp + da, a_perp + da),
                alpha_perp=(a_perp, a_perp),
            )
            rep = find_magic_field(mol, GROUND_PAIR, Z, e_range=(0.0, 15.0), nu_cm=9500.0)
            stars.append(rep.beta_star)
        stars = np.array(stars)
        assert (stars.max() - stars.min()) / stars.mean() <= 1e-6


def test_06_perturbation_theory_residual_slope():
    with criterion(6, 1.0, "energies match 2nd-order PT with beta^4 residual scaling"):
        betas = np.geomspace(0.01, 0.1, 9)
        resid = {(0, 0): [], (1, 0): []}
        for beta in betas:
            e_dc = KRB.field_for_beta(beta)
            de = KRB.d00_debye * e_dc * DEBYE_KVCM_TO_MHZ
            sys = solve(KRB, e_dc, 0, j_max=12)
            pt0 = -de ** 2 / (6.0 * KRB.b_mhz)
            pt1 = 2.0 * KRB.b_mhz + de ** 2 / (10.0 * KRB.b_mhz)
            resid[(0, 0)].append(abs(sys.energy(0) - pt0))
            resid[(1, 0)].append(abs(sys.energy(1) - pt1))
        for key, r in resid.items():
            slope = np.polyfit(np.log(betas), np.log(r), 1)[0]
            assert abs(slope - 4.0) <= 0.2, (key, slope)


def test_07_basis_convergence_10_vs_14():
    with criterion(7, 1.0, "energies and tensors move < 1e-8 between j_max 10 and 14"):
        a_par, a_perp = alpha_lambda_at(KRB, NU)
        for e_dc in (0.0, 5.0, 10.0, 15.0):
            for m, jt in ((0, 0), (0, 1), (1, 1)):
                assert check_convergence(KRB, e_dc, m, jt, j_max=10) < 1e-8
                label = StateLabel(jt, m) if m == 0 else StateLabel(jt, m, "+")
                t10 = alpha_tensor_closed_form(
                    solve(KRB, e_dc, m, j_max=10), label, a_par, a_perp
                )
                t14 = alpha_tensor_closed_form(
                    solve(KRB, e_dc, m, j_max=14), label, a_par, a_perp
                )
                scale = float(np.max(np.abs(t14.matrix)))
                assert float(np.max(np.abs(t10.matrix - t14.matrix))) < 1e-8 * scale


def test_08_branch_degeneracy_versus_polarization():
    with criterion(8, 1.0, "perpendicular light splits |M|=1 branches, parallel does not"):
        a_par, a_perp = alpha_lambda_at(KRB, NU)
        sys = solve(KRB, KRB.field_for_beta(3.0), 1, j_max=10)
        plus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "+"), a_par, a_perp)
        minus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "-"), a_par, a_perp)
        sp = stark_shift(plus, X, 1.0).delta_e_mhz
        sm = stark_shift(minus, X, 1.0).delta_e_mhz
        assert abs(sp - sm) > 1e-3 * abs(sp)
        zp = stark_shift(plus, Z, 1.0).delta_e_mhz
        zm = stark_shift(minus, Z, 1.0).delta_e_mhz
        assert abs(zp - zm) <= 1e-12 * abs(zp)


def test_09_no_zero_field_magic_frequency():
    with criterion(9, 1.0, "J=0 vs J=1 difference keeps its sign across 9000-10000 cm^-1"):
        nus = np.linspace(9000.0, 10000.0, 201)
        for mol in MOLECULES:
            sys = solve(mol, 0.0, 0, j_max=10)
            for pol in (Z, X):
                diffs = []
                for nu in nus:
                    a_par, a_perp = alpha_lambda_at(mol, float(nu))
                    t0 = alpha_tensor_closed_form(sys, StateLabel(0, 0), a_par, a_perp)
                    t1 = alpha_tensor_closed_form(sys, StateLabel(1, 0), a_par, a_perp)
                    diffs.append(alpha_eff(t0, pol) - alpha_eff(t1, pol))
                diffs = np.array(diffs)
                assert np.all(diffs < 0) or np.all(diffs > 0), (mol.name, str(pol))


def test_10_lattice_plan_passes_validity_checks():
    with criterion(10, 1.0, "three-beam plan: magic tilt to 1e-15, orthogonal k vectors"):
        nu_a_hz = NU * CM1_TO_MHZ * 1e6
        plan = plan_paper_lattice(nu_a_hz, 80e6, 160e6, 25e3)
        assert validate_plan(plan) == []
        for beam in plan.beams:
            assert abs(abs(beam.eps[2]) - 1.0 / math.sqrt(3.0)) <= 1e-15
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(float(np.dot(plan.beams[i].k, plan.beams[j].k))) <= 1e-15


def test_11_angular_kernel_checks():
    with criterion(11, 5.0, "3-j orthogonality (j <= 12) and c_tensor quadrature (J <= 6)"):
        for j1 in range(0, 13):
            for j2 in range(j1, 13):        # j1 <-> j2 leaves every term invariant
                for j3 in range(j2 - j1, min(j1 + j2, 12) + 1):
                    for m3 in range(-j3, j3 + 1):
                        total = 0.0
                        for m1 in range(-j1, j1 + 1):
                            m2 = -m1 - m3
                            if abs(m2) > j2:
                                continue
                            total += (2 * j3 + 1) * three_j(j1, j2, j3, m1, m2, m3) ** 2
                        assert abs(total - 1.0) <= 1e-13, (j1, j2, j3, m3)

        theta, phi, w = oracles._sphere_grid()
        ycache = {}
        for j in range(0, 7):
            for m in range(-j, j + 1):
                ycache[(j, m)] = oracles.ylm(j, m, theta, phi)
        for l in (1, 2):
            for q in range(-l, l + 1):
                clq = oracles.c_lq(l, q, theta, phi)
                for j in range(0, 7):
                    for jp in range(0, 7):
                        for m in range(-j, j + 1):
                            mp = m - q
                            if abs(mp) > jp:
                                continue
                            ref = np.sum(w * np.conj(ycache[(j, m)]) * clq * ycache[(jp, mp)])
                            assert abs(ref.imag) < 1e-10
                            got = c_tensor_element(l, q, j, m, jp, mp)
                            assert abs(got - ref.real) <= 1e-9, (l, q, j, m, jp, mp)
