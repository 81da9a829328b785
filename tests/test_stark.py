"""DC-field rotor blocks against quadrature references and closed identities."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magictrap import stark
from magictrap.angular import c_tensor_element
from magictrap.stark import (
    StateLabel,
    alignment,
    check_convergence,
    dressed_c20,
    dressed_moments,
    solve,
)
from magictrap.units import DEBYE_KVCM_TO_MHZ, load_molecule

import oracles

KRB = load_molecule("KRb")
RBCS = load_molecule("RbCs")


def test_state_label_parse():
    s = StateLabel.parse("1,1,+")
    assert (s.j_tilde, s.m, s.branch) == (1, 1, "+")
    assert StateLabel.parse("0,0") == StateLabel(0, 0)
    assert StateLabel.parse("2,-1,-").m == -1
    assert str(StateLabel(1, 1, "+")) == "1,1,+"
    assert str(StateLabel(2, 0)) == "2,0"


def test_state_label_validation():
    with pytest.raises(ValueError):
        StateLabel(0, 1)            # j_tilde < |m|
    with pytest.raises(ValueError):
        StateLabel(1, 0, "+")       # branch is only for |m| > 0
    with pytest.raises(ValueError):
        StateLabel.parse("1;1")
    with pytest.raises(ValueError):
        StateLabel.parse("1,1,*")


def hamiltonian(spec, e, m, j_max):
    """The M block in MHz, assembled here from angular.c_tensor_element."""
    js = range(abs(m), j_max + 1)
    de = spec.d00_debye * e * DEBYE_KVCM_TO_MHZ
    return np.array([
        [spec.b_mhz * j * (j + 1) * (j == jp) - de * c_tensor_element(1, 0, j, m, jp, m) for jp in js]
        for j in js
    ])


def test_solve_structure_field_free():
    h = hamiltonian(KRB, 0.0, 0, 6)
    js = np.arange(0, 7)
    assert np.allclose(h, np.diag(KRB.b_mhz * js * (js + 1)))
    sys = solve(KRB, 0.0, 0, j_max=6)
    assert sys.energies.shape == (7,) and sys.u.shape == (7, 7)
    assert np.allclose(sys.energies, np.diag(h), rtol=1e-14)


def test_solve_coupling_entry():
    # <0 0|C_10|1 0> = 1/sqrt(3); off-diagonal is -d E <C_10> in MHz
    e = 5.0
    h = hamiltonian(KRB, e, 0, 6)
    de = KRB.d00_debye * e * DEBYE_KVCM_TO_MHZ
    assert h[0, 1] == pytest.approx(-de / math.sqrt(3), rel=1e-14)
    assert h[1, 0] == h[0, 1]
    # tridiagonal: C_10 only couples J to J +- 1
    assert h[0, 2] == 0.0
    assert h[0, 3] == 0.0
    sys = solve(KRB, e, 0, j_max=6)
    assert np.allclose(sys.energies, np.linalg.eigvalsh(h), rtol=0, atol=1e-9 * np.max(np.abs(sys.energies)))
    recon = sys.u @ h @ sys.u.T
    assert np.max(np.abs(recon - np.diag(sys.energies))) < 1e-9 * np.max(np.abs(sys.energies))


def test_solve_m_offset():
    sys = solve(KRB, 5.0, 2, j_max=8)
    assert sys.energies.shape == (7,)       # J runs 2..8
    assert (sys.index_of(2), sys.index_of(8)) == (0, 6)
    for outside in (1, 9):
        with pytest.raises(ValueError):
            sys.index_of(outside)


def test_solve_validation():
    with pytest.raises(ValueError):
        solve(KRB, 5.0, 2, j_max=4)  # below the |m| + 3 floor
    with pytest.raises(ValueError):
        solve(KRB, -1.0, 0)


def test_energy_sum_is_field_independent():
    # the sum of the eigenvalues is the trace of H, which the field leaves alone
    for m in (0, 1, 2):
        t0 = np.sum(solve(KRB, 0.0, m, j_max=10).energies)
        t1 = np.sum(solve(KRB, 12.0, m, j_max=10).energies)
        assert t1 == pytest.approx(t0, rel=1e-15)


def test_field_free_eigensystem():
    sys = solve(KRB, 0.0, 0, j_max=8)
    js = np.arange(0, 9)
    assert np.allclose(sys.energies, KRB.b_mhz * js * (js + 1), rtol=1e-14)
    assert np.allclose(sys.u, np.eye(9))


def test_energies_match_quadrature_reference():
    """Same block built from quadrature matrix elements, in units of B."""
    for beta in (0.5, 2.5, 6.0):
        for m in (0, 1):
            e = KRB.field_for_beta(beta)
            sys = solve(KRB, e, m, j_max=10)
            js_ref, w_ref, _ = oracles.stark_ref(beta, m, J_max=10)
            assert np.allclose(sys.energies / KRB.b_mhz, w_ref, rtol=0, atol=1e-9)


def test_perturbative_quadratic_shift():
    """Small beta: E = B J(J+1) + c2 (d E)^2 / B with the textbook c2."""
    beta = 0.05
    e = RBCS.field_for_beta(beta)
    de = RBCS.d00_debye * e * DEBYE_KVCM_TO_MHZ
    for (j, m) in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        sys = solve(RBCS, e, m, j_max=12)
        e_num = sys.energies[sys.index_of(j)]
        e_pt = RBCS.b_mhz * j * (j + 1) + oracles.pt_c2(j, m) * de ** 2 / RBCS.b_mhz
        # residual is quartic: c4 beta^4 B with c4 = O(1e-2)
        assert abs(e_num - e_pt) < 1e-4 * RBCS.b_mhz, (j, m)


def test_m_sign_degeneracy():
    for beta in (0.5, 3.0, 8.0):
        e = KRB.field_for_beta(beta)
        up = solve(KRB, e, 1, j_max=10)
        dn = solve(KRB, e, -1, j_max=10)
        assert np.allclose(up.energies, dn.energies, rtol=1e-12)
        assert np.allclose(up.u, dn.u, rtol=0, atol=1e-12)


def test_eigenvector_sign_convention():
    sys = solve(KRB, 10.0, 0, j_max=10)
    for k in range(sys.u.shape[0]):
        row = sys.u[k]
        assert row[np.argmax(np.abs(row))] > 0


def test_orthonormal_rows():
    for m in (0, 1, 3):
        sys = solve(RBCS, 7.0, m, j_max=11)
        gram = sys.u @ sys.u.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_adiabatic_labels_no_crossing():
    """J-tilde ordering stays adiabatic over the working field range:
    consecutive eigenvectors along the sweep overlap strongly."""
    fields = np.linspace(0.0, 15.0, 40)
    for m in (0, 1):
        prev = None
        for e in fields:
            sys = solve(KRB, e, m, j_max=10)
            if prev is not None:
                for k in range(sys.u.shape[0]):
                    assert abs(np.dot(prev[k], sys.u[k])) > 0.9
            prev = sys.u


def test_alignment_field_free_values():
    sys0 = solve(KRB, 0.0, 0)
    assert alignment(sys0, 0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert alignment(sys0, 1) == pytest.approx(3.0 / 5.0, abs=1e-14)
    sys1 = solve(KRB, 0.0, 1)
    assert alignment(sys1, 1) == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_alignment_sum_rule_field_free():
    # sum over M of <cos^2> in a J multiplet = (2J+1)/3
    for j in (1, 2, 3):
        total = 0.0
        for m in range(-j, j + 1):
            total += alignment(solve(KRB, 0.0, m, j_max=max(10, abs(m) + 3)), j)
        assert total == pytest.approx((2 * j + 1) / 3.0, abs=1e-12)


def test_alignment_matches_quadrature():
    for beta in (1.0, 4.0):
        e = KRB.field_for_beta(beta)
        for m, jt in [(0, 0), (0, 1), (1, 1), (1, 2)]:
            sys = solve(KRB, e, m, j_max=10)
            ref = oracles.quad_alignment(sys.amplitudes(jt), list(range(m, 11)), m)
            assert alignment(sys, jt) == pytest.approx(ref, abs=1e-9)


def test_dressed_c20_matches_quadrature_reference():
    for beta in (0.5, 2.5544244296078458, 6.0):
        e = KRB.field_for_beta(beta)
        for m, jt in [(0, 0), (0, 1), (1, 1)]:
            sys = solve(KRB, e, m, j_max=10)
            ref = oracles.c20_ref(beta, m, jt, J_max=10)
            assert dressed_c20(sys, jt) == pytest.approx(ref, rel=0, abs=1e-9)


def test_alignment_monotone_toward_pendular():
    vals = []
    for beta in (0.0, 1.0, 3.0, 8.0, 20.0):
        e = KRB.field_for_beta(beta)
        vals.append(alignment(solve(KRB, e, 0, j_max=16), 0))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_alignment_bounds():
    for beta in (0.0, 2.0, 10.0):
        e = RBCS.field_for_beta(beta)
        for m in (0, 1, 2):
            sys = solve(RBCS, e, m, j_max=12)
            for jt in range(abs(m), 6):
                a = alignment(sys, jt)
                assert 0.0 <= a <= 1.0


def test_check_convergence_field_free():
    assert check_convergence(KRB, 0.0, 0, j_max=10)[0] == pytest.approx(0.0, abs=1e-15)


def test_check_convergence_working_range():
    # KRb at 15 kV/cm (beta ~ 3.84): low states fully converged at j_max = 10
    for m, jt in [(0, 0), (0, 1), (1, 1)]:
        assert check_convergence(KRB, 15.0, m, j_max=10)[jt - m] < 1e-8


def test_check_convergence_flags_high_states():
    # beta = 20 pushes population to high J; a state near the basis edge
    # must report a large relative change rather than silently truncate
    rel = check_convergence(KRB, KRB.field_for_beta(20.0), 0, j_max=10)
    assert rel[9] > 1e-8
    assert rel[0] < 1e-8


@pytest.mark.parametrize("m", [0, 1, -2])
def test_check_convergence_covers_the_block_per_state(m):
    """Entry k is state J_tilde = |M| + k, bitwise the old one-state formula."""
    rel = check_convergence(RBCS, 7.5, m, j_max=11)
    lo, hi = solve(RBCS, 7.5, m, 11).energies, solve(RBCS, 7.5, m, 15).energies
    assert rel.shape == (12 - abs(m),)
    for k in range(len(rel)):
        e_lo, e_hi = float(lo[k]), float(hi[k])
        assert rel[k] == abs(e_lo - e_hi) / max(abs(e_hi), RBCS.b_mhz)


@pytest.mark.parametrize("field", [float("nan"), float("inf"), -1.0])
def test_bad_field_is_refused_before_lapack(field, monkeypatch):
    """One ValueError that names the field, no warning, and no eigh call."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve(KRB, field, 0), lambda: check_convergence(KRB, field, 1)):
            with pytest.raises(ValueError, match="E_dc must be finite and >= 0"):
                call()


@pytest.mark.parametrize("field", [1e308, np.float64(1e308)])
def test_overflowing_coupling_is_named_before_lapack(field, monkeypatch):
    """A finite field whose d E overflows is refused as an overflow, with no warning and no eigh call."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve(KRB, field, 0), lambda: check_convergence(KRB, field, 1)):
            with pytest.raises(ValueError, match="d E overflows at E_dc = 1e[+]308 kV/cm"):
                call()


def test_solve_keeps_its_mhz_diagonal():
    """solve builds diag (B J)(J+1) in MHz, not B times the cached J(J+1); the two round differently."""
    for spec, m, e in ((KRB, 0, 15.0), (RBCS, 1, 2.5), (KRB, 3, 30.0)):
        js = np.arange(abs(m), 15)
        de = spec.d00_debye * e * DEBYE_KVCM_TO_MHZ
        h = np.diag(spec.b_mhz * js * (js + 1)) - de * np.array(
            [[c_tensor_element(1, 0, j, m, jp, m) for jp in js] for j in js])
        assert np.array_equal(solve(spec, e, m, 14).energies, np.linalg.eigh(h)[0])


def test_one_eigh_call_site():
    src = Path(__file__).resolve().parents[1] / "src" / "magictrap"
    sites = [line for path in sorted(src.glob("*.py")) for line in path.read_text().splitlines()
             if "linalg.eigh" in line]
    assert len(sites) == 1, sites


@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_eigensystem_properties_random_field(beta, m):
    e = KRB.field_for_beta(beta) if beta else 0.0
    sys = solve(KRB, e, m, j_max=10)
    n = sys.u.shape[0]
    assert np.max(np.abs(sys.u @ sys.u.T - np.eye(n))) < 1e-12
    assert np.all(np.diff(sys.energies) >= -1e-9 * KRB.b_mhz)
    # reconstructed H eigenvalue identity
    h = hamiltonian(KRB, e, m, 10)
    recon = sys.u @ h @ sys.u.T
    assert np.max(np.abs(np.diag(recon) - sys.energies)) < 1e-9 * max(
        1.0, np.max(np.abs(sys.energies))
    )


# ------------------------------------------------------------ batched kernel

@given(
    st.lists(st.floats(min_value=0.0, max_value=8.0, allow_nan=False), min_size=1, max_size=6),
    st.sampled_from([0, 1, 2]),
)
@settings(max_examples=40, deadline=None)
def test_dressed_moments_match_per_field_solve(betas, m):
    energies, c20 = dressed_moments(m, betas, j_max=10)
    for i, beta in enumerate(betas):
        sys = solve(KRB, KRB.field_for_beta(beta), m, j_max=10)
        ref = sys.energies / KRB.b_mhz
        assert np.max(np.abs(energies[i] - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13
        for k in range(len(sys.energies)):
            assert c20[i, k] == pytest.approx(dressed_c20(sys, abs(m) + k), rel=0, abs=1e-13)


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=3, max_value=20),
    st.one_of(
        st.floats(min_value=0.0, max_value=40.0),
        st.lists(st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=64).map(np.array),
    ),
)
@settings(max_examples=80, deadline=None)
def test_dressed_c20_contraction_is_bitwise_the_elementwise_sum(m, j_max, betas):
    """<C_20> from the einsum equals, bit for bit, sum over J of v * (C_20 v)."""
    j_max = max(j_max, abs(m) + 3)
    geo = stark._geometry(abs(m), j_max)
    _, vecs = stark._eigh(geo.rot, geo.c10, betas, "beta")
    reference = np.sum(vecs * (geo.c20 @ vecs), axis=-2)
    _, c20 = dressed_moments(m, betas, j_max)
    assert c20.tobytes() == reference.tobytes(), (
        "dressed_moments' einsum no longer sums over J in the order of np.sum(..., axis=-2); "
        "a change in numpy's einsum loop order is the likely cause"
    )


def test_dressed_moments_field_free_c20():
    for m in (0, 1, 2):
        energies, c20 = dressed_moments(m, 0.0, j_max=10)
        js = np.arange(m, 11)
        assert np.array_equal(energies, js * (js + 1.0))
        ref = (js * (js + 1) - 3 * m ** 2) / ((2 * js - 1) * (2 * js + 3))
        assert np.allclose(c20, ref, rtol=0, atol=1e-15)


def test_dressed_moments_shapes_and_validation():
    energies, c20 = dressed_moments(1, np.zeros((3, 4)), j_max=10)
    assert energies.shape == c20.shape == (3, 4, 10)
    assert [a.shape for a in dressed_moments(2, [1.0], j_max=10)] == [(1, 9), (1, 9)]
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dressed_moments(0, [1.0, bad])
        # one float beta takes _eigh's scalar path, which refuses it as well
        for one in (bad, np.float64(bad)):
            with pytest.raises(ValueError, match="beta must be finite and >= 0"):
                dressed_moments(0, one)
    with pytest.raises(ValueError):
        dressed_moments(2, 1.0, j_max=4)


def _c_element_exact(k, q, j, m, jp, mp):
    """<j m|C_kq|j' m'> as an exact sympy number, from sympy's own 3-j symbols."""
    from sympy import sqrt
    from sympy.physics.wigner import wigner_3j

    return (-1) ** m * sqrt((2 * j + 1) * (2 * jp + 1)) * wigner_3j(j, k, jp, 0, 0, 0) * wigner_3j(j, k, jp, -m, q, mp)


def test_m1_coherence_identity_exact():
    """<J,+1|C_2,+2|J',-1> = (<J,1|C_20|J',1> - delta_JJ')/sqrt(6) for every J, J' <= 12.

    This is why a dressed |M| = 1 state needs no second moment: its coherence
    is t = (<C_20> - 1)/sqrt(6). Checked in exact arithmetic, independently of
    the package's 3-j code.
    """
    from sympy import sqrt

    nonzero = 0
    for j in range(1, 13):
        for jp in range(1, 13):
            coherence = _c_element_exact(2, 2, j, 1, jp, -1)
            assert coherence == (_c_element_exact(2, 0, j, 1, jp, 1) - int(j == jp)) / sqrt(6), (j, jp)
            nonzero += coherence != 0
    assert nonzero == 12 + 2 * 10    # the diagonal and |J - J'| = 2; parity kills |J - J'| = 1
