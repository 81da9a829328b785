"""AC tensors: closed-form vs state-sum routes, branches and shifts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magictrap.angular import f_factor
from magictrap.polarizability import (
    _DEGENERACY_RTOL,
    _K_COHERENCE,
    MAGIC_ANGLE_DEG,
    _branch_orientation,
    _intermediate_states,
    _sos_table,
    PolarizationVector,
    alpha_eff,
    alpha_eff_from_moments,
    alpha_tensor_closed_form,
    alpha_tensor_sos,
    stark_shift,
)
from magictrap.stark import StateLabel, dressed_moments, solve
from magictrap.units import AU_POL_TO_MHZ_PER_W_CM2, load_molecule

KRB = load_molecule("KRb")
RBCS = load_molecule("RbCs")
A_PAR, A_PERP = 600.0, 200.0      # round numbers: abar = 1000/3, da = 400


def block(mol, beta, m, j_max=10):
    return solve(mol, mol.field_for_beta(beta) if beta else 0.0, m, j_max=j_max)


# ---------------------------------------------------------------- polarization

def test_polarization_constructors():
    z = PolarizationVector.z()
    assert np.allclose(z.array, [0, 0, 1])
    x = PolarizationVector.x()
    assert np.allclose(x.array, [1, 0, 0])
    th = PolarizationVector.linear_deg(90.0)
    assert np.allclose(th.array, [1, 0, 0], atol=1e-15)
    assert np.allclose(PolarizationVector.linear_deg(0.0).array, [0, 0, 1])
    for sense in ("+", "-"):
        c = PolarizationVector.circular(sense)
        assert np.sum(np.abs(c.array) ** 2) == pytest.approx(1.0, rel=1e-15)
        assert not c.is_linear()
    assert th.is_linear()


def test_polarization_parse():
    assert np.allclose(PolarizationVector.parse("z").array, [0, 0, 1])
    assert np.allclose(PolarizationVector.parse("x").array, [1, 0, 0])
    p = PolarizationVector.parse(f"theta:{MAGIC_ANGLE_DEG}")
    assert abs(p.array[2]) == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert np.allclose(
        PolarizationVector.parse("sigma+").array,
        PolarizationVector.circular("+").array,
    )
    for bad in ("w", "theta:", "theta:abc", "sigma*", ""):
        with pytest.raises(ValueError):
            PolarizationVector.parse(bad)


@pytest.mark.parametrize(
    "pol, text",
    [
        (PolarizationVector.z(), "z"),
        (PolarizationVector.x(), "x"),
        (PolarizationVector.circular("+"), "sigma+"),
        (PolarizationVector.circular("-"), "sigma-"),
        (PolarizationVector.linear_deg(0.0), "z"),
        (PolarizationVector.linear_deg(15.0), "theta:15"),
        (PolarizationVector.linear_deg(MAGIC_ANGLE_DEG), "theta:54.73561032"),
        (PolarizationVector.linear_deg(90.0), "x"),
        (PolarizationVector((math.sqrt(0.5), 0.5j, -0.5)), "(0.707107+0j, 0+0.5j, -0.5+0j)"),
    ],
)
def test_polarization_text(pol, text):
    assert str(pol) == text


def test_polarization_normalization():
    with pytest.raises(ValueError):
        PolarizationVector((0.5, 0.0, 0.0))


# ------------------------------------------------------------ zero-field cases

def test_zero_field_ground_state_is_isotropic():
    sys = block(KRB, 0.0, 0)
    abar = (A_PAR + 2 * A_PERP) / 3.0
    for route in (alpha_tensor_closed_form, alpha_tensor_sos):
        t = route(sys, StateLabel(0, 0), A_PAR, A_PERP)
        assert np.allclose(t.matrix, abar * np.eye(3), atol=1e-10 * abar)


def test_zero_field_j1_m0_diagonals():
    t = alpha_tensor_closed_form(block(KRB, 0.0, 0), StateLabel(1, 0), A_PAR, A_PERP)
    da = A_PAR - A_PERP
    assert t.zz == pytest.approx(A_PERP + 3 * da / 5, rel=1e-13)
    assert t.xx == pytest.approx(A_PERP + da / 5, rel=1e-13)
    assert t.yy == pytest.approx(t.xx, rel=1e-14)


def test_zero_field_j1_m1_branches():
    sys = block(KRB, 0.0, 1)
    plus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "+"), A_PAR, A_PERP)
    minus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "-"), A_PAR, A_PERP)
    # da = 400: diag part (360, 360, 280), coherence moves +-80 between x and y
    assert plus.xx == pytest.approx(280.0, rel=1e-13)
    assert plus.yy == pytest.approx(440.0, rel=1e-13)
    assert plus.zz == pytest.approx(280.0, rel=1e-13)
    assert minus.xx == pytest.approx(440.0, rel=1e-13)
    assert minus.yy == pytest.approx(280.0, rel=1e-13)
    assert minus.zz == pytest.approx(280.0, rel=1e-13)


def test_isotropic_molecule_gives_scalar_tensor():
    for beta in (0.0, 2.5):
        for m, label in [(0, StateLabel(0, 0)), (0, StateLabel(1, 0)), (1, StateLabel(1, 1, "+"))]:
            sys = block(RBCS, beta, m)
            for route in (alpha_tensor_closed_form, alpha_tensor_sos):
                t = route(sys, label, 300.0, 300.0)
                assert np.allclose(t.matrix, 300.0 * np.eye(3), atol=1e-9 * 300.0)


def test_single_channel_weights():
    """J=0 at zero field is isotropic per channel: Sigma alone gives a_par/3,
    Pi alone gives 2 a_perp/3 on every axis."""
    sys = block(KRB, 0.0, 0)
    sigma_only = alpha_tensor_sos(sys, StateLabel(0, 0), 900.0, 0.0)
    assert np.allclose(sigma_only.matrix, 300.0 * np.eye(3), atol=1e-10 * 300.0)
    pi_only = alpha_tensor_sos(sys, StateLabel(0, 0), 0.0, 300.0)
    assert np.allclose(pi_only.matrix, 200.0 * np.eye(3), atol=1e-10 * 300.0)


# ------------------------------------------------------------ route equivalence

def test_routes_agree_dressed_grid():
    for beta in (0.0, 2.5, 8.0):
        for m in (0, 1):
            sys = block(RBCS, beta, m)
            labels = []
            for jt in range(abs(m), 3):
                if m == 0:
                    labels.append(StateLabel(jt, 0))
                else:
                    labels.append(StateLabel(jt, m, "+"))
                    labels.append(StateLabel(jt, m, "-"))
            for label in labels:
                a = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP)
                b = alpha_tensor_sos(sys, label, A_PAR, A_PERP)
                scale = max(np.max(np.abs(a.matrix)), 1.0)
                assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10 * scale, (beta, label)


def _dense_sos_table(m_abs, branch, j_max, j_e_max):
    """f_factor at every (intermediate state, sigma, J), zero rows dropped."""
    amps, lams = [], []
    for lam, j_e, m_e in _intermediate_states(j_e_max):
        f = np.array([
            [f_factor(j_e, m_e, lam, j, m_abs, branch=branch, sigma=sigma)
             for j in range(m_abs, j_max + 1)]
            for sigma in ("x", "y", "z")
        ])
        if np.any(f):
            amps.append(f)
            lams.append(lam)
    return np.array(amps), np.array(lams)


def _sos_loop_reference(sys, label, alpha_par, alpha_perp):
    """The per-term sum over states, one f_factor call per term."""
    m = abs(label.m)
    branch = {"": 0, "+": 1, "-": -1}[label.branch]
    row = sys.amplitudes(label.j_tilde)
    matrix = np.zeros((3, 3), dtype=complex)
    for lam, j_e, m_e in _intermediate_states(sys.j_max + 1):
        amp = np.array([
            sum(row[i] * f_factor(j_e, m_e, lam, j, m, branch=branch, sigma=sigma)
                for i, j in enumerate(range(m, sys.j_max + 1)))
            for sigma in ("x", "y", "z")
        ])
        matrix += (alpha_par if lam == 0 else alpha_perp) * np.outer(amp, amp.conj())
    return matrix


@pytest.mark.parametrize("m_abs,branch", [(0, 0), (1, 1), (1, -1)])
def test_sos_table_equals_dense_table(m_abs, branch):
    amp, lam = _dense_sos_table(m_abs, branch, 10, 11)
    table = _sos_table(m_abs, branch, 10, 11)
    assert table.amp.shape == amp.shape
    assert np.array_equal(table.amp, amp)
    assert np.array_equal(table.lam, lam)


def test_sos_table_is_cached_and_read_only():
    sys = block(KRB, 2.0, 1)
    label = StateLabel(1, 1, "+")
    first = alpha_tensor_sos(sys, label, A_PAR, A_PERP).matrix
    misses = _sos_table.cache_info().misses
    again = alpha_tensor_sos(sys, label, A_PAR, A_PERP).matrix
    assert _sos_table.cache_info().misses == misses
    assert np.array_equal(first, again)
    table = _sos_table(1, 1, 10, 11)
    assert not table.amp.flags.writeable and not table.lam.flags.writeable
    with pytest.raises(ValueError):
        table.amp[0, 0, 0] = 1.0


@pytest.mark.parametrize("m,label", [(0, StateLabel(1, 0)), (1, StateLabel(2, 1, "+")), (1, StateLabel(1, 1, "-"))])
def test_sos_matches_per_term_loop(m, label):
    sys = block(RBCS, 3.0, m)
    ref = _sos_loop_reference(sys, label, A_PAR, A_PERP)
    got = alpha_tensor_sos(sys, label, A_PAR, A_PERP).matrix
    # only the summation order differs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@given(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["+", "-"]),
    st.sampled_from([10, 12]),
    st.sampled_from([1, 3]),
)
@settings(max_examples=60, deadline=None)
def test_sos_matches_closed_form(beta, m, dj, branch, j_max, extra):
    label = StateLabel(m + dj, m, branch if m else "")
    sys = block(KRB, beta, m, j_max=j_max)
    a = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP).matrix
    b = alpha_tensor_sos(sys, label, A_PAR, A_PERP, j_e_max=j_max + extra).matrix
    assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(a)), 1.0)


def test_tensor_is_hermitian_and_alpha_eff_real():
    sys = block(KRB, 3.0, 1)
    for branch in ("+", "-"):
        t = alpha_tensor_closed_form(sys, StateLabel(1, 1, branch), A_PAR, A_PERP)
        assert np.max(np.abs(t.matrix - t.matrix.conj().T)) < 1e-12 * A_PAR
        for pol in (PolarizationVector.circular("+"), PolarizationVector.linear_deg(37.0)):
            v = alpha_eff(t, pol)
            assert isinstance(v, float)


def test_trace_identity():
    # Tr alpha = a_par + 2 a_perp for every state at every field
    for beta in (0.0, 1.0, 6.0):
        for m, labels in [
            (0, [StateLabel(0, 0), StateLabel(2, 0)]),
            (1, [StateLabel(1, 1, "+"), StateLabel(2, 1, "-")]),
        ]:
            sys = block(KRB, beta, m)
            for label in labels:
                t = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP)
                assert np.trace(t.matrix).real == pytest.approx(
                    A_PAR + 2 * A_PERP, rel=1e-13
                )


def test_closed_form_tensor_is_symmetric_with_trace_abar():
    # Hermitian and also symmetric, so it has no rank-1 (antisymmetric) part:
    # only the rank-0 part abar and a rank-2 part
    sys = block(RBCS, 4.0, 1)
    t = alpha_tensor_closed_form(sys, StateLabel(1, 1, "+"), A_PAR, A_PERP)
    assert np.max(np.abs(t.matrix - t.matrix.conj().T)) < 1e-12 * A_PAR
    assert np.max(np.abs(t.matrix - t.matrix.T)) < 1e-10 * A_PAR
    assert abs(np.trace(t.matrix).real / 3 - (A_PAR + 2 * A_PERP) / 3.0) < 1e-10 * A_PAR


def test_block_zz_sum_is_field_independent():
    # summing alpha_zz over a complete dressed block is a unitary trace
    for m in (0, 1):
        sums = []
        for beta in (0.0, 5.0):
            sys = block(RBCS, beta, m)
            total = 0.0
            for jt in range(m, sys.j_max + 1):
                label = StateLabel(jt, m) if m == 0 else StateLabel(jt, m, "+")
                total += alpha_tensor_closed_form(sys, label, A_PAR, A_PERP).zz
            sums.append(total)
        assert sums[0] == pytest.approx(sums[1], rel=1e-12)


def test_common_shift_covariance():
    # adding c to both channel weights adds c * identity
    sys = block(KRB, 2.0, 1)
    label = StateLabel(1, 1, "+")
    base = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP)
    shifted = alpha_tensor_closed_form(sys, label, A_PAR + 50.0, A_PERP + 50.0)
    assert np.allclose(shifted.matrix - base.matrix, 50.0 * np.eye(3), atol=1e-10)


# ------------------------------------------------------- branches and coherence

@given(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["+", "-"]),
    st.sampled_from(["z", "x", "sigma+", "sigma-"]) | st.floats(0.0, 180.0).map(lambda t: f"theta:{t!r}"),
)
@settings(max_examples=120, deadline=None)
def test_alpha_eff_from_moments_matches_closed_form(beta, m, dj, branch, pol_text):
    label = StateLabel(m + dj, m, branch if m else "")
    pol = PolarizationVector.parse(pol_text)
    sys = block(KRB, beta, m)
    _, c20 = dressed_moments(m, KRB.beta(KRB.field_for_beta(beta)), j_max=10)
    got = alpha_eff_from_moments(label, c20[dj], A_PAR, A_PERP, pol)
    ref = alpha_eff(alpha_tensor_closed_form(sys, label, A_PAR, A_PERP, pol), pol)
    assert abs(got - ref) <= 1e-13 * (A_PAR + 2 * A_PERP) / 3


def _branch_orientation_where(c, alpha_par, alpha_perp):
    """The branch rule as one np.where over any input: the reference for the scalar path."""
    c = np.asarray(c)
    scale = np.maximum(np.maximum(np.abs(alpha_par), np.abs(alpha_perp)), 1e-300)
    return np.where(np.abs(c) <= _DEGENERACY_RTOL * scale, 0, np.where(c.real >= 0.0, 1, -1))


def _alpha_eff_where(label, c20, alpha_par, alpha_perp, polarization):
    """alpha_eff_from_moments on arrays throughout, written with _branch_orientation_where."""
    abar = (alpha_par + 2.0 * alpha_perp) / 3.0
    da = alpha_par - alpha_perp
    e = polarization.array
    w = np.abs(e) ** 2
    k = complex(np.einsum("ab,a,b->", _K_COHERENCE, e, e.conj()))
    c0 = np.asarray(c20, dtype=float)
    out = (abar - da * c0 / 3.0) * (w[0] + w[1]) + (abar + 2.0 * da * c0 / 3.0) * w[2]
    if label.m == 0:
        return out
    t = (c0 - 1.0) / math.sqrt(6.0) if abs(label.m) == 1 else np.zeros_like(c0)
    c = da * t * k
    orientation = _branch_orientation_where(c, alpha_par, alpha_perp)
    split = np.where(orientation == 0, c.real, orientation * np.abs(c))
    return out + {"+": 1, "-": -1}[label.branch] * split


def _unit_vector(parts):
    e = np.array(parts[:3]) + 1j * np.array(parts[3:])
    return PolarizationVector(tuple(e / np.linalg.norm(e)))


_ANY_POLARIZATION = st.one_of(
    st.sampled_from(["z", "x", "sigma+", "sigma-"]).map(PolarizationVector.parse),
    st.floats(0.0, 180.0).map(PolarizationVector.linear_deg),
    st.just(PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)),
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).filter(lambda v: np.linalg.norm(v) > 0.1).map(_unit_vector),
)


@given(
    st.sampled_from([StateLabel(0, 0), StateLabel(2, 0), StateLabel(1, 1, "+"), StateLabel(1, 1, "-"),
                     StateLabel(3, 1, "+"), StateLabel(2, 2, "+"), StateLabel(3, 2, "-")]),
    _ANY_POLARIZATION,
    st.floats(-500.0, 500.0),
    st.one_of(st.floats(1.0, 600.0), st.floats(-600.0, -1.0), st.just(0.0), st.just(-0.0), st.floats(-1e-9, 1e-9)),
    st.lists(st.one_of(st.floats(-0.5, 1.0), st.sampled_from([1.0, 0.0, -0.0, -0.5])), min_size=1, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_alpha_eff_from_moments_on_one_moment_is_bitwise_the_array_call(label, pol, a_perp, da, c20s):
    """One <C_20>, 0-d as a Brent step passes it, gives byte for byte the element the array call gives.

    The array call itself must be what the np.where form of the branch rule
    gives. The drawn moments are joined by ones that put |c| just below and
    just above the degeneracy threshold, and by +-0.
    """
    a_par = a_perp + da
    k = complex(np.einsum("ab,a,b->", _K_COHERENCE, pol.array, pol.array.conj()))
    if abs(da * k) > 0:
        # |c| = |da k| |c0 - 1| / sqrt(6) against 1e-12 max(|a_par|, |a_perp|)
        edge = math.sqrt(6.0) * _DEGENERACY_RTOL * max(abs(a_par), abs(a_perp), 1e-300) / abs(da * k)
        c20s = c20s + [1.0 + sign * f * edge for sign in (1, -1) for f in (0.5, 2.0) if f * edge < 0.5]
    arr = alpha_eff_from_moments(label, np.array(c20s), a_par, a_perp, pol)
    assert arr.tobytes() == _alpha_eff_where(label, np.array(c20s), a_par, a_perp, pol).tobytes()
    per_nu = alpha_eff_from_moments(label, c20s[0], np.array([a_par] * 2), np.array([a_perp] * 2), pol)
    assert per_nu.tobytes() == np.array([arr[0]] * 2).tobytes()
    for i, c0 in enumerate(c20s):
        got = alpha_eff_from_moments(label, np.asarray(c0), a_par, a_perp, pol)
        assert np.float64(got).tobytes() == arr[i].tobytes(), (c0, got, arr[i])
        if abs(label.m) == 1:
            c = da * ((c0 - 1.0) / math.sqrt(6.0)) * k
            assert _branch_orientation(c, a_par, a_perp) == _branch_orientation_where(c, a_par, a_perp)


def test_alpha_eff_from_moments_degenerate_pair_under_z():
    # z light cannot split the |M| = 1 pair; both branches keep the diagonal value
    z = PolarizationVector.z()
    sys = block(KRB, 3.0, 1)
    _, c20 = dressed_moments(1, [0.0, KRB.beta(KRB.field_for_beta(3.0))], j_max=10)
    for branch in ("+", "-"):
        label = StateLabel(1, 1, branch)
        tens = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP, z)
        assert tens.degenerate
        got = alpha_eff_from_moments(label, c20[:, 0], A_PAR, A_PERP, z)
        assert got.shape == (2,)
        assert abs(got[1] - alpha_eff(tens, z)) <= 1e-13 * (A_PAR + 2 * A_PERP) / 3
    with pytest.raises(ValueError):
        alpha_eff_from_moments(StateLabel(1, 1), c20[:, 0], A_PAR, A_PERP, z)


def test_branchless_request_for_degenerate_pair_fails():
    sys = block(KRB, 3.0, 1)
    with pytest.raises(ValueError):
        alpha_tensor_closed_form(sys, StateLabel(1, 1), A_PAR, A_PERP)
    with pytest.raises(ValueError):
        alpha_tensor_sos(sys, StateLabel(1, 1), A_PAR, A_PERP)


def test_block_label_mismatch_fails():
    with pytest.raises(ValueError):
        alpha_tensor_closed_form(block(KRB, 1.0, 0), StateLabel(1, 1, "+"), A_PAR, A_PERP)
    with pytest.raises(ValueError):
        alpha_tensor_closed_form(block(KRB, 1.0, 0), StateLabel(1, 1, "-"), A_PAR, A_PERP)


def test_sos_basis_floor():
    sys = block(KRB, 1.0, 0, j_max=10)
    with pytest.raises(ValueError):
        alpha_tensor_sos(sys, StateLabel(0, 0), A_PAR, A_PERP, j_e_max=10)
    alpha_tensor_sos(sys, StateLabel(0, 0), A_PAR, A_PERP, j_e_max=11)


def test_parallel_light_cannot_split_branches():
    sys = block(KRB, 3.0, 1)
    z = PolarizationVector.z()
    plus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "+"), A_PAR, A_PERP)
    minus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "-"), A_PAR, A_PERP)
    assert alpha_eff(plus, z) == pytest.approx(alpha_eff(minus, z), rel=1e-12)


def test_perpendicular_light_splits_branches():
    sys = block(KRB, 3.0, 1)
    x = PolarizationVector.x()
    plus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "+"), A_PAR, A_PERP)
    minus = alpha_tensor_closed_form(sys, StateLabel(1, 1, "-"), A_PAR, A_PERP)
    a, b = alpha_eff(plus, x), alpha_eff(minus, x)
    assert abs(a - b) > 1e-3 * abs(a)


def test_degeneracy_flag_by_polarization():
    sys = block(KRB, 3.0, 1)
    label = StateLabel(1, 1, "+")
    t_z = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP, PolarizationVector.z())
    assert t_z.degenerate
    t_c = alpha_tensor_closed_form(
        sys, label, A_PAR, A_PERP, PolarizationVector.circular("+")
    )
    assert t_c.degenerate
    t_x = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP, PolarizationVector.x())
    assert not t_x.degenerate


def test_resolved_branches_match_conventional_for_x():
    sys = block(RBCS, 3.0, 1)
    x = PolarizationVector.x()
    for branch in ("+", "-"):
        label = StateLabel(1, 1, branch)
        conv = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP)
        resolved = alpha_tensor_closed_form(sys, label, A_PAR, A_PERP, x)
        assert np.max(np.abs(conv.matrix - resolved.matrix)) < 1e-10 * A_PAR


def test_isotropic_channel_weights_make_branches_degenerate():
    sys = block(KRB, 3.0, 1)
    t = alpha_tensor_closed_form(
        sys, StateLabel(1, 1, "+"), 300.0, 300.0, PolarizationVector.x()
    )
    assert t.degenerate


# ------------------------------------------------------------------ magic angle

def test_magic_angle_value():
    assert MAGIC_ANGLE_DEG == pytest.approx(54.735610317245346, abs=1e-12)
    assert math.cos(math.radians(MAGIC_ANGLE_DEG)) ** 2 == pytest.approx(1 / 3, rel=1e-15)


def test_magic_angle_erases_anisotropy_for_m0():
    pol = PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)
    abar = (A_PAR + 2 * A_PERP) / 3.0
    for beta in (0.0, 1.0, 6.0):
        sys = block(KRB, beta, 0)
        for jt in (0, 1, 2):
            t = alpha_tensor_closed_form(sys, StateLabel(jt, 0), A_PAR, A_PERP)
            assert alpha_eff(t, pol) == pytest.approx(abar, rel=1e-12)


# ------------------------------------------------------------------- AC shifts

def test_stark_shift_scaling():
    sys = block(KRB, 0.0, 0)
    t = alpha_tensor_closed_form(sys, StateLabel(0, 0), A_PAR, A_PERP)
    z = PolarizationVector.z()
    a = alpha_eff(t, z)
    abar = (A_PAR + 2 * A_PERP) / 3.0
    assert a == pytest.approx(abar, rel=1e-13)
    s1 = stark_shift(a, 1.0)
    s2 = stark_shift(a, 2500.0)
    assert s1 == pytest.approx(-abar * AU_POL_TO_MHZ_PER_W_CM2, rel=1e-13)
    assert s2 == pytest.approx(2500.0 * s1, rel=1e-13)
    assert s1 < 0  # red shift for positive alpha
    # an array of alpha_eff gives the shift of each, bitwise the scalar one
    assert stark_shift(np.array([a, -a]), 2500.0).tolist() == [s2, stark_shift(-a, 2500.0)]
    with pytest.raises(ValueError):
        stark_shift(a, -1.0)


@pytest.mark.parametrize("alpha", [369.96, np.array([369.96, 12.5]), np.array([-1e300, 1.0])])
@pytest.mark.parametrize("intensity", [1e308, math.inf])
def test_stark_shift_refuses_a_shift_that_is_not_finite(alpha, intensity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not finite"):
            stark_shift(alpha, intensity)
