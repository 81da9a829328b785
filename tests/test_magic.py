"""Root finding for magic fields and the universal magic angle."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from magictrap import magic, stark
from magictrap.magic import (
    DegenerateDifferenceError,
    NoCrossingError,
    SweepGrid,
    _alpha_effs,
    _alpha_effs_theta,
    _brent,
    _root_brackets,
    emit_figure_data,
    find_magic_field,
    find_magic_fields,
    magic_angle,
    sweep,
)
from magictrap.polarizability import MAGIC_ANGLE_DEG, PolarizationVector, alpha_eff, alpha_tensor_closed_form
from magictrap.stark import StateLabel, solve
from magictrap.units import MoleculeSpec, alpha_lambda_at, load_molecule

import oracles

KRB = load_molecule("KRb")
RBCS = load_molecule("RbCs")
GROUND_PAIR = (StateLabel(0, 0), StateLabel(1, 0))
Z = PolarizationVector.z()

# frozen from oracles.beta_star_ref(J_max=10)
BETA_STAR = 2.5544244296078458


def test_ground_pair_crossing_matches_dimensionless_reference():
    rep = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert rep.beta_star == pytest.approx(BETA_STAR, rel=1e-7)
    assert rep.e_star_kv_cm == pytest.approx(KRB.field_for_beta(BETA_STAR), rel=1e-7)
    assert abs(rep.alpha_diff_at_root) < 1e-6


def test_crossing_fields_are_in_the_expected_windows():
    krb = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert abs(krb.e_star_kv_cm - 10.0) < 1.5
    rbcs = find_magic_field(RBCS, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert abs(rbcs.e_star_kv_cm - 2.0) < 0.3


def test_parallel_branch_pair_crossing():
    for branch in ("+", "-"):
        pair = (StateLabel(1, 0), StateLabel(1, 1, branch))
        rep = find_magic_field(RBCS, pair, Z, e_range=(0.0, 15.0))
        assert abs(rep.e_star_kv_cm - 4.7) < 0.75


def test_crossing_report_fields():
    rep = find_magic_field(RBCS, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    lo, hi = rep.bracket
    assert lo < rep.e_star_kv_cm < hi
    assert rep.achieved_tol < 1e-8
    assert rep.molecule_name == "RbCs"
    assert rep.polarization == "z"
    assert rep.alpha_eff_at_root > 0


def test_beta_star_is_molecule_independent():
    a = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    b = find_magic_field(RBCS, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert a.beta_star == pytest.approx(b.beta_star, rel=1e-6)


def test_beta_star_survives_constant_rescale():
    """Doubling d and B together leaves beta* (and E*) unchanged."""
    doubled = MoleculeSpec(
        name="KRb2x",
        b_mhz=2 * KRB.b_mhz,
        d00_debye=2 * KRB.d00_debye,
        nu_grid=KRB.nu_grid,
        alpha_par=KRB.alpha_par,
        alpha_perp=KRB.alpha_perp,
    )
    a = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    b = find_magic_field(doubled, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert b.beta_star == pytest.approx(a.beta_star, rel=1e-9)
    assert b.e_star_kv_cm == pytest.approx(a.e_star_kv_cm, rel=1e-9)


def test_beta_star_independent_of_alpha_values():
    rng = np.random.default_rng(7)
    ref = None
    for _ in range(5):
        a_perp = rng.uniform(100.0, 500.0)
        da = rng.uniform(50.0, 600.0) * rng.choice([-1.0, 1.0])
        mol = MoleculeSpec(
            name="toy",
            b_mhz=KRB.b_mhz,
            d00_debye=KRB.d00_debye,
            nu_grid=(9000.0, 10000.0),
            alpha_par=(a_perp + da, a_perp + da),
            alpha_perp=(a_perp, a_perp),
        )
        rep = find_magic_field(mol, GROUND_PAIR, Z, e_range=(0.0, 15.0))
        if ref is None:
            ref = rep.beta_star
        assert rep.beta_star == pytest.approx(ref, rel=1e-6)
    assert ref == pytest.approx(BETA_STAR, rel=1e-6)


def test_find_magic_field_deterministic():
    a = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    b = find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert a.e_star_kv_cm == b.e_star_kv_cm
    assert a.bracket == b.bracket


def test_no_crossing_reports_extrema():
    with pytest.raises(NoCrossingError) as exc:
        find_magic_field(KRB, GROUND_PAIR, Z, e_range=(0.0, 3.0))
    msg = str(exc.value)
    assert "[0, 3]" in msg and "spans" in msg


def test_magic_angle_polarization_is_degenerate():
    pol = PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)
    with pytest.raises(DegenerateDifferenceError):
        find_magic_field(KRB, GROUND_PAIR, pol, e_range=(0.0, 15.0))


def test_find_magic_fields_returns_all_brackets():
    reps = find_magic_fields(RBCS, GROUND_PAIR, Z, e_range=(0.0, 15.0))
    assert len(reps) >= 1
    assert all(reps[i].e_star_kv_cm < reps[i + 1].e_star_kv_cm for i in range(len(reps) - 1))


@pytest.mark.parametrize(
    "vals, brackets",
    [
        ([1.0, 0.0, -1.0], [(1, 1)]),                     # zero node, reported once
        ([3.0, 2.0, -1.0, 0.0], [(1, 2), (3, 3)]),        # last node; sign change next to a zero
        ([-1.0, 0.0, 0.0, 2.0, -2.0], [(1, 1), (2, 2), (3, 4)]),
        ([1.0, 2.0], []),
    ],
)
def test_root_brackets(vals, brackets):
    assert _root_brackets(np.array(vals)) == brackets


def _root_brackets_loop(vals):
    """The node-by-node scan that ``_root_brackets`` vectorises: its reference."""
    out = []
    for i, v in enumerate(vals):
        if v == 0.0:
            out.append((i, i))
        elif i + 1 < len(vals) and v * vals[i + 1] < 0.0:
            out.append((i, i + 1))
    return out


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0]), st.floats()), max_size=24),
       st.booleans())
@example([1.0, -0.0, -1.0, math.nan, -2.0, 3.0], True)
@settings(max_examples=300, deadline=None)
def test_root_brackets_matches_the_loop(nodes, zero_last):
    vals = np.array(nodes + [0.0] * zero_last)
    with np.errstate(all="ignore"):
        assert _root_brackets(vals) == _root_brackets_loop(vals)


def test_root_on_a_scan_node_is_reported_once():
    e_star = KRB.field_for_beta(BETA_STAR)
    for n in (3, 5, 9):
        reps = find_magic_fields(KRB, GROUND_PAIR, Z, e_range=(0.0, 2.0 * e_star), scan_points=n)
        assert len(reps) == 1
        assert reps[0].e_star_kv_cm == pytest.approx(e_star, rel=1e-9)


@pytest.mark.parametrize("mol", [KRB, RBCS], ids=lambda m: m.name)
def test_tangent_zero_on_first_node_at_every_nu(mol):
    # (1,0) and (1,1,+) share J = 1 at E = 0, so under x light the curves
    # touch there; the first node's difference is rounding noise of either sign
    pair = (StateLabel(1, 0), StateLabel(1, 1, "+"))
    x = PolarizationVector.x()
    for nu in np.linspace(mol.nu_grid[0], mol.nu_grid[-1], 101):
        reps = find_magic_fields(mol, pair, x, e_range=(0.0, 15.0), nu_cm=float(nu))
        assert [r.e_star_kv_cm for r in reps] == [0.0]


def test_scan_points_floor():
    with pytest.raises(ValueError):
        find_magic_fields(KRB, GROUND_PAIR, Z, scan_points=1)


# ------------------------------------------- one evaluation per field

_MIXED_PAIRS = [GROUND_PAIR, (StateLabel(1, 0), StateLabel(2, 0)), (StateLabel(1, 0), StateLabel(1, 1, "+")),
                (StateLabel(0, 0), StateLabel(2, 1, "-")), (StateLabel(1, 1, "+"), StateLabel(2, 2, "-"))]
_SYNTHETIC = st.builds(
    lambda b, d, a_perp, da: MoleculeSpec("syn", b, d, (8800.0, 10400.0), (a_perp + da,) * 2, (a_perp,) * 2),
    st.floats(300.0, 5000.0), st.floats(0.05, 4.0), st.floats(50.0, 800.0), st.floats(-400.0, 800.0),
)


@given(
    st.one_of(st.sampled_from([KRB, RBCS]), _SYNTHETIC),
    st.sampled_from(_MIXED_PAIRS),
    st.one_of(st.sampled_from([PolarizationVector.z(), PolarizationVector.x()]),
              st.floats(0.0, 90.0).map(PolarizationVector.linear_deg)),
    st.sampled_from([10, 14]),
    st.floats(0.0, 5.0),
    st.floats(0.5, 40.0),
    st.integers(2, 64),
)
@settings(max_examples=30, deadline=None)
def test_a_scan_node_evaluated_alone_is_bitwise_its_scan_value(mol, pair, pol, j_max, lo, width, n):
    """The premise of find_magic_fields' one evaluation per field: it reads Brent's ends and the root off the scan."""
    a_par, a_perp = alpha_lambda_at(mol, 9174.0)
    grid = np.linspace(lo, lo + width, n)
    scan = magic._alpha_effs(mol, pair, grid, a_par, a_perp, (pol,), j_max)[0]
    for i, e_dc in enumerate(grid.tolist()):
        alone = magic._alpha_effs(mol, pair, e_dc, a_par, a_perp, (pol,), j_max)[0]
        for lb, got, want in zip(pair, alone, scan):
            assert np.asarray(got).tobytes() == want[i].tobytes(), (
                f"alpha_eff({lb}) at {e_dc!r} kV/cm alone is {float(got)!r}, batched {want[i]!r}: a stacked "
                "eigh no longer equals one eigh per matrix in this numpy/LAPACK, so find_magic_fields' "
                "reuse of scan values would move its roots")


@pytest.mark.parametrize(
    "mol, pair, pol, e_range, singles",
    [
        (KRB, GROUND_PAIR, Z, (0.0, 15.0), 4),
        (RBCS, (StateLabel(1, 0), StateLabel(2, 0)), PolarizationVector.x(), (0.0, 30.0), None),
        (RBCS, (StateLabel(1, 0), StateLabel(1, 1, "-")), PolarizationVector.linear_deg(30.0), (0.0, 15.0), None),
        (KRB, (StateLabel(1, 0), StateLabel(1, 1, "+")), PolarizationVector.x(), (0.0, 15.0), 0),
    ],
    ids=["krb-ground-z", "rbcs-two-roots", "rbcs-branch", "krb-root-on-node"],
)
def test_each_field_is_evaluated_once(mol, pair, pol, e_range, singles, monkeypatch):
    real_alpha_effs, real_brent = magic._alpha_effs, magic._brent
    fields, asked = [], []

    def counted(molecule, labels, e_dc, *args):
        fields.append(e_dc)
        return real_alpha_effs(molecule, labels, e_dc, *args)

    def recorded(f, a, b, *args, **kwargs):
        return real_brent(lambda x: asked.append(x) or f(x), a, b, *args, **kwargs)

    monkeypatch.setattr(magic, "_alpha_effs", counted)
    monkeypatch.setattr(magic, "_brent", recorded)
    reps = find_magic_fields(mol, pair, pol, e_range)
    grid, *single = fields
    assert np.shape(grid) == (magic._SCAN_POINTS,) and all(np.ndim(e) == 0 for e in single)
    # one kernel call per point Brent asks for that is not a scan node, in the order it asks
    nodes = set(grid.tolist())
    assert single == list(dict.fromkeys(x for x in asked if x not in nodes))
    assert len(reps) >= 1
    if singles is not None:
        assert len(single) == singles


# ------------------------------------------------------ Brent refinement

def _brent_and_brentq(f, a, b, xtol, rtol, maxiter=100):
    """Run ``_brent`` and scipy's ``brentq`` (the test-only reference) on ``f``.

    Asserts bitwise agreement of root, converged flag, iteration count and
    the sequence of evaluation points, or the same ValueError from both.
    Returns the port's result, or the message of that ValueError.
    """
    ref_calls, calls = [], []
    try:
        root, info = brentq(lambda x: ref_calls.append(x) or f(x), a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                            full_output=True, disp=False)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _brent(lambda x: calls.append(x) or f(x), a, b, xtol, rtol, maxiter)
        assert str(got.value) == str(exc) and calls == ref_calls
        return str(exc)
    got = _brent(lambda x: calls.append(x) or f(x), a, b, xtol, rtol, maxiter)
    # an end point that is a root returns before scipy sets its iteration count
    iterations = 0 if f(a) == 0 or f(b) == 0 else info.iterations
    assert got == (root, info.converged, iterations)
    assert calls == ref_calls and len(calls) == info.function_calls
    return got


_SMOOTH = {
    "cubic": lambda c, s: lambda x: (x - c) * (1.0 + s * (x - c) ** 2),
    "tanh": lambda c, s: lambda x: math.tanh(s * (x - c)),
    "exp": lambda c, s: lambda x: math.expm1(s * (x - c)),
    "sin": lambda c, s: lambda x: math.sin(s * (x - c)) + 0.3 * (x - c),
    "tiny": lambda c, s: lambda x: 1e-300 * math.atan(s * (x - c)),   # f(a) f(b) underflows to 0
}


@given(
    st.sampled_from(sorted(_SMOOTH)),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 20.0),
    st.floats(1e-9, 10.0),
    st.floats(1e-9, 10.0),
    st.sampled_from([1e-15, 2e-12, 1e-6]),
    st.sampled_from([4 * np.finfo(float).eps, 1e-12, 1e-6]),
)
@settings(max_examples=300, deadline=None)
def test_brent_is_bitwise_brentq_on_smooth_functions(kind, root, scale, below, above, xtol, rtol):
    f = _SMOOTH[kind](root, scale)
    _brent_and_brentq(f, root - below, root + above, xtol, rtol)


_PAIRS = [GROUND_PAIR, (StateLabel(0, 0), StateLabel(2, 0)), (StateLabel(1, 0), StateLabel(1, 1, "+")),
          (StateLabel(1, 0), StateLabel(2, 0)), (StateLabel(2, 0), StateLabel(2, 1, "-"))]


@given(
    st.sampled_from([KRB, RBCS]),
    st.sampled_from(_PAIRS),
    st.floats(8800.0, 10400.0),
    st.floats(0.0, 90.0),
)
@settings(max_examples=40, deadline=None)
def test_find_magic_fields_refines_as_brentq(mol, pair, nu, theta):
    refined = []

    def both(f, a, b, xtol, rtol, maxiter=100):
        refined.append(_brent_and_brentq(f, a, b, xtol, rtol, maxiter))
        return refined[-1]

    with mock.patch.object(magic, "_brent", both):
        try:
            reps = find_magic_fields(mol, pair, PolarizationVector.linear_deg(theta), (0.0, 30.0), nu)
        except (NoCrossingError, DegenerateDifferenceError):
            return
    assert [r.e_star_kv_cm for r in reps if r.bracket[0] != r.bracket[1]] == [r[0] for r in refined]


def test_brent_out_of_iterations_matches_brentq():
    root, converged, iterations = _brent_and_brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, 1e-15, 1e-12, maxiter=3)
    assert not converged and iterations == 3


@pytest.mark.parametrize(
    "f, message",
    [
        (lambda x: math.nan if x > 0.5 else x - 0.7, "The function value at x=1.0 is NaN; solver cannot continue."),
        (lambda x: x + 1.0, "f(a) and f(b) must have different signs"),
    ],
    ids=["nan", "one-sign"],
)
def test_brent_raises_as_brentq(f, message):
    assert _brent_and_brentq(f, 0.0, 1.0, 2e-12, 4 * np.finfo(float).eps) == message


def test_brent_takes_numpy_float_tolerances_silently():
    # a numpy-float rtol once made the iterate a numpy scalar, whose 0 * inf in _div warned
    def f(x):
        return 1e-300 * math.atan(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _brent(f, -1.0, 1e-9, 1e-15, np.float64(4 * np.finfo(float).eps))
        assert _brent_and_brentq(f, -1.0, 1e-9, 1e-15, np.float64(4 * np.finfo(float).eps)) == got
    assert got == _brent(f, -1.0, 1e-9, 1e-15, 4 * float(np.finfo(float).eps))
    assert got[1:] == (True, 8)


@given(
    st.sampled_from([KRB, RBCS]),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=8),
    st.floats(min_value=-180.0, max_value=360.0),
)
@settings(max_examples=60, deadline=None)
def test_m0_anisotropy_scales_as_p2_of_the_polarization_angle(mol, j_tildes, fields, theta):
    """For M = 0, alpha_eff(theta) - abar = P_2(cos theta) (alpha_eff(z) - abar).

    alpha_eff = abar + da <C_20> (3 |eps_z|^2 - 1)/3 for an M = 0 state, so the
    difference of two M = 0 states is one function of the field times
    (3 |eps_z|^2 - 1): its zeros in E, the magic fields, do not depend on the
    polarization, unless the factor itself vanishes (the magic angle).
    """
    labels = [StateLabel(j, 0) for j in j_tildes]
    a_par, a_perp = alpha_lambda_at(mol, 9174.0)
    abar = (a_par + 2 * a_perp) / 3
    at_theta, at_z = _alpha_effs(mol, labels, fields, a_par, a_perp, (PolarizationVector.linear_deg(theta), Z), 10)
    p2 = (3 * math.cos(math.radians(theta)) ** 2 - 1) / 2
    for got, z in zip(at_theta, at_z):
        assert np.max(np.abs((got - abar) - p2 * (z - abar))) <= 1e-12 * abar


@pytest.mark.parametrize("pair", [GROUND_PAIR, (StateLabel(0, 0), StateLabel(2, 0))], ids=["0,0:1,0", "0,0:2,0"])
@pytest.mark.parametrize("mol", [KRB, RBCS], ids=lambda m: m.name)
def test_m0_magic_field_does_not_depend_on_the_polarization(mol, pair):
    pols = [Z, PolarizationVector.x()] + [PolarizationVector.linear_deg(t) for t in (15.0, 30.0, 75.0)]
    e_stars = [[r.e_star_kv_cm for r in find_magic_fields(mol, pair, pol, e_range=(0.0, 30.0))] for pol in pols]
    for got in e_stars[1:]:
        assert got == pytest.approx(e_stars[0], rel=1e-8)
    # at the magic angle the difference vanishes at every field: no root is reported
    with pytest.raises(DegenerateDifferenceError):
        find_magic_fields(mol, pair, PolarizationVector.linear_deg(MAGIC_ANGLE_DEG), e_range=(0.0, 30.0))


def test_magic_angle_m0_pair():
    rep = magic_angle(GROUND_PAIR, KRB, e_grid_kv_cm=(0.0, 1.0, 2.5, 6.0))
    assert rep.theta0_deg == pytest.approx(54.735610317245346, abs=1e-12)
    assert rep.cos2_theta0 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert not rep.no_common_angle
    assert not rep.degenerate
    assert rep.spread_au < 1e-10 * rep.abar_au
    for e, theta in rep.crossings:
        if theta is not None:
            assert theta == pytest.approx(rep.theta0_deg, abs=1e-9)


def test_magic_angle_branch_pair_has_no_common_angle():
    rep = magic_angle((StateLabel(0, 0), StateLabel(1, 1, "+")), KRB,
                      e_grid_kv_cm=(1.0, 3.0, 6.0))
    assert rep.no_common_angle
    # a pair from two families is reported at cos^2 = 1/3, as before
    assert (rep.theta0_deg, rep.cos2_theta0) == (MAGIC_ANGLE_DEG, 1.0 / 3.0)


@pytest.mark.parametrize("pair", ["1,0:2,2,+", "2,2,+:3,2,-", "0,0:4,3,-"])
def test_magic_angle_one_third_family_is_exactly_theta0(pair):
    """M = 0 and |M| >= 2 states share cos^2 = 1/3, and theta0 is MAGIC_ANGLE_DEG to the bit."""
    rep = magic_angle(tuple(StateLabel.parse(t) for t in pair.split(":")), RBCS, e_grid_kv_cm=(0.5, 2.0, 4.0))
    assert (rep.theta0_deg, rep.cos2_theta0) == (MAGIC_ANGLE_DEG, 1.0 / 3.0)
    assert not rep.no_common_angle
    assert rep.spread_au == 0.0


@pytest.mark.parametrize("pair", ["1,1,+:1,1,-", "2,1,-:2,-1,+"])
@pytest.mark.parametrize("molecule", [KRB, RBCS], ids=["KRb", "RbCs"])
def test_magic_angle_branches_of_one_m1_state_have_no_crossing(molecule, pair):
    """The branches meet only at theta = 0, where z light cannot split them: no crossing there."""
    labels = tuple(StateLabel.parse(t) for t in pair.split(":"))
    rep = magic_angle(labels, molecule, e_grid_kv_cm=(0.0, 1.5, 4.0))
    assert [angle for _, angle in rep.crossings] == [None, None, None]
    assert rep.no_common_angle
    assert (rep.theta0_deg, rep.cos2_theta0) == (MAGIC_ANGLE_DEG, 1.0 / 3.0)
    assert rep.spread_au > 0.0
    # the pair does split away from theta = 0
    a_par, a_perp = alpha_lambda_at(molecule, 9174.0)
    (a,), (b,) = (_alpha_effs_theta(molecule, [lb], 1.5, a_par, a_perp, [0.0, 30.0], 10) for lb in labels)
    assert a[0] == b[0] and a[1] != b[1]


def test_magic_angle_branches_of_one_m2_state_stay_equal_at_every_angle():
    rep = magic_angle((StateLabel(2, 2, "+"), StateLabel(2, 2, "-")), KRB, e_grid_kv_cm=(0.0, 3.0))
    assert [angle for _, angle in rep.crossings] == [None, None]
    assert not rep.no_common_angle
    assert rep.spread_au == 0.0


def test_magic_angle_refuses_a_branchless_m1_state():
    with pytest.raises(ValueError, match="request a"):
        magic_angle((StateLabel(1, 1), StateLabel(2, 1)), KRB)


@pytest.mark.parametrize("branch, cos2", [("+", 1 / 5), ("-", 3 / 7)])
@pytest.mark.parametrize("molecule", [KRB, RBCS], ids=["KRb", "RbCs"])
def test_magic_angle_same_branch_m1_pair_has_its_family_angle(molecule, branch, cos2):
    """Two |M| = 1 states of one branch cross at their family angle at every field, and report it."""
    fields = tuple(np.linspace(0.5, 6.0, 12))
    rep = magic_angle((StateLabel(1, 1, branch), StateLabel(2, 1, branch)), molecule, e_grid_kv_cm=fields)
    family_deg = math.degrees(math.acos(math.sqrt(cos2)))
    assert [e for e, _ in rep.crossings] == pytest.approx(fields)
    for _, theta in rep.crossings:
        assert theta == pytest.approx(family_deg, abs=1e-9)
    assert not rep.no_common_angle
    assert rep.theta0_deg == pytest.approx(family_deg, abs=1e-12)
    assert rep.cos2_theta0 == pytest.approx(cos2, rel=1e-15)
    # alpha_eff at the family angle is the same for both states at every field
    assert rep.spread_au == 0.0


ISO = MoleculeSpec(
    name="iso",
    b_mhz=1000.0,
    d00_debye=1.0,
    nu_grid=(9000.0, 10000.0),
    alpha_par=(300.0, 300.0),
    alpha_perp=(300.0, 300.0),
)


@pytest.mark.parametrize("pair", ["0,0:1,0", "1,1,+:1,1,-", "0,0:1,1,+"])
def test_magic_angle_isotropic_molecule_degenerate(pair):
    rep = magic_angle(tuple(StateLabel.parse(t) for t in pair.split(":")), ISO)
    assert rep.degenerate
    assert not rep.no_common_angle
    assert rep.crossings == tuple((e, None) for e in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    assert rep.spread_au == 0.0


def test_magic_angle_isotropic_molecule_validates_fields_and_labels():
    """An isotropic molecule takes the same path as any other, so bad input is refused as for one."""
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        magic_angle(GROUND_PAIR, ISO, e_grid_kv_cm=(-1.0, 2.0))
    with pytest.raises(ValueError, match="J_tilde = 11 outside"):
        magic_angle((StateLabel(0, 0), StateLabel(11, 0)), ISO)
    with pytest.raises(ValueError, match="request a"):
        magic_angle((StateLabel(0, 0), StateLabel(1, 1)), ISO)


# ----------------------------------------------------------------------- sweep

@given(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["+", "-"]),
    st.lists(st.floats(min_value=-180.0, max_value=180.0, allow_nan=False), min_size=1, max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_theta_identity_matches_closed_form_tensor(beta, m, dj, branch, thetas):
    """alpha_x sin^2 + alpha_z cos^2 is the tensor's alpha_eff under linear light."""
    label = StateLabel(m + dj, m, branch if m else "")
    a_par, a_perp = alpha_lambda_at(RBCS, 9174.0)
    field = RBCS.field_for_beta(beta)
    (got,) = _alpha_effs_theta(RBCS, [label], field, a_par, a_perp, thetas, 10)
    tens = alpha_tensor_closed_form(solve(RBCS, field, m, 10), label, a_par, a_perp)
    want = [alpha_eff(tens, PolarizationVector.linear_deg(t)) for t in thetas]
    assert np.max(np.abs(got - want)) <= 1e-13 * (a_par + 2 * a_perp) / 3


@pytest.mark.parametrize("e_range", [(0.0, math.inf), (-1.0, 5.0), (-math.inf, 5.0)])
def test_find_magic_fields_refuses_a_range_outside_zero_to_inf(e_range):
    """One ValueError that names the range, before numpy warns about it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="e_range must lie in"):
            find_magic_fields(KRB, GROUND_PAIR, Z, e_range=e_range)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(variable="E_dc", start=5.0, stop=1.0, steps=10, molecule=KRB)
    with pytest.raises(ValueError):
        SweepGrid(variable="E_dc", start=0.0, stop=1.0, steps=1, molecule=KRB)
    with pytest.raises(ValueError):
        SweepGrid(variable="banana", start=0.0, stop=1.0, steps=5, molecule=KRB)
    # refused before np.linspace could make inf or nan nodes of them
    for start, stop, message in [(-1e308, 1e308, "range width overflows"), (math.nan, 1.0, "range bounds must be finite"),
                                 (0.0, math.inf, "range bounds must be finite")]:
        with pytest.raises(ValueError, match=message):
            SweepGrid("theta", start, stop, 3, KRB)


def test_field_sweep_table():
    grid = SweepGrid(variable="E_dc", start=0.0, stop=15.0, steps=31, molecule=KRB,
                     polarization=Z)
    table = sweep(grid, [StateLabel(0, 0), StateLabel(1, 0)])
    assert len(table.rows) == 31
    names = [c.name for c in table.columns]
    assert names[0] == "E_dc"
    assert any("alpha_eff(0,0)" in n for n in names)
    assert any("dE(1,0)" in n for n in names)
    # the ground pair difference changes sign inside the window
    i_a = names.index("alpha_eff(0,0)")
    i_b = names.index("alpha_eff(1,0)")
    diffs = [row[i_a] - row[i_b] for row in table.rows]
    assert min(diffs) < 0 < max(diffs)


def test_theta_sweep_magic_angle_column():
    grid = SweepGrid(variable="theta", start=0.0, stop=90.0, steps=91, molecule=KRB,
                     e_dc_kv_cm=5.0)
    table = sweep(grid, [StateLabel(0, 0), StateLabel(1, 0)])
    assert len(table.rows) == 91
    names = [c.name for c in table.columns]
    i_a = names.index("alpha_eff(0,0)")
    i_b = names.index("alpha_eff(1,0)")
    diffs = np.array([abs(r[i_a] - r[i_b]) for r in table.rows])
    k = int(np.argmin(diffs))
    assert abs(table.rows[k][0] - MAGIC_ANGLE_DEG) <= 1.0


def test_nu_sweep_difference_keeps_sign_at_zero_field():
    for mol in (KRB, RBCS):
        grid = SweepGrid(variable="nu", start=9000.0, stop=10000.0, steps=41,
                         molecule=mol, polarization=Z)
        table = sweep(grid, [StateLabel(0, 0), StateLabel(1, 0)])
        names = [c.name for c in table.columns]
        i_a = names.index("alpha_eff(0,0)")
        i_b = names.index("alpha_eff(1,0)")
        diffs = np.array([r[i_a] - r[i_b] for r in table.rows])
        assert np.all(diffs < 0) or np.all(diffs > 0)


def test_sweep_deterministic_serialization():
    grid = SweepGrid(variable="E_dc", start=0.0, stop=10.0, steps=11, molecule=RBCS,
                     polarization=Z)
    t1 = sweep(grid, [StateLabel(0, 0)]).to_csv()
    t2 = sweep(grid, [StateLabel(0, 0)]).to_csv()
    assert t1 == t2


def test_sweep_meta_records_grid():
    grid = SweepGrid(variable="E_dc", start=0.0, stop=10.0, steps=11, molecule=RBCS,
                     polarization=Z)
    table = sweep(grid, [StateLabel(0, 0)])
    assert table.meta.get("molecule") == "RbCs"
    csv_text = table.to_csv()
    assert csv_text.startswith("#")
    assert "molecule" in csv_text


# ------------------------------------------- one diagonalization per table

_BRANCH_PAIR = (StateLabel(0, 0), StateLabel(1, 1, "+"))
# each table that needs both x and z light, with the |M| blocks it reads
_X_AND_Z_TABLES = {
    "fig2": (lambda: emit_figure_data("fig2", RBCS), [0, 1]),
    "fig3": (lambda: emit_figure_data("fig3", KRB), [0]),
    "fig4": (lambda: emit_figure_data("fig4", KRB, nu_cm=9500.0), [0, 1]),
    "sweep:theta": (lambda: sweep(SweepGrid("theta", 0.0, 90.0, 19, RBCS, e_dc_kv_cm=2.0), magic._FIG_STATES), [0, 1]),
    "magic_angle:m0": (lambda: magic_angle(GROUND_PAIR, KRB), [0]),
    "magic_angle:branch": (lambda: magic_angle(_BRANCH_PAIR, RBCS, e_grid_kv_cm=(0.5, 2.0, 4.0)), [0, 1]),
}


def _values(result):
    if isinstance(result, magic.ResultTable):
        return [np.asarray(col.values) for col in result.columns]
    return [np.asarray(v, dtype=float) for v in (result.spread_au, [c[0] for c in result.crossings],
                                                 [math.nan if c[1] is None else c[1] for c in result.crossings])]


@pytest.mark.parametrize("name", list(_X_AND_Z_TABLES))
def test_x_and_z_light_share_one_diagonalization_per_block(name, monkeypatch):
    make, blocks = _X_AND_Z_TABLES[name]
    real_moments, real_alpha_effs = stark.dressed_moments, magic._alpha_effs
    calls = []

    def counted(m, betas, j_max=10):
        calls.append(abs(m))
        return real_moments(m, betas, j_max)

    def per_polarization(molecule, labels, e_dc, a_par, a_perp, polarizations, j_max):
        return [real_alpha_effs(molecule, labels, e_dc, a_par, a_perp, (pol,), j_max)[0] for pol in polarizations]

    monkeypatch.setattr(stark, "dressed_moments", counted)
    shared = make()
    assert sorted(calls) == blocks
    calls.clear()
    monkeypatch.setattr(magic, "_alpha_effs", per_polarization)
    separate = make()
    assert sorted(calls) == sorted(blocks * 2)
    for got, want in zip(_values(shared), _values(separate), strict=True):
        assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


# ------------------------------------- pairs the light cannot tell apart

MAGIC = PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)


def _scan_degenerate_text(mol, pair, pol, e_range=(0.0, 15.0), n=magic._SCAN_POINTS):
    """The DegenerateDifferenceError text of the scan, its count taken from _alpha_effs on the grid."""
    a_par, a_perp = alpha_lambda_at(mol, 9174.0)
    abar = (a_par + 2.0 * a_perp) / 3.0
    a, b = _alpha_effs(mol, pair, np.linspace(*e_range, n), a_par, a_perp, (pol,), 10)[0]
    count = np.count_nonzero(np.abs(a - b) < magic._DEGENERATE_RTOL * abs(abar))
    return (f"alpha_eff({pair[0]}) - alpha_eff({pair[1]}) is identically ~0 over "
            f"[{e_range[0]:.6g}, {e_range[1]:.6g}] kV/cm (within 1e-10 of abar = {abar:.6g} a.u. "
            f"at {count}/{n} scan points); no isolated crossing exists")


def _record_eigh(monkeypatch):
    """Patch ``stark._eigh`` to log the shape of each coupling it diagonalizes."""
    real_eigh, shapes = stark._eigh, []
    monkeypatch.setattr(stark, "_eigh", lambda diag, c10, x, name: shapes.append(np.shape(x)) or real_eigh(diag, c10, x, name))
    return shapes


@pytest.mark.parametrize(
    "mol, pair, pol",
    [
        (KRB, GROUND_PAIR, MAGIC),
        (RBCS, (StateLabel(1, 0), StateLabel(3, 0)), MAGIC),
        (KRB, (StateLabel(0, 0), StateLabel(2, 2, "+")), MAGIC),
        (ISO, GROUND_PAIR, Z),
        (ISO, (StateLabel(2, 2, "-"), StateLabel(3, 0)), PolarizationVector.circular("+")),
    ],
    ids=["krb-ground-magic", "rbcs-m0-magic", "krb-m2-magic", "iso-ground-z", "iso-m2-sigma"],
)
def test_pair_the_light_cannot_split_is_refused_without_a_scan(mol, pair, pol, monkeypatch):
    """The scan's own error, every node counted, after one single-field diagonalization per block."""
    want = _scan_degenerate_text(mol, pair, pol)
    assert f"{magic._SCAN_POINTS}/{magic._SCAN_POINTS} scan points" in want
    shapes = _record_eigh(monkeypatch)
    with pytest.raises(DegenerateDifferenceError) as exc:
        find_magic_fields(mol, pair, pol)
    assert str(exc.value) == want
    assert shapes == [()] * len({abs(lb.m) for lb in pair})


@pytest.mark.parametrize(
    "kwargs, pair, message",
    [
        ({"e_range": (5.0, 1.0)}, GROUND_PAIR, "need e_range"),
        ({"e_range": (0.0, 1e308)}, GROUND_PAIR, "beta = d E / B overflows at E_dc = 1e[+]308 kV/cm"),
        ({}, (StateLabel(0, 0), StateLabel(11, 0)), "J_tilde = 11 outside"),
        ({"j_max": 4}, (StateLabel(0, 0), StateLabel(2, 2, "+")), "j_max must be >= [|]m[|] [+] 3"),
        ({}, (StateLabel(0, 0), StateLabel(2, 2)), "request a [+]/- branch"),
        ({"nu_cm": 20000.0}, GROUND_PAIR, "outside the tabulated range"),
    ],
    ids=["range", "beta-overflow", "j-tilde", "j-max", "branchless", "nu"],
)
@pytest.mark.parametrize("mol, pol", [(KRB, MAGIC), (ISO, Z)], ids=["magic-angle", "isotropic"])
def test_a_pair_the_light_cannot_split_is_checked_as_the_scan_checks_it(mol, pol, kwargs, pair, message, monkeypatch):
    """Each ValueError the scan raises first comes first, with the scan's text and no warning."""
    shapes = _record_eigh(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as fast:
            find_magic_fields(mol, pair, pol, **kwargs)
        # at most one single-field diagonalization per block before the error
        assert len(shapes) <= len({abs(lb.m) for lb in pair}) and set(shapes) <= {()}
        monkeypatch.setattr(magic, "_identically_zero", lambda *args: False)
        with pytest.raises(ValueError) as scan:
            find_magic_fields(mol, pair, pol, **kwargs)
    assert str(fast.value) == str(scan.value)


@pytest.mark.parametrize(
    "pair, pol, error",
    [
        # an M = 0 pair crosses where its <C_20> do, under any light but the magic angle's
        (GROUND_PAIR, PolarizationVector.linear_deg(MAGIC_ANGLE_DEG + 1e-4), None),
        # the branches of one |M| = 2 state never split, but z light fails the bound
        ((StateLabel(2, 2, "+"), StateLabel(2, 2, "-")), Z, DegenerateDifferenceError),
        # an |M| = 1 label carries the coherence, which splits the pair even at the magic angle
        ((StateLabel(1, 0), StateLabel(1, 1, "+")), MAGIC, NoCrossingError),
    ],
    ids=["off-magic", "m2-branches", "m1-at-magic"],
)
def test_the_scan_runs_where_the_bound_fails(pair, pol, error, monkeypatch):
    real_eigh, calls = stark._eigh, []
    monkeypatch.setattr(stark, "_eigh", lambda *args: calls.append(args) or real_eigh(*args))
    assert not magic._identically_zero(pair, pol, *alpha_lambda_at(KRB, 9174.0))
    if error is None:
        (rep,) = find_magic_fields(KRB, pair, pol)
        assert rep.beta_star == pytest.approx(BETA_STAR, rel=1e-7)
    else:
        with pytest.raises(error):
            find_magic_fields(KRB, pair, pol)
    assert calls
