"""Root finding for magic fields and the universal magic angle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magictrap.magic import (
    DegenerateDifferenceError,
    NoCrossingError,
    SweepGrid,
    _alpha_effs_theta,
    _root_brackets,
    find_magic_field,
    find_magic_fields,
    magic_angle,
    magic_field_polarization_invariance,
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


def test_polarization_invariance_for_m0_pair():
    rep = magic_field_polarization_invariance(RBCS, GROUND_PAIR, e_range=(0.0, 15.0))
    assert rep.max_rel_spread < 1e-8
    found = [e for (_, e, flag) in rep.entries if e is not None and not flag]
    assert len(found) >= 2
    # the magic-angle entry must be flagged degenerate, not show a fake root
    degenerate = [text for (text, e, flag) in rep.entries if flag]
    assert any(text.startswith("theta:54.7") for text in degenerate)


def test_polarization_invariance_rejects_branch_pairs():
    with pytest.raises(ValueError):
        magic_field_polarization_invariance(
            RBCS, (StateLabel(1, 0), StateLabel(1, 1, "+")), e_range=(0.0, 15.0)
        )


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


def test_magic_angle_isotropic_molecule_degenerate():
    iso = MoleculeSpec(
        name="iso",
        b_mhz=1000.0,
        d00_debye=1.0,
        nu_grid=(9000.0, 10000.0),
        alpha_par=(300.0, 300.0),
        alpha_perp=(300.0, 300.0),
    )
    rep = magic_angle(GROUND_PAIR, iso)
    assert rep.degenerate
    assert not rep.no_common_angle


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


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(variable="E_dc", start=5.0, stop=1.0, steps=10, molecule=KRB)
    with pytest.raises(ValueError):
        SweepGrid(variable="E_dc", start=0.0, stop=1.0, steps=1, molecule=KRB)
    with pytest.raises(ValueError):
        SweepGrid(variable="banana", start=0.0, stop=1.0, steps=5, molecule=KRB)


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
