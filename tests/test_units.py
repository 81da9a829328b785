"""Physical constants and molecule table loading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magictrap.units import (
    AU_POL_TO_MHZ_PER_W_CM2,
    CM1_TO_MHZ,
    DEBYE_KVCM_TO_MHZ,
    MoleculeFileError,
    MoleculeSpec,
    alpha_lambda_at,
    load_molecule,
)


def test_dipole_field_constant():
    # 1 debye * 1 kV/cm in MHz, from CODATA 2018 h and the debye definition
    h = 6.62607015e-34
    debye = 1e-21 / 299792458.0
    expected = debye * 1e5 / h / 1e6
    assert DEBYE_KVCM_TO_MHZ == pytest.approx(expected, rel=1e-15)
    assert DEBYE_KVCM_TO_MHZ == pytest.approx(503.412, abs=5e-4)


def test_wavenumber_constant():
    assert CM1_TO_MHZ == pytest.approx(29979.2458, rel=1e-12)


def test_polarizability_intensity_constant():
    # a.u. of polarizability / (2 eps0 c), expressed per W/cm^2 in MHz
    e = 1.602176634e-19
    a0 = 5.29177210903e-11
    hartree = 4.3597447222071e-18
    eps0 = 8.8541878128e-12
    c = 299792458.0
    h = 6.62607015e-34
    au_pol = e ** 2 * a0 ** 2 / hartree
    expected = au_pol / (2 * eps0 * c * h) * 1e4 / 1e6
    assert AU_POL_TO_MHZ_PER_W_CM2 == pytest.approx(expected, rel=1e-12)
    assert AU_POL_TO_MHZ_PER_W_CM2 == pytest.approx(4.687e-8, rel=1e-3)


def test_bundled_molecules():
    krb = load_molecule("KRb")
    rbcs = load_molecule("RbCs")
    assert krb.name == "KRb"
    assert krb.b_mhz == pytest.approx(1113.9)
    assert krb.d00_debye == pytest.approx(0.566)
    assert rbcs.b_mhz == pytest.approx(499.0)
    assert rbcs.d00_debye == pytest.approx(1.225)
    # heavier bialkali: bigger dipole, smaller rotational constant
    assert rbcs.d00_debye > krb.d00_debye
    assert rbcs.b_mhz < krb.b_mhz


def test_load_molecule_case_insensitive():
    assert load_molecule("krb").name == "KRb"
    assert load_molecule("RBCS").name == "RbCs"


def test_alpha_table_shape():
    for name in ("KRb", "RbCs"):
        spec = load_molecule(name)
        nu = np.array(spec.nu_grid)
        assert nu.size >= 2
        assert np.all(np.diff(nu) > 0)
        par = np.array(spec.alpha_par)
        perp = np.array(spec.alpha_perp)
        assert np.all(par > perp)      # parallel channel dominates for these states
        assert np.all(perp > 0)
        assert nu[0] <= 9000 and nu[-1] >= 10000


def test_beta_field_round_trip():
    krb = load_molecule("KRb")
    for beta in (0.1, 1.0, 2.5544244296078458, 8.0):
        e = krb.field_for_beta(beta)
        assert krb.beta(e) == pytest.approx(beta, rel=1e-14)
    assert krb.beta(0.0) == 0.0


def test_beta_scale():
    krb = load_molecule("KRb")
    # beta = d E * (debye kV/cm -> MHz) / B
    assert krb.beta(1.0) == pytest.approx(0.566 * DEBYE_KVCM_TO_MHZ / 1113.9, rel=1e-14)


def test_alpha_lambda_at_nodes_and_midpoints():
    spec = load_molecule("KRb")
    nu = np.array(spec.nu_grid)
    par = np.array(spec.alpha_par)
    perp = np.array(spec.alpha_perp)
    for i in range(nu.size):
        a_par, a_perp = alpha_lambda_at(spec, float(nu[i]))
        assert a_par == pytest.approx(par[i], rel=1e-15)
        assert a_perp == pytest.approx(perp[i], rel=1e-15)
    mid = 0.5 * (nu[2] + nu[3])
    a_par, a_perp = alpha_lambda_at(spec, float(mid))
    assert a_par == pytest.approx(0.5 * (par[2] + par[3]), rel=1e-12)
    assert a_perp == pytest.approx(0.5 * (perp[2] + perp[3]), rel=1e-12)


def test_alpha_lambda_refuses_extrapolation():
    spec = load_molecule("KRb")
    with pytest.raises(ValueError):
        alpha_lambda_at(spec, spec.nu_grid[0] - 1.0)
    with pytest.raises(ValueError):
        alpha_lambda_at(spec, spec.nu_grid[-1] + 1.0)


@given(st.sampled_from(["KRb", "RbCs"]),
       st.lists(st.one_of(st.floats(8700.0, 10500.0), st.sampled_from([8800.0, 10400.0, math.nan])),
                min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_alpha_lambda_at_over_an_array_is_the_lookup_per_point(name, nus):
    """One interpolation over an array: bitwise the per-point values, or the same error."""
    spec = load_molecule(name)
    nus = np.array(nus)
    try:
        expected = [alpha_lambda_at(spec, nu) for nu in nus]
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            alpha_lambda_at(spec, nus)
        assert str(raised.value) == str(exc)   # names the first wavenumber outside, in array order
    else:
        par, perp = alpha_lambda_at(spec, nus)
        assert (par.tolist(), perp.tolist()) == tuple(map(list, zip(*expected)))


def test_molecule_spec_validation():
    ok = dict(
        name="X",
        b_mhz=1000.0,
        d00_debye=1.0,
        nu_grid=(9000.0, 10000.0),
        alpha_par=(500.0, 600.0),
        alpha_perp=(200.0, 250.0),
    )
    MoleculeSpec(**ok)
    with pytest.raises(ValueError):
        MoleculeSpec(**{**ok, "b_mhz": -1.0})
    with pytest.raises(ValueError):
        MoleculeSpec(**{**ok, "d00_debye": -0.5})
    with pytest.raises(ValueError):
        MoleculeSpec(**{**ok, "nu_grid": (10000.0, 9000.0)})
    with pytest.raises(ValueError):
        MoleculeSpec(**{**ok, "alpha_par": (500.0,)})
    with pytest.raises(ValueError):
        MoleculeSpec(**{**ok, "nu_grid": (9000.0,), "alpha_par": (500.0,), "alpha_perp": (200.0,)})
    for bad in (math.inf, math.nan):
        for key in ("b_mhz", "d00_debye"):
            with pytest.raises(ValueError, match="must be finite"):
                MoleculeSpec(**{**ok, key: bad})
        for key in ("nu_grid", "alpha_par", "alpha_perp"):
            with pytest.raises(ValueError, match="must be finite"):
                MoleculeSpec(**{**ok, key: (ok[key][0], bad)})


def test_load_molecule_from_path(tmp_path):
    p = tmp_path / "toy.molecule"
    p.write_text(
        "# toy molecule\n"
        "name Toy\n"
        "B_GHz 1.0\n"
        "d00_debye 0.5\n"
        "alpha: 9000 500 200\n"
        "alpha: 9500 550 220\n"
    )
    spec = load_molecule(str(p))
    assert spec.name == "Toy"
    assert spec.b_mhz == pytest.approx(1000.0)
    assert spec.nu_grid == (9000.0, 9500.0)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("B_GHz 1.0\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "name"),
        ("name T\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "B_GHz"),
        ("name T\nB_GHz 1.0\nd00_debye 0.5\nalpha: 9000 500\nalpha: 9500 550 220\n", "alpha"),
        ("name T\nB_GHz 1.0\nd00_debye 0.5\nalpha: 9500 500 200\nalpha: 9000 550 220\n", "increas"),
        ("name T\nB_GHz 1.0\nd00_debye 0.5\nalpha: 9000 500 200\n", "2 rows"),
        ("name T\nB_GHz zzz\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "B_GHz"),
        # non-finite values, and a B_GHz whose value in MHz overflows
        ("name T\nB_GHz inf\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "B_GHz must be finite"),
        ("name T\nB_GHz nan\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "B_GHz must be finite"),
        ("name T\nB_GHz 1e306\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "B_GHz must be finite"),
        ("name T\nB_GHz 1.0\nd00_debye inf\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "d00_debye must be finite"),
        ("name T\nB_GHz 1.0\nd00_debye nan\nalpha: 9000 500 200\nalpha: 9500 550 220\n", "d00_debye must be finite"),
        ("name T\nB_GHz 1.0\nd00_debye 0.5\nalpha: 8800 nan 228.0\nalpha: 9500 550 220\n", "must be finite"),
        ("name T\nB_GHz 1.0\nd00_debye 0.5\nalpha: 9000 500 -inf\nalpha: 9500 550 220\n", "must be finite"),
        ("name T\nB_GHz 1.0\nd00_debye 0.5\nalpha: 9000 500 200\nalpha: inf 550 220\n", "must be finite"),
    ],
)
def test_molecule_file_errors(tmp_path, body, fragment):
    p = tmp_path / "bad.molecule"
    p.write_text(body)
    with pytest.raises(MoleculeFileError) as exc:
        load_molecule(str(p))
    assert fragment.lower() in str(exc.value).lower()


def test_load_molecule_missing_file():
    with pytest.raises(FileNotFoundError):
        load_molecule("no_such_molecule")
