"""Seeded magic-field searches must not drift by a single bit.

``tests/golden/search_digest`` holds one line per search ``_cases`` draws: the
SHA-256 of the text of the reports ``find_magic_fields`` returns, or of the
exception type and text it raises. The cases are drawn from one seeded
``random.Random``: KRb, RbCs and synthetic molecules (one isotropic), every
pair and polarization kind of the ``magic_search`` benchmark, |M| = 2 pairs,
general elliptical light, and searches that end in an error (a range whose
beta overflows, no crossing, bad labels and bases, nu off the table).

A report's text follows the rule of the golden tables (``test_golden``):
``alpha_diff_at_root`` is left out, since that residual at the root is
rounding noise around zero that differs between numpy/LAPACK builds, and the
scan's floats are written as ``fmt_float`` writes them, 12 significant digits.
The root and the values read at it get 10: Brent pins the root only to 1e-12
of itself, so the rounding of another build can move its 12th digit
(perturbing every ``eigh`` input by 1e-16 of itself, as a stand-in for
another build, moved one of the 500 searches at 12 digits in half the trials,
none at 10 in eight trials, and about 120 bit for bit). Searches run with
RuntimeWarning as an error, as Tier-1 does. When a change of the reports is
intended and documented, rewrite the file with

    PYTHONPATH=src python tests/test_search_digest.py
"""

import hashlib
import math
import random
import warnings
from pathlib import Path

from magictrap.magic import find_magic_fields
from magictrap.polarizability import MAGIC_ANGLE_DEG, PolarizationVector
from magictrap.stark import StateLabel
from magictrap.tableio import fmt_float
from magictrap.units import MoleculeSpec, load_molecule

DIGEST = Path(__file__).parent / "golden" / "search_digest"
N_CASES = 500

# the benchmark's pairs three times as often as the rest
_PAIRS = (
    (("0,0", "1,0"), ("0,0", "2,0"), ("1,0", "2,0"), ("1,0", "1,1,+"), ("1,0", "1,1,-")) * 3
    + (("1,1,+", "1,1,-"), ("0,0", "2,2,+"), ("2,2,+", "3,2,-"), ("2,2,+", "2,2,-"), ("1,0", "3,2,+"))
)
_BAD_LABELS = (("0,0", "11,0"), ("0,0", "2,2"), ("3,3,+", "0,0"))


def _molecules(rng):
    mols = [load_molecule("KRb"), load_molecule("RbCs")]
    for k in range(6):
        a_perp = rng.uniform(100.0, 500.0)
        da = rng.uniform(50.0, 600.0) if rng.random() < 0.5 else -rng.uniform(50.0, 0.9 * a_perp)
        slope = rng.uniform(-0.05, 0.05)
        mols.append(MoleculeSpec(f"syn{k}", rng.uniform(300.0, 4000.0), rng.uniform(0.2, 4.0),
                                 (9000.0, 10000.0), (a_perp + da, a_perp + da + 1000.0 * slope),
                                 (a_perp, a_perp - 500.0 * slope)))
    mols.append(MoleculeSpec("iso", 1500.0, 1.2, (9000.0, 10000.0), (300.0, 320.0), (300.0, 320.0)))
    return mols


def _polarization(rng):
    kind = rng.choice(("z", "x", "theta", "magic", "sigma+", "sigma-", "elliptic"))
    if kind == "theta":
        return PolarizationVector.linear_deg(rng.uniform(0.0, 90.0))
    if kind == "magic":
        return PolarizationVector.linear_deg(MAGIC_ANGLE_DEG)
    if kind == "elliptic":
        e = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(3)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in e))
        return PolarizationVector(tuple(x / norm for x in e))
    return PolarizationVector.parse(kind)


def _cases():
    """(molecule, pair, polarization, e_range, nu_cm, j_max, scan_points) per search."""
    rng = random.Random("search-digest")
    mols = _molecules(rng)
    out = []
    for i in range(N_CASES):
        mol = rng.choice(mols)
        lo_nu, hi_nu = mol.nu_grid[0], mol.nu_grid[-1]
        nu = rng.uniform(lo_nu, hi_nu)
        pair = rng.choice(_PAIRS)
        j_max = rng.choice((10, 10, 10, 8, 12))
        scan_points = rng.choice((64, 64, 64, 16, 100))
        e_range = (0.0, mol.field_for_beta(rng.uniform(2.0, 10.0)))
        roll = rng.random()
        if roll < 0.1:
            e_range = (rng.uniform(0.0, 1.0) * e_range[1], e_range[1])
        elif roll < 0.14:
            e_range = (0.0, rng.choice((1e300, 1e308)))
        elif roll < 0.17:
            e_range = (0.0, mol.field_for_beta(rng.uniform(0.05, 1.0)))
        elif roll < 0.19:
            e_range = rng.choice(((3.0, 1.0), (-1.0, 5.0), (0.0, math.inf)))
        elif roll < 0.21:
            nu = hi_nu + rng.uniform(1.0, 100.0)
        elif roll < 0.24:
            pair = rng.choice(_BAD_LABELS)
        elif roll < 0.26:
            j_max = 4
        labels = tuple(StateLabel.parse(s) for s in pair)
        out.append((mol, labels, _polarization(rng), e_range, nu, j_max, scan_points))
    return out


def report_text(r) -> str:
    """One report as text: 12 digits for the scan's floats, 10 at the root, no ``alpha_diff_at_root``."""
    at_root = (r.e_star_kv_cm, r.beta_star, r.achieved_tol, r.alpha_eff_at_root)
    return " ".join([str(r.state_a), str(r.state_b), r.molecule_name, r.polarization,
                     *map(fmt_float, (r.nu_cm, *r.bracket)), *(f"{x:.10g}" for x in at_root)])


def digest_line(case) -> str:
    mol, pair, pol, e_range, nu, j_max, scan_points = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            text = "\n".join(map(report_text, find_magic_fields(mol, pair, pol, e_range, nu, j_max, scan_points)))
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def test_search_digest_is_unchanged():
    want = DIGEST.read_text().splitlines()
    got = [digest_line(case) for case in _cases()]
    assert len(want) == len(got) == N_CASES
    moved = [i for i, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not moved, f"{len(moved)} of {N_CASES} searches changed, first at case {moved[:10]}"


if __name__ == "__main__":
    DIGEST.write_text("".join(digest_line(case) + "\n" for case in _cases()))
    print(f"wrote {DIGEST}")
