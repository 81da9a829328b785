"""Golden CLI and figure outputs: the tables must not drift.

Two files under ``tests/golden/``:

* ``find_magic_field.json``: the ``--no-meta`` stdout, stderr and exit code
  of every command in ``CORPUS``;
* ``tables.json``: the same for ``TABLE_CORPUS`` (sweeps over E_dc, theta
  and nu, magic-angle, eigen, polar, convergence and error paths), plus the
  SHA-256 digest of the CSV of every figure table in ``FIGURES``.

Every cell must come back byte-identical except those in ``NOISE_COLUMNS``:
``alpha_diff_at_root``, the residual at a magic-field root, is rounding
noise around zero that differs between hosts, so there a cell may change
only while it stays within 1e-9 of the isotropic polarizability.

When an output change is intended and documented, update the files with

    PYTHONPATH=src python tests/test_golden.py

It keeps every entry that ``matches`` still accepts (or whose digest is
unchanged) and rewrites only the others, so rounding noise in a
``NOISE_COLUMNS`` cell never churns an entry that was not meant to change.
``matches`` is a plain predicate, so the script also works under
``python -O``.
"""

import contextlib
import csv
import difflib
import hashlib
import io
import json
from pathlib import Path

import pytest

from magictrap.cli import emit_figure_data, run
from magictrap.units import MoleculeSpec, alpha_lambda_at, load_molecule

GOLDEN = Path(__file__).parent / "golden" / "find_magic_field.json"
TABLES = Path(__file__).parent / "golden" / "tables.json"

CORPUS = [
    ["find-magic-field", "--molecule", mol, "--pair", pair, "--pol", pol, "--range", rng, "--no-meta"]
    for mol in ("KRb", "RbCs")
    for pair in ("0,0:1,0", "0,0:2,0", "1,0:1,1,+")
    for pol in ("z", "x", "theta:20")
    for rng in ("0:15", "0:30")
]

_STATES = ["--states", "0,0:1,0:1,1:2,0:2,1,+"]
_POLS = ("z", "x", "theta:20", "theta:54.7356", "sigma+", "sigma-")


def _table_corpus():
    out = []
    for mol in ("KRb", "RbCs"):
        base = ["--molecule", mol]
        for pol in _POLS:
            out.append(["sweep", *base, "--var", "E_dc", "--range", "0:12", "--steps", "13",
                        "--pol", pol, "--intensity", "2500", *_STATES])
            out.append(["sweep", *base, "--var", "nu", "--range", "8800:10400", "--steps", "9",
                        "--field", "2.5", "--pol", pol, *_STATES])
            out.append(["polar", *base, "--field", "4", "--pol", pol, *_STATES])
        for field in ("0", "3.3"):
            out.append(["sweep", *base, "--var", "theta", "--range", "0:90", "--steps", "19",
                        "--field", field, "--nu", "9650", *_STATES])
        for pair in ("0,0:1,0", "0,0:2,0", "1,0:1,1,+", "1,1,+:1,1,-", "2,0:2,1,-", "1,1,+:2,1,+", "1,1,-:2,1,-"):
            out.append(["magic-angle", *base, "--pair", pair])
            out.append(["magic-angle", *base, "--pair", pair, "--range", "0:12", "--steps", "9",
                        "--nu", "9650"])
        for field in ("0", "5"):
            out.append(["eigen", *base, "--field", field, "--states", "0,0:1,0:1,1:2,1:3,0"])
        out.append(["convergence", *base])
        out.append(["convergence", *base, "--field", "30", "--states", "9,0:5,1"])
        out.append(["sweep", *base, "--var", "E_dc", "--range", "0:6", "--steps", "4",
                    "--format", "json", "--states", "1,1"])
    out += [
        ["sweep", "--molecule", "KRb", "--var", "nu", "--range", "100:200", *_STATES],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--nu", "20000", *_STATES],
        ["sweep", "--molecule", "KRb", "--var", "theta", "--range", "0:90", "--nu", "1", *_STATES],
        ["polar", "--molecule", "RbCs", "--nu", "99999", *_STATES],
        ["magic-angle", "--molecule", "KRb", "--nu", "1"],
        ["eigen", "--molecule", "/nonexistent/path.molecule", "--states", "0,0"],
    ]
    return [argv + ["--no-meta"] for argv in out]


TABLE_CORPUS = _table_corpus()

# two synthetic molecules beside the bundled ones: a light rotor with a large
# dipole, and one whose anisotropy alpha_par - alpha_perp is negative
SYNTHETIC = {
    "SynA": MoleculeSpec("SynA", 3000.0, 1.5, (8800.0, 10400.0), (500.0, 560.0), (300.0, 310.0)),
    "SynB": MoleculeSpec("SynB", 800.0, 0.3, (8800.0, 10400.0), (200.0, 230.0), (350.0, 380.0)),
}
FIGURES = [
    (fig, mol, nu)
    for fig in ("fig2", "fig3", "fig4")
    for mol in ("KRb", "RbCs", *SYNTHETIC)
    for nu in (9174.0, 9650.0)
]

NOISE_COLUMNS = ("alpha_diff_at_root[a.u.]",)


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue().splitlines(), "stderr": err.getvalue().splitlines()}


def figure_digest(fig, mol, nu):
    table = emit_figure_data(fig, SYNTHETIC.get(mol, mol), nu_cm=nu)
    return hashlib.sha256(table.to_csv().encode()).hexdigest()


def _figure_key(fig, mol, nu):
    return f"{fig} {mol} {nu:g}"


def _rows(lines):
    return list(csv.reader(io.StringIO("\n".join(lines))))


def _abar(argv):
    nu = float(argv[argv.index("--nu") + 1]) if "--nu" in argv else 9174.0
    a_par, a_perp = alpha_lambda_at(load_molecule(argv[argv.index("--molecule") + 1]), nu)
    return (a_par + 2.0 * a_perp) / 3.0


def matches(got, want, argv) -> bool:
    """Whether a capture reproduces its golden entry: byte for byte outside ``NOISE_COLUMNS``."""
    if (got["exit"], got["stderr"]) != (want["exit"], want["stderr"]):
        return False
    if "json" in argv:
        return got["stdout"] == want["stdout"]
    got_rows, want_rows = _rows(got["stdout"]), _rows(want["stdout"])
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return False
    if not want_rows:
        return True
    header = want_rows[0]
    noisy = {header.index(c) for c in NOISE_COLUMNS if c in header}
    bound = 1e-9 * _abar(argv) if noisy else 0.0
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        if len(got_row) != len(want_row):
            return False
        for i, (g, w) in enumerate(zip(got_row, want_row)):
            if g != w and not (i in noisy and abs(float(g)) <= bound and abs(float(w)) <= bound):
                return False
    return True


def _lines(entry):
    return [f"exit {entry['exit']}", *entry["stdout"], *(f"stderr: {line}" for line in entry["stderr"])]


def assert_matches(got, want, argv):
    assert matches(got, want, argv), "\n".join(
        difflib.unified_diff(_lines(want), _lines(got), "golden", "now", lineterm=""))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tables():
    return json.loads(TABLES.read_text())


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv[2:9:2]))
def test_find_magic_field_matches_golden(golden, argv):
    assert_matches(capture(argv), golden[" ".join(argv)], argv)


@pytest.mark.parametrize("argv", TABLE_CORPUS, ids=lambda argv: " ".join(argv[:-1]))
def test_cli_table_matches_golden(tables, argv):
    assert_matches(capture(argv), tables["cli"][" ".join(argv)], argv)


@pytest.mark.parametrize("fig, mol, nu", FIGURES, ids=lambda x: str(x))
def test_figure_table_matches_golden(tables, fig, mol, nu):
    assert figure_digest(fig, mol, nu) == tables["figures"][_figure_key(fig, mol, nu)]


def _updated(old, corpus):
    """Golden entries for ``corpus``: the ``old`` one where it still matches, else a fresh capture."""
    out = {}
    for argv in corpus:
        key, got = " ".join(argv), capture(argv)
        out[key] = old[key] if key in old and matches(got, old[key], argv) else got
    return out


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    tables = json.loads(TABLES.read_text()) if TABLES.exists() else {"cli": {}}
    GOLDEN.write_text(json.dumps(_updated(golden, CORPUS), indent=1) + "\n")
    TABLES.write_text(json.dumps({
        "cli": _updated(tables["cli"], TABLE_CORPUS),
        "figures": {_figure_key(*f): figure_digest(*f) for f in FIGURES},
    }, indent=1) + "\n")
