"""Golden find-magic-field outputs: the CLI tables must not drift.

``tests/golden/find_magic_field.json`` holds the ``--no-meta`` stdout, the
stderr and the exit code of every command in ``CORPUS``. Every cell must
come back byte-identical except ``alpha_diff_at_root``, which is rounding
noise around zero and is only bounded relative to the isotropic
polarizability.

Regenerate (only when an output change is intended and documented) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest

from magictrap.cli import run
from magictrap.units import alpha_lambda_at, load_molecule

GOLDEN = Path(__file__).parent / "golden" / "find_magic_field.json"

CORPUS = [
    ["find-magic-field", "--molecule", mol, "--pair", pair, "--pol", pol, "--range", rng, "--no-meta"]
    for mol in ("KRb", "RbCs")
    for pair in ("0,0:1,0", "0,0:2,0", "1,0:1,1,+")
    for pol in ("z", "x", "theta:20")
    for rng in ("0:15", "0:30")
]

DIFF_COLUMN = "alpha_diff_at_root[a.u.]"


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout": out.getvalue().splitlines(), "stderr": err.getvalue().splitlines()}


def _rows(lines):
    return list(csv.reader(io.StringIO("\n".join(lines))))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv[2:9:2]))
def test_find_magic_field_matches_golden(golden, argv):
    want = golden[" ".join(argv)]
    got = capture(argv)
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    got_rows, want_rows = _rows(got["stdout"]), _rows(want["stdout"])
    assert len(got_rows) == len(want_rows)
    if not want_rows:
        return
    header = want_rows[0]
    assert got_rows[0] == header
    i_diff = header.index(DIFF_COLUMN)
    a_par, a_perp = alpha_lambda_at(load_molecule(argv[2]), 9174.0)
    abar = (a_par + 2.0 * a_perp) / 3.0
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        assert abs(float(got_row[i_diff])) <= 1e-9 * abar
        del got_row[i_diff], want_row[i_diff]
        assert got_row == want_row


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({" ".join(a): capture(a) for a in CORPUS}, indent=1) + "\n")
