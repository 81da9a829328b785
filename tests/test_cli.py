"""Command-line surface: exit codes, formats, determinism, figure tables."""

import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magictrap
from magictrap.cli import emit_figure_data, run
from magictrap.units import load_molecule

KRB = load_molecule("KRb")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    """(header, rows) from CLI output, metadata lines stripped."""
    body = "\n".join(l for l in out.splitlines() if l and not l.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return rows[0], rows[1:]


def test_eigen_field_free(capsys):
    code, out, err = invoke(
        capsys, "eigen", "--molecule", "KRb", "--field", "0", "--states", "0,0:1,0"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "state[1]"
    assert len(rows) == 2
    assert float(rows[0][1]) == 0.0
    assert float(rows[1][1]) == pytest.approx(2 * 1113.9, rel=1e-9)
    assert float(rows[0][2]) == pytest.approx(1 / 3, rel=1e-9)
    assert float(rows[1][2]) == pytest.approx(0.6, rel=1e-9)


def test_polar_branch_expansion(capsys):
    code, out, _ = invoke(
        capsys, "polar", "--molecule", "KRb", "--field", "5", "--pol", "x",
        "--states", "1,1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 2   # both branches
    assert [r[0] for r in rows] == ["1,1,+", "1,1,-"]


def test_polar_degenerate_flag_for_z(capsys):
    code, out, _ = invoke(
        capsys, "polar", "--molecule", "KRb", "--field", "5", "--pol", "z",
        "--states", "1,1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    i_deg = header.index("degenerate[1]")
    for row in rows:
        assert row[i_deg] == "1"


def test_find_magic_field_output(capsys):
    code, out, _ = invoke(
        capsys, "find-magic-field", "--molecule", "RbCs", "--pair", "0,0:1,0",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = rows[0]
    e_star = float(row[header.index("E_star[kV/cm]")])
    beta_star = float(row[header.index("beta_star[1]")])
    assert abs(e_star - 2.0) < 0.3
    assert beta_star == pytest.approx(2.5544244296078458, rel=1e-6)


def test_magic_angle_output(capsys):
    code, out, _ = invoke(capsys, "magic-angle", "--molecule", "KRb")
    assert code == 0
    assert "54.7356103172" in out


@pytest.mark.parametrize("pair, cos2, theta0", [("0,0:1,0", "1/3", "54.7356103172"),
                                                ("1,1,+:2,1,+", "1/5", "63.4349488229"),
                                                ("1,1,-:2,1,-", "3/7", "49.1066053509")])
def test_magic_angle_metadata_names_the_family_angle(capsys, pair, cos2, theta0):
    # the table columns are in the golden corpus, which runs without metadata
    code, out, _ = invoke(capsys, "magic-angle", "--molecule", "KRb", "--pair", pair)
    assert code == 0
    assert {f"# theta0_deg = {theta0}", f"# cos2_theta0 = {cos2}"} <= set(out.splitlines())


def test_lattice_json(capsys):
    code, out, _ = invoke(capsys, "lattice")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert len(doc["beams"]) == 3


def test_lattice_rejects_csv(capsys):
    code, out, err = invoke(capsys, "lattice", "--format", "csv")
    assert code == 1
    assert "JSON" in err


def test_sweep_rows(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:10",
        "--steps", "21", "--states", "0,0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 21


def test_convergence_default_states(capsys):
    code, out, _ = invoke(capsys, "convergence", "--molecule", "KRb")
    assert code == 0
    header, rows = parse_csv(out)
    i_conv = header.index("converged[1]")
    assert rows and all(r[i_conv] == "1" for r in rows)


def test_convergence_flags_edge_state(capsys):
    # beta = 20 at j_max = 10 leaves J-tilde = 9 visibly truncated
    field = KRB.field_for_beta(20.0)
    code, out, _ = invoke(
        capsys, "convergence", "--molecule", "KRb", "--field", f"{field}",
        "--states", "9,0", "--jmax", "10",
    )
    assert code == 0
    header, rows = parse_csv(out)
    i_conv = header.index("converged[1]")
    assert rows[0][i_conv] == "0"


# ----------------------------------------------------------------- exit codes

@pytest.mark.parametrize(
    "argv",
    [
        ["bogus-subcommand"],
        ["eigen", "--molecule", "KRb", "--states", "1;1"],
        ["eigen", "--molecule", "KRb", "--states", "0,0", "--unknown-flag"],
        ["polar", "--molecule", "KRb", "--states", "0,0", "--pol", "w"],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "10:0", "--states", "0,0"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--scan-points", "0"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--scan-points", "1"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--scan-points", "-3"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--range", "0:inf"],
        ["lattice", "--format", "csv"],
        [],
        ["polar", "--molecule", "KRb", "--states", "0,0", "--intensity", "nan"],
        ["polar", "--molecule", "KRb", "--states", "0,0", "--nu", "nan"],
        ["eigen", "--molecule", "KRb", "--states", "0,0", "--field", "nan"],
        ["eigen", "--molecule", "KRb", "--states", "0,0", "--field", "inf"],
        ["lattice", "--f-mot", "nan"],
        ["magic-angle", "--molecule", "KRb", "--steps", "0"],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:10", "--states", "0,0", "--steps", "1"],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:10", "--states", "0,0", "--jmax", "2"],
        ["eigen", "--molecule", "KRb", "--states", "0,0:1,1", "--jmax", "3"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,1,+", "--jmax", "3"],
        ["eigen", "--molecule", "KRb", "--states", "11,0"],
        ["magic-angle", "--molecule", "KRb", "--pair", "0,0:11,0"],
        ["polar", "--molecule", "KRb", "--states", "0,0:7,1", "--jmax", "6"],
        ["eigen", "--molecule", "KRb", "--states", "0,0", "--field=-1"],
        ["polar", "--molecule", "KRb", "--states", "0,0", "--field=-1"],
        ["polar", "--molecule", "KRb", "--states", "0,0", "--intensity=-1"],
        ["sweep", "--molecule", "KRb", "--var", "theta", "--range", "0:90", "--states", "0,0", "--field=-1"],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range=-1:5", "--states", "0,0"],
        ["sweep", "--molecule", "KRb", "--var", "theta", "--range=-1e308:1e308", "--states", "0,0"],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--states", "0,0", "--intensity=-2"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--range=-1:15"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--range", "-1:15"],
        ["magic-angle", "--molecule", "KRb", "--range=-1:6"],
        ["convergence", "--molecule", "KRb", "--field=-1"],
        ["convergence", "--molecule", "KRb", "--tol=-1"],
        ["convergence", "--molecule", "KRb", "--tol", "0"],
        ["lattice", "--ratio=-5"],
        ["lattice", "--ratio", "0"],
        ["lattice", "--f-mot", "0"],
        ["lattice", "--f-mot=-25"],
        ["polar", "--molecule", "KRb", "--states", "0,0", "--pol", "theta:nan"],
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--states", "0,0", "--pol", "theta:nan"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--pol", "theta:nan"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--pol", "theta:inf"],
        ["eigen", "--molecule", "KRb", "--states", "0,0", "--jmax", "100000000"],
        ["convergence", "--molecule", "KRb", "--jmax", "201"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") or "error" in err.lower()
    assert len(err.strip().splitlines()) == 1


def test_negative_value_after_an_option(capsys):
    argv = ["sweep", "--molecule", "KRb", "--var", "theta", "--steps", "3", "--states", "0,0", "--no-meta"]
    spaced = invoke(capsys, *argv, "--range", "-10:10")
    assert spaced == invoke(capsys, *argv, "--range=-10:10")
    assert spaced[0] == 0 and spaced[1].splitlines()[1].startswith("-10,")
    # a prefix that names one option is that option, as argparse reads it
    for prefix in ("--ran", "--ra"):
        assert invoke(capsys, *argv, prefix, "-10:10") == spaced
    code, _, err = invoke(capsys, "polar", "--molecule", "KRb", "--states", "0,0", "--fi", "-1")
    assert code == 1 and "argument --field: must be >= 0" in err
    # an ambiguous prefix is left to argparse's own error
    code, _, err = invoke(capsys, "polar", "--molecule", "KRb", "--states", "0,0", "--f", "-1")
    assert code == 1 and "ambiguous option: --f could match" in err
    code, _, err = invoke(capsys, "sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "-1:5", "--states", "0,0")
    assert code == 1 and "fields must be >= 0" in err
    code, _, err = invoke(capsys, "eigen", "--molecule", "KRb", "--states", "-1,0")
    assert code == 1 and "J_tilde >= |M|" in err


# a bracket so wide that Brent's method runs out of steps
BRENT_FAILURE = ["find-magic-field", "--molecule", "RbCs", "--pair", "3,0:1,1,+", "--nu", "8800",
                 "--pol", "sigma-", "--range", "0:1e100", "--jmax", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        # ground pair difference keeps one sign below 3 kV/cm
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--range", "0:3"],
        # magic-angle polarization: difference identically zero
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0",
         "--pol", "theta:54.735610317245346"],
        # lattice hierarchy violation
        ["lattice", "--delta-b", "80", "--delta-c", "80"],
        # beam frequency overflows to inf in Hz, which JSON cannot carry
        ["lattice", "--nu", "1e308"],
        # missing molecule file
        ["eigen", "--molecule", "/nonexistent/path.molecule", "--states", "0,0"],
        # nu outside the tabulated range
        ["polar", "--molecule", "KRb", "--states", "0,0", "--nu", "99999"],
        BRENT_FAILURE,
    ],
)
def test_compute_errors_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--range", "0:1e308"], "overflows"),
        (["magic-angle", "--molecule", "KRb", "--range", "0:1e308"], "overflows"),
        (["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:1e308", "--states", "0,0"], "overflows"),
        (["sweep", "--molecule", "KRb", "--var", "theta", "--range", "0:90", "--states", "0,0", "--field", "1e308"],
         "overflows"),
        (["sweep", "--molecule", "KRb", "--var", "nu", "--range", "9000:9500", "--states", "0,0", "--field", "1e308"],
         "overflows"),
        (["polar", "--molecule", "KRb", "--states", "0,0", "--field", "1e308"], "d E overflows"),
        (["eigen", "--molecule", "KRb", "--states", "0,0", "--field", "1e308"], "d E overflows"),
        (["convergence", "--molecule", "KRb", "--field", "1e308"], "d E overflows"),
        (["polar", "--molecule", "KRb", "--states", "0,0", "--intensity", "1e308"], "not finite"),
        (["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--states", "0,0", "--intensity", "1e308"],
         "not finite"),
    ],
)
def test_overflow_exits_2_without_a_warning(capsys, argv, message):
    """A field whose beta overflows, or an AC shift that does, is one error line: no numpy warning, no -inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("alpha: 8800 nan 228.0", "alpha table values must be finite"),
        ("B_GHz inf", "B_GHz must be finite and > 0"),
        ("d00_debye inf", "d00_debye must be finite and >= 0"),
    ],
)
def test_non_finite_molecule_file_exits_2(tmp_path, capsys, line, message):
    lines = {"name": "name T", "B_GHz": "B_GHz 1.0", "d00_debye": "d00_debye 0.5", "alpha": "alpha: 8800 612.0 228.0"}
    lines[line.split()[0].rstrip(":")] = line
    path = tmp_path / "bad.molecule"
    path.write_text("\n".join(lines.values()) + "\nalpha: 9500 550 220\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, "polar", "--molecule", str(path), "--field", "3", "--states", "0,0:1,0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


class _Allocated(Exception):
    pass


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:1", "--states", "0,0", "--steps", "100000"],
         True),
        (["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:1", "--states", "0,0", "--steps", "100001"],
         False),
        (["sweep", "--molecule", "KRb", "--var", "theta", "--range", "0:1", "--states", "0,0",
          "--steps", "200000000"], False),
        (["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:1", "--states", "0,0", "--steps", "415",
          "--jmax", "200"], True),
        (["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:1", "--states", "0,0", "--steps", "416",
          "--jmax", "200"], False),
        (["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--scan-points", "415", "--jmax", "200"],
         True),
        (["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--scan-points", "3000", "--jmax", "200"],
         False),
        (["magic-angle", "--molecule", "KRb", "--steps", "100001"], False),
    ],
)
def test_grid_ceilings(capsys, monkeypatch, argv, accepted):
    """A grid above 100,000 points, or above 2^24 points x (j_max + 1)^2, is a usage error before numpy allocates."""
    def allocate(*args, **kwargs):
        raise _Allocated

    monkeypatch.setattr(np, "linspace", allocate)
    monkeypatch.setattr(np.linalg, "eigh", allocate)
    if accepted:
        with pytest.raises(_Allocated):
            run(argv)
    else:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: --s") and "must be <=" in err and len(err.splitlines()) == 1


# ------------------------------------------------------------ CLI contract

# a small grammar of (valid, invalid) values for each option
_VALUES = {
    "--molecule": (["KRb", "RbCs"], ["NoSuchMolecule"]),
    "--states": (["0,0", "0,0:1,0", "1,1", "2,1,+:3,0"], ["11,0", "1;1"]),
    "--pair": (["0,0:1,0", "1,0:1,1,+", "3,0:1,1,+", "1,1,+:1,1,-"], ["0,0"]),
    "--pol": (["z", "x", "sigma+", "sigma-", "theta:20", "theta:54.7356103172"], ["theta:nan", "theta:inf", "w"]),
    "--field": (["0", "2.5", "30"], ["-1", "nan"]),
    "--nu": (["8800", "9174", "10400"], ["99999", "nan"]),
    "--range": (["0:15", "0:1e20", "0:1e100", "0:90", "8800:10400"], ["5:0", "-1:5", "0:inf"]),
    "--jmax": (["3", "4", "10", "12"], ["201"]),
    "--steps": (["2", "7"], ["1"]),
    "--scan-points": (["2", "16"], ["1"]),
    "--intensity": (["1", "0"], ["-1"]),
    "--var": (["E_dc", "theta", "nu"], []),
    "--tol": (["1e-8"], ["0"]),
    "--ratio": (["100"], ["-5"]),
    "--f-mot": (["25"], ["0"]),
    "--format": (["csv", "json"], ["xml"]),
}
# (required, optional) options of each subcommand
_OPTIONS = {
    "eigen": (["--molecule", "--states"], ["--field", "--jmax", "--format"]),
    "polar": (["--molecule", "--states"], ["--field", "--nu", "--pol", "--jmax", "--intensity", "--format"]),
    "sweep": (["--molecule", "--states", "--var", "--range"],
              ["--steps", "--field", "--nu", "--pol", "--jmax", "--intensity", "--format"]),
    "find-magic-field": (["--molecule", "--pair"],
                         ["--pol", "--range", "--nu", "--jmax", "--scan-points", "--format"]),
    "magic-angle": (["--molecule"], ["--pair", "--nu", "--range", "--steps", "--jmax", "--format"]),
    "lattice": ([], ["--nu", "--f-mot", "--ratio", "--format"]),
    "convergence": (["--molecule"], ["--field", "--states", "--jmax", "--tol", "--format"]),
}


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(_OPTIONS)))
    required, optional = _OPTIONS[cmd]
    # mostly valid: each required option is present, and each value valid,
    # nine times in ten
    opts = [o for o in required if draw(st.integers(0, 9))]
    opts += draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [cmd]
    for opt in opts:
        valid, invalid = _VALUES[opt]
        value = draw(st.sampled_from(valid if draw(st.integers(0, 9)) or not invalid else invalid))
        # both "--opt value" and "--opt=value"; a value such as -1:5 must reach the option's parser either way
        argv += draw(st.sampled_from([[opt, value], [f"{opt}={value}"]]))
    return argv + ["--no-meta"]


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 does not allow."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _nan_cells(argv, out):
    """Cells of a successful run that read nan (CSV) or null (JSON).

    magic-angle may print one per field in crossing_theta. JSON holding a
    NaN or Infinity constant fails to parse.
    """
    cmd = argv[0]
    if cmd == "lattice":
        _strict_json(out)
        return []
    if "json" in argv or "--format=json" in argv:
        doc = _strict_json(out)
        header = [f"{c['name']}[{c['unit']}]" for c in doc["columns"]]
        rows = [["nan" if c is None else str(c) for c in row] for row in doc["rows"]]
    else:
        header, rows = parse_csv(out)
    keep = [i for i, h in enumerate(header) if not (cmd == "magic-angle" and h.startswith("crossing_theta"))]
    return [row[i] for row in rows for i in keep if row[i].lower() == "nan"]


@given(_argvs())
@example(["polar", "--molecule", "KRb", "--states", "0,0", "--pol", "theta:nan", "--no-meta"])
@example(["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--states", "0,0",
          "--pol", "theta:nan", "--no-meta"])
@example(["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--pol", "theta:nan", "--no-meta"])
@example(["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--pol", "theta:inf", "--no-meta"])
@example(BRENT_FAILURE + ["--no-meta"])
@example(["sweep", "--molecule", "KRb", "--var", "theta", "--ran", "-10:10", "--steps", "3", "--states", "0,0",
          "--no-meta"])
@example(["eigen", "--molecule", "KRb", "--states", "0,0", "--jmax", "201", "--no-meta"])
@example(["magic-angle", "--molecule", "KRb", "--pair", "0,0:1,1,+", "--format", "json", "--no-meta"])
@example(["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "-1:5", "--states", "0,0", "--no-meta"])
@example(["lattice", "--nu", "1e308", "--no-meta"])
@settings(max_examples=300, deadline=None)
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert _nan_cells(argv, out.getvalue()) == []


ROOT = Path(__file__).resolve().parents[1]


def _readme_command_lines():
    """The ``magictrap ...`` lines of the README's ``sh`` blocks, in order."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("magictrap ")]


# the README is the one hand-kept list; the CI workflow must run the same lines
README_COMMANDS = [shlex.split(line)[1:] for line in _readme_command_lines()]


def test_readme_commands_cover_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == {
        "eigen", "polar", "sweep", "find-magic-field", "magic-angle", "lattice", "convergence"}


def test_workflow_runs_the_readme_commands():
    lines = (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    step = [line.strip() for line in lines].index("- name: README commands")
    run_line = lines[step + 1]
    assert run_line.strip() == "run: |"
    indent = len(run_line) - len(run_line.lstrip())
    script = []
    for line in lines[step + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        script.append(line.strip())
    assert [line for line in script if line] == _readme_command_lines()


# runs each argv of the JSON list in sys.argv[1] with every scipy import refused
_RUN_WITHOUT_SCIPY = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
from magictrap.cli import run

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([run(argv), out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_commands_run_without_scipy(capsys):
    corpus = README_COMMANDS + [BRENT_FAILURE]
    src = str(Path(magictrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(corpus)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    refused = json.loads(done.stdout)
    assert [r[0] for r in refused] == [0] * len(README_COMMANDS) + [2]
    assert refused == [list(invoke(capsys, *argv)) for argv in corpus]


def test_import_does_not_load_scipy():
    src = str(Path(magictrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, magictrap, magictrap.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_module_entry_point_runs_the_cli():
    src = str(Path(magictrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["eigen", "--molecule", "KRb", "--states", "0,0", "--no-meta"]
    done = subprocess.run([sys.executable, "-m", "magictrap.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "state[1],E[MHz],alignment_cos2[1]"


def test_help_exits_0(capsys):
    code, out, err = invoke(capsys, "--help")
    assert code == 0
    code2, _, _ = invoke(capsys, "eigen", "--help")
    assert code2 == 0


def test_version_exits_0(capsys):
    code, out, err = invoke(capsys, "--version")
    assert code == 0


# -------------------------------------------------------------- serialization

def test_deterministic_output(capsys):
    argv = ["polar", "--molecule", "RbCs", "--field", "3", "--states", "0,0:1,0:1,1"]
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    assert out1 == out2


def test_no_meta_strips_comment_lines(capsys):
    argv = ["eigen", "--molecule", "KRb", "--states", "0,0"]
    _, with_meta, _ = invoke(capsys, *argv)
    _, without, _ = invoke(capsys, *argv, "--no-meta")
    assert any(l.startswith("#") for l in with_meta.splitlines())
    assert not any(l.startswith("#") for l in without.splitlines())
    body = [l for l in with_meta.splitlines() if not l.startswith("#")]
    assert body == [l for l in without.splitlines() if l]


def test_meta_records_command_line(capsys):
    _, out, _ = invoke(capsys, "eigen", "--molecule", "KRb", "--states", "0,0")
    meta_lines = [l for l in out.splitlines() if l.startswith("#")]
    assert any("magictrap eigen" in l for l in meta_lines)
    assert any("molecule" in l for l in meta_lines)


def test_json_writes_null_for_nan(capsys):
    # the ground state and the + branch never cross: crossing_theta is nan at every field
    argv = ["magic-angle", "--molecule", "KRb", "--pair", "0,0:1,1,+", "--no-meta"]
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    doc = _strict_json(out)
    _, csv_rows = parse_csv(invoke(capsys, *argv)[1])
    assert [r[1] for r in csv_rows] == ["nan"] * len(csv_rows)
    assert [r[1] for r in doc["rows"]] == [None] * len(csv_rows)


def test_json_format(capsys):
    code, out, _ = invoke(
        capsys, "eigen", "--molecule", "KRb", "--states", "0,0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "columns", "rows"}
    assert doc["rows"][0][1] == 0.0


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = invoke(
        capsys, "eigen", "--molecule", "KRb", "--states", "0,0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "state[1]" in text
    assert text.endswith("\n")


def test_scientific_notation_for_extreme_values(capsys):
    # alpha_eff in a.u. is O(100); dE at 1 W/cm^2 is O(1e-6) MHz -> sci notation
    _, out, _ = invoke(
        capsys, "polar", "--molecule", "KRb", "--states", "0,0", "--no-meta"
    )
    header, rows = parse_csv(out)
    de_field = rows[0][header.index("dE[MHz]")]
    assert "e-" in de_field


# ------------------------------------------------------------------ figures

def test_figure_tables_shape():
    fig2 = emit_figure_data("fig2", "KRb")
    assert len(fig2.rows) == 61 * 2 * 4
    pols = {r[1] for r in fig2.rows}
    assert pols == {"z", "x"}

    fig3 = emit_figure_data("fig3", "KRb")
    assert len(fig3.rows) == 61 * 46

    fig4 = emit_figure_data("fig4", "KRb")
    assert len(fig4.rows) == 10 * 91 * 4


def test_figure_values_finite():
    for fig in ("fig2", "fig3", "fig4"):
        table = emit_figure_data(fig, "RbCs")
        vals = [x for row in table.rows for x in row if isinstance(x, float)]
        assert np.all(np.isfinite(vals))


def test_fig3_ground_state_monotone_in_theta_at_high_field():
    table = emit_figure_data("fig3", "KRb")
    by_field = {}
    for e_dc, theta, a in table.rows:
        by_field.setdefault(e_dc, []).append((theta, a))
    e_max = max(by_field)
    curve = [a for _, a in sorted(by_field[e_max])]
    diffs = np.diff(curve)
    assert np.all(diffs < 0)   # alpha_zz > alpha_xx for the aligned ground state


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        emit_figure_data("fig9", "KRb")
