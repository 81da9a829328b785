"""Command-line surface: exit codes, formats, determinism, figure tables."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
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
        ["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--states", "0,0", "--intensity=-2"],
        ["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--range=-1:15"],
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
        # missing molecule file
        ["eigen", "--molecule", "/nonexistent/path.molecule", "--states", "0,0"],
        # nu outside the tabulated range
        ["polar", "--molecule", "KRb", "--states", "0,0", "--nu", "99999"],
        # a bracket so wide that Brent's method runs out of steps
        ["find-magic-field", "--molecule", "RbCs", "--pair", "3,0:1,1,+", "--nu", "8800",
         "--pol", "sigma-", "--range", "0:1e100", "--jmax", "4"],
    ],
)
def test_compute_errors_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert err.strip()


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
}
# (required, optional) options of each subcommand
_OPTIONS = {
    "eigen": (["--molecule", "--states"], ["--field", "--jmax"]),
    "polar": (["--molecule", "--states"], ["--field", "--nu", "--pol", "--jmax", "--intensity"]),
    "sweep": (["--molecule", "--states", "--var", "--range"],
              ["--steps", "--field", "--nu", "--pol", "--jmax", "--intensity"]),
    "find-magic-field": (["--molecule", "--pair"], ["--pol", "--range", "--nu", "--jmax", "--scan-points"]),
    "magic-angle": (["--molecule"], ["--pair", "--nu", "--range", "--steps", "--jmax"]),
    "lattice": ([], ["--nu", "--f-mot", "--ratio"]),
    "convergence": (["--molecule"], ["--field", "--states", "--jmax", "--tol"]),
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
        # "--opt=value", so that a value such as -1:5 reaches the option's parser
        argv.append(f"{opt}={draw(st.sampled_from(valid if draw(st.integers(0, 9)) or not invalid else invalid))}")
    return argv + ["--no-meta"]


def _nan_cells(cmd, out):
    """Cells of a successful run that read nan; magic-angle may print one per field."""
    if cmd == "lattice":
        constants = []
        json.loads(out, parse_constant=constants.append)
        return [c for c in constants if c == "NaN"]
    header, rows = parse_csv(out)
    keep = [i for i, h in enumerate(header) if not (cmd == "magic-angle" and h.startswith("crossing_theta"))]
    return [row[i] for row in rows for i in keep if row[i].lower() == "nan"]


@given(_argvs())
@example(["polar", "--molecule", "KRb", "--states", "0,0", "--pol", "theta:nan", "--no-meta"])
@example(["sweep", "--molecule", "KRb", "--var", "E_dc", "--range", "0:5", "--states", "0,0",
          "--pol", "theta:nan", "--no-meta"])
@example(["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--pol", "theta:nan", "--no-meta"])
@example(["find-magic-field", "--molecule", "KRb", "--pair", "0,0:1,0", "--pol", "theta:inf", "--no-meta"])
@example(["find-magic-field", "--molecule", "RbCs", "--pair", "3,0:1,1,+", "--nu", "8800", "--pol", "sigma-",
          "--range", "0:1e100", "--jmax", "4", "--no-meta"])
@example(["eigen", "--molecule", "KRb", "--states", "0,0", "--jmax", "201", "--no-meta"])
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
        assert _nan_cells(argv[0], out.getvalue()) == []


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
