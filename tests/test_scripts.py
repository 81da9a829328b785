"""The scripts under ``scripts/`` run against the package and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

import magictrap

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *argv):
    src = str(Path(magictrap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_emit_figures_writes_every_table(tmp_path):
    out = _run_script("emit_figures.py", "--outdir", str(tmp_path))
    rows = {"fig2": 488, "fig3": 2806, "fig4": 3640}
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{fig}_{mol}.csv" for fig in rows for mol in ("krb", "rbcs"))
    for path in tmp_path.iterdir():
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) - 1 == rows[path.name.partition("_")[0]]
        assert f"wrote {path} ({len(lines) - 1} rows)" in out


def test_magic_summary_prints_the_universal_beta_star():
    out = _run_script("magic_summary.py")
    for mol in ("KRb", "RbCs"):
        block = out.split(f"== {mol} ")[1].split("==")[0]
        assert "ground pair" in block and "beta* = 2.55442443" in block
        assert "magic angle theta0 = 54.7356103172 deg" in block
