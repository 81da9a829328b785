"""The four benchmark workloads: seeded inputs, the timed operation, its check.

Each workload is a single-client closed loop: operation ``i`` is drawn from
``random.Random(f"{workload}:{seed}:{i}")`` and its kind is ``kinds[i %
len(kinds)]``, so the same seed gives the same inputs and every run has the
same mix of kinds. The mix is chosen so the median falls inside one latency
cluster rather than on the gap between two. Inputs are plain values; the
program receives only those (bundled molecules by name, synthetic ones as a
``MoleculeSpec`` built from drawn numbers).

Checks never call into ``magictrap``: they parse the rendered text or compare
against ``reference.py``. A failed check raises ``CheckFailed``. See
README.md for why each workload exists and which metrics it should move.

``execute`` looks its ``magictrap`` functions up at call time, so a traced run
calls the wrappers ``tracer.install()`` put into the package's namespaces.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import sys
from pathlib import Path

import numpy as np

import harness
import reference as ref

NU_LO, NU_HI = 9000.0, 10000.0
J_MAX = ref.J_MAX
FIG_STATES = ("0,0", "1,0", "1,1,+", "1,1,-")
ROUTE_TOL = 1e-10      # acceptance 02's tolerance between the two routes
REF_TOL = 1e-9         # package vs independent reference, relative
BETA_STAR_TOL = 1e-8
TEXT_COLUMNS = ("state", "polarization")
_HEADER_RE = re.compile(r"^(.+)\[(.+)\]$")


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(got, want, scale, tol, what):
    _require(abs(got - want) <= tol * abs(scale),
             f"{what}: got {got!r}, want {want!r} (tol {tol:g} x {abs(scale):.6g})")


def _label(text):
    """'J,M' or 'J,M,+-' -> (j_tilde, |M|, branch)."""
    parts = text.split(",")
    return int(parts[0]), abs(int(parts[1])), parts[2] if len(parts) > 2 else ""


# ---------------------------------------------------------------- molecules


def molecule_pool(workload: str, seed: int, root: Path, n_synthetic: int = 6) -> dict:
    """KRb and RbCs from their data files, plus drawn synthetic molecules.

    Synthetic alpha tables follow acceptance 05 (alpha_perp in [100, 500],
    |dalpha| in [50, 600] with either sign, flat over 9000-10000 cm^-1), kept
    physical by alpha_par > 0; B and d are drawn as well.
    """
    data = Path(root) / "src" / "magictrap" / "data"
    pool = {name: ref.parse_molecule_file(data / f"{name.lower()}.molecule")
            for name in ("KRb", "RbCs")}
    rng = random.Random(f"{workload}:{seed}:molecules")
    for k in range(n_synthetic):
        a_perp = rng.uniform(100.0, 500.0)
        da = rng.uniform(50.0, 600.0) if rng.random() < 0.5 else -rng.uniform(50.0, 0.9 * a_perp)
        name = f"syn{k}"
        pool[name] = ref.Molecule(
            name=name, b_mhz=rng.uniform(300.0, 4000.0), d00_debye=rng.uniform(0.2, 4.0),
            nu_grid=(NU_LO, NU_HI), alpha_par=(a_perp + da,) * 2, alpha_perp=(a_perp,) * 2,
        )
    return pool


# ---------------------------------------------------------------- tables


def parse_table(text: str, fmt: str):
    """Parse the documented CSV or JSON table dialect into (columns, rows).

    Columns are (name, unit); numeric cells become floats. Any deviation from
    the dialect raises CheckFailed.
    """
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None
        _require(isinstance(doc, dict) and {"columns", "rows"} <= set(doc), "JSON lacks columns/rows")
        columns = [(c["name"], c["unit"]) for c in doc["columns"]]
        rows = doc["rows"]
    else:
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        _require(lines, "CSV has no header")
        records = list(csv.reader(lines))
        columns = []
        for cell in records[0]:
            match = _HEADER_RE.match(cell)
            _require(match, f"bad CSV header cell {cell!r}")
            columns.append((match.group(1), match.group(2)))
        rows = records[1:]
    out = []
    for row in rows:
        _require(len(row) == len(columns), f"row has {len(row)} cells, header {len(columns)}")
        parsed = []
        for (name, _), cell in zip(columns, row):
            if name in TEXT_COLUMNS:
                parsed.append(str(cell))
                continue
            try:
                parsed.append(float(cell))
            except (TypeError, ValueError):
                raise CheckFailed(f"column {name}: {cell!r} is not a number") from None
        out.append(parsed)
    return columns, out


# ---------------------------------------------------------------- workloads


class Workload:
    name = ""
    kinds = ()

    def __init__(self, seed: int, root):
        self.seed = seed
        self.root = Path(root)
        self.pool = molecule_pool(self.name, seed, self.root)
        self.specs = {}
        self.roots_found = 0    # crossings reported by checked operations

    def op_input(self, i: int) -> dict:
        kind = self.kinds[i % len(self.kinds)]
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return {"kind": kind, **self._draw(kind, rng)}

    def _draw_molecule(self, rng):
        name = rng.choice(sorted(self.pool))
        mol = self.pool[name]
        return name, rng.uniform(max(mol.nu_grid[0], NU_LO), min(mol.nu_grid[-1], NU_HI))

    def setup(self):
        """Build the program-side molecules, then run and check one op of each kind."""
        from magictrap.units import MoleculeSpec, load_molecule

        for name, mol in self.pool.items():
            if name.startswith("syn"):
                self.specs[name] = MoleculeSpec(mol.name, mol.b_mhz, mol.d00_debye,
                                                mol.nu_grid, mol.alpha_par, mol.alpha_perp)
            else:
                self.specs[name] = load_molecule(name)
        for j in sorted({self.kinds.index(k) for k in self.kinds}):
            op = self.op_input(j - len(self.kinds))
            self.check(op, self.execute(op))

    def _draw(self, kind, rng) -> dict:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError


class RouteCheck(Workload):
    """Closed-form vs sum-over-states tensor of one dressed state."""

    name = "route_check"
    # An M = 1 sum over states costs ~1.4x an M = 0 one. Listing the M = 1
    # branch states twice makes them 3/4 of a cycle, so the median sits well
    # inside their latency cluster instead of next to the M = 0 one.
    _M1 = ("1,1,+", "1,1,-", "2,1,+", "2,1,-", "3,1,+", "3,1,-")
    kinds = ("0,0", "1,0", "2,0", "3,0") + _M1 + _M1

    def _draw(self, kind, rng):
        mol, nu = self._draw_molecule(rng)
        return {"molecule": mol, "nu": nu, "beta": rng.uniform(0.0, 8.0)}

    def execute(self, op):
        from magictrap.polarizability import alpha_tensor_closed_form, alpha_tensor_sos
        from magictrap.stark import StateLabel, solve
        from magictrap.units import alpha_lambda_at

        spec = self.specs[op["molecule"]]
        a_par, a_perp = alpha_lambda_at(spec, op["nu"])
        label = StateLabel.parse(op["kind"])
        sys_m = solve(spec, spec.field_for_beta(op["beta"]), abs(label.m), J_MAX)
        closed = alpha_tensor_closed_form(sys_m, label, a_par, a_perp)
        sos = alpha_tensor_sos(sys_m, label, a_par, a_perp)
        return np.array(closed.matrix), np.array(sos.matrix)

    def check(self, op, out):
        closed, sos = out
        jt, m, branch = _label(op["kind"])
        abar, da = self.pool[op["molecule"]].alphas(op["nu"])
        want = ref.tensor(m, branch, op["beta"], jt, abar, da)
        scale = max(float(np.max(np.abs(closed))), 1.0)
        _require(np.all(np.isfinite(closed)) and np.all(np.isfinite(sos)), "non-finite tensor")
        diff = float(np.max(np.abs(closed - sos)))
        _require(diff <= ROUTE_TOL * scale, f"routes differ by {diff:.3e} (scale {scale:.6g})")
        diff = float(np.max(np.abs(closed - want)))
        _require(diff <= REF_TOL * scale, f"closed form off the reference by {diff:.3e}")


# (pair, polarization): "z", "x", "theta" (drawn angle) or "magic" (must be degenerate)
_SEARCH_KINDS = (
    (("0,0", "1,0"), "z"),
    (("0,0", "1,0"), "x"),
    (("0,0", "1,0"), "theta"),
    (("0,0", "2,0"), "z"),
    (("1,0", "2,0"), "x"),
    (("1,0", "1,1,+"), "z"),
    (("1,0", "1,1,-"), "theta"),
    (("1,0", "1,1,+"), "theta"),
    (("0,0", "1,0"), "magic"),
)
# drawn angle ranges (deg) where each theta kind has one crossing for beta < 7.5
_THETA_RANGES = {("0,0", "1,0"): (10.0, 45.0), ("1,0", "1,1,-"): (10.0, 35.0),
                 ("1,0", "1,1,+"): (5.0, 25.0)}


class MagicSearch(Workload):
    """find_magic_fields for one state pair and polarization."""

    name = "magic_search"
    kinds = tuple(f"{a}:{b}@{pol}" for (a, b), pol in _SEARCH_KINDS)

    def _draw(self, kind, rng):
        pair_text, pol = kind.split("@")
        pair = tuple(pair_text.split(":"))
        mol, nu = self._draw_molecule(rng)
        theta = {"z": 0.0, "x": 90.0, "magic": ref.MAGIC_ANGLE_DEG}.get(pol)
        if theta is None:
            theta = rng.uniform(*_THETA_RANGES[pair])
        return {"molecule": mol, "nu": nu, "pair": pair, "pol": pol, "theta": theta,
                "beta_hi": rng.uniform(7.6, 8.4)}

    def execute(self, op):
        from magictrap.magic import DegenerateDifferenceError, find_magic_fields
        from magictrap.polarizability import PolarizationVector
        from magictrap.stark import StateLabel

        spec = self.specs[op["molecule"]]
        pol = {"z": PolarizationVector.z, "x": PolarizationVector.x}.get(op["pol"])
        pol = pol() if pol else PolarizationVector.linear_deg(op["theta"])
        pair = tuple(StateLabel.parse(s) for s in op["pair"])
        try:
            reports = find_magic_fields(spec, pair, pol, e_range=(0.0, spec.field_for_beta(op["beta_hi"])),
                                        nu_cm=op["nu"], j_max=J_MAX)
        except DegenerateDifferenceError as exc:
            return exc
        return [(r.e_star_kv_cm, r.beta_star) for r in reports]

    def check(self, op, out):
        if op["pol"] == "magic":
            _require(type(out).__name__ == "DegenerateDifferenceError",
                     f"magic-angle search returned {out!r} instead of DegenerateDifferenceError")
            return
        _require(isinstance(out, list) and out, f"no crossing reported: {out!r}")
        mol = self.pool[op["molecule"]]
        abar, da = mol.alphas(op["nu"])
        e_hi = mol.field_for_beta(op["beta_hi"])
        for e_star, beta_star in out:
            _require(0.0 <= e_star <= e_hi, f"root {e_star} outside [0, {e_hi}]")
            beta = mol.beta(e_star)
            if op["pair"] == ("0,0", "1,0"):
                _close(beta_star, ref.BETA_STAR_GROUND, ref.BETA_STAR_GROUND, BETA_STAR_TOL, "ground beta*")
            a, b = (_label(s) for s in op["pair"])
            diff = (ref.alpha_eff(a[1], a[2], beta, a[0], abar, da, op["theta"])
                    - ref.alpha_eff(b[1], b[2], beta, b[0], abar, da, op["theta"]))
            _close(diff, 0.0, abar, 1e-9, f"alpha difference at E* = {e_star}")
        self.roots_found += len(out)


class FigureGrid(Workload):
    """One figure or sweep table, rendered to CSV."""

    name = "figure_grid"
    kinds = ("fig2", "fig3", "fig4", "sweep:E_dc:z", "sweep:E_dc:theta", "sweep:theta", "sweep:nu")
    ROWS = {"fig2": 61 * 2 * 4, "fig3": 61 * 46, "fig4": 10 * 91 * 4}
    STEPS = 61

    def _draw(self, kind, rng):
        mol, nu = self._draw_molecule(rng)
        op = {"molecule": mol, "nu": nu}
        if kind.startswith("sweep"):
            m = self.pool[mol]
            if kind.startswith("sweep:E_dc"):
                op["range"] = (0.0, m.field_for_beta(rng.uniform(4.0, 8.0)))
            elif kind == "sweep:theta":
                op["range"] = (0.0, 90.0)
            else:
                op["range"] = (rng.uniform(NU_LO, 9400.0), rng.uniform(9600.0, NU_HI))
            op["e_dc"] = m.field_for_beta(rng.uniform(0.5, 6.0))
            op["theta"] = 0.0 if kind.endswith(":z") else rng.uniform(5.0, 85.0)
            op["intensity"] = rng.uniform(100.0, 10000.0)
        return op

    def execute(self, op):
        from magictrap.cli import emit_figure_data
        from magictrap.magic import SweepGrid, sweep
        from magictrap.polarizability import PolarizationVector
        from magictrap.stark import StateLabel

        spec = self.specs[op["molecule"]]
        kind = op["kind"]
        if kind.startswith("fig"):
            table = emit_figure_data(kind, spec, nu_cm=op["nu"], j_max=J_MAX)
        else:
            grid = SweepGrid(
                variable=kind.split(":")[1], start=op["range"][0], stop=op["range"][1],
                steps=self.STEPS, molecule=spec, e_dc_kv_cm=op["e_dc"], nu_cm=op["nu"],
                polarization=PolarizationVector.linear_deg(op["theta"]), j_max=J_MAX,
            )
            table = sweep(grid, [StateLabel.parse(s) for s in FIG_STATES], intensity_w_cm2=op["intensity"])
        return table.render("csv")

    def check(self, op, text):
        columns, rows = parse_table(text, "csv")
        kind = op["kind"]
        mol = self.pool[op["molecule"]]
        want_rows = self.ROWS.get(kind, self.STEPS)
        _require(len(rows) == want_rows, f"{kind}: {len(rows)} rows, want {want_rows}")
        names = [c[0] for c in columns]
        mid = rows[len(rows) // 2]
        if kind.startswith("fig"):
            abar, da = mol.alphas(op["nu"])
            if kind == "fig2":
                at_zero = {(r[2], r[1]): r[3] for r in rows if r[0] == 0.0}
                _close(at_zero[("0,0", "z")], abar, abar, REF_TOL, "fig2 (0,0) at E=0")
                _close(at_zero[("1,0", "z")], abar + 4.0 * da / 15.0, abar, REF_TOL, "fig2 (1,0) at E=0")
                e, pol, state, got = mid
                theta = 0.0 if pol == "z" else 90.0
            elif kind == "fig3":
                e, theta, got = mid
                state = "0,0"
            else:
                e, theta, state, got = mid
            jt, m, br = _label(state)
            want = ref.alpha_eff(m, br, mol.beta(e), jt, abar, da, theta)
            _close(got, want, abar, REF_TOL, f"{kind} row {mid}")
            return
        var = kind.split(":")[1]
        _require(names[0] == var, f"{kind}: first column {names[0]!r}")
        x = mid[0]
        e = x if var == "E_dc" else op["e_dc"]
        theta = x if var == "theta" else op["theta"]
        abar, da = mol.alphas(x if var == "nu" else op["nu"])
        for k, state in enumerate(FIG_STATES):
            _require(names[1 + 2 * k] == f"alpha_eff({state})", f"{kind}: column {names[1 + 2 * k]!r}")
            jt, m, br = _label(state)
            want = ref.alpha_eff(m, br, mol.beta(e), jt, abar, da, theta)
            _close(mid[1 + 2 * k], want, abar, REF_TOL, f"{kind} {state} at {var}={x}")


CLI_CODE = "from magictrap.cli import main; main()"
_TRACE_MARK = "#bench-trace "
_CLI_TRACE_CODE = """\
import json, sys
sys.path.insert(0, {bench!r})
import tracer
import magictrap.angular, magictrap.cli
t = tracer.Tracer(cap={cap}).install()
rc = magictrap.cli.run()
sys.stdout.flush()
s = t.summary()
info = magictrap.angular.three_j.cache_info()
s["three_j"] = [info.hits, info.misses]
sys.stderr.write("\\n" + {mark!r} + json.dumps(s) + "\\n")
sys.exit(rc)
"""
_CLI_STATES = ("0,0", "1,0", "1,1", "2,0", "2,1", "2,2", "3,0", "3,1")


class CliCorpus(Workload):
    """One magictrap CLI invocation in a fresh interpreter, as a user runs it."""

    name = "cli_corpus"
    kinds = ("eigen", "polar", "sweep", "find-magic-field", "magic-angle", "lattice", "convergence")
    TRACE_CAP = 2000

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = cli_env(self.root)
        self.trace = False
        self.child_traces = []
        self.peak_rss_kb = 0

    @staticmethod
    def _pol(rng, lo=5.0, hi=85.0):
        pick = rng.choice(("z", "x", "theta"))
        return f"theta:{rng.uniform(lo, hi):.6g}" if pick == "theta" else pick

    def _draw(self, kind, rng):
        mol = rng.choice(("KRb", "RbCs"))
        fmt = "json" if kind == "lattice" or rng.random() < 0.5 else "csv"

        def states(k):
            return ":".join(sorted(rng.sample(_CLI_STATES, k), key=_CLI_STATES.index))

        if kind == "eigen":
            args = ["--molecule", mol, "--field", f"{rng.uniform(0, 12):.6g}", "--states", states(3)]
        elif kind == "polar":
            args = ["--molecule", mol, "--field", f"{rng.uniform(0, 10):.6g}",
                    "--nu", f"{rng.uniform(NU_LO, NU_HI):.6g}", "--pol", self._pol(rng),
                    "--states", states(2), "--intensity", f"{rng.uniform(100, 10000):.6g}"]
        elif kind == "sweep":
            var = rng.choice(("E_dc", "theta", "nu"))
            rng_text = {"E_dc": f"0:{rng.uniform(5, 15):.6g}", "theta": "0:90",
                        "nu": f"{rng.uniform(NU_LO, 9400):.6g}:{rng.uniform(9600, NU_HI):.6g}"}[var]
            args = ["--molecule", mol, "--var", var, "--range", rng_text, "--steps", "41",
                    "--field", f"{rng.uniform(0, 10):.6g}", "--pol", self._pol(rng), "--states", states(2)]
        elif kind == "find-magic-field":
            args = ["--molecule", mol, "--pair", "0,0:1,0", "--pol", self._pol(rng, 10.0, 45.0),
                    "--range", "0:15"]
        elif kind == "magic-angle":
            args = ["--molecule", mol, "--pair", rng.choice(("0,0:1,0", "1,0:2,0")),
                    "--range", f"0:{rng.uniform(3, 8):.6g}", "--steps", str(rng.randint(5, 9))]
        elif kind == "lattice":
            args = ["--nu", f"{rng.uniform(NU_LO, NU_HI):.6g}", "--delta-b", f"{rng.uniform(60, 100):.6g}",
                    "--delta-c", f"{rng.uniform(140, 200):.6g}", "--f-mot", f"{rng.uniform(10, 40):.6g}"]
        else:
            args = ["--molecule", mol, "--field", f"{rng.uniform(0, 15):.6g}", "--states", states(3)]
        return {"argv": [kind, *args, "--format", fmt]}

    def setup(self):
        """Warm-up runs each subcommand once in-process (import, molecules, kernels)."""
        import magictrap.cli

        self.specs = {}
        for i in range(len(self.kinds)):
            op = self.op_input(-1 - i)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = magictrap.cli.run(op["argv"])
            self.check(op, harness.Child(rc, buf.getvalue(), "", 0))

    def execute(self, op):
        if self.trace:
            code = _CLI_TRACE_CODE.format(bench=str(Path(__file__).resolve().parent),
                                          cap=self.TRACE_CAP, mark=_TRACE_MARK)
        else:
            code = CLI_CODE
        child = harness.run_child([sys.executable, "-c", code, *op["argv"]], self.env, self.root)
        self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
        if self.trace:
            lines = child.stderr.splitlines()
            marked = [ln for ln in lines if ln.startswith(_TRACE_MARK)]
            if marked:
                self.child_traces.append(json.loads(marked[-1][len(_TRACE_MARK):]))
            child.stderr = "\n".join(ln for ln in lines if not ln.startswith(_TRACE_MARK)).strip()
        return child

    def check(self, op, child):
        argv = op["argv"]
        _require(child.returncode == 0, f"exit code {child.returncode}: {child.stderr.strip()[-300:]}")
        kind, fmt = argv[0], argv[-1]
        opt = dict(zip(argv[1::2], argv[2::2]))
        if kind == "lattice":
            try:
                doc = json.loads(child.stdout)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"lattice stdout is not JSON: {exc}") from None
            _require(doc.get("violations") == [], f"lattice violations: {doc.get('violations')}")
            _require(len(doc.get("beams", [])) == 3, "lattice plan needs three beams")
            for beam in doc["beams"]:
                _close(beam["eps_dot_z"], 1.0 / math.sqrt(3.0), 1.0, 1e-12, "beam tilt")
            return
        columns, rows = parse_table(child.stdout, fmt)
        names = [c[0] for c in columns]
        n_states = len(opt.get("--states", "").split(":"))
        expanded = sum(2 if _label(s)[1] else 1 for s in opt.get("--states", "").split(":") if s)
        want_rows = {"eigen": n_states, "convergence": n_states, "polar": expanded,
                     "sweep": int(opt.get("--steps", 0)), "magic-angle": int(opt.get("--steps", 0))}
        if kind in want_rows:
            _require(len(rows) == want_rows[kind], f"{kind}: {len(rows)} rows, want {want_rows[kind]}")
        if kind == "eigen":
            col = names.index("alignment_cos2")
            _require(all(0.0 <= r[col] <= 1.0 for r in rows), "alignment outside [0, 1]")
        elif kind == "find-magic-field":
            _require(len(rows) == 1, f"ground pair gave {len(rows)} crossings in 0:15 kV/cm")
            got = rows[0][names.index("beta_star")]
            _close(got, ref.BETA_STAR_GROUND, ref.BETA_STAR_GROUND, BETA_STAR_TOL, "CLI ground beta*")
            self.roots_found += len(rows)
        elif kind == "magic-angle":
            col = names.index("theta0")
            for r in rows:
                _close(r[col], ref.MAGIC_ANGLE_DEG, ref.MAGIC_ANGLE_DEG, 1e-11, "theta0")


def cli_env(root: Path) -> dict:
    """Environment for any child that imports magictrap from the checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), **harness.THREAD_ENV)
    env.pop("PYTHONHOME", None)
    return env


WORKLOADS = {w.name: w for w in (CliCorpus, MagicSearch, RouteCheck, FigureGrid)}
