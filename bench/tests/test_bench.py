"""Tests of the benchmark itself: seeded inputs, checks, reference, tracer, output shape."""

import io
import json
import math
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import harness
import reference as ref
import run
import tracer
import workloads
from workloads import CheckFailed

ROOT = Path(__file__).resolve().parents[2]


def make(name, seed=7):
    w = workloads.WORKLOADS[name](seed, ROOT)
    w.setup()
    return w


@pytest.fixture(scope="module")
def ready():
    return {name: make(name) for name in ("route_check", "magic_search", "figure_grid", "cli_corpus")}


def first_op(w, kind):
    return next(w.op_input(i) for i in range(len(w.kinds)) if w.op_input(i)["kind"] == kind)


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(3, ROOT), cls(3, ROOT), cls(4, ROOT)
    ops_a = [a.op_input(i) for i in range(40)]
    assert ops_a == [b.op_input(i) for i in range(40)]
    assert a.pool == b.pool
    assert ops_a != [other.op_input(i) for i in range(40)]
    # whole cycles hold the same mix of kinds
    n = len(cls.kinds)
    kinds = [op["kind"] for op in (a.op_input(i) for i in range(2 * n))]
    assert all(kinds.count(k) == 2 * cls.kinds.count(k) for k in cls.kinds)


def test_synthetic_molecules_are_physical():
    for mol in workloads.molecule_pool("magic_search", 11, ROOT, n_synthetic=50).values():
        abar, da = mol.alphas(9500.0)
        assert mol.alpha_par[0] > 0 and abar > 0 and 50.0 <= abs(da) <= 600.0


# --------------------------------------------------------------- reference


def test_reference_matches_package():
    from magictrap.angular import c_tensor_element
    from magictrap.polarizability import PolarizationVector, alpha_eff, alpha_tensor_closed_form
    from magictrap.stark import StateLabel, solve
    from magictrap.units import alpha_lambda_at, load_molecule

    elem = ref.c_matrix(2, 2, 1, -1)
    pkg = np.array([[c_tensor_element(2, 2, j, 1, jp, -1) for jp in range(1, 11)] for j in range(1, 11)])
    assert np.max(np.abs(elem - pkg)) < 1e-13
    mol = load_molecule("RbCs")
    rmol = ref.parse_molecule_file(ROOT / "src" / "magictrap" / "data" / "rbcs.molecule")
    a_par, a_perp = alpha_lambda_at(mol, 9321.0)
    abar, da = rmol.alphas(9321.0)
    assert math.isclose(abar, (a_par + 2 * a_perp) / 3, rel_tol=1e-15)
    for beta in (0.0, 2.0, 7.5):
        for text in ("0,0", "2,0", "1,1,+", "3,1,-"):
            label = StateLabel.parse(text)
            jt, m, br = workloads._label(text)
            sys_m = solve(mol, mol.field_for_beta(beta), m)
            tens = alpha_tensor_closed_form(sys_m, label, a_par, a_perp)
            assert np.max(np.abs(tens.matrix - ref.tensor(m, br, beta, jt, abar, da))) < 1e-10 * abar
            pol = PolarizationVector.linear_deg(37.0)
            got = alpha_eff(alpha_tensor_closed_form(sys_m, label, a_par, a_perp, pol), pol)
            assert abs(got - ref.alpha_eff(m, br, beta, jt, abar, da, 37.0)) < 1e-10 * abar


# ------------------------------------------------------------------ checks


@pytest.mark.parametrize("name", ["route_check", "magic_search", "figure_grid"])
def test_checks_pass_on_the_program(ready, name):
    w = ready[name]
    for i in range(len(w.kinds)):
        op = w.op_input(i)
        w.check(op, w.execute(op))


def test_route_check_flags_perturbed_tensors(ready):
    w = ready["route_check"]
    op = first_op(w, "2,1,-")
    closed, sos = w.execute(op)
    w.check(op, (closed, sos))
    for which in (0, 1):
        bad = [closed.copy(), sos.copy()]
        bad[which][2, 2] *= 1 + 1e-8
        with pytest.raises(CheckFailed):
            w.check(op, tuple(bad))
    # both routes wrong the same way: only the reference catches it
    shifted = closed.copy()
    shifted[0, 0] *= 1 + 1e-8
    sos_shifted = sos.copy()
    sos_shifted[0, 0] = shifted[0, 0]
    with pytest.raises(CheckFailed, match="reference"):
        w.check(op, (shifted, sos_shifted))


def test_magic_search_flags_wrong_roots(ready):
    w = ready["magic_search"]
    ground = first_op(w, "0,0:1,0@x")
    (e_star, beta_star), = w.execute(ground)
    with pytest.raises(CheckFailed, match="ground beta"):
        w.check(ground, [(e_star, beta_star * (1 + 1e-6))])
    with pytest.raises(CheckFailed):
        w.check(ground, [(e_star * (1 + 1e-6), beta_star)])
    with pytest.raises(CheckFailed):
        w.check(ground, [])
    other = first_op(w, "1,0:1,1,-@theta")
    (e_star, beta_star), = w.execute(other)
    with pytest.raises(CheckFailed, match="alpha difference"):
        w.check(other, [(e_star * (1 + 1e-5), beta_star)])
    magic = first_op(w, "0,0:1,0@magic")
    assert type(w.execute(magic)).__name__ == "DegenerateDifferenceError"
    with pytest.raises(CheckFailed, match="DegenerateDifferenceError"):
        w.check(magic, [(1.0, 2.5)])


def test_figure_grid_flags_wrong_tables(ready):
    w = ready["figure_grid"]
    fig2 = first_op(w, "fig2")
    text = w.execute(fig2)
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith('0,z,"1,0",'))
    value = float(lines[k].rsplit(",", 1)[1])
    bad = lines[:k] + [lines[k].rsplit(",", 1)[0] + f",{value * (1 + 1e-7):.12g}"] + lines[k + 1:]
    with pytest.raises(CheckFailed, match=r"fig2 \(1,0\) at E=0"):
        w.check(fig2, "\n".join(bad))
    with pytest.raises(CheckFailed, match="rows"):
        w.check(fig2, "\n".join(lines[:-1]))
    sweep_op = first_op(w, "sweep:nu")
    text = w.execute(sweep_op)
    lines = text.splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    mid = header + 1 + 61 // 2
    cells = lines[mid].split(",")
    cells[3] = f"{float(cells[3]) * (1 + 1e-7):.12g}"     # alpha_eff(1,0)
    with pytest.raises(CheckFailed, match="1,0"):
        w.check(sweep_op, "\n".join(lines[:mid] + [",".join(cells)] + lines[mid + 1:]))


def _cli_child(op):
    import magictrap.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = magictrap.cli.run(op["argv"])
    return harness.Child(rc, buf.getvalue(), "", 0)


def test_cli_check_flags_bad_outputs(ready):
    w = ready["cli_corpus"]
    op = first_op(w, "find-magic-field")
    child = _cli_child(op)
    w.check(op, child)
    with pytest.raises(CheckFailed, match="exit code"):
        w.check(op, harness.Child(2, child.stdout, "error: boom", 0))
    with pytest.raises(CheckFailed):
        w.check(op, harness.Child(0, "not a table\n1,2\n", "", 0))
    wrong = child.stdout.replace("2.55442442961", "2.554424", 1)
    assert wrong != child.stdout
    with pytest.raises(CheckFailed, match="beta"):
        w.check(op, harness.Child(0, wrong, "", 0))
    eigen = first_op(w, "eigen")
    out = _cli_child(eigen).stdout
    short = out.rsplit("\n", 2)[0] + "\n" if eigen["argv"][-1] == "csv" else None
    if short is not None:
        with pytest.raises(CheckFailed, match="rows"):
            w.check(eigen, harness.Child(0, short, "", 0))


def test_cli_corpus_covers_every_subcommand(ready):
    w = ready["cli_corpus"]
    assert sorted(w.kinds) == sorted(
        ["eigen", "polar", "sweep", "find-magic-field", "magic-angle", "lattice", "convergence"])
    for i in range(len(w.kinds)):
        op = w.op_input(i)
        w.check(op, _cli_child(op))


# ------------------------------------------------------------------ tracer


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer(names=(), nested=())
    with t.span("outer"):
        time.sleep(0.02)
        with t.span("inner"):
            time.sleep(0.03)
    s = t.summary()
    outer, inner = s["names"].index("outer"), s["names"].index("inner")
    assert s["calls"][outer] == s["calls"][inner] == 1
    (sid_o, _, t0_o, t1_o, parent_o), = [sp for sp in s["spans"] if sp[1] == outer]
    (_, _, t0_i, t1_i, parent_i), = [sp for sp in s["spans"] if sp[1] == inner]
    assert parent_o == -1 and parent_i == sid_o and t0_o <= t0_i <= t1_i <= t1_o
    # exact identities, so a loaded host that oversleeps cannot fail them
    assert math.isclose(s["self_s"][inner], t1_i - t0_i, rel_tol=1e-9)
    assert math.isclose(s["self_s"][outer], (t1_o - t0_o) - (t1_i - t0_i), rel_tol=1e-9, abs_tol=1e-12)
    assert s["self_s"][outer] >= 0.02 and s["self_s"][inner] >= 0.03


def test_tracer_wraps_every_binding_and_restores():
    import magictrap
    import magictrap.angular
    import magictrap.polarizability
    import magictrap.stark

    original = magictrap.angular.c_tensor_element
    t = tracer.Tracer().install()
    try:
        wrapped = magictrap.angular.c_tensor_element
        assert wrapped is not original
        assert magictrap.stark.c_tensor_element is wrapped
        assert magictrap.polarizability.c_tensor_element is wrapped
        assert magictrap.c_tensor_element is wrapped
        assert magictrap.polarizability.f_factor is magictrap.angular.f_factor
        sys_m = magictrap.stark.solve(magictrap.units.load_molecule("KRb"), 3.0, 0)
        magictrap.stark.dressed_c20(sys_m, 1)
    finally:
        t.uninstall()
    assert magictrap.angular.c_tensor_element is original
    assert magictrap.stark.c_tensor_element is original
    s = t.summary()
    calls = dict(zip(s["names"], s["calls"]))
    assert calls["stark.solve"] == 1 and calls["stark.dressed_c20"] == 1
    assert calls["angular.c_tensor_element"] > 10


def test_tracer_caps_kept_spans():
    t = tracer.Tracer(names=(), nested=(), cap=5)
    for _ in range(8):
        with t.span("x"):
            pass
    s = t.summary()
    assert len(s["spans"]) == 5 and s["dropped"] == 3 and s["calls"] == [8]


# ------------------------------------------------------------------ output


def test_tail_rank():
    values = list(range(1, 101))
    value, pct, beyond = harness.tail(values)
    assert (value, beyond) == (90, 10) and pct == 90.0
    assert harness.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)


def test_scaling_cancels_host_speed():
    rng = np.random.default_rng(0)
    lat = list(rng.uniform(0.05, 0.1, 200))
    starts = list(np.cumsum([0.0] + [x + 0.01 for x in lat[:-1]]))
    # the host runs 1.7x slower over the second half; the yardstick sees it too
    slow = [1.7 if t > starts[100] else 1.0 for t in starts]
    p = {"latencies": [x * f for x, f in zip(lat, slow)], "starts": starts, "kinds": ["k"] * 200,
         "yardstick_starts": [t + x * f for t, x, f in zip(starts, lat, slow)],
         "yardsticks": [harness.YARDSTICK_REF_S * f for f in slow]}
    got = run.scaled_latencies(p)
    assert np.allclose(got[:95], lat[:95], rtol=1e-12) and np.allclose(got[106:], lat[106:], rtol=1e-12)
    report = run.latency_report(p)
    assert report["p50_ms"] > 1.2 * report["scaled"]["p50_ms"]
    # no sample within the window: the nearest one is used
    lone = {**p, "yardstick_starts": [starts[-1] + 50.0], "yardsticks": [2 * harness.YARDSTICK_REF_S]}
    assert np.allclose(run.scaled_latencies(lone), [x / 2 for x in p["latencies"]])


def test_benchmark_json_names_match_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert spec["command"][1:] == ["bench/run.py"] and spec["paths"] == ["bench"]


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "route_check", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
