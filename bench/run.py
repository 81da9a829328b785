#!/usr/bin/env python3
"""magictrap benchmark: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this directory
and never from an installed copy. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same operations untraced and then traced and
reports the per-layer metrics. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it, and
``.bench_results/<workload>-seed<N>-trace<T>.json``, hold the full report
with its host block. Traced runs also write their spans to
``.bench_results/<workload>-seed<N>-spans.json``. End-to-end times are
given at a reference host speed, measured by a yardstick timed between
operations; the report also has them as the clock read them. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
SETUP_RUNS = 5
MAX_FAILURES_KEPT = 5
YARDSTICK_SHARE = 0.08     # of a measuring loop's wall time, spent on yardstick samples
YARDSTICK_WINDOW_S = 0.25  # an operation's host speed: yardstick samples this close to it
YARDSTICKS_PER_SETUP = 4   # samples before and again after each set-up interpreter

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = """\
import time
t_main = time.monotonic()
import magictrap.cli
t_import = time.monotonic()
import json, sys
sys.path.insert(0, {bench!r})
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, {root!r}).setup()
print(json.dumps({{"t_main": t_main, "t_import": t_import, "t_ready": time.monotonic()}}))
"""


def per_layer_units() -> dict:
    import tracer

    units = {"import.interpreter_s": "s", "import.magictrap_s": "s"}
    for name in tracer.TRACED:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units.update({"angular.three_j.hit_ratio": "1", "magic.solves_per_root": "count",
                  "trace.overhead_frac": "1"})
    return units


def time_setups(name, seed, env, runs=SETUP_RUNS):
    """Fresh interpreters from spawn to ready: import, molecules, one op of each kind.

    Each set-up time is also given at the reference speed, scaled by the median
    of the yardstick samples taken just before and just after that interpreter.
    """
    code = _SETUP_CODE.format(bench=str(BENCH), name=name, seed=seed, root=str(ROOT))
    out = []
    for _ in range(runs):
        ys = [harness.yardstick() for _ in range(YARDSTICKS_PER_SETUP)]
        t_spawn = time.monotonic()
        child = harness.run_child([sys.executable, "-c", code], env, ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed ({child.returncode}): {child.stderr.strip()[-500:]}")
        t = json.loads(child.stdout.strip().splitlines()[-1])
        ys += [harness.yardstick() for _ in range(YARDSTICKS_PER_SETUP)]
        setup_s, yard = t["t_ready"] - t_spawn, harness.median(ys)
        out.append({"setup_s": setup_s, "interpreter_s": t["t_main"] - t_spawn,
                    "magictrap_s": t["t_import"] - t["t_main"], "maxrss_kb": child.maxrss_kb,
                    "yardstick_s": yard, "scaled_setup_s": setup_s * harness.YARDSTICK_REF_S / yard})
    return out


def run_ops(w, *, seconds=None, count=None, whole_cycles=False, tracer=None) -> dict:
    """Closed loop over operations 0, 1, ...: time each call, then check it.

    Stops after ``count`` operations, or once ``seconds`` have passed (then,
    with ``whole_cycles``, at the next multiple of the number of kinds).
    Between operations, yardstick samples fill ``YARDSTICK_SHARE`` of the time.
    """
    lat, starts, kinds, failures, yards, yard_starts = [], [], [], [], [], []
    failed = 0
    yard_s = 0.0
    n_kinds = len(w.kinds)
    begin = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - begin >= seconds \
                and not (whole_cycles and i % n_kinds):
            break
        op = w.op_input(i)
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = w.execute(op)
            else:
                with tracer.span("op"):
                    out = w.execute(op)
        except Exception:   # an operation that raises counts as failed, the run goes on
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if error is None:
            try:
                w.check(op, out)
            except Exception as exc:   # CheckFailed, or a malformed output the check tripped on
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_KEPT:
                failures.append({"op": i, "input": op, "error": error})
        lat.append(t1 - t0)
        starts.append(t0)
        kinds.append(op["kind"])
        i += 1
        while yard_s < YARDSTICK_SHARE * (time.perf_counter() - begin):
            yard_starts.append(time.perf_counter())
            yards.append(harness.yardstick())
            yard_s += yards[-1]
    return {"latencies": lat, "starts": starts, "kinds": kinds, "failed": failed, "failures": failures,
            "yardsticks": yards, "yardstick_starts": yard_starts}


def scaled_latencies(p: dict) -> list:
    """Each latency at the reference speed.

    An operation's latency is multiplied by ``YARDSTICK_REF_S`` over the median
    of the yardstick samples that started within ``YARDSTICK_WINDOW_S`` of it,
    or over the nearest sample if none did.
    """
    at, ys = p["yardstick_starts"], p["yardsticks"]
    out = []
    for t0, x in zip(p["starts"], p["latencies"]):
        a = bisect.bisect_left(at, t0 - YARDSTICK_WINDOW_S)
        b = bisect.bisect_right(at, t0 + x + YARDSTICK_WINDOW_S)
        near = ys[a:b] or [ys[min(a, len(ys) - 1)]]
        out.append(x * harness.YARDSTICK_REF_S / harness.median(near))
    return out


def _stats(lat) -> dict:
    value, _, _ = harness.tail(lat)
    return {"ops_per_s": len(lat) / sum(lat), "p50_ms": harness.median(lat) * 1e3, "tail_ms": value * 1e3}


def latency_report(p: dict) -> dict:
    """Latency statistics as the clock read them, and at the reference speed."""
    lat, ys = p["latencies"], p["yardsticks"]
    _, pct, beyond = harness.tail(lat)
    by_kind = {}
    for k, x in zip(p["kinds"], lat):
        by_kind.setdefault(k, []).append(x)
    return {
        "samples": len(lat),
        **_stats(lat),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "p50_ms_by_kind": {k: harness.median(v) * 1e3 for k, v in by_kind.items()},
        "yardstick_samples": len(ys),
        "yardstick_median_ms": harness.median(ys) * 1e3,
        "scaled": _stats(scaled_latencies(p)),
    }


def end_to_end(w, args, setups) -> tuple:
    p = run_ops(w, seconds=args.seconds)
    report = latency_report(p)
    if args.workload == "cli_corpus":
        rss_kb = w.peak_rss_kb          # the CLI processes, via wait4
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = report["scaled"]
    metrics = {
        "ops_per_s": scaled["ops_per_s"],
        "op_p50_ms": scaled["p50_ms"],
        "op_tail_ms": scaled["tail_ms"],
        "setup_s": harness.median(s["scaled_setup_s"] for s in setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw = {"ops_per_s": report["ops_per_s"], "op_p50_ms": report["p50_ms"], "op_tail_ms": report["tail_ms"],
           "setup_s": harness.median(s["setup_s"] for s in setups)}
    return [p], metrics, {"latency": report, "raw_metrics": raw}, None


def _merge_traces(summaries, cap):
    """Sum per-process tracer summaries; keep at most ``cap`` spans overall."""
    merged = {"calls": {}, "self_s": {}, "nested": {}, "three_j": [0, 0], "processes": []}
    kept = 0
    for s in summaries:
        for name, c, t in zip(s["names"], s["calls"], s["self_s"]):
            merged["calls"][name] = merged["calls"].get(name, 0) + c
            merged["self_s"][name] = merged["self_s"].get(name, 0.0) + t
        for outer, inner, c in s["nested"]:
            key = f"{outer}>{inner}"
            merged["nested"][key] = merged["nested"].get(key, 0) + c
        if "three_j" in s:
            merged["three_j"][0] += s["three_j"][0]
            merged["three_j"][1] += s["three_j"][1]
        spans = s["spans"][: max(0, cap - kept)]
        kept += len(spans)
        merged["processes"].append({"names": s["names"], "spans": spans,
                                    "dropped": s["dropped"] + len(s["spans"]) - len(spans)})
    return merged


def per_layer(w, args, setups) -> tuple:
    import magictrap.angular
    import tracer as tracing

    # a third of the time untraced; the traced pass repeats those operations
    # at up to twice the cost, so the run stays near --seconds
    untraced = run_ops(w, seconds=args.seconds / 3.0, whole_cycles=True)
    n = len(untraced["latencies"])
    w.roots_found = 0
    if args.workload == "cli_corpus":
        w.trace, w.child_traces = True, []
        traced = run_ops(w, count=n)
        w.trace = False
        merged = _merge_traces(w.child_traces, tracing.SPAN_CAP)
    else:
        before = magictrap.angular.three_j.cache_info()
        t = tracing.Tracer().install()
        try:
            traced = run_ops(w, count=n, tracer=t)
        finally:
            t.uninstall()
        after = magictrap.angular.three_j.cache_info()
        summary = t.summary()
        summary["three_j"] = [after.hits - before.hits, after.misses - before.misses]
        merged = _merge_traces([summary], tracing.SPAN_CAP)

    metrics = {
        "import.interpreter_s": harness.median(s["interpreter_s"] for s in setups),
        "import.magictrap_s": harness.median(s["magictrap_s"] for s in setups),
    }
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = merged["calls"].get(name, 0) / n
        metrics[f"{name}.self_s"] = merged["self_s"].get(name, 0.0) / n
    hits, misses = merged["three_j"]
    metrics["angular.three_j.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    solves = merged["nested"].get("magic.find_magic_fields>stark.solve", 0)
    metrics["magic.solves_per_root"] = solves / w.roots_found if w.roots_found else 0.0
    metrics["trace.overhead_frac"] = sum(scaled_latencies(traced)) / sum(scaled_latencies(untraced)) - 1.0
    details = {
        "ops_per_pass": n,
        "untraced": latency_report(untraced),
        "traced": latency_report(traced),
        "roots_found": w.roots_found,
        "three_j_hits_misses": merged["three_j"],
        "spans_kept": sum(len(p["spans"]) for p in merged["processes"]),
        "spans_dropped": sum(p["dropped"] for p in merged["processes"]),
    }
    spans = {"workload": args.workload, "seed": args.seed, "processes": merged["processes"]}
    return [untraced, traced], metrics, details, spans


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        child = harness.run_child(["git", "rev-parse", "HEAD"], None, ROOT, timeout=10.0)
    except OSError:
        return "unknown (git not available)"
    return child.stdout.strip() if child.returncode == 0 else "unknown"


def host_block(seed) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in harness.THREAD_ENV},
        "yardstick_ref_ms": harness.YARDSTICK_REF_S * 1e3,
    }


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "magictrap" / "__init__.py").is_file():
        print(f"error: no magictrap package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(harness.THREAD_ENV)   # before numpy is imported
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import magictrap
    import workloads

    if Path(magictrap.__file__).resolve().parent != (SRC / "magictrap").resolve():
        print(f"error: imported magictrap from {magictrap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    w.setup()
    setups = time_setups(args.workload, args.seed, workloads.cli_env(ROOT))
    measure = per_layer if args.trace else end_to_end
    passes, metrics, details, spans = measure(w, args, setups)

    units = per_layer_units() if args.trace else END_TO_END
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_block(args.seed),
        "setup_runs": setups,
        "error_rate": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:MAX_FAILURES_KEPT],
        **details,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1, default=str))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
