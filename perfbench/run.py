"""Benchmark for gflow: end-to-end times, memory and a per-module trace.

Run from the root of a gflow source tree:

    python3 perfbench/run.py --workload grid-race --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, fresh processes
    python3 perfbench/run.py --smoke               # minimum-length self-check

Workloads are listed in perfbench/workloads.py.  A run sets up the workload
several times (setup_s is the median), then repeats its job until the
`--seconds` budget is spent.  With `--trace 0` the job runs untraced and the
last stdout line carries the end-to-end metrics BENCHMARK.json declares;
with `--trace 1` the budget is split between untraced jobs and jobs traced
by perfbench/spans.py, and the last line carries the per-layer metrics.
The line before it is a full report: every metric with its unit, the
machine block, the output digest and the checks.  gflow is imported from
the tree's `src/`; without it the benchmark exits with code 2.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("grid-race", "seq-mlp", "seq-tabular", "exact-audit")
SMOKE_SCALE = 0.2
WARMUP_SCALE = 0.1
CHILD_TIMEOUT_S = 900

# End-to-end metrics: name -> unit.  None values mean "does not apply here".
E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
    "time_to_tv_s": "s", "iters_to_tv": "count", "final_d_tv": "ratio",
    "peak_rss_mb": "MB", "fail_ratio": "ratio",
}
STRATEGIES = ("RL-G", "TB-U", "RL-B", "RL-U", "RL-T")
LAYER_UNITS = {
    "runner.seed_overlap": "ratio", "runner.thread_speedup": "ratio",
    **{f"training.step_ms.{s}": "ms" for s in STRATEGIES},
    "training.advantages_ms": "ms", "training.cg_ms": "ms", "training.cg_matvec_gb": "GB",
    "training.rl_t.accept_ratio": "ratio", "training.check_bounds_ms": "ms",
    "sampling.forward_ms": "ms", "sampling.backward_ms": "ms",
    "sampling.transitions_per_step": "count", "envs.calls_per_step": "count",
    "envs.enumeration_s": "s", "policy.log_probs_ms": "ms", "policy.score_matrix_ms": "ms",
    "policy.score_matrix_mb": "MB", "objectives.step_batch_ms": "ms",
    "objectives.gae_calls_per_step": "count", "objectives.loss_ms": "ms",
    "autodiff.mlp_forward_ms": "ms", "autodiff.backward_ms": "ms",
    "autodiff.tape_records_per_step": "count", "autodiff.adam_ms": "ms",
    "guides.refresh_ms": "ms", "guides.edge_log_probs_ms": "ms", "exact.eval_row_ms": "ms",
    "exact.forward_values_ms": "ms", "exact.backward_values_ms": "ms",
    "exact.flow_from_rewards_ms": "ms", "exact.visit_probabilities_ms": "ms",
    "trace.overhead": "ratio",
}
# Layer metrics that are self time per operation (iteration or audit).
SELF_PER_OP = {
    "training.advantages_ms": "training.advantages",
    "training.check_bounds_ms": "training.check_bounds",
    "policy.log_probs_ms": "policy.log_probs",
    "objectives.step_batch_ms": "objectives.step_batch",
    "objectives.loss_ms": "objectives.loss",
    "autodiff.mlp_forward_ms": "autodiff.mlp_forward",
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.adam_ms": "autodiff.adam",
    "guides.refresh_ms": "guides.refresh",
    "guides.edge_log_probs_ms": "guides.edge_log_probs",
    "exact.forward_values_ms": "exact.forward_values",
    "exact.backward_values_ms": "exact.backward_values",
    "exact.flow_from_rewards_ms": "exact.flow_from_rewards",
    "exact.visit_probabilities_ms": "exact.visit_probabilities",
}
STEP_COUNT_METRICS = {
    "envs.calls_per_step": "envs.calls",
    "objectives.gae_calls_per_step": "objectives.gae_calls",
    "autodiff.tape_records_per_step": "autodiff.tape_records",
    "sampling.transitions_per_step": "sampling.transitions",
}
SELF_SUM_TOLERANCE = 0.01
TV_TARGET = 0.15  # criterion 9's d_tv target for the grid race


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; grid-race trains seeds (seed, seed+1)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measurement budget of one workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every job's iteration or audit count")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at minimum length and check the report")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics and machine facts
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile): the highest whole percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100
    q = math.floor(100.0 * (n - 10) / n)
    return float(np.percentile(samples, q)), q


def blas_threads():
    """Thread count the loaded OpenBLAS resolved, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def steal_s():
    """CPU time the hypervisor gave to others, summed over this VM's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def machine(gflow_threads, load_before, steal_before):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_version, "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gflow_threads": gflow_threads, "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "steal_s": None if steal_before is None else steal_s() - steal_before,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_jobs(wl, seed, out_dir, threads, budget, tracer=None):
    """Repeat the job until the next one would overrun `budget` seconds.

    Returns (results, traced job span ranges, traced job walls)."""
    results, ranges, walls = [], [], []
    deadline = time.perf_counter() + budget
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        start = time.perf_counter()
        if tracer is None:
            ran = wl.job(seed, str(out_dir), threads)
        else:
            first = len(tracer.spans)
            t0 = time.perf_counter()
            with tracer.span("job"):
                ran = wl.job(seed, str(out_dir), threads)
            walls.append(time.perf_counter() - t0)
            ranges.append((first, len(tracer.spans)))
        results.append(wl.check(str(out_dir), ran))
        took = time.perf_counter() - start
        if time.perf_counter() + took > deadline:
            return results, ranges, walls


def time_setups(wl, seed):
    """Several fresh setups, at least five and about a second's worth.

    Returns their times and the last one's (env, enumeration)."""
    times = []
    while len(times) < 5 or (sum(times) < 1.0 and len(times) < 30):
        t0 = time.perf_counter()
        built = wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return times, built


def end_to_end(wl, results, setup_s, seed):
    ops = [x for r in results for x in r.op_ms]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    m = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.wall_s for r in results),
        "cpu_s": statistics.median(r.cpu_s for r in results),
        "op_ms.p50": statistics.median(ops) if ops else None,
        "op_ms.tail": None, "time_to_tv_s": None, "iters_to_tv": None, "final_d_tv": None,
        "peak_rss_mb": peak_rss_mb(),
        "fail_ratio": failed / attempted if attempted else 1.0,
    }
    extra = {"op_samples": len(ops), "jobs": len(results),
             "job_walls_s": [round(r.wall_s, 4) for r in results],
             "job_cpus_s": [round(r.cpu_s, 4) for r in results],
             "leg_walls_s": {leg: statistics.median(r.notes["leg_walls_s"][leg] for r in results)
                             for leg in results[0].notes["leg_walls_s"]}}
    if ops:
        m["op_ms.tail"], extra["op_tail_percentile"] = tail(ops)
    rows = results[0].notes["rows"]
    if rows:
        m["final_d_tv"] = statistics.mean(
            statistics.mean(r[2] for r in csv[-3:]) for csv in rows.values() if csv)
    if wl.name == "grid-race":
        first = rows.get(f"RL-G_seed{seed}", [])
        hit = next((r for r in first if r[2] <= TV_TARGET), None)
        if hit is not None:
            m["time_to_tv_s"], m["iters_to_tv"] = hit[6], int(hit[0])
        extra["tv_target"] = TV_TARGET
        extra["iterations"] = wl.legs[0][1]
    return m, extra


def layer_metrics(tracer, setup_range, traced, ranges, walls, untraced, threaded):
    """Per-layer numbers from the traced jobs' spans and counters."""
    from spans import EVAL_ROW_PARTS

    names, dur, self_ns, parent = [], [], [], []
    self_sum_ok = True
    for (lo, hi), wall in zip(ranges, walls):
        d, s = tracer.self_times(lo, hi)
        total = s.sum() / 1e9
        self_sum_ok &= bool(abs(total - wall) <= SELF_SUM_TOLERANCE * wall + 1e-3)
        names += [tracer.spans[i][0] for i in range(lo, hi)]
        parent += [tracer.spans[i][3] for i in range(lo, hi)]
        dur.append(d)
        self_ns.append(s)
    dur, self_ns = np.concatenate(dur), np.concatenate(self_ns)
    idx = [i for lo, hi in ranges for i in range(lo, hi)]
    names = np.asarray(names)

    n_ops = sum(r.attempted for r in traced)
    steps = int((names == "training.step").sum())

    def self_ms(span):
        return float(self_ns[names == span].sum()) / 1e6

    def per_call_ms(span, inclusive=False):
        sel = names == span
        if not sel.any():
            return 0.0
        return float((dur if inclusive else self_ns)[sel].mean()) / 1e6

    m = {key: self_ms(span) / n_ops for key, span in SELF_PER_OP.items()}
    strategies = {i: tracer.step_strategy[i] for i in idx if i in tracer.step_strategy}
    for s in STRATEGIES:
        d = [dur[k] for k, i in enumerate(idx) if strategies.get(i) == s]
        m[f"training.step_ms.{s}"] = float(np.median(d)) / 1e6 if d else 0.0
    for metric, key in STEP_COUNT_METRICS.items():
        m[metric] = tracer.step_counts[key] / steps if steps else 0.0
    m["sampling.forward_ms"] = per_call_ms("sampling.forward")
    m["sampling.backward_ms"] = per_call_ms("sampling.backward")
    cg_calls = int((names == "training.cg").sum())
    m["training.cg_ms"] = per_call_ms("training.cg", inclusive=True)
    m["training.cg_matvec_gb"] = tracer.cg_bytes / 1e9 / cg_calls if cg_calls else 0.0
    m["training.rl_t.accept_ratio"] = (tracer.trpo_accepted / tracer.trpo_calls
                                       if tracer.trpo_calls else 0.0)
    m["policy.score_matrix_ms"] = per_call_ms("policy.score_matrix", inclusive=True)
    shapes = tracer.score_shapes
    m["policy.score_matrix_mb"] = max((a * b * 8 / 1e6 for a, b in shapes), default=0.0)

    seed_spans = {i for i in idx if tracer.spans[i][0] == "runner.run_seed"}
    row_ns, rows = 0, 0
    for k, i in enumerate(idx):
        if parent[k] in seed_spans and names[k] in EVAL_ROW_PARTS:
            row_ns += dur[k]
            rows += names[k] == "exact.mode_count"
    m["exact.eval_row_ms"] = row_ns / 1e6 / rows if rows else 0.0

    lo, hi = setup_range
    s = tracer.self_times(lo, hi)[1]
    m["envs.enumeration_s"] = sum(int(s[i - lo]) for i in range(lo, hi)
                                  if tracer.spans[i][0] == "envs.enumeration") / 1e9
    fanned = threaded or untraced
    m["runner.seed_overlap"] = (sum(r.notes["seed_seconds"] for r in fanned)
                                / sum(r.notes["run_wall_s"] for r in fanned))
    serial_wall = statistics.median(r.wall_s for r in untraced)
    m["runner.thread_speedup"] = (
        serial_wall / statistics.median(r.wall_s for r in threaded) if threaded else 0.0)
    m["trace.overhead"] = statistics.median(walls) / serial_wall - 1
    return {k: float(v) for k, v in m.items()}, self_sum_ok


def run_workload(args):
    from workloads import make_workloads
    from spans import Tracer

    load_before, steal_before = os.getloadavg(), steal_s()
    wl = make_workloads()[args.workload]
    if args.scale != 1.0:
        wl = wl.scaled(args.scale)
    out = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    seed = args.seed

    setup_times, built = time_setups(wl, seed)
    wl.prepare(seed, *built)
    # One short job first, so lazy imports and first-call costs stay out of
    # the measured jobs.
    warm = wl.scaled(WARMUP_SCALE, minimum=1)
    warm.prepare(seed, *built)
    run_jobs(warm, seed, out / "jobs", 1, 0.0)
    # Measured and traced jobs run serially, as `gflow run` does by default.
    # With two threads on two vCPUs the GIL hand-offs draw hypervisor steal,
    # which made threaded wall times too unsteady to gate on; the threaded
    # seed fan-out is measured in the traced run's "threaded" phase instead.
    phases = [("untraced", 1)]
    if args.trace == 1:
        if wl.threads > 1:
            phases.append(("threaded", wl.threads))
        phases.append(("traced", 1))
    budget = args.seconds / len(phases)
    by_phase = {}
    tracer = Tracer(args.workload)
    for phase, threads in phases:
        if phase != "traced":
            by_phase[phase] = run_jobs(wl, seed, out / "jobs", threads, budget)[0]
            continue
        with tracer.installed():
            first = len(tracer.spans)
            with tracer.span("setup"):
                wl.setup(seed)
            setup_range = (first, len(tracer.spans))
            traced, ranges, walls = run_jobs(wl, seed, out / "jobs", 1, budget, tracer)
        by_phase[phase] = traced

    untraced = by_phase["untraced"]
    e2e, extra = end_to_end(wl, untraced, statistics.median(setup_times), seed)
    extra["setup_times_s"] = [round(t, 4) for t in setup_times]
    every = [r for rs in by_phase.values() for r in rs]
    digests = sorted({r.digest for r in every})
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    checks = {"digest_stable": len(digests) == 1, "fail_ratio_zero": failed == 0,
              "errors": sorted({e for r in every for e in r.notes["errors"]})}
    layers = {}
    if args.trace == 1:
        layers, checks["self_sum_ok"] = layer_metrics(
            tracer, setup_range, by_phase["traced"], ranges, walls, untraced,
            by_phase.get("threaded"))
        tracer.write_spans(out / "spans.jsonl")
    correct = all(v for k, v in checks.items() if k != "errors")
    gflow_threads = {phase: threads for phase, threads in phases}
    report = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "machine": machine(gflow_threads, load_before, steal_before),
        "digest": digests[0] if len(digests) == 1 else digests,
        "checks": checks, "extra": extra,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": layers.get(k), "unit": u} for k, u in LAYER_UNITS.items()}
        if args.trace == 1 else {},
    }
    print(json.dumps({"report": report}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = {}
    for spec in declared[section]:
        entry = report[section].get(spec["name"])
        if entry is None or entry["value"] is None:
            print(f"error: metric {spec['name']} not measured", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process
# ---------------------------------------------------------------------------

def run_child(args, workload, trace, scale):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", str(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def smoke_problems(report, result, declared):
    """What the smoke check finds wrong with one workload's traced report."""
    problems = []
    for section, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        got = report[section]
        for name, unit in units.items():
            if name not in got or got[name]["unit"] != unit:
                problems.append(f"{section} metric {name} missing or without unit {unit}")
        for spec in declared[section]:
            if spec["name"] not in got or spec["unit"] != got[spec["name"]]["unit"]:
                problems.append(f"declared metric {spec['name']} not emitted")
    if not report["checks"].get("self_sum_ok"):
        problems.append("span self times do not sum to the traced wall time")
    if report["end_to_end"]["fail_ratio"]["value"] != 0 or result["failed"]:
        problems.append(f"fail_ratio is not 0: {report['checks']['errors']}")
    if not report["checks"]["digest_stable"]:
        problems.append("deterministic-column digest differs between jobs")
    return problems


def run_all(args):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = 1 if args.smoke else args.trace
    scale = SMOKE_SCALE if args.smoke else args.scale
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    problems = []
    for workload in WORKLOADS:
        report, result = run_child(args, workload, trace, scale)
        print(json.dumps({"report": report}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
        if args.smoke:
            problems += [f"{workload}: {p}" for p in smoke_problems(report, result, declared)]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps(combined))
    return 1 if problems or not combined["correct"] else 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gflow" / "__init__.py").is_file():
        print(f"error: no gflow sources at {SRC.relative_to(ROOT)}/gflow; run from "
              "the root of a gflow source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gflow
    if Path(gflow.__file__).resolve().parent != (SRC / "gflow").resolve():
        print(f"error: imported gflow from {gflow.__file__}, not from src/", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 0.0
        return run_all(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
