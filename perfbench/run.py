"""Run one workload of the ccpivot benchmark and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` there, and nothing is installed. Workloads: solve, sample,
certify, exact (see workloads.py and README.md).

A run makes a fixed task list from the seed and runs it in three passes,
the middle one backwards, so each task is timed at three moments of the
run. Task times are scaled to reference seconds by a calibration kernel
run after each task (see hostspeed.py). ``--trace 0`` runs all passes
untraced and reports the end-to-end metrics from each task's median
time. ``--trace 1`` traces the middle pass and reports the per-layer
metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from spans import LAYERS, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("solve", "sample", "certify", "exact")
BLAS_THREADS = 1
SETUP_REPEATS = 9
PASSES = 3

# Set-up is timed in fresh interpreters: the import and the scheme tables.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ccpivot
for name in sys.argv[2:]:
    ccpivot.get_scheme(name)
print(time.perf_counter() - t0)
"""


def load_package():
    """Import ccpivot from this checkout's src/, or exit without a result."""
    if not (SRC / "ccpivot" / "__init__.py").is_file():
        raise SystemExit(f"error: no ccpivot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ccpivot

    if not Path(ccpivot.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: ccpivot imported from {ccpivot.__file__}, not {SRC}")


def measure_setup(schemes) -> float:
    """Median set-up time over fresh interpreters, in raw seconds (no
    calibration kernel tracked it)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *schemes],
                             capture_output=True, text=True, check=True, timeout=120,
                             cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def execute(task, tr):
    """Run one task and check it; returns (seconds, failures, counts)."""
    t0 = time.perf_counter()
    try:
        with tr.span("task"):
            out = task.run(tr)
    except Exception:
        dt = time.perf_counter() - t0
        return dt, [f"{task.label}: {traceback.format_exc()}"], {}
    dt = time.perf_counter() - t0
    try:
        fail, counts = task.inspect(out)
    except Exception:
        return dt, [f"{task.label}: check raised {traceback.format_exc()}"], {}
    return dt, [f"{task.label}: {f}" for f in fail], counts


def add_counts(total: dict, counts: dict) -> None:
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


def run_passes(tasks, tracers, workload: str):
    """Run every task once per tracer, one pass each, alternating direction.

    Returns (times, factors, failures, counts): times[p][i] in raw seconds
    and factors[p][i], its host factor, for pass p and task i; one failure
    list per execution; and the summed counts of each pass. Counts must
    repeat from pass to pass; a task whose counts differ fails.
    """
    n = len(tasks)
    times = [[0.0] * n for _ in tracers]
    factors = [[0.0] * n for _ in tracers]
    fails = [[[] for _ in range(n)] for _ in tracers]
    counts = [[{} for _ in range(n)] for _ in tracers]
    for p, tr in enumerate(tracers):
        order = list(range(n)) if p % 2 == 0 else list(reversed(range(n)))
        cals, nearest, last = [], [], -math.inf
        for i in order:
            tr.task = i
            times[p][i], fails[p][i], counts[p][i] = execute(tasks[i], tr)
            if time.perf_counter() - last >= hostspeed.CAL_GAP_S:
                cals.append(hostspeed.calibrate(workload))
                last = time.perf_counter()
            nearest.append(len(cals) - 1)
        host = hostspeed.host_factors(cals, hostspeed.CAL_REF_S[workload])
        for i, k in zip(order, nearest):
            factors[p][i] = host[k]
    for i, task in enumerate(tasks):
        if any(counts[p][i] != counts[0][i] for p in range(1, len(tracers))):
            fails[0][i].append(f"{task.label}: counts differ between passes")
    totals = []
    for per_task in counts:
        total: dict = {}
        for c in per_task:
            add_counts(total, c)
        totals.append(total)
    return times, factors, [f for per_pass in fails for f in per_pass], totals


def tail(times: list[float]):
    """Highest percentile with ten tasks beyond it: (ms, percentile), or None
    when fewer than 20 tasks would make that percentile fall below the median."""
    n = len(times)
    if n < 20:
        return None
    return sorted(times)[n - 11] * 1e3, 100.0 * (n - 10) / n


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def ratio(counts: dict, num: str, den: str) -> float:
    d = counts.get(den, 0)
    return counts.get(num, 0) / d if d else 0.0


def run_untraced(wl, args, record):
    setup_s = measure_setup(wl.SCHEMES_USED[args.workload])
    tasks = wl.build(args.workload, args.seed, args.seconds / PASSES)
    null = NullTracer()
    execute(tasks[0], null)  # warm-up, not counted
    times, factors, failures, counts = run_passes(tasks, [null] * PASSES, args.workload)
    # per task, the median over passes run at different moments of the run
    raw_s = [statistics.median(ts) for ts in zip(*times)]
    task_s = [statistics.median(t * f for t, f in zip(ts, fs))
              for ts, fs in zip(zip(*times), zip(*factors))]
    t = tail(task_s)
    record |= {
        "tasks": len(tasks),
        "task_tail_ms": t and t[0],
        "task_tail_pct": t and t[1],
        "alg_over_lp": ratio(counts[0], "alg_over_lp.sum", "alg_over_lp.n"),
        "raw": {"wall_s": sum(raw_s), "task_p50_ms": statistics.median(raw_s) * 1e3},
        "host_factor": statistics.median(f for fs in factors for f in fs),
    }
    metrics = {
        "wall_s": (sum(task_s), "s"),
        "task_p50_ms": (statistics.median(task_s) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return len(failures), failures, metrics


def run_traced(wl, args, record):
    tasks = wl.build(args.workload, args.seed, args.seconds / PASSES)
    tracer, null = Tracer(), NullTracer()
    execute(tasks[0], null)  # warm-up, not counted
    # the traced pass runs between two untraced ones, in the other direction
    times, factors, failures, all_counts = run_passes(tasks, [null, tracer, null], args.workload)
    counts = all_counts[1]
    ref = [sum(t * f for t, f in zip(ts, fs)) for ts, fs in zip(times, factors)]
    traced_s, untraced_s = ref[1], (ref[0] + ref[2]) / 2.0
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")

    # span times in reference seconds, scaled by the traced pass's host factor
    host = statistics.median(factors[1])
    selfs = {name: (t * host, calls) for name, (t, calls) in tracer.self_times().items()}

    def secs(*names):
        return sum(selfs.get(n, (0.0, 0))[0] for n in names)

    def per_call_ms(*names):
        calls = sum(selfs.get(n, (0.0, 0))[1] for n in names)
        return secs(*names) / calls * 1e3 if calls else 0.0

    def per(num, den_s):
        return num / den_s if den_s else 0.0

    task_s = host * sum(end - start for name, start, end, _p, _t in tracer.spans
                        if name == "task")
    layer_s = {layer: sum(t for n, (t, _c) in selfs.items() if n.startswith(layer + "."))
               for layer in LAYERS}
    mc = ("rounding.mc_labeled", "rounding.mc_weighted")
    dp_s = secs("oracle.opt_dp")
    m = {
        "instance.gen_ms": (per_call_ms("instance.gen"), "ms"),
        "instance.io_ms": (per_call_ms("instance.io"), "ms"),
        "instance.blowup_ms": (per_call_ms("instance.blowup"), "ms"),
        "lp.solve_ms": (per_call_ms("lp.solve"), "ms"),
        "lp.validate_ms": (per_call_ms("lp.validate"), "ms"),
        "lp.rounds": (counts.get("lp.rounds", 0), "count"),
        "lp.simplex_pivots": (counts.get("lp.simplex_pivots", 0), "count"),
        "lp.cuts": (counts.get("lp.cuts", 0), "count"),
        "lp.pivots_per_s": (per(counts.get("lp.simplex_pivots", 0), secs("lp.solve")), "1/s"),
        "lp.tight_cut_frac": (ratio(counts, "lp.tight_cuts", "lp.cuts"), "frac"),
        "rounding.mc_ms": (per_call_ms(*mc), "ms"),
        "rounding.mc_trials": (counts.get("rounding.mc_trials.labeled", 0)
                               + counts.get("rounding.mc_trials.weighted", 0), "count"),
        "rounding.mc_trial_us.labeled": (
            per(secs(mc[0]), counts.get("rounding.mc_trials.labeled", 0)) * 1e6, "us"),
        "rounding.mc_trial_us.weighted": (
            per(secs(mc[1]), counts.get("rounding.mc_trials.weighted", 0)) * 1e6, "us"),
        "rounding.pivot_ms": (per_call_ms("rounding.pivot"), "ms"),
        "rounding.pivot_steps": (counts.get("rounding.pivot_steps", 0), "count"),
        "rounding.derand_ms": (per_call_ms("rounding.derand"), "ms"),
        "rounding.alg_over_lp": (ratio(counts, "alg_over_lp.sum", "alg_over_lp.n"), "ratio"),
        "oracle.opt_ms": (per_call_ms("oracle.opt_rgs", "oracle.opt_dp"), "ms"),
        "oracle.rgs_calls": (counts.get("oracle.rgs_calls", 0), "count"),
        "oracle.dp_calls": (counts.get("oracle.dp_calls", 0), "count"),
        "oracle.dp_submasks": (counts.get("oracle.dp_submasks", 0), "count"),
        "oracle.submasks_per_s": (per(counts.get("oracle.dp_submasks", 0), dp_s), "1/s"),
        "certify.grid_ms": (per_call_ms("certify.grid"), "ms"),
        "certify.weighted_ms": (per_call_ms("certify.weighted"), "ms"),
        "certify.weighted_points": (counts.get("certify.weighted_points", 0), "count"),
        "certify.points_per_s": (per(counts.get("certify.weighted_points", 0),
                                     secs("certify.weighted")), "1/s"),
        "certify.lower_bound_ms": (per_call_ms("certify.lower_bound"), "ms"),
        "certify.step_ineq_ms": (per_call_ms("certify.step_ineq"), "ms"),
        "trace.covered_frac": (per(sum(layer_s.values()), task_s), "frac"),
        "trace.overhead_frac": (per(traced_s, untraced_s) - 1.0, "frac"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (per(layer_s[layer], task_s), "frac")
    record |= {"tasks": len(tasks), "traced_s": traced_s, "untraced_s": untraced_s,
               "layer_self_s": layer_s, "host_factor": host}
    return len(failures), failures, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    # one process, serial calls: keep BLAS from starting threads of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    load_package()
    import numpy
    import workloads as wl

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
    }
    run = run_traced if args.trace else run_untraced
    attempted, failures, metrics = run(wl, args, record)
    failed = sum(1 for fail in failures if fail)
    record["fail_frac"] = failed / attempted
    for f in [f for fail in failures for f in fail][:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
