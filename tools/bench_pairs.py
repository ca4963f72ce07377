"""Run alternating parent/change pairs of one benchmark workload and summarize them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload solve --pairs 10 --seed 21 --label derand
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload solve --pairs 10 --seed 21 --setup-pairs 30

PARENT_DIR and CHANGE_DIR are two source checkouts. Pair i runs
``perfbench/run.py --trace 0`` with seed S + i in each checkout, for the
``run_seconds`` of this repository's BENCHMARK.json, parent first on even
pairs and change first on odd ones, so a drift of the host over the
runs weighs on both sides alike. The summary goes to
``BENCH_<label>.json`` at the root of this repository: per end-to-end
metric, the median and quartiles on each side, the relative change of
the medians, and how many pairs came out lower on the change; and per
side, the medians of the run records' host factor and raw
(uncalibrated) ``wall_s`` and ``task_p50_ms``, so a calibration shift on
unchanged work is told apart from a change in the work.

``--setup-pairs N`` adds N alternating set-up timings, parent first on
even pairs, after the runs: each is one fresh interpreter running
perfbench's own ``SETUP_CHILD`` (the import and the workload's schemes,
as ``setup_s`` times them) in one checkout. A run's ``setup_s`` is the
median of 9 such timings and swings between two modes on some hosts;
the summary's ``setup`` entry gives the medians and quartiles of the N
single timings per side, which tell an import change from that noise.

The two checkout paths must have the same length: the path is part of
every file name the interpreter resolves, and a longer one alone moved
the ``certify`` workload by 12% (the process heap is laid out
differently). Standard library only, but for ``--setup-pairs``, which
imports perfbench's run.py and workloads.py, and ccpivot with them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in checkout: its result line plus its run record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def setup_times(dirs: dict, workload: str, pairs: int) -> dict:
    """Alternating set-up timings of the two checkouts, summarized like a metric.

    The child script and the workload's scheme names are perfbench's own,
    read from this repository; each timing runs them with the checkout's
    src/ and in the checkout, as perfbench/run.py's measure_setup does.
    """
    path = sys.path[:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        child = importlib.import_module("run").SETUP_CHILD
        schemes = importlib.import_module("workloads").SCHEMES_USED[workload]
    finally:
        sys.path[:] = path
    times = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = subprocess.run([sys.executable, "-c", child, str(dirs[side] / "src"), *schemes],
                                 cwd=dirs[side], capture_output=True, text=True, check=True,
                                 timeout=120)
            times[side].append(float(out.stdout.split()[-1]))
    return compare(times, "s")


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range; one value is its own quartiles."""
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict]) -> dict:
    """Per metric over the pairs [{"parent": result, "change": result}, ...].

    A result is a run's last output line: {"metrics": {name: {"value",
    "unit"}}, "failed": ..., "attempted": ...}. Metrics missing on either
    side of any pair are left out.
    """
    names = [m for m in pairs[0]["parent"]["metrics"]
             if all(m in p[side]["metrics"] for p in pairs for side in SIDES)]
    return {name: compare({side: [p[side]["metrics"][name]["value"] for p in pairs]
                           for side in SIDES}, pairs[0]["parent"]["metrics"][name]["unit"])
            for name in names}


def compare(vals: dict, unit: str) -> dict:
    """One metric's entry from its paired values {"parent": [...], "change": [...]}."""
    entry = {"unit": unit}
    for side in SIDES:
        entry[side] = spread(vals[side]) | {"values": vals[side]}
    base = entry["parent"]["median"]
    entry["median_change_frac"] = (entry["change"]["median"] - base) / base if base else None
    entry["change_lower"] = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
    entry["pairs"] = len(vals["parent"])
    return entry


def calibration(pairs: list[dict]) -> dict:
    """Per side, the medians of record.host_factor, record.raw.wall_s and record.raw.task_p50_ms."""
    out = {}
    for side in SIDES:
        records = [p[side]["record"] for p in pairs]
        out[side] = {
            "host_factor": statistics.median(r["host_factor"] for r in records),
            "raw_wall_s": statistics.median(r["raw"]["wall_s"] for r in records),
            "raw_task_p50_ms": statistics.median(r["raw"]["task_p50_ms"] for r in records),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--label", help="names BENCH_<label>.json (default: the workload)")
    ap.add_argument("--setup-pairs", type=int, default=0,
                    help="alternating set-up timings per side after the runs (default 0: none)")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(dirs["parent"])) != len(str(dirs["change"])):
        ap.error(f"checkout paths differ in length: {dirs['parent']} and {dirs['change']}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.setup_pairs < 0:
        ap.error("--setup-pairs must not be negative")

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        pair = {"seed": seed}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            pair[side] = run_once(dirs[side], args.workload, seed, seconds)
            print(f"pair {i} seed {seed} {side}: "
                  f"{json.dumps({k: v['value'] for k, v in pair[side]['metrics'].items()})}",
                  file=sys.stderr)
        pairs.append(pair)

    label = args.label or args.workload
    doc = {
        "label": label,
        "workload": args.workload,
        "seconds": seconds,
        "seeds": [p["seed"] for p in pairs],
        "order": "parent first on even pairs, change first on odd pairs",
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "records": {side: [p[side]["record"] for p in pairs] for side in SIDES},
        "calibration": calibration(pairs),
        "metrics": summarize(pairs),
    }
    if args.setup_pairs:
        doc["setup"] = setup_times(dirs, args.workload, args.setup_pairs)
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
