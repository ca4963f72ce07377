"""Run alternating parent/change pairs of one benchmark workload and summarize them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload solve --pairs 10 --seed 21 --label derand

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

The two checkout paths must have the same length: the path is part of
every file name the interpreter resolves, and a longer one alone moved
the ``certify`` workload by 12% (the process heap is laid out
differently). Standard library only.
"""

from __future__ import annotations

import argparse
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
    out = {}
    for name in names:
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        entry = {"unit": pairs[0]["parent"]["metrics"][name]["unit"]}
        for side in SIDES:
            entry[side] = spread(vals[side]) | {"values": vals[side]}
        base = entry["parent"]["median"]
        entry["median_change_frac"] = (entry["change"]["median"] - base) / base if base else None
        entry["change_lower"] = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


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
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(dirs["parent"])) != len(str(dirs["change"])):
        ap.error(f"checkout paths differ in length: {dirs['parent']} and {dirs['change']}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

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
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
