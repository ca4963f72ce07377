"""Tests of the benchmark itself: tiny runs of every workload, the output
contract, repeatable counts, and that a known-bad output is counted.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ccpivot as cc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_tasks(workload: str, seed: int = 5) -> list:
    """The workload's task shapes at sizes that run in well under a second."""
    rng = random.Random(seed)
    if workload == "solve":
        return [wl.solve_task("complete", 6, rng), wl.solve_task("kpartite", (2, 2, 2), rng),
                wl.solve_task("weighted", 5, rng)]
    if workload == "sample":
        return [wl.sample_task("complete", 6, 50, rng), wl.sample_task("weighted", 5, 30, rng)]
    if workload == "certify":
        return [
            wl.grid_task("pass", wl.S206, 2.1, "complete", 0.05, True, False),
            wl.grid_task("fail", wl.S206, 1.95, "complete", 0.05, False, False),
            wl.grid_task("kpartite", wl.KP3, 3.0, "kpartite", 0.05, True, False),
            wl.grid_task("fullgrid", wl.S206_INELIGIBLE, 1.95, "complete", 0.1, False, True),
            wl.weighted_task("weighted", wl.W150, 1.5, step=0.1),
            wl.lower_bound_task("lb", wl.LOWER_BOUND_ALPHA, 0.0005, True),
        ]
    return [wl.exact_task(2, 3, rng), wl.exact_task(3, 4, rng)]  # 6 and 12 vertices


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    tasks = tiny_tasks(workload)
    times, factors, failures, counts = run.run_passes(
        tasks, [NullTracer(), Tracer(), NullTracer()], workload)
    assert failures == [[]] * (3 * len(tasks))
    assert all(t > 0 for ts in times for t in ts)
    assert all(f > 0 for fs in factors for f in fs)
    assert counts[0] == counts[1] == counts[2]


def test_counts_repeat_at_one_seed():
    a = run.run_passes(tiny_tasks("solve", seed=9), [NullTracer()], "solve")[3][0]
    b = run.run_passes(tiny_tasks("solve", seed=9), [NullTracer()], "solve")[3][0]
    assert a == b and a["lp.simplex_pivots"] > 0


def test_same_seed_same_inputs():
    rng = random.Random(3)
    first = [wl.solve_task("complete", 6, rng).run(NullTracer())[0] for _ in range(2)]
    rng = random.Random(3)
    again = [wl.solve_task("complete", 6, rng).run(NullTracer())[0] for _ in range(2)]
    assert all(wl.same_instance(a, b) for a, b in zip(first, again))
    assert not wl.same_instance(first[0], first[1])


def test_spans_nest_and_self_times_sum():
    tr = Tracer()
    tr.task = 0
    with tr.span("task"):
        with tr.span("lp.solve"):
            pass
        with tr.span("rounding.pivot"):
            pass
    selfs = tr.self_times()
    total = tr.spans[0][2] - tr.spans[0][1]
    assert sum(t for t, _calls in selfs.values()) == pytest.approx(total)
    assert [s[3] for s in tr.spans] == [-1, 0, 0]


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(monkeypatch, capsys, trace, key):
    monkeypatch.setattr(wl, "build", lambda workload, seed, seconds: tiny_tasks(workload))
    assert run.main(["--workload", "solve", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    res = last_json(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 9
    assert {m["name"]: m["unit"] for m in SPEC[key]} == {
        k: v["unit"] for k, v in res["metrics"].items()}


def test_known_bad_clustering_is_counted(monkeypatch, capsys):
    # all-"+" instance: LP = 0, so the all-singletons clustering is far above alpha * LP
    monkeypatch.setitem(wl.GEN, "complete", lambda size, seed: cc.Instance.complete(
        np.ones((size, size), dtype=np.int8) - np.eye(size, dtype=np.int8)))
    monkeypatch.setattr(cc, "derandomize_round",
                        lambda inst, x, scheme, alpha: cc.Clustering.singletons(inst.n))
    good = tiny_tasks("sample")
    bad = wl.solve_task("complete", 6, random.Random(1))
    monkeypatch.setattr(wl, "build", lambda workload, seed, seconds: [bad] + good)
    run.main(["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr()
    res = json.loads(out.out.strip().splitlines()[-1])
    record = json.loads(out.out.strip().splitlines()[-2])["record"]
    # the bad task fails in each of the three passes; the good ones do not
    assert not res["correct"] and res["failed"] == 3 and res["attempted"] == 9
    assert record["fail_frac"] == pytest.approx(3 / 9)
    assert "derandomized cost" in out.err


def test_missing_sources_exit_without_result(tmp_path):
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode != 0 and p.stdout == ""
