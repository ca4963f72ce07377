"""The pair-run driver's summary and its refusals, without running the benchmark."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(wall, rss, extra=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if extra is not None:
        metrics["setup_s"] = {"value": extra, "unit": "s"}
    return {"metrics": metrics, "failed": 0, "attempted": 3}


def test_summarize_medians_iqr_and_wins():
    walls = [(2.0, 1.6), (2.2, 1.7), (2.1, 1.5), (2.0, 2.1), (2.4, 1.6)]
    pairs = [{"parent": result(p, 100.0, 0.1), "change": result(c, 100.5 + i)}
             for i, (p, c) in enumerate(walls)]
    s = bench_pairs.summarize(pairs)
    assert set(s) == {"wall_s", "peak_rss_mb"}  # setup_s is missing on the change side
    wall = s["wall_s"]
    assert wall["unit"] == "s" and wall["pairs"] == 5
    assert wall["parent"]["median"] == 2.1 and wall["change"]["median"] == 1.6
    assert wall["change_lower"] == 4
    assert wall["median_change_frac"] == pytest.approx(-0.5 / 2.1)
    # statistics.quantiles, exclusive method: quartiles 2.0 and 2.3 of the parent's
    assert wall["parent"]["q1"] == 2.0 and wall["parent"]["q3"] == pytest.approx(2.3)
    assert wall["parent"]["iqr"] == pytest.approx(0.3)
    assert wall["change"]["values"] == [c for _p, c in walls]
    rss = s["peak_rss_mb"]
    assert rss["change_lower"] == 0 and rss["parent"]["iqr"] == 0.0


def test_summarize_one_pair():
    s = bench_pairs.summarize([{"parent": result(2.0, 100.0), "change": result(1.0, 100.0)}])
    assert s["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0,
                                     "values": [2.0]}
    assert s["wall_s"]["change_lower"] == 1 and s["peak_rss_mb"]["change_lower"] == 0


def record(host, wall, p50):
    return {"workload": "solve", "host_factor": host, "raw": {"wall_s": wall, "task_p50_ms": p50}}


def test_calibration_medians_per_side():
    # the host factor moves while the raw work stays put: a calibration shift
    parent = [record(0.83, 1.08, 225.0), record(0.82, 1.10, 224.0), record(0.84, 1.07, 226.0)]
    change = [record(0.85, 1.07, 224.0), record(0.86, 1.09, 223.0), record(0.84, 1.08, 221.0)]
    pairs = [{"parent": result(1.0, 100.0) | {"record": p}, "change": result(1.0, 100.0) | {"record": c}}
             for p, c in zip(parent, change)]
    cal = bench_pairs.calibration(pairs)
    assert cal == {
        "parent": {"host_factor": 0.83, "raw_wall_s": 1.08, "raw_task_p50_ms": 225.0},
        "change": {"host_factor": 0.85, "raw_wall_s": 1.08, "raw_task_p50_ms": 223.0},
    }


def test_calibration_of_one_pair_is_its_record():
    pairs = [{"parent": result(2.0, 100.0) | {"record": record(0.9, 2.2, 9.0)},
              "change": result(1.0, 100.0) | {"record": record(1.1, 0.9, 4.5)}}]
    assert bench_pairs.calibration(pairs)["change"] == {
        "host_factor": 1.1, "raw_wall_s": 0.9, "raw_task_p50_ms": 4.5}


def test_main_writes_the_calibration(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    fake = {"parent": record(0.8, 1.0, 5.0), "change": record(0.9, 1.0, 5.0)}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds:
                        result(1.0, 100.0) | {"record": fake[checkout.name]})
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      "--workload", "solve", "--pairs", "2", "--seed", "1", "--label", "t"])
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["calibration"]["parent"]["host_factor"] == 0.8
    assert doc["calibration"]["change"]["host_factor"] == 0.9


def test_refuses_checkouts_of_unequal_path_length(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change2").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change2"),
                          "--workload", "solve", "--pairs", "1", "--seed", "1"])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err


class FakeChild:
    """Stands in for subprocess.run: one set-up time per call, by checkout, in call order."""

    def __init__(self, times):
        self.times, self.calls = {k: list(v) for k, v in times.items()}, []

    def __call__(self, cmd, cwd, **kwargs):
        self.calls.append((cmd, cwd))
        return type("Done", (), {"stdout": f"{self.times[cwd.name].pop(0)}\n"})()


def test_setup_times_alternate_perfbench_child(tmp_path, monkeypatch):
    dirs = {side: tmp_path / side for side in ("parent", "change")}
    fake = FakeChild({"parent": [0.14, 0.15, 0.11, 0.16], "change": [0.12, 0.16, 0.11, 0.12]})
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake)
    entry = bench_pairs.setup_times(dirs, "solve", 4)
    # parent first on even pairs, change first on odd ones
    assert [cwd.name for _cmd, cwd in fake.calls] == ["parent", "change", "change", "parent"] * 2
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    for cmd, cwd in fake.calls:
        assert cmd[1:4] == ["-c", run.SETUP_CHILD, str(cwd / "src")]
        assert tuple(cmd[4:]) == workloads.SCHEMES_USED["solve"]
    assert entry["pairs"] == 4 and entry["unit"] == "s"
    assert entry["parent"]["values"] == [0.14, 0.15, 0.11, 0.16]
    assert entry["parent"]["median"] == pytest.approx(0.145)
    assert entry["change"]["median"] == pytest.approx(0.12)
    assert entry["median_change_frac"] == pytest.approx(-0.025 / 0.145)
    assert entry["change_lower"] == 2  # 0.12 < 0.14 and 0.12 < 0.16; 0.16 > 0.15; 0.11 ties


def test_setup_times_of_this_checkout():
    # the real child: perfbench's SETUP_CHILD in a fresh interpreter, no schemes for "exact"
    entry = bench_pairs.setup_times({"parent": bench_pairs.ROOT, "change": bench_pairs.ROOT},
                                    "exact", 1)
    for side in ("parent", "change"):
        (t,) = entry[side]["values"]
        assert 0.0 < t < 60.0


def test_main_writes_setup_pairs_only_when_asked(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds:
                        result(1.0, 100.0) | {"record": record(1.0, 1.0, 5.0)})
    asked = []
    monkeypatch.setattr(bench_pairs, "setup_times",
                        lambda dirs, workload, pairs: asked.append(pairs) or {"pairs": pairs})
    base = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "solve",
            "--pairs", "1", "--seed", "1"]
    bench_pairs.main(base + ["--label", "none"])
    assert "setup" not in json.loads((tmp_path / "BENCH_none.json").read_text())
    bench_pairs.main(base + ["--label", "some", "--setup-pairs", "3"])
    assert json.loads((tmp_path / "BENCH_some.json").read_text())["setup"] == {"pairs": 3}
    assert asked == [3]
