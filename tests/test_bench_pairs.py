"""The pair-run driver's summary and its refusals, without running the benchmark."""

import importlib.util
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


def test_refuses_checkouts_of_unequal_path_length(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change2").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change2"),
                          "--workload", "solve", "--pairs", "1", "--seed", "1"])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err
