import json

import numpy as np
import pytest

import ccpivot as cc
from ccpivot import cli
from ccpivot.cli import main


def run(args):
    return main(args)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.cc", tmp_path / "b.cc"
    assert run(["gen", "complete", "--n", "9", "--p", "0.5", "--seed", "7", "-o", str(a)]) == 0
    assert run(["gen", "complete", "--n", "9", "--p", "0.5", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("family", ["complete", "kpartite", "planted", "weighted"])
def test_gen_requires_seed(family):
    assert run(["gen", family, "--n", "5", "--p", "0.5"]) == 64


def test_gen_gap_ti_no_seed_needed(tmp_path):
    out = tmp_path / "gap.cc"
    assert run(["gen", "gap-ti", "--n", "4", "-o", str(out)]) == 0
    inst = cc.parse_instance(out.read_text())
    assert inst.kind == "weighted" and inst.ti and inst.n == 8


def test_gen_kpartite(tmp_path):
    out = tmp_path / "kp.cc"
    assert run(["gen", "kpartite", "--parts", "3,3,3", "--p", "0.5", "--seed", "1", "-o", str(out)]) == 0
    inst = cc.parse_instance(out.read_text())
    assert inst.kind == "kpartite" and inst.n == 9


def test_lp_gap_ti_objective(tmp_path):
    inst_file, sol_file = tmp_path / "g.cc", tmp_path / "g.json"
    run(["gen", "gap-ti", "--n", "4", "-o", str(inst_file)])
    assert run(["lp", "--instance", str(inst_file), "-o", str(sol_file)]) == 0
    doc = json.loads(sol_file.read_text())
    assert doc["objective"] <= 12.0 + 1e-6
    assert "meta" in doc and "version" in doc["meta"]


def test_lp_all_plus_zero(tmp_path):
    inst_file, sol_file = tmp_path / "p.cc", tmp_path / "p.json"
    run(["gen", "complete", "--n", "5", "--p", "1.0", "--seed", "3", "-o", str(inst_file)])
    assert run(["lp", "--instance", str(inst_file), "-o", str(sol_file)]) == 0
    assert json.loads(sol_file.read_text())["objective"] == pytest.approx(0.0, abs=1e-9)


def test_lp_c4_gap_instance(tmp_path):
    inst, point = cc.gap_kpartite_lp_point(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    inst_file, sol_file = tmp_path / "c4.cc", tmp_path / "c4.json"
    inst_file.write_text(cc.serialize_instance(inst))
    assert run(["lp", "--instance", str(inst_file), "-o", str(sol_file)]) == 0
    assert json.loads(sol_file.read_text())["objective"] <= 4.0 / 3.0 + 1e-6


def test_round_modes(tmp_path):
    inst_file = tmp_path / "i.cc"
    sol_file = tmp_path / "i.json"
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    run(["gen", "complete", "--n", "8", "--p", "0.5", "--seed", "5", "-o", str(inst_file)])
    run(["lp", "--instance", str(inst_file), "-o", str(sol_file)])

    base = ["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
            "--scheme", "complete206"]
    assert run(base + ["--mode", "random", "--seed", "9", "-o", str(out1)]) == 0
    assert run(base + ["--mode", "random", "--seed", "9", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    assert run(base + ["--mode", "derand", "--alpha", "2.06", "-o", str(out3)]) == 0
    doc = json.loads(out3.read_text())
    assert doc["cost"] <= doc["alpha_lp"] + 1e-9

    assert run(base + ["--mode", "random"]) == 64  # missing seed
    assert run(base + ["--mode", "derand"]) == 64  # missing alpha


def test_round_derand_exits_70_when_the_cost_exceeds_alpha_lp(tmp_path, monkeypatch):
    # every pair is "+", so the LP is 0 and singletons cost 10 > alpha * LP
    inst_file, sol_file, out = tmp_path / "p.cc", tmp_path / "p.json", tmp_path / "r.json"
    run(["gen", "complete", "--n", "5", "--p", "1.0", "--seed", "3", "-o", str(inst_file)])
    run(["lp", "--instance", str(inst_file), "-o", str(sol_file)])
    monkeypatch.setattr(cli, "derandomize_round",
                        lambda inst, x, scheme, alpha: cc.Clustering(np.arange(inst.n)))
    assert run(["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
                "--scheme", "complete206", "--mode", "derand", "--alpha", "2.06",
                "-o", str(out)]) == 70
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1", "0.5"])
def test_round_derand_refuses_alpha_outside_finite_ratios(alpha, tmp_path):
    inst_file, sol_file = tmp_path / "i.cc", tmp_path / "i.json"
    run(["gen", "complete", "--n", "9", "--p", "0.5", "--seed", "5", "-o", str(inst_file)])
    run(["lp", "--instance", str(inst_file), "-o", str(sol_file)])
    assert run(["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
                "--scheme", "complete206", "--mode", "derand", f"--alpha={alpha}",
                "-o", str(tmp_path / "r.json")]) == 64


def test_round_weighted_dispatch(tmp_path):
    inst_file, sol_file, out = tmp_path / "w.cc", tmp_path / "w.json", tmp_path / "o.json"
    run(["gen", "weighted", "--n", "4", "--seed", "2", "-o", str(inst_file)])
    run(["lp", "--instance", str(inst_file), "-o", str(sol_file)])
    assert run([
        "round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
        "--scheme", "weighted_ti_150", "--mode", "random", "--seed", "4", "-o", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["assignment"]) == 4


def test_certify_exit_codes(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "complete206", "--alpha", "2.06", "--grid", "0.02",
                "--tol", "1e-9", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "PASS"
    assert run(["certify", "complete206", "--alpha", "2.0", "--grid", "0.02",
                "-o", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "FAIL"
    assert run(["certify", "kpartite3", "--alpha", "3", "--class", "kpartite",
                "--grid", "0.02", "-o", str(out)]) == 0


def test_certify_weighted_class(tmp_path):
    out = tmp_path / "w.json"
    assert run(["certify", "weighted_ti_150", "--alpha", "1.5", "--class", "weighted",
                "--grid", "0.05", "--tol", "1e-7", "-o", str(out)]) == 0
    assert run(["certify", "weighted_ti_153", "--alpha", "1.49", "--class", "weighted",
                "--grid", "0.05", "--tol", "1e-7", "-o", str(out)]) == 1


def test_certify_weighted_jobs_match_serial(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["certify", "weighted_ti_153", "--alpha", "1.53", "--class", "weighted",
            "--grid", "0.05", "--tol", "1e-7"]
    assert run(args + ["--jobs", "1", "-o", str(a)]) == 0
    assert run(args + ["--jobs", "2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_scheme_from_file(tmp_path):
    scheme_file = tmp_path / "acn.json"
    scheme_file.write_text(cc.get_scheme("acn_linear").to_json())
    assert run(["certify", str(scheme_file), "--alpha", "3", "--grid", "0.05"]) == 0


def test_certify_ineligible_exit_code(tmp_path):
    from ccpivot.rounding import Piece, PiecewiseFn, RoundingScheme

    bad = RoundingScheme(
        "sqrtplus",
        PiecewiseFn([Piece(0.0, 1.0, "power", (0.0, 1.0, 0.5))]),
        PiecewiseFn([Piece(0.0, 1.0, "linear", (0.0, 1.0))]),
    )
    scheme_file = tmp_path / "bad.json"
    scheme_file.write_text(bad.to_json())
    assert run(["certify", str(scheme_file), "--alpha", "4", "--grid", "0.1",
                "--no-full-grid"]) == 2
    # with the fallback enabled it runs the full grid instead
    assert run(["certify", str(scheme_file), "--alpha", "8", "--grid", "0.1"]) in (0, 1)


def _acn_with_f_plus(tmp_path, *pieces):
    doc = json.loads(cc.get_scheme("acn_linear").to_json())
    doc["f_plus"] = list(pieces)
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_rejects_nan_slope(tmp_path):
    path = _acn_with_f_plus(tmp_path, {"from": 0.0, "to": 1.0, "kind": "linear",
                                       "params": [0.0, float("nan")]})
    assert run(["certify", path, "--alpha", "2.06", "--grid", "0.1"]) == 65


def test_certify_rejects_zero_scale_power(tmp_path):
    path = _acn_with_f_plus(tmp_path, {"from": 0.0, "to": 1.0, "kind": "power",
                                       "params": [0.0, 0.0, 2.0]})
    assert run(["certify", path, "--alpha", "2.06", "--grid", "0.1"]) == 65


def test_certify_rejects_reversed_piece(tmp_path):
    # the pieces still tile [0, 1] end to start; the middle one runs backwards
    path = _acn_with_f_plus(
        tmp_path,
        {"from": 0.0, "to": 0.6, "kind": "linear", "params": [0.0, 1.0]},
        {"from": 0.6, "to": 0.4, "kind": "linear", "params": [0.0, 1.0]},
        {"from": 0.4, "to": 1.0, "kind": "linear", "params": [0.0, 1.0]},
    )
    assert run(["certify", path, "--alpha", "2.06", "--grid", "0.1"]) == 65


@pytest.mark.parametrize("pieces", [
    # f(0) would be owned by no piece, and certify would fail on it mid-sweep
    [{"from": 0.0, "to": 1.0, "kind": "linear", "params": [0.0, 1.0], "closed_left": False}],
    [{"from": 0.0, "to": 1.0 - 1e-13, "kind": "linear", "params": [0.0, 1.0]}],
    [{"from": 0.0, "to": 0.5, "kind": "constant", "params": [0.0]},
     {"from": 0.5 + 1e-13, "to": 1.0, "kind": "constant", "params": [1.0]}],
])
def test_certify_rejects_pieces_that_do_not_tile_the_unit_interval(tmp_path, pieces):
    path = _acn_with_f_plus(tmp_path, *pieces)
    assert run(["certify", path, "--alpha", "2.06", "--grid", "0.1"]) == 65


def test_certify_refuses_out_of_range_scheme(tmp_path):
    path = _acn_with_f_plus(tmp_path, {"from": 0.0, "to": 1.0, "kind": "linear",
                                       "params": [0.0, 2.0]})
    assert run(["certify", path, "--alpha", "2.06", "--grid", "0.1"]) == 2


def test_unknown_scheme_is_usage_error():
    assert run(["certify", "no_such_scheme", "--alpha", "2"]) == 64


def test_opt_command(tmp_path):
    inst_file, out = tmp_path / "i.cc", tmp_path / "opt.json"
    run(["gen", "complete", "--n", "8", "--p", "0.5", "--seed", "5", "-o", str(inst_file)])
    assert run(["opt", "--instance", str(inst_file), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    inst = cc.parse_instance(inst_file.read_text())
    _c, opt = cc.brute_force_opt(inst)
    assert doc["cost"] == pytest.approx(opt)
    assert cc.clustering_cost(inst, cc.Clustering(doc["assignment"])) == pytest.approx(opt)


def test_opt_runs_past_the_old_default_cap(tmp_path):
    inst_file, out = tmp_path / "i14.cc", tmp_path / "opt.json"
    run(["gen", "complete", "--n", "14", "--p", "0.5", "--seed", "5", "-o", str(inst_file)])
    assert run(["opt", "--instance", str(inst_file), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    inst = cc.parse_instance(inst_file.read_text())
    assert cc.clustering_cost(inst, cc.Clustering(doc["assignment"])) == doc["cost"]


def test_opt_refuses_instances_past_the_size_limit(tmp_path, capsys):
    inst_file = tmp_path / "big.cc"
    n = cc.oracle.MAX_EXACT_N + 1
    run(["gen", "complete", "--n", str(n), "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    assert run(["opt", "--instance", str(inst_file)]) == 64
    assert "MAX_EXACT_N" in capsys.readouterr().err


BENCH = ["bench", "--n", "5", "--instances", "1", "--trials", "5", "--seed", "1"]
BAD_ARGV = {
    "certify --grid 0": ["certify", "complete206", "--alpha", "2.06", "--grid", "0"],
    "certify --grid -0.01": ["certify", "complete206", "--alpha", "2.06", "--grid", "-0.01"],
    "certify weighted --grid 0": ["certify", "weighted_ti_150", "--alpha", "1.5",
                                  "--class", "weighted", "--grid", "0"],
    "certify weighted --grid -0.01": ["certify", "weighted_ti_150", "--alpha", "1.5",
                                      "--class", "weighted", "--grid", "-0.01"],
    "bench --instances 0": BENCH + ["--instances", "0"],
    "bench --trials 0": BENCH + ["--trials", "0"],
    "bench --parts 2,a": BENCH + ["--parts", "2,a"],
    "bench --opt-cap 21": BENCH + ["--opt-cap", str(cc.oracle.MAX_EXACT_N + 1)],
    "bench --trials above the cap": BENCH + ["--trials", str(cli._MAX_TRIALS + 1)],
    "bench --instances above the cap": BENCH + ["--instances", str(cli._MAX_INSTANCES + 1)],
    "gen --n 0": ["gen", "complete", "--n", "0", "--seed", "1"],
    "gen --p 1.5": ["gen", "complete", "--p", "1.5", "--seed", "1"],
    "gen --parts 3,x": ["gen", "kpartite", "--parts", "3,x", "--seed", "1"],
    "gen --parts 3,0": ["gen", "kpartite", "--parts", "3,0", "--seed", "1"],
    "gen planted --k 9 --n 5": ["gen", "planted", "--k", "9", "--n", "5", "--seed", "1"],
    "certify --alpha nan": ["certify", "complete206", "--alpha", "nan"],
    "certify --alpha inf": ["certify", "complete206", "--alpha", "inf"],
    "certify --alpha 1": ["certify", "complete206", "--alpha", "1"],
    "certify kpartite --alpha nan": ["certify", "kpartite3", "--alpha", "nan",
                                     "--class", "kpartite"],
    "certify weighted --alpha nan": ["certify", "weighted_ti_150", "--alpha", "nan",
                                     "--class", "weighted"],
    "certify weighted --alpha inf": ["certify", "weighted_ti_150", "--alpha", "inf",
                                     "--class", "weighted"],
    "certify --tol 1": ["certify", "complete206", "--alpha", "2.0", "--tol", "1"],
    "certify --tol nan": ["certify", "complete206", "--alpha", "2.06", "--tol", "nan"],
    "certify --tol inf": ["certify", "complete206", "--alpha", "2.0", "--tol", "inf"],
    "certify --tol -1e-9": ["certify", "complete206", "--alpha", "2.06", "--tol=-1e-9"],
    # refused while parsing, before the (missing) instance file is read
    "lp --tol inf": ["lp", "--instance", "inst.json", "--tol", "inf"],
    "lp --tol nan": ["lp", "--instance", "inst.json", "--tol", "nan"],
    "lp --tol 0": ["lp", "--instance", "inst.json", "--tol", "0"],
    "lp --tol -1e-9": ["lp", "--instance", "inst.json", "--tol=-1e-9"],
    "lp --tol 1e-3": ["lp", "--instance", "inst.json", "--tol", "1e-3"],
    "bench --alpha nan": BENCH + ["--alpha", "nan"],
    "bench --alpha inf": BENCH + ["--alpha", "inf"],
    "bench --alpha 0.5": BENCH + ["--alpha", "0.5"],
    # past the memory walls (each would allocate many GB)
    "certify --grid 1e-5": ["certify", "complete206", "--alpha", "2.06", "--grid", "1e-5"],
    "certify weighted --grid 1e-5": ["certify", "weighted_ti_150", "--alpha", "1.5",
                                     "--class", "weighted", "--grid", "1e-5"],
    "gen --n 200000": ["gen", "complete", "--n", "200000", "--seed", "1"],
    "gen gap-ti --n 501": ["gen", "gap-ti", "--n", "501"],  # 2n vertices
    "gen --parts 500,501": ["gen", "kpartite", "--parts", "500,501", "--seed", "1"],
    # families outside argparse's choices
    "gen bogus": ["gen", "bogus", "--seed", "1"],
    "bench --family weighted": BENCH + ["--family", "weighted"],
}


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV.keys())
def test_bad_arguments_are_usage_errors(argv, tmp_path):
    assert run(argv + ["-o", str(tmp_path / "out")]) == 64


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--family", "complete", "--n", "7", "--instances", "4",
                "--trials", "50", "--scheme", "complete206", "--alpha", "2.06",
                "--seed", "3", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# meta:")
    header = lines[1].split(",")
    assert header == ["instance", "lp", "opt", "mean_alg", "std_alg", "derand_alg", "ratio_mean"]
    rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
    assert len(rows) == 4
    for r in rows:
        lp, opt = float(r["lp"]), float(r["opt"])
        assert lp <= opt + 1e-6
        assert float(r["derand_alg"]) <= 2.06 * lp + 1e-9
        if lp > 0:
            assert float(r["ratio_mean"]) <= 2.06 + 3.0  # loose smoke bound


def test_bench_kpartite_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--family", "kpartite", "--parts", "2,2,2", "--instances", "3",
                "--trials", "20", "--scheme", "kpartite3", "--alpha", "3", "--seed", "5",
                "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    rows = [dict(zip(lines[1].split(","), l.split(","))) for l in lines[2:]]
    assert len(rows) == 3
    for r in rows:
        assert float(r["derand_alg"]) <= 3.0 * float(r["lp"]) + 1e-9


def test_gen_planted(tmp_path):
    out = tmp_path / "planted.cc"
    assert run(["gen", "planted", "--n", "9", "--k", "3", "--corruption", "0.2",
                "--seed", "4", "-o", str(out)]) == 0
    want, _truth = cc.gen_planted(9, 3, 0.2, 4)
    got = cc.parse_instance(out.read_text())
    assert got.kind == want.kind == "complete"
    assert np.array_equal(got.labels, want.labels)


def test_bench_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--n", "6", "--instances", "2", "--trials", "20", "--seed", "11"]
    run(args + ["-o", str(a)])
    run(args + ["-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bench_jobs_match_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--n", "6", "--instances", "4", "--trials", "10", "--seed", "11"]
    run(args + ["-o", str(a)])
    run(args + ["--jobs", "2", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_lp_meta_carries_certificate_and_rounds(tmp_path):
    inst_file, sol_file = tmp_path / "c.cc", tmp_path / "c.json"
    run(["gen", "complete", "--n", "8", "--p", "0.5", "--seed", "4", "-o", str(inst_file)])
    assert run(["lp", "--instance", str(inst_file), "-o", str(sol_file)]) == 0
    doc = json.loads(sol_file.read_text())
    meta = doc["meta"]
    assert meta["dual_bound"] == pytest.approx(doc["objective"], abs=1e-9)
    assert abs(meta["gap"]) <= 1e-9
    assert len(meta["rounds"]) == meta["separation_rounds"]
    assert sum(r["cuts"] for r in meta["rounds"]) == meta["constraints_generated"]
    assert set(meta["rounds"][0]) == {"cuts", "dual_pivots", "seconds", "scan_seconds"}


def test_lp_refuses_instances_past_the_size_limit(tmp_path, capsys):
    inst_file = tmp_path / "big.cc"
    n = cc.lp.MAX_LP_N + 1
    run(["gen", "complete", "--n", str(n), "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    assert run(["lp", "--instance", str(inst_file)]) == 64
    assert f"n = {cc.lp.MAX_LP_N}" in capsys.readouterr().err


@pytest.mark.parametrize("size", [["--n", str(cc.lp.MAX_LP_N + 1)],
                                  ["--family", "kpartite", "--parts", f"{cc.lp.MAX_LP_N},1"]],
                         ids=["n", "parts"])
def test_bench_refuses_instances_past_the_lp_size_limit(size, monkeypatch, capsys):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("bench solved an LP past MAX_LP_N")

    monkeypatch.setattr(cc.cli, "solve_relaxation", no_solve)
    assert run(["bench", "--instances", "1", "--trials", "1", "--seed", "1"] + size) == 64
    assert f"n = {cc.lp.MAX_LP_N}" in capsys.readouterr().err


def test_lp_uncertified_optimum_exits_70(tmp_path, monkeypatch, capsys):
    # zero multipliers prove only the box bound, far below this optimum
    import numpy as np

    monkeypatch.setattr(cc.lp._Tableau, "multipliers",
                        lambda self: np.zeros(len(self.basis) - self.nvar))
    inst_file = tmp_path / "c.cc"
    run(["gen", "complete", "--n", "8", "--p", "0.5", "--seed", "3", "-o", str(inst_file)])
    assert run(["lp", "--instance", str(inst_file)]) == 70
    assert "primal-dual gap" in capsys.readouterr().err


def test_data_error_exit_code(tmp_path):
    missing = tmp_path / "nope.cc"
    assert run(["lp", "--instance", str(missing)]) == 65
    bad = tmp_path / "bad.cc"
    bad.write_text("cc complete 3\n0 1 +\n")  # missing pairs
    assert run(["lp", "--instance", str(bad)]) == 65


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 64
    assert run(["certify"]) == 64


def test_round_refuses_solution_of_another_size(tmp_path):
    inst_file, small_inst, sol_file = tmp_path / "i6.cc", tmp_path / "i5.cc", tmp_path / "x5.json"
    run(["gen", "complete", "--n", "6", "--p", "0.5", "--seed", "5", "-o", str(inst_file)])
    run(["gen", "complete", "--n", "5", "--p", "0.5", "--seed", "5", "-o", str(small_inst)])
    assert run(["lp", "--instance", str(small_inst), "-o", str(sol_file)]) == 0
    base = ["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
            "--scheme", "complete206"]
    assert run(base + ["--mode", "random", "--seed", "1"]) == 65
    assert run(base + ["--mode", "derand", "--alpha", "2.06"]) == 65


@pytest.mark.parametrize("x", [
    [5.0] * 6,  # outside the box: rounding would read it clipped, the reported lp raw
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # x_01 = 1, x_02 = x_12 = 0: a triangle violated by 1
], ids=["box", "triangle"])
def test_round_refuses_a_point_outside_the_metric_polytope(tmp_path, x):
    inst_file, sol_file, out = tmp_path / "i.cc", tmp_path / "x.json", tmp_path / "r.json"
    run(["gen", "complete", "--n", "4", "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    sol_file.write_text(json.dumps({"n": 4, "x": x}))
    base = ["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
            "--scheme", "complete206", "-o", str(out)]
    assert run(base + ["--seed", "1"]) == 65
    assert run(base + ["--mode", "derand", "--alpha", "2.06"]) == 65
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 4, "x": [[0.0, 0.5], [0.5, 0.0]]},  # n disagrees with the matrix
        {"n": 4, "x": [0.5, 0.5, 0.5]},  # vector of a 3-vertex solution
        {"x": [[0.0, 0.5], [0.5, 0.0]]},  # no "n"
        {"n": 2},  # no "x"
        {"n": 2, "x": [[0.0, 0.5], [0.25, 0.0]]},  # not symmetric
        {"n": 2, "x": [[0.0, 0.5 + 1e-9], [0.5, 0.0]]},  # asymmetric by 1e-9, inside allclose's rtol
        {"n": 2, "x": [[0.7, 0.5], [0.5, 0.0]]},  # nonzero diagonal
        {"n": 2.0, "x": [0.5]},  # "n" not an integer
        {"n": "2", "x": [0.5]},
        {"n": True, "x": []},
        {"n": -1, "x": [0.5]},  # "n" below 1
        # entries that np.asarray would read as numbers but JSON types as a string or boolean
        {"n": 3, "x": ["0.5", 0.5, 0.5]},
        {"n": 3, "x": [0.5, True, 0.5]},
        {"n": 2, "x": [[0.0, "0.5"], ["0.5", 0.0]]},
        {"n": 2, "x": [[False, 1.0], [1.0, False]]},
    ],
)
def test_solution_from_json_format_errors(tmp_path, doc):
    with pytest.raises(cc.FormatError):
        cc.lp.solution_from_json(json.dumps(doc))
    inst_file, sol_file = tmp_path / "i.cc", tmp_path / "x.json"
    run(["gen", "complete", "--n", "2", "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    sol_file.write_text(json.dumps(doc))
    assert run(["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
                "--scheme", "complete206", "--seed", "1"]) == 65


def test_solution_from_json_nested_past_the_recursion_limit_is_a_format_error():
    with pytest.raises(cc.FormatError):
        cc.lp.solution_from_json('{"n": 2, "x": ' + "[" * 100_000 + "]" * 100_000 + "}")


def test_scheme_file_missing_key_is_data_error(tmp_path):
    doc = json.loads(cc.get_scheme("acn_linear").to_json())
    del doc["f_minus"]
    scheme_file = tmp_path / "partial.json"
    scheme_file.write_text(json.dumps(doc))
    assert run(["certify", str(scheme_file), "--alpha", "3", "--grid", "0.05"]) == 65


def test_internal_key_error_is_not_a_data_error(tmp_path, monkeypatch):
    import ccpivot.cli

    def broken(_inst):
        raise KeyError("internal")

    inst_file = tmp_path / "i.cc"
    run(["gen", "complete", "--n", "4", "--p", "0.5", "--seed", "2", "-o", str(inst_file)])
    monkeypatch.setattr(ccpivot.cli, "brute_force_opt", broken)
    with pytest.raises(KeyError, match="internal"):
        run(["opt", "--instance", str(inst_file)])


@pytest.mark.parametrize("x", ["[NaN, 0.5, 0.5]", "[[0, NaN, 0.5], [NaN, 0, 0.5], [0.5, 0.5, 0]]",
                               "[0.5, -Infinity, 0.5]"])
def test_round_refuses_non_finite_solution(tmp_path, x):
    inst_file, sol_file = tmp_path / "i.cc", tmp_path / "x.json"
    run(["gen", "complete", "--n", "3", "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    sol_file.write_text('{"n": 3, "x": %s}' % x)
    base = ["round", "--instance", str(inst_file), "--lp-solution", str(sol_file),
            "--scheme", "complete206"]
    assert run(base + ["--seed", "1"]) == 65
    assert run(base + ["--mode", "derand", "--alpha", "2.06"]) == 65


@pytest.mark.parametrize("piece", [
    {"from": 0.0, "to": 1.0, "kind": "cubic", "params": [0.0, 1.0]},  # unknown kind
    {"from": 0.0, "to": 1.0, "kind": "linear", "params": [0.0]},  # too few params
    {"from": 0.0, "to": 1.0, "kind": "quadratic", "params": [0.0]},  # shorthand too short
    {"from": 0.0, "to": 1.0, "kind": "linear", "params": ["a", "b"]},  # not numbers
    # JSON strings and booleans are not numbers, and closed_left must be a JSON boolean
    {"from": "0", "to": 1.0, "kind": "linear", "params": [0.0, 1.0]},
    {"from": 0.0, "to": 1.0, "kind": "linear", "params": ["0", "1"]},
    {"from": 0.0, "to": 1.0, "kind": "constant", "params": [True]},
    {"from": 0.0, "to": 1.0, "kind": "linear", "params": [0.0, 1.0], "closed_left": "false"},
    {"from": 0.0, "to": 1.0, "kind": "linear", "params": [0.0, 1.0], "closed_left": 1},
    {"from": 0.0, "to": 1.0, "kind": "linear", "params": [0.0, 10**400]},  # no float holds it
])
def test_scheme_file_with_bad_piece_is_data_error(tmp_path, piece):
    doc = json.loads(cc.get_scheme("acn_linear").to_json())
    doc["f_minus"] = [piece]
    scheme_file = tmp_path / "bad_piece.json"
    scheme_file.write_text(json.dumps(doc))
    assert run(["certify", str(scheme_file), "--alpha", "3", "--grid", "0.05"]) == 65


def test_scheme_file_closed_left_string_is_data_error(tmp_path):
    # "false" would read as True and close kpartite3's f_plus at 1/3, flipping f_plus(1/3) to 1
    doc = json.loads(cc.get_scheme("kpartite3").to_json())
    doc["f_plus"][1]["closed_left"] = False
    scheme_file = tmp_path / "open.json"
    scheme_file.write_text(json.dumps(doc))
    assert cc.RoundingScheme.from_json(scheme_file.read_text()).f_plus(1 / 3) == 0.0
    assert run(["certify", str(scheme_file), "--class", "kpartite", "--alpha", "3"]) == 0
    doc["f_plus"][1]["closed_left"] = "false"
    scheme_file.write_text(json.dumps(doc))
    assert run(["certify", str(scheme_file), "--class", "kpartite", "--alpha", "3"]) == 65


@pytest.mark.parametrize("text", [
    json.dumps({**json.loads(cc.get_scheme("acn_linear").to_json()), "name": 7}),
    "[" * 100_000 + "]" * 100_000,  # nested past the JSON decoder's recursion limit
], ids=["name not a string", "nested too deep"])
def test_scheme_file_with_bad_document_is_data_error(tmp_path, text):
    scheme_file = tmp_path / "bad_doc.json"
    scheme_file.write_text(text)
    assert run(["certify", str(scheme_file), "--alpha", "3", "--grid", "0.05"]) == 65


@pytest.mark.parametrize("what", ["instance", "lp-solution"])
def test_directory_input_is_data_error(tmp_path, what):
    inst_file, folder = tmp_path / "i.cc", tmp_path / "folder"
    folder.mkdir()
    run(["gen", "complete", "--n", "4", "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    if what == "instance":
        assert run(["lp", "--instance", str(folder)]) == 65
    else:
        assert run(["round", "--instance", str(inst_file), "--lp-solution", str(folder),
                    "--scheme", "complete206", "--seed", "1"]) == 65


@pytest.mark.parametrize("command", ["gen", "lp", "certify"])
def test_directory_output_is_data_error(tmp_path, capsys, command):
    # an output path that cannot be written exits 65, not 1 (certification FAIL) with a traceback
    inst_file = tmp_path / "i.cc"
    run(["gen", "complete", "--n", "4", "--p", "0.5", "--seed", "1", "-o", str(inst_file)])
    args = {"gen": ["gen", "complete", "--n", "4", "--seed", "1"],
            "lp": ["lp", "--instance", str(inst_file)],
            "certify": ["certify", "complete206", "--alpha", "2.06", "--grid", "0.05"]}[command]
    assert run(args + ["-o", str(tmp_path)]) == 65
    assert "cannot write" in capsys.readouterr().err


def test_non_utf8_instance_is_data_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cc"
    bad.write_bytes(b"cc complete 2\n0 1 +\n# caf\xe9\n")
    assert run(["lp", "--instance", str(bad)]) == 65
    assert "cannot read" in capsys.readouterr().err


def test_scheme_name_beside_a_directory_of_that_name(tmp_path, monkeypatch):
    # a directory is not a scheme file: the name still resolves to the built-in scheme
    monkeypatch.chdir(tmp_path)
    (tmp_path / "complete206").mkdir()
    out = tmp_path / "report.json"
    assert run(["certify", "complete206", "--alpha", "2.06", "--grid", "0.05", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["scheme"] == "complete206"
