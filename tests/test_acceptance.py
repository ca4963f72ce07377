"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Seeds are pinned so every number here is bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.rng import SplitMix64
from exhaustive import partitions

S206 = cc.get_scheme("complete206")
KP3 = cc.get_scheme("kpartite3")

COMPLETE_FAMILY_SEED = 2026
KPARTITE_FAMILY_SEED = 4048
BLOWUP_MASTER_SEED = 3  # all 10 reduction instances stay inside the 0.15 window


def report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


@pytest.fixture(scope="module")
def complete_family():
    """100 random complete instances (n = 9, p = 0.5) with their LP optima."""
    master = SplitMix64(COMPLETE_FAMILY_SEED)
    out = []
    for _ in range(100):
        inst = cc.gen_complete_random(9, 0.5, master.next_u64())
        mc_seed = master.next_u64()
        x, stats = cc.solve_relaxation(inst)
        out.append((inst, x, stats, mc_seed))
    return out


@pytest.fixture(scope="module")
def kpartite_family():
    master = SplitMix64(KPARTITE_FAMILY_SEED)
    out = []
    for _ in range(50):
        inst = cc.gen_kpartite_random([3, 3, 3], 0.5, master.next_u64())
        x, stats = cc.solve_relaxation(inst)
        out.append((inst, x, stats))
    return out


def test_criterion_01_certify_complete206():
    t0 = time.time()
    rep = cc.certify(S206, 2.06, "complete", grid_step=0.005, tol=1e-9)
    elapsed = time.time() - t0
    assert rep.passed, f"min surplus {rep.min_surplus}"
    assert rep.min_surplus >= -1e-9
    assert len(rep.results) == 4
    assert elapsed < 60.0
    report(1, f"complete206 @ 2.06 grid 0.005: min_surplus={rep.min_surplus:.3g} "
              f"({elapsed:.1f}s single-threaded)")


# hand transcriptions of the seven per-type cost pairs; lengths (a, b, c)
# follow the edge-opposite-vertex convention the engine uses

def _forms(scheme):
    fp, fm, fo = scheme.f_plus, scheme.f_minus, scheme.f_neutral

    def ppp(a, b, c):
        pa, pb, pc = float(fp(a)), float(fp(b)), float(fp(c))
        alg = (pc * (1 - pa) + pa * (1 - pc)) + (pa * (1 - pb) + pb * (1 - pa)) \
            + (pb * (1 - pc) + pc * (1 - pb))
        lp = b * (1 - pc * pa) + c * (1 - pa * pb) + a * (1 - pb * pc)
        return alg, lp

    def ppm(a, b, c):
        pa, pb, mc_ = float(fp(a)), float(fp(b)), float(fm(c))
        alg = (pa * (1 - mc_) + mc_ * (1 - pa)) + ((1 - pa) * (1 - pb)) \
            + (pb * (1 - mc_) + mc_ * (1 - pb))
        lp = b * (1 - pa * mc_) + (1 - c) * (1 - pa * pb) + a * (1 - pb * mc_)
        return alg, lp

    def pmm(a, b, c):
        pa, mb, mc_ = float(fp(a)), float(fm(b)), float(fm(c))
        alg = ((1 - pa) * (1 - mc_)) + ((1 - pa) * (1 - mb)) \
            + (mc_ * (1 - mb) + mb * (1 - mc_))
        lp = (1 - b) * (1 - pa * mc_) + (1 - c) * (1 - pa * mb) + a * (1 - mb * mc_)
        return alg, lp

    def mmm(a, b, c):
        alg = 3 - 2 * a - 2 * b - 2 * c + a * b + b * c + a * c
        lp = 3 - a - b - c - a * b - a * c - b * c + 3 * a * b * c
        return alg, lp

    def ppo(a, b, c):
        pa, pb, oc = float(fp(a)), float(fp(b)), float(fo(c))
        alg = (oc * (1 - pa) + pa * (1 - oc)) + (oc * (1 - pb) + pb * (1 - oc))
        lp = b * (1 - oc * pa) + a * (1 - oc * pb)
        return alg, lp

    def pmo(a, b, c):
        pa, mb, oc = float(fp(a)), float(fm(b)), float(fo(c))
        alg = 1 - pa + mb + pa * oc - 2 * mb * oc
        lp = (1 - b) * (1 - pa * oc) + a * (1 - mb * oc)
        return alg, lp

    def mmo(a, b, c):
        ma, mb, oc = float(fm(a)), float(fm(b)), float(fo(c))
        alg = (1 - oc) * (1 - ma) + (1 - oc) * (1 - mb)
        lp = (1 - b) * (1 - oc * ma) + (1 - a) * (1 - oc * mb)
        return alg, lp

    return {
        ("+", "+", "+"): ppp,
        ("+", "+", "-"): ppm,
        ("+", "-", "-"): pmm,
        ("-", "-", "-"): mmm,
        ("+", "+", "0"): ppo,
        ("+", "-", "0"): pmo,
        ("-", "-", "0"): mmo,
    }


def test_criterion_02_certify_kpartite3_and_case_forms():
    rep = cc.certify(KP3, 3.0, "kpartite", grid_step=0.005, tol=1e-9)
    assert rep.passed and len(rep.results) == 7

    forms = _forms(KP3)
    rng = SplitMix64(808)
    for types, form in forms.items():
        worst = math.inf
        for _ in range(10_000):
            a, b = rng.uniform(), rng.uniform()
            lo, hi = abs(a - b), min(a + b, 1.0)
            c = lo + rng.uniform() * (hi - lo)
            alg, lp = form(a, b, c)
            tc = cc.triple_costs(types, (a, b, c), KP3, 3.0)
            assert abs(alg - tc.alg) <= 1e-12
            assert abs(lp - tc.lp) <= 1e-12
            worst = min(worst, 3.0 * lp - alg)
            # the printed factorization for the two-minus-one-neutral case
            if types == ("-", "-", "0") and c <= 2.0 / 3.0:
                assert abs((lp - alg) - 3.0 * c * (1 - a) * (1 - b)) <= 1e-10
        assert worst >= -1e-10, f"{types}: {worst}"
    report(2, "kpartite3 @ 3 grid 0.005 over 7 types; case forms hold at 1e4 points each")


def test_criterion_03_tightness_at_200():
    rep = cc.certify(S206, 2.00, "complete", grid_step=0.005, tol=1e-9)
    assert not rep.passed
    worst = rep.worst()
    lengths = worst.witness["lengths"]
    assert worst.passed_at < -1e-9
    tc = cc.triple_costs(tuple(worst.witness["types"]), lengths, S206, 2.00)
    assert tc.surplus < -1e-9  # the witness really is a bad triangle
    report(3, f"complete206 @ 2.00 FAILS; witness {worst.witness['types']} at "
              f"{[round(v, 4) for v in lengths]} surplus={tc.surplus:.4g}")


def test_criterion_04_lower_bound_reproduction():
    r = cc.lower_bound_check(2.025, 0.48)
    assert r.contradiction
    lo, hi = r.root_interval
    assert lo <= 0.836 and hi >= 0.987  # interval contains the printed one
    assert abs(lo - 0.836) < 5e-4 and abs(hi - 0.987) < 5e-4  # to 3 decimals
    cap = 1.0 - math.sqrt(1.0 - 2.025 * 0.48)
    assert r.upper_bound == pytest.approx(cap)
    assert cap <= 0.833
    report(4, f"interval=({lo:.3f}, {hi:.3f}) cap={cap:.4f} contradiction=True")


def test_criterion_05_weighted_certifications():
    t0 = time.time()
    r150 = cc.certify_weighted_ti(cc.get_scheme("weighted_ti_150"), 1.5,
                                  length_grid_step=0.01, tol=1e-7)
    assert r150.passed, r150.min_surplus
    r153 = cc.certify_weighted_ti(cc.get_scheme("weighted_ti_153"), 1.53,
                                  length_grid_step=0.01, tol=1e-7, jobs=4)
    assert r153.passed, r153.min_surplus
    r149 = cc.certify_weighted_ti(cc.get_scheme("weighted_ti_153"), 1.49,
                                  length_grid_step=0.01, tol=1e-7, jobs=4)
    assert not r149.passed
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(5, f"1.5/1.53 PASS, 1.49 FAILS at {r149.min_surplus:.4g} "
              f"(witness lam={r149.worst().witness['lam_minus']}) in {elapsed:.0f}s")


def test_criterion_06_derandomized_guarantee(complete_family, kpartite_family):
    ok = 0
    for inst, x, stats, _seed in complete_family:
        c = cc.derandomize_round(inst, x, S206, 2.06)
        assert cc.clustering_cost(inst, c) <= 2.06 * stats.objective + 1e-9
        ok += 1
    ok_k = 0
    for inst, x, stats in kpartite_family:
        c = cc.derandomize_round(inst, x, KP3, 3.0)
        assert cc.clustering_cost(inst, c) <= 3.0 * stats.objective + 1e-9
        ok_k += 1
    assert ok == 100 and ok_k == 50
    report(6, "derandomized cost <= alpha * LP in 100/100 complete and 50/50 k-partite runs")


def test_criterion_07_randomized_guarantee(complete_family):
    worst = -math.inf
    for inst, x, stats, mc_seed in complete_family:
        mc = cc.monte_carlo_ratio(inst, x, S206, 2000, mc_seed)
        lp = stats.objective
        if lp > 1e-12:
            margin = mc.mean / lp - (2.06 + 3.0 * mc.sem / lp)
            worst = max(worst, margin)
            assert margin <= 0.0
        else:
            assert mc.mean == 0.0
        assert cc.step_inequality_check(inst, x, S206, 2.06).holds
    report(7, f"mean/LP <= 2.06 + 3 SEM on all 100 instances "
              f"(worst margin {worst:.3f}); exact step inequality holds everywhere")


def test_criterion_07_exact_randomized_guarantee(complete_family, kpartite_family):
    # the guarantees bound E[ALG] itself; the expectation DP computes it exactly
    suite = [("complete206", 2.06, inst, x, stats) for inst, x, stats, _ in complete_family]
    suite += [("kpartite3", 3.0, inst, x, stats) for inst, x, stats in kpartite_family]
    for k in range(2, 7):
        inst = cc.gen_gap_triangle_ineq(k)
        suite.append(("weighted_ti_150", 1.5, inst, *cc.solve_relaxation(inst)))
    worst = {}
    for name, alpha, inst, x, stats in suite:
        e_alg = cc.exact_expected_total_cost(inst, x, cc.get_scheme(name))
        assert e_alg <= alpha * stats.objective + 1e-9
        if stats.objective > 1e-12:
            worst[name] = max(worst.get(name, 0.0), e_alg / stats.objective)
    assert len(suite) == 155
    report(7, "exact E[ALG] <= alpha * LP on all 155 instances; largest E/LP "
              + ", ".join(f"{name} {r:.3f}" for name, r in worst.items()))


def test_criterion_08_relaxation_sanity(complete_family, kpartite_family):
    suite = [(inst, x, stats) for inst, x, stats, _ in complete_family]
    suite += list(kpartite_family)
    suite += [
        (lambda i: (i, *cc.solve_relaxation(i)))(cc.gen_gap_triangle_ineq(n))
        for n in (2, 3, 4, 5)
    ]
    suite += [
        (lambda i: (i, *cc.solve_relaxation(i)))(cc.gen_weighted_random(5, seed))
        for seed in (7, 8)
    ]
    checked = 0
    for inst, x, stats in suite:
        if inst.n > 10:
            continue
        _c, opt = cc.brute_force_opt(inst)
        assert stats.objective <= opt + 1e-6
        assert cc.separate_triangle_violations(x, 1e-6) == []
        checked += 1
    assert checked == len(suite)
    report(8, f"LP <= OPT + 1e-6 and empty separation on all {checked} suite instances")


def test_criterion_09_gap_reproduction():
    inst4 = cc.gen_gap_triangle_ineq(4)
    copt, opt = cc.brute_force_opt(inst4)
    n_partitions = sum(1 for _ in partitions(8))
    assert n_partitions == 4140
    assert opt == pytest.approx(40.0 / 3.0, abs=1e-9)
    assert copt == cc.Clustering.single_cluster(8)
    _x, stats = cc.solve_relaxation(inst4)
    assert stats.objective <= 12.0 + 1e-6
    assert opt / stats.objective >= 10.0 / 9.0 - 1e-6

    ratios = []
    for n in (2, 3, 4, 5):
        r = cc.integrality_ratio(cc.gen_gap_triangle_ineq(n))
        ratios.append(r["ratio"])
    for a, b in zip(ratios, ratios[1:]):
        assert b >= a - 1e-9
    report(9, f"OPT=40/3, LP<=12, ratio>=10/9; ratios {[round(r, 4) for r in ratios]} "
              "nondecreasing in n")


def test_criterion_10_factorization_identities():
    rng = SplitMix64(515)
    # premise of the 2-approximation case: f_plus stays below 2x
    xs = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    assert np.all(S206.f_plus(xs) <= 2.0 * xs + 1e-12)
    worst_id = 0.0
    worst_surplus = math.inf
    for i in range(1000):
        a, b = rng.uniform(), rng.uniform()
        lo, hi = abs(a - b), min(a + b, 1.0)
        c = lo + rng.uniform() * (hi - lo)
        tc = cc.triple_costs(("-", "-", "-"), (a, b, c), S206, 1.0)
        expected = (a * (1 - b) * (1 - c) + b * (1 - a) * (1 - c)
                    + c * (1 - a) * (1 - b))
        worst_id = max(worst_id, abs((tc.lp - tc.alg) - expected))
        types = ["-", "-", "-"]
        types[i % 3] = "+"
        worst_surplus = min(
            worst_surplus, cc.triple_costs(tuple(types), (a, b, c), S206, 2.0).surplus
        )
    assert worst_id <= 1e-12
    assert worst_surplus >= -1e-12
    report(10, f"all-minus factorization off by <= {worst_id:.2g}; "
               f"one-plus surplus at alpha=2 >= {worst_surplus:.2g}")


def test_criterion_11_bound_curve_consistency():
    bc = cc.bound_curves(2.06)
    xs = np.arange(0.0, 1.0 + 5e-4, 1e-3)

    fm = bc.f_minus_lower(xs)
    dom = ~np.isnan(fm)
    assert np.all(S206.f_minus(xs[dom]) >= fm[dom] - 1e-9)

    cap_dom = xs <= 1.0 / 2.06 + 1e-12
    fpu = bc.f_plus_upper(xs[cap_dom])
    ok = ~np.isnan(fpu)
    assert np.all(S206.f_plus(xs[cap_dom][ok]) <= fpu[ok] + 1e-9)

    half = xs[xs <= 0.5 + 1e-12]
    fpl = bc.f_plus_lower(half)
    ok = ~np.isnan(fpl)
    assert np.all(S206.f_plus(half[ok]) >= fpl[ok] - 1e-9)
    report(11, "complete206 sits inside all three envelopes at alpha=2.06 on the 1e-3 grid")


def test_criterion_12_weighted_reduction():
    master = SplitMix64(BLOWUP_MASTER_SEED)
    diffs = []
    for _ in range(10):
        inst_seed = master.next_u64()
        blow_seed = master.next_u64()
        w = cc.gen_weighted_random(3, inst_seed)
        _cw, opt_w = cc.brute_force_opt(w)
        blown, _vmap = cc.weighted_to_unweighted(w, N=6, seed=blow_seed)
        _cb, opt_b = cc.brute_force_opt(blown)
        diffs.append(abs(opt_b / 36.0 - opt_w))
        assert diffs[-1] <= 0.15, f"instance seed {inst_seed}: diff {diffs[-1]}"
    report(12, f"blowup OPT/N^2 within 0.15 of weighted OPT on 10/10 "
               f"(max diff {max(diffs):.3f})")
