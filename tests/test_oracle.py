from itertools import islice

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.instance import assignment_cost
from ccpivot.oracle import MAX_EXACT_N, MAX_EXPECT_N, _brute_force_subset_dp
from exhaustive import expected_step, expected_total, partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def exhaustive_opt(inst, batch=4096):
    """Minimum cost over every partition of inst, priced in batches."""
    wp, wm = inst.pair_weights()
    parts = partitions(inst.n)
    best = np.inf
    while chunk := list(islice(parts, batch)):
        best = min(best, assignment_cost(np.array(chunk), wp, wm).min())
    return float(best)


def k3(labels_ut):
    m = np.zeros((3, 3), dtype=np.int8)
    (m[0, 1], m[0, 2], m[1, 2]) = labels_ut
    m += m.T
    return cc.Instance.complete(m)


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_counts_are_bell_numbers(n):
    count = sum(1 for _ in partitions(n))
    assert count == BELL[n]


def test_partitions_distinct_and_canonical():
    seen = set()
    for a in partitions(5):
        key = tuple(a.tolist())
        assert key not in seen
        seen.add(key)
        assert np.array_equal(cc.Clustering(a).assignment, a)  # already canonical


def test_brute_force_bad_triangle():
    _c, cost = cc.brute_force_opt(k3((1, 1, -1)))
    assert cost == 1.0


def test_brute_force_all_minus_gives_singletons():
    c, cost = cc.brute_force_opt(k3((-1, -1, -1)))
    assert cost == 0.0
    assert c == cc.Clustering.singletons(3)


def test_brute_force_gap_ti_single_cluster():
    inst = cc.gen_gap_triangle_ineq(4)
    c, cost = cc.brute_force_opt(inst)
    assert cost == pytest.approx(40.0 / 3.0)
    assert c == cc.Clustering.single_cluster(8)


def test_brute_force_matches_exhaustive_scan():
    inst = cc.gen_complete_random(7, 0.5, seed=3)
    best = min(cc.clustering_cost(inst, cc.Clustering(a)) for a in partitions(7))
    _c, cost = cc.brute_force_opt(inst)
    assert cost == pytest.approx(best)


def small_instance(kind, n, seed):
    if kind == "complete":
        return cc.gen_complete_random(n, 0.5, seed)
    if kind == "planted":
        return cc.gen_planted(n, min(n, 2), 0.2, seed)[0]
    if kind == "kpartite":  # up to three parts, none empty
        sizes = [(n + i) // 3 for i in range(3)]
        return cc.gen_kpartite_random([s for s in sizes if s], 0.5, seed)
    return cc.gen_weighted_random(n, seed)


@pytest.mark.parametrize("kind", ["complete", "kpartite", "weighted"])
@pytest.mark.parametrize("n", range(1, 7))
def test_brute_force_matches_partition_minimum(kind, n):
    inst = small_instance(kind, n, seed=20 + n)
    c, cost = cc.brute_force_opt(inst)
    best = exhaustive_opt(inst)
    if kind == "weighted":  # the two sum the same weights in different orders
        assert cost == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert cc.clustering_cost(inst, c) == pytest.approx(cost, rel=1e-12, abs=1e-12)
    else:
        assert cost == best
        assert cc.clustering_cost(inst, c) == cost


# the reference enumerates partitions() as restricted-growth strings (RGS)
@pytest.mark.parametrize("n,seed", [(8, 1), (9, 2), (10, 3), (11, 4)])
def test_rgs_and_subset_dp_agree(n, seed):
    inst = cc.gen_complete_random(n, 0.5, seed)
    c, v = _brute_force_subset_dp(inst)
    assert v == exhaustive_opt(inst)
    assert cc.clustering_cost(inst, c) == v


def test_subset_dp_weighted_agrees():
    inst = cc.gen_weighted_random(8, seed=6)
    _c, v = _brute_force_subset_dp(inst)
    assert v == pytest.approx(exhaustive_opt(inst), abs=1e-9)


def test_cap_enforced():
    inst = cc.gen_complete_random(MAX_EXACT_N + 1, 0.5, seed=1)
    with pytest.raises(ValueError, match="MAX_EXACT_N"):
        cc.brute_force_opt(inst)


def test_integrality_ratio_conventions():
    allp = cc.gen_complete_random(4, 1.0, seed=1)
    r = cc.integrality_ratio(allp)
    assert r["opt"] == 0.0 and r["lp"] == pytest.approx(0.0, abs=1e-9)
    assert r["ratio"] == 1.0


def test_integrality_ratio_bad_triangle_is_one():
    # objective >= x_bc + (1 - x_bc) = 1 by the triangle constraint, and
    # x = 0 attains it, so LP optimum = OPT = 1 and the ratio is exactly 1
    r = cc.integrality_ratio(k3((1, 1, -1)))
    assert r["opt"] == pytest.approx(1.0)
    assert r["lp"] == pytest.approx(1.0, abs=1e-9)
    assert r["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_integrality_ratio_gap_ti():
    inst = cc.gen_gap_triangle_ineq(4)
    r = cc.integrality_ratio(inst)
    assert r["lp"] <= 12.0 + 1e-6
    assert r["ratio"] >= 10.0 / 9.0 - 1e-6


def test_exact_step_cost_trivial_all_plus():
    inst = cc.gen_complete_random(4, 1.0, seed=1)
    x = cc.LpSolution.constant(4, 0.0)
    r = cc.step_cost_formula(inst, x, cc.get_scheme("complete206"))
    assert r["e_alg_0"] == pytest.approx(0.0)


def test_exact_step_cost_n2_closed_form():
    # with two vertices the pivot is an endpoint, so p_uu = 0 drops one factor:
    # the pair is violated (and removed) exactly when the other vertex stays out
    inst = cc.Instance.complete(np.array([[0, 1], [1, 0]], dtype=np.int8))
    x = cc.LpSolution.from_matrix(np.array([[0.0, 0.4], [0.4, 0.0]]))
    r = cc.step_cost_formula(inst, x, cc.get_scheme("acn_linear"))
    assert r["e_alg_0"] == pytest.approx(0.4)
    assert r["e_lp_0"] == pytest.approx(0.4)
    # the distinct-pivot closed forms themselves give 0.48 / 0.336
    cost, lp = cc.edge_terms("+", 0.4, 0.4, 0.4)
    assert cost == pytest.approx(0.48)
    assert lp == pytest.approx(0.336)


@pytest.mark.parametrize(
    "seed,kind",
    [pytest.param(seed, "complete", id=str(seed)) for seed in (5, 6, 7)]
    + [pytest.param(3, "kpartite", id="kpartite-3")],
)
def test_enumeration_matches_pairwise_formula(seed, kind):
    if kind == "kpartite":  # neutral pairs: f_neutral cuts, nothing is charged
        inst = cc.gen_kpartite_random([2, 2, 1], 0.5, seed)
        s = cc.get_scheme("kpartite3")
    else:
        inst = cc.gen_complete_random(3, 0.5, seed)
        s = cc.get_scheme("complete206")
    x, _ = cc.solve_relaxation(inst)
    enum = expected_step(inst, x, s)
    formula = cc.step_cost_formula(inst, x, s)
    assert enum["e_alg_0"] == pytest.approx(formula["e_alg_0"], abs=1e-12)
    assert enum["e_lp_0"] == pytest.approx(formula["e_lp_0"], abs=1e-12)


def test_weighted_enumeration_matches_mixture_formula():
    inst = cc.gen_weighted_random(3, seed=4)
    x = cc.LpSolution.constant(3, 0.5)
    s = cc.get_scheme("weighted_ti_150")
    enum = expected_step(inst, x, s)
    formula = cc.step_cost_formula(inst, x, s)
    assert enum["e_alg_0"] == pytest.approx(formula["e_alg_0"], abs=1e-12)
    assert enum["e_lp_0"] == pytest.approx(formula["e_lp_0"], abs=1e-12)


EXPECT_SCHEMES = {"complete": "complete206", "planted": "acn_linear",
                  "kpartite": "kpartite3", "weighted": "weighted_ti_150"}


def fractional_point(n, seed):
    # an arbitrary point in the box, so every cut probability is fractional
    return cc.LpSolution(n, np.random.default_rng(seed).uniform(size=n * (n - 1) // 2))


@pytest.mark.parametrize("kind", list(EXPECT_SCHEMES))
@pytest.mark.parametrize("n", range(1, 6))
def test_expectations_match_coin_enumeration(kind, n):
    # the reference flips every label coin and never reads cut_probabilities
    inst = small_instance(kind, n, seed=40 + n)
    s = cc.get_scheme(EXPECT_SCHEMES[kind])
    for x in (fractional_point(n, n), cc.solve_relaxation(inst)[0]):
        step, ref = cc.step_cost_formula(inst, x, s), expected_step(inst, x, s)
        for key in ("e_alg_0", "e_lp_0"):
            assert step[key] == pytest.approx(ref[key], rel=1e-12, abs=1e-15)
        if kind == "weighted" and n > 4:  # 2^10 coin outcomes, each a full recursion
            continue
        total = cc.exact_expected_total_cost(inst, x, s)
        assert total == pytest.approx(expected_total(inst, x, s), rel=1e-12, abs=1e-15)


def test_expectations_of_the_empty_instance():
    inst = cc.Instance.complete(np.zeros((0, 0), dtype=np.int8))
    x, s = cc.LpSolution.constant(0, 0.5), cc.get_scheme("complete206")
    assert cc.step_cost_formula(inst, x, s) == {"e_alg_0": 0.0, "e_lp_0": 0.0}
    assert cc.exact_expected_total_cost(inst, x, s) == 0.0
    si = cc.step_inequality_check(inst, x, s, 2.06)
    assert (si.lhs, si.rhs, si.holds) == (0.0, 0.0, True)
    mc = cc.monte_carlo_ratio(inst, x, s, trials=3, seed=1)
    assert (mc.trials, mc.mean, mc.max, mc.lp, mc.ratio) == (3, 0.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("kind", list(EXPECT_SCHEMES))
def test_expectation_cap(kind):
    s = cc.get_scheme(EXPECT_SCHEMES[kind])
    n = MAX_EXPECT_N
    inst = small_instance(kind, n, seed=9)
    x = fractional_point(n, 9)
    assert cc.exact_expected_total_cost(inst, x, s) >= cc.brute_force_opt(inst)[1] - 1e-9
    big = small_instance(kind, n + 1, seed=9)
    x = cc.LpSolution.constant(n + 1, 0.3)
    with pytest.raises(ValueError, match=f"up to n = {n} \\(MAX_EXPECT_N\\)"):
        cc.exact_expected_total_cost(big, x, s)


@pytest.mark.parametrize("kind", ["complete", "kpartite", "weighted"])
def test_step_formula_past_the_expectation_cap(kind):
    # the closed form has no cap; the triple-sum check reads the same LP sum
    # and adds the self-loop terms to the cost side only
    n, alpha = 30, 2.06
    inst, x = small_instance(kind, n, seed=30), fractional_point(n, 30)
    s = cc.get_scheme(EXPECT_SCHEMES[kind])
    formula = cc.step_cost_formula(inst, x, s)
    si = cc.step_inequality_check(inst, x, s, alpha)
    assert si.rhs / alpha == pytest.approx(formula["e_lp_0"], rel=1e-12)
    assert si.lhs >= formula["e_alg_0"]


def test_triple_sum_upper_bounds_enumeration():
    # the self-loop terms make the ordered-triple bound an overestimate
    inst = cc.gen_complete_random(5, 0.5, seed=9)
    x = cc.LpSolution.constant(5, 0.5)
    s = cc.get_scheme("complete206")
    enum = cc.step_cost_formula(inst, x, s)
    si = cc.step_inequality_check(inst, x, s, 2.06)
    assert si.lhs >= enum["e_alg_0"] - 1e-12
    assert si.rhs / 2.06 == pytest.approx(enum["e_lp_0"], abs=1e-9)


def test_opt_below_every_rounding():
    inst = cc.gen_complete_random(7, 0.5, seed=12)
    x, _ = cc.solve_relaxation(inst)
    _c, opt = cc.brute_force_opt(inst)
    s = cc.get_scheme("complete206")
    for seed in range(10):
        c, _trace = cc.pivot_round(inst, x, s, seed)
        assert opt <= cc.clustering_cost(inst, c) + 1e-12
    d = cc.derandomize_round(inst, x, s, 2.06)
    assert opt <= cc.clustering_cost(inst, d) + 1e-12


def test_lp_below_opt_small_instances():
    for seed in range(6):
        inst = cc.gen_complete_random(6 + seed % 3, 0.5, seed)
        _x, stats = cc.solve_relaxation(inst)
        _c, opt = cc.brute_force_opt(inst)
        assert stats.objective <= opt + 1e-6
