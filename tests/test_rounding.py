import logging
import math

import numpy as np
import pytest

import ccpivot as cc
from ccpivot import rounding
from ccpivot.rounding import (
    IneligibleSchemeError,
    Piece,
    PiecewiseFn,
    cut_probabilities,
    _active_model,
    greedy_round_probabilities,
    pair_model,
    pivot_terms,
)
from ccpivot.rng import SplitMix64
from test_step_kernel import metric_point


def k3(labels_ut):
    m = np.zeros((3, 3), dtype=np.int8)
    (m[0, 1], m[0, 2], m[1, 2]) = labels_ut
    m += m.T
    return cc.Instance.complete(m)


# -- schemes ----------------------------------------------------------------


def test_complete206_breakpoint_values():
    s = cc.get_scheme("complete206")
    assert s.fn("+")(0.19) == 0.0
    assert s.fn("+")(0.5095) == 1.0
    assert s.fn("+")(0.34975) == pytest.approx(0.25)
    assert s.fn("-")(0.37) == pytest.approx(0.37)


def test_kpartite3_values():
    s = cc.get_scheme("kpartite3")
    assert s.fn("0")(0.5) == pytest.approx(0.75)
    assert s.fn("+")(0.33) == 0.0
    assert s.fn("+")(1.0 / 3.0) == 1.0
    assert s.fn("0")(2.0 / 3.0) == pytest.approx(1.0)
    assert s.fn("0")(0.9) == 1.0


def test_weighted_scheme_values():
    s = cc.get_scheme("weighted_ti_150")
    assert s.fn("-")(0.25) == pytest.approx(0.5)
    c = 4.0 - 2.0 * math.sqrt(2.0)
    assert s.fn("+")(0.5) == pytest.approx(c * 0.25)
    assert s.fn("+")(0.95) == 1.0
    s3 = cc.get_scheme("weighted_ti_153")
    assert s3.fn("+")(0.6) == pytest.approx(0.36)


def test_all_schemes_start_at_zero_and_stay_in_range():
    for s in cc.SCHEMES.values():
        rep = cc.check_eligibility(s)
        assert rep.starts_at_zero and rep.in_range and rep.monotone


def test_neutral_requires_f_neutral():
    with pytest.raises(IneligibleSchemeError):
        cc.get_scheme("complete206").fn("0")(0.5)


def test_scheme_refuses_an_unknown_edge_type_and_no_pieces():
    with pytest.raises(ValueError, match="unknown edge type 'x'"):
        cc.get_scheme("kpartite3").fn("x")
    with pytest.raises(ValueError, match="at least one piece"):
        PiecewiseFn([])


def test_scheme_json_roundtrip():
    s = cc.get_scheme("complete206")
    back = cc.RoundingScheme.from_json(s.to_json())
    xs = np.linspace(0, 1, 301)
    assert np.allclose(back.f_plus(xs), s.f_plus(xs))
    assert np.allclose(back.f_minus(xs), s.f_minus(xs))


def test_user_defined_scheme_pieces():
    text = """
    {"name": "halfstep",
     "f_plus": [{"from": 0, "to": 0.5, "kind": "constant", "params": [0]},
                {"from": 0.5, "to": 1, "kind": "quadratic", "params": [0.5, 0.5]}],
     "f_minus": [{"from": 0, "to": 1, "kind": "sqrt", "params": []}],
     "f_neutral": null}
    """
    s = cc.RoundingScheme.from_json(text)
    assert s.f_plus(0.75) == pytest.approx(0.25)
    assert s.f_minus(0.04) == pytest.approx(0.2)


# -- randomized pivot --------------------------------------------------------


def test_pivot_all_plus_zero_x_single_cluster():
    inst = cc.gen_complete_random(6, 1.0, seed=1)
    x = cc.LpSolution.constant(6, 0.0)
    for seed in range(5):
        c, trace = cc.pivot_round(inst, x, cc.get_scheme("complete206"), seed)
        assert c == cc.Clustering.single_cluster(6)
        trace.check(6)


def test_pivot_all_minus_unit_x_singletons():
    inst = cc.gen_complete_random(6, 0.0, seed=1)
    x = cc.LpSolution.constant(6, 1.0)
    for seed in range(5):
        c, _ = cc.pivot_round(inst, x, cc.get_scheme("complete206"), seed)
        assert c == cc.Clustering.singletons(6)


def test_pivot_reproducible_and_trace_valid():
    inst = cc.gen_complete_random(9, 0.5, seed=2)
    x, _ = cc.solve_relaxation(inst)
    s = cc.get_scheme("complete206")
    a, ta = cc.pivot_round(inst, x, s, 123)
    b, tb = cc.pivot_round(inst, x, s, 123)
    assert a == b and ta.steps == tb.steps
    ta.check(9)
    for pivot, members in ta.steps:
        assert pivot in members


@pytest.mark.parametrize("steps, message", [
    ([(0, [1, 2]), (3, [0, 3])], "pivot left its own cluster"),
    ([(0, [0, 1]), (2, [1, 2, 3])], "clusters overlap"),
    ([(0, [0, 1]), (2, [2])], "clusters do not cover the vertex set"),
])
def test_pivot_trace_check_refuses_corrupted_traces(steps, message):
    with pytest.raises(AssertionError, match=message):
        cc.PivotTrace(steps).check(4)


def test_integral_metric_reproduced_exactly():
    # 0/1 metric encodes a partition; every scheme with f(1) = 1 returns it
    rng = SplitMix64(5)
    for scheme_name in ("complete206", "acn_linear"):
        s = cc.get_scheme(scheme_name)
        for trial in range(5):
            target = cc.Clustering(np.array([rng.randint(3) for _ in range(7)]))
            m = (target.assignment[:, None] != target.assignment[None, :]).astype(float)
            x = cc.LpSolution.from_matrix(m)
            labels = np.where(m > 0, -1, 1).astype(np.int8)
            np.fill_diagonal(labels, 0)
            inst = cc.Instance.complete(labels)
            c, _ = cc.pivot_round(inst, x, s, rng.next_u64())
            assert c == target


def test_k3_expected_cost_matches_enumeration():
    inst = k3((1, 1, -1))
    x = cc.LpSolution.from_matrix(
        np.array([[0, 0.25, 0.25], [0.25, 0, 0.5], [0.25, 0.5, 0]])
    )
    s = cc.get_scheme("complete206")
    exact = cc.exact_expected_total_cost(inst, x, s)
    mc = cc.monte_carlo_ratio(inst, x, s, 30000, seed=99)
    assert abs(mc.mean - exact) <= 3.0 * mc.sem + 1e-12


# -- weighted coin-flip variant ----------------------------------------------


def test_weighted_lambda_one_matches_labeled_distribution():
    ones = 1.0 - np.eye(3)
    w1 = cc.Instance.weighted(ones)
    allplus = cc.Instance.complete(
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int8)
    )
    x = cc.LpSolution.constant(3, 0.5)
    s = cc.get_scheme("weighted_ti_153")
    assert cc.exact_expected_total_cost(w1, x, s) == pytest.approx(
        cc.exact_expected_total_cost(allplus, x, s), abs=1e-12
    )


def test_pivot_round_refuses_kpartite_without_f_neutral():
    x = cc.LpSolution.constant(4, 0.5)
    kpartite = cc.gen_kpartite_random([2, 2], 0.5, seed=3)
    with pytest.raises(IneligibleSchemeError):
        cc.pivot_round(kpartite, x, cc.get_scheme("acn_linear"), 1)


def test_weighted_all_minus_unit_x_singletons():
    lam = np.zeros((4, 4))
    inst = cc.Instance.weighted(lam)
    x = cc.LpSolution.constant(4, 1.0)
    for seed in range(5):
        c = cc.pivot_round_weighted(inst, x, cc.get_scheme("weighted_ti_150"), seed)
        assert c == cc.Clustering.singletons(4)


def test_weighted_empirical_mean_matches_enumeration():
    inst = cc.gen_weighted_random(3, seed=21)
    x = cc.LpSolution.constant(3, 0.5)
    s = cc.get_scheme("weighted_ti_153")
    exact = cc.exact_expected_total_cost(inst, x, s)
    master = SplitMix64(777)
    costs = np.array(
        [
            cc.clustering_cost(inst, cc.pivot_round_weighted(inst, x, s, master.next_u64()))
            for _ in range(20000)
        ]
    )
    sem = costs.std(ddof=1) / math.sqrt(len(costs))
    assert abs(costs.mean() - exact) <= 3.0 * sem + 1e-12


# A weighted run pivots on the coin mixture and reads its stream as a labeled
# run does; these literals show any change to that stream as a diff. Per seed:
# the pivot_round_weighted assignment at that seed, then the mean, stddev, min
# and max of 200 Monte-Carlo trials at it, on gen_weighted_random(7, seed) at
# the metric point of test_step_kernel.
WEIGHTED_PINNED = [
    (1, [0, 1, 0, 1, 2, 1, 1],
     (10.553617360661999, 1.0734973221617743, 7.930676679382746, 13.183927750383944)),
    (2, [0, 0, 1, 2, 2, 0, 1],
     (9.796764520860357, 0.9844226590841767, 7.97283642382909, 12.703999211412377)),
    (3, [0, 1, 2, 2, 3, 2, 3],
     (10.218847682083775, 1.0013818155083003, 7.625777492800959, 12.890792644203094)),
]


@pytest.mark.parametrize("seed,assignment,stats", WEIGHTED_PINNED)
def test_pinned_weighted_random_outputs(seed, assignment, stats):
    inst, x = cc.gen_weighted_random(7, seed), metric_point(7, 100 + seed)
    scheme = cc.get_scheme("weighted_ti_150")
    assert cc.pivot_round_weighted(inst, x, scheme, seed).assignment.tolist() == assignment
    mc = cc.monte_carlo_ratio(inst, x, scheme, 200, seed)
    assert (mc.mean, mc.stddev, mc.min, mc.max) == stats


# -- derandomization -----------------------------------------------------------


def step_surplus_sum(inst, x, p, alpha, active=None) -> float:
    """Sum over active pivots of the per-pivot surplus alpha * lp - cost (pivot_terms).

    This is the quantity the greedy 0/1 rounding must never decrease:
    nonnegative at the scheme's probabilities whenever the scheme/alpha
    pair is certified for the class.
    """
    act = np.arange(inst.n) if active is None else np.asarray(sorted(active))
    cost, lp = pivot_terms(*_active_model(*pair_model(inst, x), act), p[act[:, None], act])
    return float(alpha * lp.sum() - cost.sum())


def test_derand_trivial_all_plus():
    inst = cc.gen_complete_random(5, 1.0, seed=1)
    x = cc.LpSolution.constant(5, 0.0)
    c = cc.derandomize_round(inst, x, cc.get_scheme("complete206"), 2.06)
    assert c == cc.Clustering.single_cluster(5)
    assert cc.clustering_cost(inst, c) == 0.0


def test_derand_bad_triangle_within_alpha():
    inst = k3((1, 1, -1))
    x, stats = cc.solve_relaxation(inst)
    c = cc.derandomize_round(inst, x, cc.get_scheme("complete206"), 2.06)
    assert cc.clustering_cost(inst, c) <= 2.06 * stats.objective + 1e-9


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_derand_guarantee_random_instances(seed):
    inst = cc.gen_complete_random(9, 0.5, seed)
    x, stats = cc.solve_relaxation(inst)
    c = cc.derandomize_round(inst, x, cc.get_scheme("complete206"), 2.06)
    assert cc.clustering_cost(inst, c) <= 2.06 * stats.objective + 1e-9


def test_derand_kpartite_guarantee():
    for seed in (1, 5, 11):
        inst = cc.gen_kpartite_random([3, 3, 3], 0.5, seed)
        x, stats = cc.solve_relaxation(inst)
        c = cc.derandomize_round(inst, x, cc.get_scheme("kpartite3"), 3.0)
        assert cc.clustering_cost(inst, c) <= 3.0 * stats.objective + 1e-9


def test_greedy_rounding_never_decreases_surplus():
    inst = cc.gen_complete_random(6, 0.5, seed=31)
    x = cc.LpSolution.constant(6, 0.4)  # fractional so the greedy has work to do
    s = cc.get_scheme("complete206")
    p = cut_probabilities(inst, x, s)
    alpha = 2.06
    wp, wm, L = pair_model(inst, x)
    before = step_surplus_sum(inst, x, p, alpha)
    assert before >= -1e-9  # certified pair: nonnegative at the scheme's values

    # replay the greedy one flip at a time and watch the full surplus
    current = p.copy()
    prev = before
    for u in range(6):
        for v in range(u + 1, 6):
            best_val, best_p = None, None
            for val in (0.0, 1.0):
                trial = current.copy()
                trial[u, v] = trial[v, u] = val
                f = step_surplus_sum(inst, x, trial, alpha)
                if best_val is None or f > best_val + 1e-15:
                    best_val, best_p = f, trial
            assert best_val >= prev - 1e-9
            current, prev = best_p, best_val

    rounded = greedy_round_probabilities(wp, wm, L, p.copy(), alpha)
    after = step_surplus_sum(inst, x, rounded, alpha)
    assert after >= before - 1e-9
    off = ~np.eye(6, dtype=bool)
    assert set(np.unique(rounded[off])) <= {0.0, 1.0}
    # the replay and the library greedy make the same choices
    assert np.array_equal(rounded, current)


def scalar_pivot_terms(wp, wm, L, pw):
    """One pivot's (cost, lp) from its column pw alone: the reference for pivot_terms."""
    q = 1.0 - pw
    return 2.0 * (pw @ wp @ q) + q @ wm @ q, L.sum() - pw @ L @ pw


def greedy_on(wp, wm, L, p, alpha, active):
    """p with its active block rounded by greedy_round_probabilities."""
    block = np.ix_(active, active)
    got = p.copy()
    got[block] = greedy_round_probabilities(*_active_model(wp, wm, L, active), p[block], alpha)
    return got


def reference_greedy(wp, wm, L, p, alpha, active, follow):
    """Full-recompute greedy: each pair scored by its two pivot terms at 0
    and at 1. Yields (u, v, scores) per pair, then sets the pair to
    follow's value, so every pair is scored from the library's state."""
    p = p.copy()
    model = _active_model(wp, wm, L, active)

    def surplus(w):
        cost, lp = scalar_pivot_terms(*model, p[active, w])
        return alpha * lp - cost

    for ui, u in enumerate(active):
        for v in active[ui + 1:]:
            scores = []
            for val in (0.0, 1.0):
                p[u, v] = p[v, u] = val
                scores.append(surplus(u) + surplus(v))
            yield u, v, scores
            p[u, v] = p[v, u] = follow[u, v]


WORKLOAD_CLASSES = {
    # (workload instance, certified instance of the same class, scheme, alpha)
    "complete": (lambda s: cc.gen_complete_random(11, 0.5, s), None, "complete206", 2.06),
    "kpartite": (lambda s: cc.gen_kpartite_random([4, 4, 3], 0.5, s), None, "kpartite3", 3.0),
    "weighted": (lambda s: cc.gen_weighted_random(10, s),
                 lambda s: line_metric_instance(10, s), "weighted_ti_150", 1.5),
}


@pytest.mark.parametrize("kind", sorted(WORKLOAD_CLASSES))
def test_greedy_matches_full_recompute_reference(kind):
    gen, certified, scheme_name, alpha = WORKLOAD_CLASSES[kind]
    scheme = cc.get_scheme(scheme_name)
    rng = np.random.default_rng(17)
    for seed in range(10):
        inst = gen(seed)
        n = inst.n
        x, _ = cc.solve_relaxation(inst)
        wp, wm, L = pair_model(inst, x)
        upper = np.triu(rng.random((n, n)), 1)
        subset = np.sort(rng.choice(n, size=rng.integers(2, n), replace=False))
        for p in (cut_probabilities(inst, x, scheme), upper + upper.T):
            for active in (np.arange(n), subset):
                got = greedy_on(wp, wm, L, p, alpha, active)
                for u, v, (s0, s1) in reference_greedy(wp, wm, L, p, alpha, active, got):
                    if abs(s1 - s0) > 1e-12 * max(1.0, abs(s0)):
                        assert got[u, v] == (1.0 if s1 > s0 else 0.0), (seed, u, v)
                before = step_surplus_sum(inst, x, p, alpha, active)
                assert step_surplus_sum(inst, x, got, alpha, active) >= before - 1e-9
                off = ~np.eye(len(active), dtype=bool)
                assert set(np.unique(got[np.ix_(active, active)][off])) <= {0.0, 1.0}
        if certified is not None:
            inst = certified(seed)
            x, _ = cc.solve_relaxation(inst)
        c = cc.derandomize_round(inst, x, scheme, alpha)
        assert cc.clustering_cost(inst, c) <= alpha * cc.lp_objective(inst, x) + 1e-9


def reference_derandomize(inst, x, scheme, alpha):
    """derandomize_round with each pivot scored alone by scalar_pivot_terms."""
    wp, wm, L = pair_model(inst, x)
    base = cut_probabilities(inst, x, scheme)
    active, assignment, cid = np.arange(inst.n), np.full(inst.n, -1), 0
    while active.size:
        p = greedy_on(wp, wm, L, base, alpha, active)
        model = _active_model(wp, wm, L, active)
        best_w, best_val = -1, -math.inf
        for w in active:
            cost, lp = scalar_pivot_terms(*model, p[active, w])
            val = 0.5 * (alpha * lp - cost)
            if val > best_val + 1e-15:
                best_w, best_val = w, val
        assignment[active[p[active, best_w] == 0.0]] = cid
        active, cid = active[p[active, best_w] != 0.0], cid + 1
    return assignment


@pytest.mark.parametrize("kind", sorted(WORKLOAD_CLASSES))
def test_pivot_terms_match_scalar_reference(kind):
    gen, _certified, scheme_name, alpha = WORKLOAD_CLASSES[kind]
    scheme = cc.get_scheme(scheme_name)
    rng = np.random.default_rng(23)
    for seed in range(10):
        inst = gen(seed)
        n = inst.n
        x, _ = cc.solve_relaxation(inst)
        wp, wm, L = pair_model(inst, x)
        base = cut_probabilities(inst, x, scheme)
        subset = np.sort(rng.choice(n, size=rng.integers(2, n), replace=False))
        for active in (np.arange(n), subset):
            model = _active_model(wp, wm, L, active)
            scale = model[2].sum()  # the LP mass each lp value is taken from
            for p in (base, greedy_on(wp, wm, L, base, alpha, active)):
                P = p[np.ix_(active, active)]
                cost, lp = pivot_terms(*model, P)
                assert cost.shape == lp.shape == (len(active),)
                for i in range(len(active)):
                    want_cost, want_lp = scalar_pivot_terms(*model, P[:, i])
                    assert abs(cost[i] - want_cost) <= 1e-12 * abs(want_cost)
                    assert abs(lp[i] - want_lp) <= 1e-12 * max(abs(want_lp), scale)
        # the batched scores pick the pivots that scoring each one alone picks
        c = cc.derandomize_round(inst, x, scheme, alpha)
        assert c == cc.Clustering(reference_derandomize(inst, x, scheme, alpha))


def numpy_rows_greedy(wp, wm, L, P: np.ndarray, alpha: float) -> np.ndarray:
    """The greedy as it ran with a dozen numpy calls per row: the reference
    that greedy_round_probabilities must match bit for bit."""
    P = P.copy()
    k = len(P)
    C = 4.0 * wp - 2.0 * wm - 2.0 * alpha * L
    d = 2.0 * wm.sum(axis=1) - 2.0 * wp.sum(axis=1)
    H = P.T @ C
    for i in range(k - 1):
        rest = slice(i + 1, k)
        # pair (i, j): column j's gain at entry i, plus column i's gain at
        # entry j less its (C c)_j, which h = H[i] tracks through this row;
        # column j changes only at entry i here, so rows j > i follow after it
        fixed = (H[rest, i] + d[i] + d[rest]).tolist()
        h = H[i]
        new = []
        for j, g in enumerate(fixed, start=i + 1):
            best = 1.0 if h[j] + g > 0.0 else 0.0
            if best != P[j, i]:
                h += (best - P[j, i]) * C[j]
            new.append(best)
        H[rest] += np.outer(new - P[i, rest], C[i])
        P[i, rest] = P[rest, i] = new
    return P


def greedy_blocks():
    """(label, pair model, P) blocks of every class, sizes 1 to 60: LP points
    and their sub-blocks up to 11, constant 0.4 at every size, and x = 0
    points whose first gains are sums of integer degrees, so some are exact ties."""
    gens = {"complete": lambda n, s: cc.gen_complete_random(n, 0.5, s),
            "kpartite": lambda n, s: cc.gen_kpartite_random([(n + 2) // 3, (n + 1) // 3, n // 3], 0.5, s),
            "weighted": lambda n, s: cc.gen_weighted_random(n, s)}
    scheme = {"complete": "complete206", "kpartite": "kpartite3", "weighted": "weighted_ti_150"}
    for kind, gen in gens.items():
        s = cc.get_scheme(scheme[kind])
        for n in range(3 if kind == "kpartite" else 1, 61):
            inst = gen(n, n)
            points = [("0.4", cc.LpSolution.constant(n, 0.4))]
            if n in (4, 8, 11):
                points += [("lp", cc.solve_relaxation(inst)[0]), ("zero", cc.LpSolution.constant(n, 0.0))]
            for label, x in points:
                model, P = pair_model(inst, x), cut_probabilities(inst, x, s)
                yield (kind, n, label), model, P
                if label == "lp":
                    for m in range(1, n):
                        active = np.sort(np.random.default_rng(m).choice(n, m, replace=False))
                        yield (kind, n, label, m), _active_model(*model, active), P[np.ix_(active, active)]


def test_greedy_is_bit_identical_to_the_numpy_rows():
    ties = 0
    for label, model, P in greedy_blocks():
        wp, wm, _L = model
        d = 2.0 * wm.sum(axis=1) - 2.0 * wp.sum(axis=1)
        if not P.any():  # P = 0: H = 0, so the first row's gains are d[0] + d[j]
            ties += sum(g == 0.0 for g in (d[0] + d[1:]).tolist())
        for alpha in (1.5, 2.06, 3.0):
            want = numpy_rows_greedy(*model, P, alpha)
            assert greedy_round_probabilities(*model, P, alpha).tobytes() == want.tobytes(), (label, alpha)
    assert ties >= 10


def rounded(inst, x, scheme, alpha):
    """Every output of the entries that read the point's prepared tables."""
    pivots = [cc.pivot_round(inst, x, scheme, seed) for seed in (1, 2)]
    mc = cc.monte_carlo_ratio(inst, x, scheme, 20, 3)
    return ([(c.assignment.tolist(), t.steps) for c, t in pivots],
            cc.pivot_round_weighted(inst, x, scheme, 4).assignment.tolist(),
            cc.derandomize_round(inst, x, scheme, alpha).assignment.tolist(),
            (mc.mean, mc.stddev, mc.min, mc.max),
            cc.step_inequality_check(inst, x, scheme, alpha), cc.step_cost_formula(inst, x, scheme))


def test_prepared_tables_follow_the_instance_and_scheme():
    n = 9
    I, J = cc.gen_complete_random(n, 0.5, 1), cc.gen_complete_random(n, 0.5, 2)
    A, B = cc.get_scheme("complete206"), cc.get_scheme("acn_linear")
    x = cc.solve_relaxation(I)[0]
    for inst, scheme in ((I, A), (I, B), (I, A), (J, A), (I, A), (J, B)):
        fresh = cc.LpSolution(n, x.vec)
        assert rounded(inst, x, scheme, 2.5) == rounded(inst, fresh, scheme, 2.5), (inst is I, scheme.name)
    P, _keep, model = rounding._tables(J, x, B)
    for a in (P, *model):
        assert not a.flags.writeable
    got = cut_probabilities(J, x, B)
    assert got.flags.writeable and got is not P and np.array_equal(got, P)
    assert all(a.flags.writeable and a is not b for a, b in zip(pair_model(J, x), model))


def test_every_entry_refuses_a_point_of_another_size():
    inst, s = cc.gen_complete_random(5, 0.5, 1), cc.get_scheme("complete206")
    x = cc.LpSolution.constant(5, 0.4)
    rounded(inst, x, s, 2.06)  # x now holds tables for inst
    for other in (cc.gen_complete_random(4, 0.5, 1), cc.gen_complete_random(6, 0.5, 1)):
        for call in (lambda: cut_probabilities(other, x, s), lambda: pair_model(other, x),
                     lambda: cc.pivot_round(other, x, s, 1), lambda: cc.pivot_round_weighted(other, x, s, 1),
                     lambda: cc.derandomize_round(other, x, s, 2.06),
                     lambda: cc.monte_carlo_ratio(other, x, s, 5, 1),
                     lambda: cc.step_inequality_check(other, x, s, 2.06),
                     lambda: cc.step_cost_formula(other, x, s)):
            with pytest.raises(ValueError, match="vertices"):
                call()


def test_derand_logs_one_line_per_step(caplog):
    n = 5
    inst = cc.gen_complete_random(n, 0.0, seed=1)
    x = cc.LpSolution.constant(n, 1.0)  # all pairs cut: n singleton steps
    with caplog.at_level(logging.DEBUG, logger="ccpivot.rounding"):
        c = cc.derandomize_round(inst, x, cc.get_scheme("complete206"), 2.06)
    assert c == cc.Clustering.singletons(n)
    lines = [r.getMessage() for r in caplog.records if r.name == "ccpivot.rounding"]
    assert len(lines) == n
    assert lines[0].startswith(f"derand step 0: {n} active, pivot ")
    assert lines[-1].startswith(f"derand step {n - 1}: 1 active, pivot ")
    assert all(", cluster of 1, surplus " in line for line in lines)


# -- monte carlo ---------------------------------------------------------------


def test_monte_carlo_trivials():
    inst = cc.gen_complete_random(5, 1.0, seed=1)
    x = cc.LpSolution.constant(5, 0.0)
    s = cc.get_scheme("complete206")
    r = cc.monte_carlo_ratio(inst, x, s, 50, seed=3)
    assert r.mean == 0.0 and r.ratio == 1.0

    inst2 = cc.gen_complete_random(6, 0.5, seed=2)
    x2, _ = cc.solve_relaxation(inst2)
    one = cc.monte_carlo_ratio(inst2, x2, s, 1, seed=10)
    master = SplitMix64(10)
    c, _ = cc.pivot_round(inst2, x2, s, master.next_u64())
    assert one.mean == pytest.approx(cc.clustering_cost(inst2, c))

    with pytest.raises(ValueError):
        cc.monte_carlo_ratio(inst2, x2, s, 0, seed=1)


@pytest.mark.parametrize("pieces", [
    [Piece(0.0, 0.4, "constant", (0.0,))],
    [Piece(0.0, 0.3, "constant", (0.0,)), Piece(0.5, 1.0, "constant", (1.0,))],
    # f(0) would be owned by no piece
    [Piece(0.0, 1.0, "linear", (0.0, 1.0), closed_left=False)],
    # ends within 1e-12 of 0 or 1 leave f(0) or f(1) unowned
    [Piece(1e-13, 1.0, "linear", (0.0, 1.0))],
    [Piece(0.0, 1.0 - 1e-13, "linear", (0.0, 1.0))],
    # a gap or an overlap of 1e-13 between adjacent pieces
    [Piece(0.0, 0.5, "constant", (0.0,)), Piece(0.5 + 1e-13, 1.0, "constant", (1.0,))],
    [Piece(0.0, 0.5 + 1e-13, "constant", (0.0,)), Piece(0.5, 1.0, "constant", (1.0,))],
], ids=["short", "gap", "open-at-0", "starts-past-0", "ends-before-1", "gap-1e-13", "overlap-1e-13"])
def test_piecewise_rejects_gaps(pieces):
    with pytest.raises(ValueError, match="pieces must"):
        PiecewiseFn(pieces)


def mask_evaluator(fn, x):
    """The per-piece mask evaluator PiecewiseFn used before, kept as the reference:
    a piece owns x when its left end admits x and its right end does not give x
    to the next piece, and the first such piece wins."""
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    done = np.zeros(x.shape, dtype=bool)
    for i, p in enumerate(fn.pieces):
        left_ok = x >= p.lo if p.closed_left else x > p.lo
        next_owns_boundary = i + 1 < len(fn.pieces) and fn.pieces[i + 1].closed_left
        right_ok = x < p.hi if next_owns_boundary else x <= p.hi
        mask = left_ok & right_ok & ~done
        if mask.any():
            out[mask] = p(x[mask])
            done |= mask
    if not done.all():
        raise ValueError("argument outside [0, 1]")
    return float(out[0]) if scalar else out


SHIPPED_FNS = [
    pytest.param(getattr(s, name), id=f"{s.name}.{name}")
    for s in cc.SCHEMES.values()
    for name in ("f_plus", "f_minus", "f_neutral")
    if getattr(s, name) is not None
]


@pytest.mark.parametrize("fn", SHIPPED_FNS)
def test_piecewise_matches_the_mask_evaluator_bit_for_bit(fn):
    rng = np.random.default_rng(41)
    edges = [0.0, 1.0]
    for b in fn.breakpoints():
        edges += [b, np.nextafter(b, -1.0), np.nextafter(b, 2.0)]
    edges = np.array([v for v in edges if 0.0 <= v <= 1.0])
    for x in (edges, rng.random((11, 11)), rng.random(10_000), np.linspace(0.0, 1.0, 1001)):
        got, want = fn(x), mask_evaluator(fn, x)
        assert got.shape == x.shape and got.tobytes() == want.tobytes()
    # a 0-d argument is evaluated as a 1-element array: 0-d arithmetic yields numpy
    # scalars, whose ** 0.5 differs from the array sqrt in the last bit of some values
    for v in np.concatenate([edges, rng.random(2_000)]).tolist():
        got = fn(v)
        assert type(got) is float
        assert got == mask_evaluator(fn, v) == fn(np.array([v]))[0] == fn(np.float64(v))


def test_piecewise_owner_at_a_jump():
    # closed_left decides who owns a breakpoint, on either side of the jump
    left = PiecewiseFn([Piece(0.0, 0.5, "constant", (0.0,)),
                        Piece(0.5, 1.0, "constant", (1.0,), closed_left=False)])
    right = PiecewiseFn([Piece(0.0, 0.5, "constant", (0.0,)), Piece(0.5, 1.0, "constant", (1.0,))])
    x = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0])
    assert left(x).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    assert right(x).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    assert left(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("x", [1.5, math.nan])
def test_piecewise_rejects_arguments_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match="outside"):
        cc.get_scheme("complete206").f_plus(x)


@pytest.mark.parametrize("lo, hi, kind, params", [
    (0.0, 1.0, "linear", (0.0, math.nan)),
    (0.0, math.inf, "constant", (0.0,)),
    (0.0, 1.0, "power", (0.0, 0.0, 2.0)),
    (0.0, 1.0, "power", (0.0, 1.0, 0.0)),
    (0.0, 1.0, "power", (0.0, 1.0, -1.0)),
    (0.5, 0.5, "constant", (0.0,)),
    (0.6, 0.4, "constant", (0.0,)),
])
def test_piece_rejects_malformed(lo, hi, kind, params):
    with pytest.raises(ValueError):
        Piece(lo, hi, kind, params)


# -- derandomization on weighted-metric instances ---------------------------------


def line_metric_instance(n, seed):
    """lam_minus = |p_u - p_v| for points p in [0, 1]: a metric."""
    rng = SplitMix64(seed)
    pts = np.array([rng.uniform() for _ in range(n)])
    lam_plus = 1.0 - np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(lam_plus, 0.0)
    return cc.Instance.weighted(lam_plus, ti=True)


@pytest.mark.parametrize(
    "inst",
    [cc.gen_gap_triangle_ineq(n) for n in (1, 2, 3, 4, 5, 6)]
    + [line_metric_instance(n, seed) for n in (4, 8, 12) for seed in (1, 2, 3)],
)
def test_derand_weighted_metric_within_150(inst):
    x, _stats = cc.solve_relaxation(inst)
    c = cc.derandomize_round(inst, x, cc.get_scheme("weighted_ti_150"), 1.5)
    lp = cost = 0.0
    for u in range(inst.n):
        for v in range(u + 1, inst.n):
            lplus = float(inst.lam_plus[u, v])
            d = min(max(x.matrix[u, v], 0.0), 1.0)
            lp += lplus * d + (1.0 - lplus) * (1.0 - d)
            cut = c.assignment[u] != c.assignment[v]
            cost += lplus if cut else 1.0 - lplus
    assert cost <= 1.5 * lp + 1e-9


C206, W150 = cc.get_scheme("complete206"), cc.get_scheme("weighted_ti_150")
WRONG_SIZE_CALLS = {  # each entry point that meets an LP point, on (labeled, weighted, x)
    "pivot_round": lambda inst, winst, x: cc.pivot_round(inst, x, C206, 1),
    "pivot_round_weighted": lambda inst, winst, x: cc.pivot_round_weighted(winst, x, W150, 1),
    "derandomize_round": lambda inst, winst, x: cc.derandomize_round(inst, x, C206, 2.06),
    "step_inequality_check": lambda inst, winst, x: cc.step_inequality_check(inst, x, C206, 2.06),
    "step_cost_formula": lambda inst, winst, x: cc.step_cost_formula(inst, x, C206),
    "exact_expected_total_cost": lambda inst, winst, x: cc.exact_expected_total_cost(inst, x, C206),
    "monte_carlo_ratio": lambda inst, winst, x: cc.monte_carlo_ratio(inst, x, C206, 20, 1),
}


@pytest.mark.parametrize("call", sorted(WRONG_SIZE_CALLS))
@pytest.mark.parametrize("m", [1, 7])
def test_lp_point_of_another_size_is_refused(call, m):
    # a 1 x 1 point used to broadcast as the constant 0 and round without complaint
    inst, winst = cc.gen_complete_random(5, 0.5, 1), cc.gen_weighted_random(5, 1)
    x = cc.LpSolution(1, []) if m == 1 else cc.LpSolution.constant(m, 0.4)
    with pytest.raises(ValueError, match=f"LP point has {m} vertices, instance has 5"):
        WRONG_SIZE_CALLS[call](inst, winst, x)
