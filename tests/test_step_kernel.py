"""Pinned outputs of the pivot-step kernel's callers and of the worst-triangle scan.

derandomize_round, step_inequality_check and validate_solution must
reproduce these values bit for bit. The LP points are fixed
shortest-path metrics, so the tests do not depend on the LP solver.
The pinned first-step values are also checked against an exact
evaluation of the same sums in Fractions, and the instance-level
kernel rounding.pivot_terms against the per-triangle kernel
certify.edge_terms.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.instance import KPARTITE, symmetric_from_upper, worst_triangle
from ccpivot.rng import SplitMix64, unit_floats
from ccpivot.rounding import cut_probabilities, pair_model, pivot_terms


def metric_point(n: int, seed: int) -> cc.LpSolution:
    """Shortest-path closure of lengths drawn uniformly from [0.2, 1]."""
    d = symmetric_from_upper(n, 0.2 + 0.8 * unit_floats(SplitMix64(seed).block(n * (n - 1) // 2)))
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return cc.LpSolution.from_matrix(d)


CASES = {
    "complete": (lambda s: cc.gen_complete_random(8, 0.5, s), "complete206", 2.06),
    "kpartite": (lambda s: cc.gen_kpartite_random([3, 3, 2], 0.5, s), "kpartite3", 3.0),
    "weighted": (lambda s: cc.gen_weighted_random(7, s), "weighted_ti_150", 1.5),
}

PINNED = [
    ("complete", 1, [0, 0, 1, 0, 0, 0, 0, 0], 12.16697974457189, 21.79529933304233),
    ("complete", 2, [0, 0, 0, 0, 0, 0, 0, 1], 12.447056821299451, 22.021556400072523),
    ("complete", 3, [0, 0, 0, 0, 0, 1, 0, 0], 11.700085681703271, 19.684142018785085),
    ("kpartite", 1, [0, 0, 0, 0, 1, 1, 0, 0], 6.816239162316988, 22.556826518690343),
    ("kpartite", 2, [0, 0, 0, 1, 1, 1, 1, 1], 7.92241396203088, 19.64113867593632),
    ("kpartite", 3, [0, 0, 0, 0, 0, 1, 0, 0], 7.401046494072317, 19.426927760554342),
    ("weighted", 1, [0, 0, 0, 0, 1, 0, 0], 10.04648058107939, 13.162638493946135),
    ("weighted", 2, [0, 1, 0, 1, 0, 2, 0], 8.585270209361257, 11.551734437730572),
    ("weighted", 3, [0, 0, 0, 0, 1, 0, 0], 9.760276430192802, 13.611186854345947),
]


@pytest.mark.parametrize("name,seed,assignment,lhs,rhs", PINNED)
def test_pinned_derandomize_and_step_inequality(name, seed, assignment, lhs, rhs):
    gen, scheme_name, alpha = CASES[name]
    inst = gen(seed)
    x = metric_point(inst.n, 100 + seed)
    scheme = cc.get_scheme(scheme_name)
    assert cc.derandomize_round(inst, x, scheme, alpha).assignment.tolist() == assignment
    si = cc.step_inequality_check(inst, x, scheme, alpha)
    assert (si.lhs, si.rhs) == (lhs, rhs)
    assert si.holds


def exact_first_step(wp, wm, L, p):
    """(cost, lp) of the per-pivot closed form summed over all pivots w, in
    exact Fractions of the float inputs: column w of p holds the cut
    probabilities to w, cost = 2 p_w' W+ q_w + q_w' W- q_w and
    lp = sum(L) - p_w' L p_w, with q_w = 1 - p_w."""
    wp, wm, L, p = ([[Fraction(v) for v in row] for row in m.tolist()] for m in (wp, wm, L, p))
    n = len(p)
    total_L = sum(map(sum, L))
    cost = lp = Fraction(0)
    for w in range(n):
        pw = [p[u][w] for u in range(n)]
        qw = [1 - v for v in pw]
        lp += total_L
        for u in range(n):
            cost += 2 * pw[u] * sum(a * b for a, b in zip(wp[u], qw))
            cost += qw[u] * sum(a * b for a, b in zip(wm[u], qw))
            lp -= pw[u] * sum(a * b for a, b in zip(L[u], pw))
    return cost, lp


def assert_within_ulps(got: float, want: Fraction, ulps: int = 4):
    assert abs(Fraction(got) - want) <= ulps * Fraction(math.ulp(float(want))), (got, float(want))


@pytest.mark.parametrize("name,seed", [case[:2] for case in PINNED])
def test_first_step_sums_match_exact_reference(name, seed):
    gen, scheme_name, alpha = CASES[name]
    inst = gen(seed)
    x = metric_point(inst.n, 100 + seed)
    scheme = cc.get_scheme(scheme_name)
    wp, wm, L = pair_model(inst, x)
    p = cut_probabilities(inst, x, scheme)
    two_n = 2 * inst.n
    loops = wp.copy()
    if inst.kind != KPARTITE:
        np.fill_diagonal(loops, 1.0)  # the unit self-loops the step bound charges
    cost, lp = exact_first_step(loops, wm, L, p)
    si = cc.step_inequality_check(inst, x, scheme, alpha)
    assert_within_ulps(si.lhs, cost / two_n)
    assert_within_ulps(si.rhs, Fraction(alpha) * lp / two_n)
    cost0, _ = exact_first_step(wp, wm, L, p)
    formula = cc.step_cost_formula(inst, x, scheme)
    assert_within_ulps(formula["e_alg_0"], cost0 / two_n)
    assert_within_ulps(formula["e_lp_0"], lp / two_n)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", range(1, 6))
def test_step_bound_is_exact_cost_plus_self_loop_closed_form(name, seed):
    # each unit self-loop of u is violated at pivot w with probability p_uw (1 - p_uw)
    gen, scheme_name, alpha = CASES[name]
    inst = gen(seed)
    x = metric_point(inst.n, 100 + seed)
    scheme = cc.get_scheme(scheme_name)
    model = pair_model(inst, x)
    for m in model:
        assert not np.diag(m).any()
    p = cut_probabilities(inst, x, scheme)
    cost0, _ = exact_first_step(*model, p)
    loops = sum(v * (1 - v) for v in map(Fraction, p.ravel().tolist()))
    if inst.kind == KPARTITE:
        loops = 0
    want = cost0 / (2 * inst.n) + loops / inst.n
    assert_within_ulps(cc.step_inequality_check(inst, x, scheme, alpha).lhs, want)


def _tied_matrix():
    d = np.zeros((6, 6))
    for u, w in ((0, 2), (1, 3), (2, 5), (0, 4)):
        d[u, w] = d[w, u] = 1.0
    return d


@pytest.mark.parametrize(
    "change,gap,triple",
    [
        (None, 1.0, (0, 1, 2)),  # twelve triples tie at gap 1
        ((1, 3, 1.25), 1.25, (1, 0, 3)),
        ((2, 5, 1.25), 1.25, (2, 1, 5)),
    ],
)
def test_pinned_validate_worst_triple(change, gap, triple):
    d = _tied_matrix()
    if change:
        u, w, val = change
        d[u, w] = d[w, u] = val
    rep = cc.validate_solution(cc.LpSolution.from_matrix(d))
    assert (rep.triangle, rep.worst_triple) == (gap, triple)


def test_worst_triangle_matches_sorted_separation():
    # the scan's tie order is the separation scan's worst-first order
    rng = np.random.default_rng(3)
    for t in range(200):
        n = 3 + t % 7
        m = rng.choice([0.0, 0.5, 1.0], size=(n, n)) if t % 2 else rng.random((n, n))
        m = np.triu(m, 1) + np.triu(m, 1).T
        gap, triple = worst_triangle(m)
        viols = cc.separate_triangle_violations(cc.LpSolution.from_matrix(m), tol=-np.inf)
        u, v, w, g = viols[0]
        assert (gap, triple) == (g, (u, v, w))


def test_worst_triangle_small_and_nan():
    assert worst_triangle(np.zeros((2, 2))) == (-np.inf, None)
    d = _tied_matrix()
    d[0, 2] = d[2, 0] = np.nan
    gap, triple = worst_triangle(d)
    assert gap == 1.0 and triple == (0, 1, 4)
    assert cc.validate_solution(cc.LpSolution(6, d[np.triu_indices(6, 1)])).worst_triple == triple


def _pair_surplus(wp, wm, x, alpha, p_u, p_v):
    """alpha * lp - cost of one pair at a pivot, from certify.edge_terms on both labels."""
    s = 0.0
    for weight, label in ((wp, "+"), (wm, "-")):
        cost, lp = cc.edge_terms(label, x, p_u, p_v)
        s += weight * (alpha * lp - cost)
    return s


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", range(1, 6))
def test_pivot_terms_sum_to_the_triangle_kernel(name, seed):
    # sum_w (alpha lp_w - cost_w) over the active set S is 2 sum over triangles of S
    # (each edge at its opposite pivot) + 4 sum over pairs of S (at an endpoint pivot)
    gen, scheme_name, alpha = CASES[name]
    inst = gen(seed)
    x = metric_point(inst.n, 100 + seed)
    wp, wm, L = pair_model(inst, x)
    p = cut_probabilities(inst, x, cc.get_scheme(scheme_name))
    xm = np.clip(x.matrix, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    subsets = [np.arange(inst.n)] + [np.sort(rng.choice(inst.n, size=k, replace=False))
                                     for k in rng.integers(1, inst.n + 1, size=9)]
    for S in subsets:
        block = np.ix_(S, S)
        cost, lp = pivot_terms(wp[block], wm[block], L[block], p[block])
        lhs = float((alpha * lp - cost).sum())

        def term(u, v, w):
            pu, pv = (0.0 if w == u else p[u, w]), (0.0 if w == v else p[v, w])
            return _pair_surplus(wp[u, v], wm[u, v], xm[u, v], alpha, pu, pv)

        triangles = sum(term(b, c, a) + term(a, c, b) + term(a, b, c)
                        for a, b, c in itertools.combinations(S.tolist(), 3))
        pairs = sum(term(u, v, u) for u, v in itertools.combinations(S.tolist(), 2))
        rhs = 2.0 * triangles + 4.0 * pairs
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0), (S, lhs, rhs)
