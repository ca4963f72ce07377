import itertools
import math

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.certify import (
    _lowest,
    admissible_types,
    check_eligibility,
    corner_sets,
    triple_sums,
    weighted_surplus,
)
from ccpivot.rounding import Piece, PiecewiseFn, RoundingScheme
from ccpivot.rng import SplitMix64

S206 = cc.get_scheme("complete206")
KP3 = cc.get_scheme("kpartite3")


def random_triangle(rng):
    a, b = rng.uniform(), rng.uniform()
    c = abs(a - b) + rng.uniform() * (min(a + b, 1.0) - abs(a - b))
    return a, b, c


def surplus(types, lengths, probs, alpha):
    alg, lp = triple_sums(types, lengths, probs)
    return alpha * lp - alg


# -- per-pivot building blocks ------------------------------------------------


def test_edge_cost_examples():
    assert cc.edge_terms("+", 0.5, 0.0, 0.0)[0] == 0.0
    assert cc.edge_terms("-", 0.5, 0.0, 0.0)[0] == 1.0
    assert cc.edge_terms("+", 0.5, 0.5, 0.5)[0] == pytest.approx(0.5)
    assert cc.edge_terms("0", 0.5, 0.3, 0.9)[0] == 0.0


def test_edge_lp_examples():
    assert cc.edge_terms("+", 0.7, 1.0, 1.0)[1] == 0.0
    assert cc.edge_terms("-", 1.0, 0.3, 0.8)[1] == pytest.approx(0.0)
    assert cc.edge_terms("+", 0.5, 0.0, 0.0)[1] == pytest.approx(0.5)
    assert cc.edge_terms("0", 0.5, 0.1, 0.2)[1] == 0.0


def test_edge_terms_rejects_unknown_edge_type():
    with pytest.raises(ValueError, match="unknown edge type"):
        cc.edge_terms("x", 0.5, 0.5, 0.5)


def test_nan_probability_fails_the_sweep_and_a_neutral_pair_adds_exactly_zero():
    for t in ("+", "-"):
        assert all(math.isnan(v) for v in cc.edge_terms(t, 0.5, math.nan, 0.2))
    assert cc.edge_terms("0", math.nan, math.nan, math.nan) == (0, 0)
    # a NaN length on the neutral edge leaves both sums as they were
    probs = (0.5, 0.2, 0.1)
    assert triple_sums(("0", "+", "-"), (math.nan, 0.3, 0.4), probs) == \
        triple_sums(("0", "+", "-"), (0.25, 0.3, 0.4), probs)
    # a NaN probability turns the surplus NaN there, and _lowest fails the sweep at it
    p = [np.array([0.5, math.nan, 0.1]), np.full(3, 0.2), np.full(3, 0.3)]
    alg, lp = triple_sums(("+", "-", "0"), [np.full(3, 0.4)] * 3, p)
    assert _lowest((math.inf, None), 2.0 * lp - alg, lambda i: i) == (-math.inf, 1)


def test_triple_costs_rejects_nonmetric_lengths():
    with pytest.raises(ValueError):
        cc.triple_costs(("+", "+", "+"), (0.1, 0.1, 0.9), S206, 2.0)


def test_all_minus_factorization_identity():
    # with linear f_minus: LP - ALG = x(1-y)(1-z) + y(1-x)(1-z) + z(1-x)(1-y)
    for x, y, z in [(0.3, 0.4, 0.5)] + [random_triangle(SplitMix64(1)) for _ in range(1000)]:
        tc = cc.triple_costs(("-", "-", "-"), (x, y, z), S206, 1.0)
        expected = x * (1 - y) * (1 - z) + y * (1 - x) * (1 - z) + z * (1 - x) * (1 - y)
        assert abs((tc.lp - tc.alg) - expected) <= 1e-12


def test_plus_minus_minus_ratio_formula():
    # (+,-,-) at (0, x, x) with linear f_minus: ALG/LP = (1 - x^2)/(1 - x)
    for x in (0.2, 0.5, 0.7):
        tc = cc.triple_costs(("+", "-", "-"), (0.0, x, x), S206, 1.0)
        assert tc.alg / tc.lp == pytest.approx((1 - x**2) / (1 - x))
    tc = cc.triple_costs(("+", "-", "-"), (0.0, 0.5, 0.5), S206, 1.0)
    assert tc.alg / tc.lp == pytest.approx(1.5)


def test_all_plus_degenerate_surplus_formula():
    # (+,+,+) at (x, x, 0): surplus = 2(alpha x - 2 f(x) + f(x)^2)
    for x in (0.25, 0.3, 0.45):
        tc = cc.triple_costs(("+", "+", "+"), (x, x, 0.0), S206, 2.06)
        f = float(S206.f_plus(x))
        assert tc.surplus == pytest.approx(2 * (2.06 * x - 2 * f + f * f), abs=1e-12)


def test_two_approx_on_plus_minus_minus():
    # f_plus <= 2x makes (+,-,-) a 2-approximation; check the premise first
    xs = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    assert np.all(S206.f_plus(xs) <= 2 * xs + 1e-12)
    rng = SplitMix64(7)
    for i in range(1000):
        lengths = list(random_triangle(rng))
        types = ["-", "-", "-"]
        types[i % 3] = "+"
        tc = cc.triple_costs(tuple(types), tuple(lengths), S206, 2.0)
        assert tc.surplus >= -1e-12


def test_triple_costs_symmetric_under_permutation():
    rng = SplitMix64(11)
    for _ in range(50):
        lengths = random_triangle(rng)
        types = ("+", "-", "0")
        base = surplus(types, lengths, (0.3, 0.6, 0.9), 2.0)
        for perm in itertools.permutations(range(3)):
            t = tuple(types[i] for i in perm)
            l = tuple(lengths[i] for i in perm)
            p = tuple((0.3, 0.6, 0.9)[i] for i in perm)
            assert surplus(t, l, p, 2.0) == pytest.approx(base, abs=1e-12)


def test_surplus_multilinear_in_each_probability():
    # second difference in any single p is identically zero
    rng = SplitMix64(13)
    for _ in range(200):
        types = tuple(("+", "-", "0")[rng.randint(3)] for _ in range(3))
        lengths = random_triangle(rng)
        probs = [rng.uniform() for _ in range(3)]
        for i in range(3):
            vals = []
            for t in (0.0, 0.5, 1.0):
                p = list(probs)
                p[i] = t
                vals.append(surplus(types, lengths, tuple(p), 2.0))
            assert vals[0] - 2 * vals[1] + vals[2] == pytest.approx(0.0, abs=1e-12)


# -- certification -------------------------------------------------------------


def test_certify_complete206_passes_at_206():
    rep = cc.certify(S206, 2.06, "complete", grid_step=0.01, tol=1e-9)
    assert rep.passed
    assert rep.eligible and not rep.used_full_grid
    assert {r.label for r in rep.results} == {"+++", "++-", "+--", "---"}


def test_certify_complete206_fails_at_200_with_witness():
    rep = cc.certify(S206, 2.00, "complete", grid_step=0.01, tol=1e-9)
    assert not rep.passed
    worst = rep.worst()
    assert worst.min_surplus < -1e-9
    lengths = worst.witness["lengths"]
    assert len(lengths) == 3
    # the plus-heavy types carry the failure, as the 2.025 impossibility predicts
    failing = {r.label for r in rep.results if r.passed_at < -1e-9}
    assert "++-" in failing


def test_nan_surplus_counts_as_minus_inf_at_first_nan():
    s = np.array([1.0, math.nan, -2.0, math.nan])
    assert _lowest((math.inf, None), s, lambda i: i) == (-math.inf, 1)
    assert _lowest((-math.inf, 0), s, lambda i: i) == (-math.inf, 0)
    assert _lowest((math.inf, None), np.full(3, math.nan), lambda i: i) == (-math.inf, 0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_certifiers_refuse_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite"):
        cc.certify(S206, alpha, "complete", grid_step=0.1)
    with pytest.raises(ValueError, match="finite"):
        cc.certify(KP3, alpha, "kpartite", grid_step=0.1)
    with pytest.raises(ValueError, match="finite"):
        cc.certify_weighted_ti(cc.get_scheme("weighted_ti_150"), alpha, length_grid_step=0.1)
    inst = cc.gen_complete_random(6, 0.5, seed=2)
    x, _stats = cc.solve_relaxation(inst)
    with pytest.raises(ValueError, match="finite"):
        cc.derandomize_round(inst, x, S206, alpha)
    with pytest.raises(ValueError, match="finite"):
        cc.step_inequality_check(inst, x, S206, alpha)
    with pytest.raises(ValueError, match="finite"):
        cc.bound_curves(alpha)
    with pytest.raises(ValueError, match="finite"):
        cc.lower_bound_check(alpha, 0.3)
    with pytest.raises(ValueError, match="finite"):
        cc.lower_bound_check(2.06, alpha)


W150 = cc.get_scheme("weighted_ti_150")


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, 1.5, 2.0])
@pytest.mark.parametrize("sweep", [
    lambda step: cc.certify(S206, 2.06, "complete", grid_step=step),
    lambda step: cc.certify(KP3, 3.0, "kpartite", grid_step=step),
    lambda step: cc.certify_weighted_ti(W150, 1.5, length_grid_step=step),
    lambda step: cc.certify_weighted_ti(W150, 1.5, length_grid_step=0.1, lam_grid_step=step),
], ids=["certify", "certify-kpartite", "weighted-length", "weighted-lam"])
def test_sweeps_refuse_a_grid_step_outside_the_unit_interval(sweep, step):
    # a step above 1/2 would round to the one-point grid [0.0] and pass on the corners alone
    with pytest.raises(ValueError, match="grid step"):
        sweep(step)


def test_a_grid_step_of_one_is_accepted():
    assert cc.certify(S206, 2.06, "complete", grid_step=1.0).passed
    assert cc.certify_weighted_ti(W150, 1.5, length_grid_step=1.0, lam_grid_step=1.0).passed


def test_certify_kpartite3_passes_all_seven_types():
    rep = cc.certify(KP3, 3.0, "kpartite", grid_step=0.01, tol=1e-9)
    assert rep.passed
    assert len(rep.results) == 7


def test_certify_acn_linear_at_3():
    rep = cc.certify(cc.get_scheme("acn_linear"), 3.0, "complete", grid_step=0.01)
    assert rep.passed


def test_certify_grid_refinement_stable():
    coarse = cc.certify(S206, 2.06, "complete", grid_step=0.02, tol=1e-9)
    fine = cc.certify(S206, 2.06, "complete", grid_step=0.01, tol=1e-9)
    assert coarse.passed == fine.passed
    assert fine.min_surplus >= -1e-9


def test_certify_corner_sets():
    corners = corner_sets(S206)
    assert corners["+"] == pytest.approx([0.0, 0.19, 0.5095, 1.0])
    assert corners["-"] == pytest.approx([0.0, 1.0])
    kp = corner_sets(KP3)
    assert kp["+"] == pytest.approx([0.0, 1.0 / 3.0, 1.0])
    assert kp["0"] == pytest.approx([0.0, 2.0 / 3.0, 1.0])


def test_ineligible_scheme_full_grid_fallback():
    # concave f_plus (a square root) breaks piecewise convexity, so the
    # tight-triangle reduction does not apply to this scheme
    bad = RoundingScheme(
        "sqrtplus",
        PiecewiseFn([Piece(0.0, 1.0, "power", (0.0, 1.0, 0.5))]),
        PiecewiseFn([Piece(0.0, 1.0, "linear", (0.0, 1.0))]),
    )
    assert not check_eligibility(bad).eligible
    with pytest.raises(cc.IneligibleSchemeError):
        cc.certify(bad, 3.0, "complete", grid_step=0.1, allow_full_grid=False)
    rep = cc.certify(bad, 6.0, "complete", grid_step=0.1, allow_full_grid=True)
    assert rep.used_full_grid


def _scheme(f_plus, f_minus=None, f_neutral=None, name="probe"):
    return RoundingScheme(name, PiecewiseFn(f_plus),
                          PiecewiseFn(f_minus or [Piece(0.0, 1.0, "linear", (0.0, 1.0))]),
                          PiecewiseFn(f_neutral) if f_neutral else None)


def test_narrow_concave_piece_is_not_convex():
    # a 0.0015-wide square-root step inside f_plus: concave, however narrow
    s = _scheme([
        Piece(0.0, 0.5, "constant", (0.0,)),
        Piece(0.5, 0.5015, "power", (0.5, 0.0015, 0.5)),
        Piece(0.5015, 1.0, "constant", (1.0,), closed_left=False),
    ])
    rep = check_eligibility(s)
    assert rep.monotone and rep.in_range and rep.starts_at_zero
    assert not rep.plus_piecewise_convex
    assert cc.certify(s, 3.0, "complete", grid_step=0.1).used_full_grid


def test_clipped_power_piece_is_not_concave():
    # sqrt((x - 0.5)/0.5) clipped at 0: flat, then rising with a kink at 0.5
    s = _scheme(S206.f_plus.pieces, [Piece(0.0, 1.0, "power", (0.5, 0.5, 0.5))])
    rep = check_eligibility(s)
    assert rep.monotone and rep.in_range
    assert not rep.minus_piecewise_concave
    # the same exponent anchored at the piece's start is concave
    ok = _scheme(S206.f_plus.pieces, [Piece(0.0, 1.0, "power", (0.0, 1.0, 0.5))])
    assert check_eligibility(ok).minus_piecewise_concave


def test_downward_jump_is_not_monotone():
    s = _scheme([
        Piece(0.0, 0.3, "constant", (0.0,)),
        Piece(0.3, 0.6, "linear", (0.0, 1.0)),
        Piece(0.6, 1.0, "constant", (0.5,), closed_left=False),
    ])
    rep = check_eligibility(s)
    assert rep.in_range and rep.plus_piecewise_convex
    assert not rep.monotone


@pytest.mark.parametrize("piece", [
    Piece(0.0, 1.0, "linear", (1.0, -1.0)),
    Piece(0.0, 1.0, "power", (1.0, -1.0, 2.0)),
])
def test_decreasing_pieces_are_not_monotone(piece):
    assert not check_eligibility(_scheme([piece])).monotone


def test_out_of_range_scheme_is_refused_even_with_fallback():
    s = _scheme([Piece(0.0, 1.0, "linear", (0.0, 2.0))])
    assert not check_eligibility(s).in_range
    with pytest.raises(cc.IneligibleSchemeError):
        cc.certify(s, 3.0, "complete", grid_step=0.1, allow_full_grid=True)


ALL_TRUE = (True, True, True, True, True)


@pytest.mark.parametrize("scheme, fields", [
    *((s, ALL_TRUE) for s in cc.SCHEMES.values()),
    # perfbench's complete206 with a decreasing neutral function
    (RoundingScheme("decreasing_neutral", S206.f_plus, S206.f_minus,
                    PiecewiseFn([Piece(0.0, 1.0, "linear", (1.0, -1.0))])),
     (False, True, False, True, True)),
    (RoundingScheme("sqrtplus", PiecewiseFn([Piece(0.0, 1.0, "power", (0.0, 1.0, 0.5))]),
                    PiecewiseFn([Piece(0.0, 1.0, "linear", (0.0, 1.0))])),
     (True, True, True, False, True)),
], ids=lambda v: getattr(v, "name", ""))
def test_known_schemes_eligibility_fields(scheme, fields):
    rep = check_eligibility(scheme)
    assert (rep.starts_at_zero, rep.in_range, rep.monotone,
            rep.plus_piecewise_convex, rep.minus_piecewise_concave) == fields


def test_certificate_report_json():
    import json

    rep = cc.certify(S206, 2.06, "complete", grid_step=0.05)
    doc = json.loads(rep.to_json())
    assert doc["verdict"] == "PASS"
    assert doc["meta"]["alpha"] == 2.06
    assert len(doc["types"]) == 4
    for t in doc["types"]:
        assert "min_surplus" in t and "witness" in t and "corner_results" in t


# -- admissible types -----------------------------------------------------------


def test_admissible_type_counts():
    assert len(admissible_types("complete")) == 4
    assert len(admissible_types("kpartite")) == 7
    for t in admissible_types("kpartite"):
        assert t.count("0") <= 1  # two neutral edges force the third neutral
    with pytest.raises(ValueError, match="no labeled triangle types"):
        admissible_types("weighted")


# -- bound curves ---------------------------------------------------------------


def test_bound_curves_endpoints():
    bc = cc.bound_curves(2.06)
    assert float(bc.f_minus_lower(1.0)) == pytest.approx(1.0)
    assert float(bc.f_plus_upper(0.0)) == pytest.approx(0.0)
    assert math.isnan(float(bc.f_minus_lower(0.0)))  # vacuous below 1 - 1/alpha


def test_bound_curves_complete206_consistency():
    bc = cc.bound_curves(2.06)
    xs = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    fm = bc.f_minus_lower(xs)
    ok = ~np.isnan(fm)
    assert np.all(S206.f_minus(xs[ok]) >= fm[ok] - 1e-9)
    fpu = bc.f_plus_upper(xs)
    ok = ~np.isnan(fpu)
    assert np.all(S206.f_plus(xs[ok]) <= fpu[ok] + 1e-9)
    half = xs[xs <= 0.5 + 1e-12]
    fpl = bc.f_plus_lower(half)
    ok = ~np.isnan(fpl)
    assert np.all(S206.f_plus(half[ok]) >= fpl[ok] - 1e-9)


# -- lower bound ----------------------------------------------------------------


def test_lower_bound_at_2025():
    r = cc.lower_bound_check(2.025, 0.48)
    assert r.contradiction
    lo, hi = r.root_interval
    assert lo <= 0.836 and hi >= 0.987
    assert lo == pytest.approx(0.836, abs=5e-4)
    assert hi == pytest.approx(0.987, abs=5e-4)
    assert r.upper_bound <= 0.833


def test_lower_bound_feasible_alphas():
    assert not cc.lower_bound_check(2.06, 0.48).contradiction
    assert not cc.lower_bound_check(2.5, 0.48).contradiction


def test_lower_bound_vacuous_radicand():
    r = cc.lower_bound_check(2.025, 0.1)  # 1 - alpha(1 - 2x) < 0
    assert r.root_interval is None and not r.contradiction


def test_lower_bound_quadratic_without_real_root():
    # the required quadratic has a negative discriminant: no f_plus(x) satisfies it
    r = cc.lower_bound_check(1.001, 0.001)
    assert r.contradiction and r.root_interval is None and r.roots_raw is None


def test_bound_curves_need_alpha_above_one():
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        cc.bound_curves(1.0)


# -- weighted certification ------------------------------------------------------


def test_weighted_surplus_is_coin_mixture():
    s = cc.get_scheme("weighted_ti_153")
    rng = SplitMix64(3)
    for _ in range(100):
        lengths = random_triangle(rng)
        lams = random_triangle(rng)  # metric lam_minus triple
        total = weighted_surplus(lams, lengths, s, 1.5)
        manual = 0.0
        for combo in itertools.product("+-", repeat=3):
            wgt = 1.0
            for i, t in enumerate(combo):
                wgt *= lams[i] if t == "-" else 1 - lams[i]
            probs = tuple(float(s.fn(t)(l)) for t, l in zip(combo, lengths))
            alg, lp = triple_sums(combo, lengths, probs)
            manual += wgt * (1.5 * lp - alg)
        assert float(total) == pytest.approx(manual, abs=1e-12)


def test_weighted_pure_lambda_reduces_to_types():
    s = cc.get_scheme("weighted_ti_150")
    lengths = (0.3, 0.5, 0.8)
    surplus = float(weighted_surplus((1.0, 1.0, 0.0), lengths, s, 1.5))
    tc = cc.triple_costs(("-", "-", "+"), lengths, s, 1.5)
    assert surplus == pytest.approx(tc.surplus, abs=1e-12)


def test_certify_weighted_coarse():
    s150 = cc.get_scheme("weighted_ti_150")
    rep = cc.certify_weighted_ti(s150, 1.5, length_grid_step=0.05, tol=1e-7)
    assert rep.passed
    s153 = cc.get_scheme("weighted_ti_153")
    rep2 = cc.certify_weighted_ti(s153, 1.49, length_grid_step=0.05, tol=1e-7)
    assert not rep2.passed
    assert rep2.worst().witness["lam_minus"] is not None


def test_certify_weighted_rejects_ineligible():
    bad = RoundingScheme(
        "sqrtplus",
        PiecewiseFn([Piece(0.0, 1.0, "power", (0.0, 1.0, 0.5))]),
        PiecewiseFn([Piece(0.0, 1.0, "linear", (0.0, 1.0))]),
    )
    with pytest.raises(cc.IneligibleSchemeError):
        cc.certify_weighted_ti(bad, 2.0, length_grid_step=0.2)


def test_weighted_parallel_matches_serial():
    s = cc.get_scheme("weighted_ti_153")
    serial = cc.certify_weighted_ti(s, 1.53, length_grid_step=0.1, lam_grid_step=0.25)
    par = cc.certify_weighted_ti(s, 1.53, length_grid_step=0.1, lam_grid_step=0.25, jobs=2)
    assert serial.min_surplus == pytest.approx(par.min_surplus, abs=0.0)


# -- step inequality --------------------------------------------------------------


def test_step_inequality_trivial():
    inst = cc.gen_complete_random(5, 1.0, seed=1)
    x = cc.LpSolution.constant(5, 0.0)
    r = cc.step_inequality_check(inst, x, S206, 2.06)
    assert r.lhs == pytest.approx(0.0)
    assert r.holds


def test_step_inequality_bad_triangle():
    m = np.array([[0, 1, 1], [1, 0, -1], [1, -1, 0]], dtype=np.int8)
    inst = cc.Instance.complete(m)
    x, _ = cc.solve_relaxation(inst)
    assert cc.step_inequality_check(inst, x, S206, 2.06).holds


@pytest.mark.parametrize("seed", [2, 4, 8])
def test_step_inequality_random_certified_pairs(seed):
    inst = cc.gen_complete_random(8, 0.5, seed)
    x, _ = cc.solve_relaxation(inst)
    assert cc.step_inequality_check(inst, x, S206, 2.06).holds
    kinst = cc.gen_kpartite_random([3, 3, 2], 0.5, seed)
    kx, _ = cc.solve_relaxation(kinst)
    assert cc.step_inequality_check(kinst, kx, KP3, 3.0).holds


@pytest.mark.parametrize("x", [(1.0 + 2.025) / (2.0 * 2.025), 0.747, 0.8, 0.9, 1.0])
def test_lower_bound_vacuous_past_half(x):
    # the family's "-" edge would have length 2x > 1: no triangle, no claim
    r = cc.lower_bound_check(2.025, x)
    assert r.root_interval is None and r.roots_raw is None
    assert not r.contradiction


def test_lower_bound_never_rules_out_a_certified_ratio():
    # complete206 certifies 2.06, so no probe may call 2.06 or 2.5 impossible
    for alpha in (2.06, 2.5):
        for x in np.linspace(0.0, 1.0, 2001):
            assert not cc.lower_bound_check(alpha, float(x)).contradiction


def test_lower_bound_at_half_is_convex_interval():
    r = cc.lower_bound_check(2.025, 0.5)  # (0.5, 0.5, 1): the widest valid triangle
    lo, hi = r.root_interval
    assert lo <= hi and r.roots_raw[0] <= r.roots_raw[1]
