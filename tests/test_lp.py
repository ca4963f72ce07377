import hashlib
import itertools

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.cli import main
from ccpivot.instance import (_SCAN_BLOCK, _invalid_entries, symmetric_from_upper, triangle_blocks,
                              worst_triangle)
from ccpivot.rng import SplitMix64
from exhaustive import slab_separation, slab_worst_triangle, triangle_slabs


def k3(labels_ut):
    m = np.zeros((3, 3), dtype=np.int8)
    (m[0, 1], m[0, 2], m[1, 2]) = labels_ut
    m += m.T
    return cc.Instance.complete(m)


def grid_feasible_min(inst, step=0.05):
    """Independent oracle: coarse feasible-grid search over all x vectors."""
    vals = np.arange(0.0, 1.0 + step / 2, step)
    best = np.inf
    for a in vals:
        for b in vals:
            for c in vals:
                if a > b + c or b > a + c or c > a + b:
                    continue
                x = cc.LpSolution.from_matrix(
                    np.array([[0, a, b], [a, 0, c], [b, c, 0]], dtype=float)
                )
                best = min(best, cc.lp_objective(inst, x))
    return best


def test_all_plus_optimum_zero():
    inst = k3((1, 1, 1))
    x, stats = cc.solve_relaxation(inst)
    assert stats.objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(x.vec, 0.0)


def test_bad_triangle_optimum_is_one():
    # dual bound: obj = x_01 + x_02 + (1 - x_12) >= x_12 + 1 - x_12 = 1,
    # attained at x = 0; the fine-grid oracle agrees
    inst = k3((1, 1, -1))
    x, stats = cc.solve_relaxation(inst)
    assert stats.objective == pytest.approx(1.0, abs=1e-9)
    assert grid_feasible_min(inst) == pytest.approx(1.0, abs=1e-9)


def test_grid_oracle_matches_solver_on_random_k3():
    rng = SplitMix64(40)
    for _ in range(8):
        inst = cc.gen_complete_random(3, 0.5, rng.next_u64())
        _x, stats = cc.solve_relaxation(inst)
        oracle = grid_feasible_min(inst)
        assert stats.objective <= oracle + 1e-9


def test_bipartite_gap_point_bounds_solver():
    inst, point = cc.gap_kpartite_lp_point(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    _x, stats = cc.solve_relaxation(inst)
    assert stats.objective <= cc.lp_objective(inst, point) + 1e-9  # <= 4/3


def test_weighted_objective():
    inst = cc.gen_gap_triangle_ineq(4)
    x, stats = cc.solve_relaxation(inst)
    assert stats.objective <= 12.0 + 1e-6
    assert cc.validate_solution(x).feasible(1e-6)


def test_separation_arithmetic():
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = 1.0
    m[0, 1] = m[1, 0] = 0.2
    m[1, 2] = m[2, 1] = 0.2
    viols = cc.separate_triangle_violations(cc.LpSolution.from_matrix(m), 1e-9)
    assert len(viols) == 1
    u, v, w, g = viols[0]
    assert (u, v, w) == (0, 1, 2)
    assert g == pytest.approx(0.6)


@pytest.mark.parametrize("tol", [-np.inf, 0.0, 0.25])
def test_separation_matches_a_triple_loop(tol):
    # reference: every ordered middle vertex, the same float operations
    rng = np.random.default_rng(5)
    for t in range(60):
        n = 1 + t % 8
        pairs = n * (n - 1) // 2
        vec = rng.choice([0.0, 0.5, 1.0], size=pairs) if t % 2 else rng.random(pairs)
        if t % 3 == 0 and pairs:
            vec[0] = np.nan
        x = cc.LpSolution(n, vec)
        m = x.matrix
        want = [(u, v, w, float(m[u, w] - m[u, v] - m[v, w]))
                for u in range(n) for v in range(n) for w in range(u + 1, n)
                if v not in (u, w) and m[u, w] - m[u, v] - m[v, w] > tol]
        want.sort(key=lambda r: (-r[3], r[0], r[1], r[2]))
        assert cc.separate_triangle_violations(x, tol) == want


def test_separation_empty_on_metric():
    rng = SplitMix64(8)
    pts = np.array([[rng.uniform(), rng.uniform()] for _ in range(6)])
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = d / d.max()
    np.fill_diagonal(d, 0.0)
    assert cc.separate_triangle_violations(cc.LpSolution.from_matrix(d), 1e-9) == []


def test_solver_output_has_no_violations():
    for seed in (1, 2, 3):
        inst = cc.gen_complete_random(8, 0.5, seed)
        x, _stats = cc.solve_relaxation(inst)
        assert cc.separate_triangle_violations(x, 1e-6) == []


def test_lp_objective_trivials():
    allp = cc.gen_complete_random(4, 1.0, seed=1)
    assert cc.lp_objective(allp, cc.LpSolution.constant(4, 0.0)) == 0.0
    allm = cc.gen_complete_random(4, 0.0, seed=1)
    assert cc.lp_objective(allm, cc.LpSolution.constant(4, 1.0)) == 0.0
    # one "+" and one "-" pair, both at 1/2, together contribute exactly 1
    pair_plus = cc.Instance.complete(np.array([[0, 1], [1, 0]], dtype=np.int8))
    pair_minus = cc.Instance.complete(np.array([[0, -1], [-1, 0]], dtype=np.int8))
    half = cc.LpSolution.constant(2, 0.5)
    assert cc.lp_objective(pair_plus, half) + cc.lp_objective(pair_minus, half) == 1.0


def test_solution_and_objective_refuse_mismatched_shapes():
    with pytest.raises(ValueError, match="square"):
        cc.LpSolution.from_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="size mismatch"):
        cc.lp_objective(cc.gen_complete_random(4, 0.5, seed=1), cc.LpSolution.constant(3, 0.5))


def test_validate_reports_box_violation():
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = 1.2
    rep = cc.validate_solution(cc.LpSolution.from_matrix(m))
    assert rep.box == pytest.approx(0.2)
    assert not rep.feasible(1e-6)


def test_validate_feasible_point():
    rep = cc.validate_solution(cc.LpSolution.constant(4, 0.5))
    assert rep.feasible(0.0)


def test_round_objectives_monotone():
    for seed in (3, 5, 9):
        inst = cc.gen_complete_random(9, 0.5, seed)
        _x, stats = cc.solve_relaxation(inst)
        objs = stats.round_objectives
        for a, b in zip(objs, objs[1:]):
            assert b >= a - 1e-9


def test_resolve_final_set_reproduces_objective():
    from ccpivot.lp import _Tableau, _objective_terms, _triangle_rows

    inst = cc.gen_complete_random(8, 0.5, seed=13)
    _x, stats = cc.solve_relaxation(inst)
    # a fresh tableau holding only the final working set, solved in one dual run
    coeff, const = _objective_terms(inst)
    tab = _Tableau(coeff)
    idx = symmetric_from_upper(inst.n, np.arange(len(coeff)), np.int64)
    tab.add_rows(*_triangle_rows(idx, stats.final_constraints))
    tab.dual()
    again = float(coeff @ tab.point()) + const
    assert again == pytest.approx(stats.objective, abs=1e-9)


def test_degenerate_small_instances():
    one = cc.gen_complete_random(1, 0.5, seed=1)
    x1, s1 = cc.solve_relaxation(one)
    assert s1.objective == 0.0
    pair = cc.Instance.complete(np.array([[0, -1], [-1, 0]], dtype=np.int8))
    x2, s2 = cc.solve_relaxation(pair)
    assert s2.objective == 0.0 and x2.vec[0] == 1.0


def test_solution_json_roundtrip():
    x = cc.LpSolution.constant(4, 0.25)
    from ccpivot.lp import solution_from_json, solution_to_json

    back = solution_from_json(solution_to_json(x, 1.5))
    assert np.allclose(back.vec, x.vec)
    # upper-triangle input form
    import json

    doc = {"n": 4, "x": x.vec.tolist()}
    back2 = solution_from_json(json.dumps(doc))
    assert np.allclose(back2.vec, x.vec)


def test_kpartite_neutral_pairs_carry_variables():
    # neutral pairs cost nothing but are still constrained by triangles
    inst = cc.gen_kpartite_random([2, 2], 1.0, seed=2)
    x, stats = cc.solve_relaxation(inst)
    assert stats.objective == pytest.approx(0.0, abs=1e-9)
    assert cc.validate_solution(x).feasible(1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_flags_non_finite_entries(bad):
    rep = cc.validate_solution(cc.LpSolution(3, np.array([bad, 0.5, 0.5])))
    assert rep.box == np.inf
    assert not rep.feasible()


def test_solution_from_json_refuses_non_finite_entries():
    from ccpivot.lp import solution_from_json

    for text in ('{"n": 3, "x": [NaN, 0.5, 0.5]}', '{"n": 3, "x": [0.5, Infinity, 0.5]}',
                 '{"n": 2, "x": [[0.0, NaN], [NaN, 0.0]]}'):
        with pytest.raises(cc.FormatError, match="non-finite"):
            solution_from_json(text)


@pytest.mark.parametrize("n", range(7))
def test_solution_matrix_is_symmetric_from_upper(n):
    vec = np.random.default_rng(n).uniform(-1.0, 2.0, n * (n - 1) // 2)
    vec[:1] = -0.0  # the one value where m + m.T and the pair scatter could differ
    m = cc.LpSolution(n, vec).matrix
    want = symmetric_from_upper(n, vec)
    assert m.dtype == want.dtype and m.shape == (n, n)
    assert m.tobytes() == want.tobytes()
    assert np.diag(m).tobytes() == np.zeros(n).tobytes()


def test_point_owns_a_read_only_copy_of_its_vector():
    # a point that aliased the caller's array kept a stale cached matrix:
    # validate_solution and pivot_round read the old values, lp_objective the new
    inst = cc.gen_complete_random(3, 0.5, 1)
    v = np.full(3, 0.5)
    x = cc.LpSolution(3, v)
    m = x.matrix
    v[:] = [1.0, 0.0, 0.0]  # violates x_01 <= x_02 + x_21
    assert not cc.validate_solution(cc.LpSolution(3, v.copy())).feasible()
    assert x.vec.tolist() == [0.5, 0.5, 0.5] and x.matrix is m
    assert cc.validate_solution(x).feasible()
    assert cc.lp_objective(inst, x) == cc.lp_objective(inst, cc.LpSolution.constant(3, 0.5))
    for a in (x.vec, x.matrix):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert v.flags.writeable  # the caller's array is left as it was


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_validate_infinite_entries_raise_no_warning(bad):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cc.validate_solution(cc.LpSolution(3, np.array([bad, 0.5, 0.5])))
    assert not rep.feasible()


@pytest.mark.parametrize("k", range(2, 8))
def test_gap_family_lp_closed_form(k):
    # by symmetry some optimum has one value within a side and one across:
    # LP = k(k - 1)/3 + k^2/2 = (5k^2 - 2k)/6 on the 2k vertices
    from fractions import Fraction

    exact = Fraction(5 * k * k - 2 * k, 6)
    _x, stats = cc.solve_relaxation(cc.gen_gap_triangle_ineq(k))
    assert stats.objective == pytest.approx(float(exact), abs=1e-9)
    assert abs(stats.gap) <= 1e-9
    assert stats.dual_bound == pytest.approx(float(exact), abs=1e-9)


def _pricing_instances():
    return [
        cc.gen_complete_random(8, 0.5, seed=3),
        cc.gen_kpartite_random([3, 3, 2], 0.5, seed=4),
        cc.gen_weighted_random(7, seed=5),
    ]


def test_bland_from_the_first_pivot_reaches_the_same_optimum(monkeypatch):
    dantzig = [cc.solve_relaxation(inst)[1].objective for inst in _pricing_instances()]
    monkeypatch.setattr(cc.lp, "DEGENERATE_RUN", 0)
    for inst, obj in zip(_pricing_instances(), dantzig):
        x, stats = cc.solve_relaxation(inst)
        assert stats.objective == pytest.approx(obj, abs=1e-9)
        assert cc.validate_solution(x).feasible()
        assert stats.gap <= 1e-9


def test_stats_record_each_round():
    inst = cc.gen_complete_random(9, 0.5, seed=9)
    _x, stats = cc.solve_relaxation(inst)
    assert len(stats.rounds) == stats.separation_rounds == len(stats.round_objectives)
    assert sum(r["cuts"] for r in stats.rounds) == stats.constraints_generated
    assert sum(r["dual_pivots"] for r in stats.rounds) == stats.iterations
    assert stats.rounds[0]["cuts"] == 0 and stats.rounds[0]["dual_pivots"] == 0
    assert all(r["seconds"] >= 0.0 for r in stats.rounds)
    assert stats.dual_bound <= stats.objective + 1e-9 and stats.gap <= 1e-9


def test_rounds_record_their_scan_time(caplog):
    for inst in (cc.gen_complete_random(9, 0.5, seed=9), cc.gen_weighted_random(8, seed=4)):
        with caplog.at_level("DEBUG", logger="ccpivot.lp"):
            _x, stats = cc.solve_relaxation(inst)
        assert stats.separation_rounds > 1
        assert all(0.0 <= r["scan_seconds"] <= r["seconds"] for r in stats.rounds)
        lines = [r.getMessage() for r in caplog.records if r.name == "ccpivot.lp"]
        assert all("scan" in line for line in lines)
        caplog.clear()


def _box_point(inst):
    """The starting tableau's point: x_uv = 1 where its objective coefficient is below -SIMPLEX_TOL."""
    wp, wm = inst.pair_weights()
    return (wp - wm < -cc.lp.SIMPLEX_TOL).astype(np.float64)


@pytest.mark.parametrize("inst", [
    cc.gen_complete_random(11, 0.5, seed=1),
    cc.gen_complete_random(16, 0.5, seed=2),
    cc.gen_kpartite_random([4, 4, 3], 0.5, seed=3),
    cc.gen_weighted_random(10, seed=4),
    cc.gen_complete_random(30, 0.5, seed=7),
], ids=["complete11", "complete16", "kpartite443", "weighted10", "complete30"])
def test_second_round_adds_every_violated_triangle_up_to_n_squared(inst):
    # round 1 is the box optimum; round 2 adds the whole violated batch of
    # its scan, capped at n^2 (which binds at n = 30)
    violated = len(slab_separation(_box_point(inst), cc.lp.FEAS_TOL))
    _x, stats = cc.solve_relaxation(inst)
    assert violated > 0
    assert stats.rounds[1]["cuts"] == min(inst.n ** 2, violated)
    assert stats.gap <= cc.lp.GAP_TOL * max(1.0, abs(stats.objective))
    if inst.n == 30:
        assert violated > inst.n ** 2
        assert stats.separation_rounds <= 4


def _scan_matrices():
    """Symmetric matrices with zero diagonal for the scan's reference check."""
    rng = np.random.default_rng(17)
    for n in (0, 1, 2, 3):
        yield np.zeros((n, n))
    for t in range(120):
        n = 3 + t % 14
        a = rng.random((n, n))
        if t % 2:
            a = np.round(4 * a) / 4  # quarters: many tied gaps
        if t % 3 == 0:
            a[rng.integers(0, n, 3), rng.integers(0, n, 3)] = rng.choice([np.nan, np.inf, -np.inf], 3)
        yield np.triu(a, 1) + np.triu(a, 1).T
    for n in (30, 110):  # several blocks: of many rows at n = 30, of one row at n = 110
        assert 1 <= _SCAN_BLOCK // (n * n) < n
        a = np.round(4 * rng.random((n, n))) / 4
        yield np.triu(a, 1) + np.triu(a, 1).T


def test_scan_matches_the_slab_reference():
    cases = 0
    for d in _scan_matrices():
        n = d.shape[0]
        x = cc.LpSolution(n, d[np.triu_indices(n, 1)])  # from_matrix refuses NaN
        for tol in (1e-6, 0.0, 0.5) if n < 100 else (0.9,):
            assert cc.separate_triangle_violations(x, tol) == slab_separation(x.matrix, tol)
        want = slab_worst_triangle(x.matrix)
        assert worst_triangle(x.matrix) == want
        assert worst_triangle(np.asfortranarray(x.matrix)) == want  # any memory layout
        assert cc.validate_solution(x).worst_triple == (want[1] if want[0] > 0 else None)
        cases += 1
    assert cases == 126


@pytest.mark.parametrize("n", range(31))
def test_triangle_blocks_match_the_per_vertex_slabs(n):
    # one block up to n = 25, several from n = 26 on; NaN and +-inf entries included
    rng = np.random.default_rng(100 + n)
    a = np.round(4 * rng.random((n, n))) / 4
    if n >= 2:
        a[rng.integers(0, n, 4), rng.integers(0, n, 4)] = [np.nan, np.inf, -np.inf, np.nan]
    d = np.triu(a, 1) + np.triu(a, 1).T
    blocks = list(triangle_blocks(d))
    rows = [(u0 + i, slab) for u0, g in blocks for i, slab in enumerate(g)]
    assert [u for u, _s in rows] == list(range(n))
    assert all(s.tobytes() == r.tobytes() for (_u, s), (_v, r) in zip(rows, triangle_slabs(d)))
    assert (len(blocks) > 1) == (n >= 26)
    x = cc.LpSolution(n, d[np.triu_indices(n, 1)])
    assert worst_triangle(d) == slab_worst_triangle(d)
    for tol in (-np.inf, 0.0, 0.25):
        assert cc.separate_triangle_violations(x, tol) == slab_separation(x.matrix, tol)
    if n:
        mask = _invalid_entries(len(blocks[-1][1]), n)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0, 0] = not mask[0, 0, 0]


def _one_cut_tableau(a, c):
    """Box tableau for reduced costs c plus one row a.x <= -1, violated at x = 0."""
    from ccpivot.lp import _Tableau

    tab = _Tableau(np.asarray(c, dtype=float))
    k = len(a)
    tab.add_rows(np.arange(k)[None, :], np.asarray([a], dtype=float), np.array([-1.0]))
    return tab


@pytest.mark.parametrize("a, c, enter, bland_enter", [
    ([-1.0, -4.0, -2.0], [1.0, 4.0, 2.0], 1, 0),          # a tie goes to the most negative element
    ([-3.0, -2.0, -2.0], [6.0, 2.0, 2.0], 1, 1),          # equal elements: the lowest column
    ([-1.0, -2.0, -4.0], [3.0, 2.0, 4.0], 2, 1),          # Bland: the first tied column
    ([-1.0, -2.0], [1.0, 2.0 * (1.0 + 5e-9)], 1, 0),     # within SIMPLEX_TOL of the best is a tie
    ([-1.0, -2.0], [-0.9e-8, 1e-8], 1, 0),               # a reduced cost below 0 prices at 0
], ids=["most-negative", "lowest-column", "bland-first-tied", "tol-tie", "clamped-cost"])
def test_entering_column_rule(monkeypatch, a, c, enter, bland_enter):
    from ccpivot.lp import _Tableau

    pivots = []
    step = _Tableau._pivot
    monkeypatch.setattr(_Tableau, "_pivot", lambda self, row, col, norms: (
        pivots.append((row, col)), step(self, row, col, norms)))
    for run, want in ((50, enter), (0, bland_enter)):
        monkeypatch.setattr(cc.lp, "DEGENERATE_RUN", run)
        pivots.clear()
        tab = _one_cut_tableau(a, c)
        tab.dual()
        assert pivots[0] == (len(a), want)


def test_one_debug_line_per_round(caplog):
    inst = cc.gen_complete_random(8, 0.5, seed=2)
    with caplog.at_level("DEBUG", logger="ccpivot.lp"):
        _x, stats = cc.solve_relaxation(inst)
    lines = [r for r in caplog.records if r.name == "ccpivot.lp"]
    assert len(lines) == stats.separation_rounds


def test_dual_bound_is_independent_of_the_tableau():
    # lam = 0 gives the box bound; any lam >= 0 stays below the optimum
    from ccpivot.lp import _dual_bound, _objective_terms, _triangle_rows

    inst = cc.gen_complete_random(7, 0.5, seed=11)
    _x, stats = cc.solve_relaxation(inst)
    coeff, const = _objective_terms(inst)
    rows = [_triangle_rows(symmetric_from_upper(7, np.arange(len(coeff)), np.int64),
                           stats.final_constraints)]
    k = len(stats.final_constraints)
    assert _dual_bound(coeff, const, rows, np.zeros(k)) == const + np.minimum(coeff, 0).sum()
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = rng.exponential(size=k)
        assert _dual_bound(coeff, const, rows, lam) <= stats.objective + 1e-9


@pytest.mark.parametrize("tol", [0.5, 2e-6, 0.0, -1e-6, np.nan, np.inf])
def test_solve_refuses_a_tol_outside_feas_tol(tol):
    # at tol = 0.5 the closing validation would pass triangle (0, 6, 2), violated by 0.5
    inst = cc.gen_complete_random(9, 0.5, 13)
    with pytest.raises(ValueError, match="tol"):
        cc.solve_relaxation(inst, tol=tol)
    assert cc.solve_relaxation(inst, tol=cc.lp.FEAS_TOL)[1].objective == pytest.approx(9.75, abs=1e-9)


def test_bad_certificate_raises(monkeypatch):
    # a tableau whose multipliers prove nothing must not pass as optimal
    monkeypatch.setattr(cc.lp._Tableau, "multipliers", lambda self: np.zeros(len(self.basis) - self.nvar))
    with pytest.raises(cc.LpNumericalError, match="gap"):
        cc.solve_relaxation(cc.gen_complete_random(8, 0.5, seed=3))


def test_nan_certificate_raises(monkeypatch):
    # a NaN dual bound gives a NaN gap, which no comparison with GAP_TOL may accept
    monkeypatch.setattr(cc.lp._Tableau, "multipliers",
                        lambda self: np.full(len(self.basis) - self.nvar, np.nan))
    with pytest.raises(cc.LpNumericalError, match="gap nan"):
        cc.solve_relaxation(cc.gen_complete_random(8, 0.5, seed=3))


def test_infeasible_result_raises(monkeypatch):
    # a scan that finds nothing ends the loop at the box optimum, whose
    # dual bound is exact; only the closing validation can refuse it
    monkeypatch.setattr(cc.lp, "_violations", lambda x, tol: (np.zeros(0, np.int64), np.zeros(0)))
    with pytest.raises(cc.LpNumericalError, match="validation"):
        cc.solve_relaxation(cc.gen_complete_random(8, 0.5, seed=3))


@pytest.mark.parametrize("cap, message", [("MAX_PIVOTS", "pivots"), ("MAX_ROUNDS", "rounds")])
def test_iteration_caps_raise(monkeypatch, tmp_path, cap, message):
    # 5 vertices need cuts, so a cap of 1 pivot or 1 round is hit
    monkeypatch.setattr(cc.lp, cap, 1)
    inst = cc.gen_complete_random(5, 0.5, seed=3)
    with pytest.raises(cc.LpNumericalError, match=f"exceeded 1 {message}"):
        cc.solve_relaxation(inst)
    path = tmp_path / "i.cc"
    path.write_text(cc.serialize_instance(inst))
    assert main(["lp", "--instance", str(path)]) == 70


def _partition_rows(idx, m, tol=1e-6):
    """Violated 2-partition rows x(T) - x(s:T) <= 1, |T| = 3, at the point m.

    In distances x = 1 - y these are Groetschel and Wakabayashi's
    y(s:T) - y(T) <= 1: six nonzeros and a right-hand side of 1, valid for
    every clustering but not for every metric point.
    """
    n, cols = len(m), []
    for s in range(n):
        for t in itertools.combinations([v for v in range(n) if v != s], 3):
            inner = list(itertools.combinations(t, 2))
            if sum(m[a, b] for a, b in inner) - sum(m[s, v] for v in t) > 1 + tol:
                cols.append([idx[a, b] for a, b in inner] + [idx[s, v] for v in t])
    cols = np.array(cols, dtype=np.int64).reshape(-1, 6)
    return cols, np.tile([1.0, 1.0, 1.0, -1.0, -1.0, -1.0], (len(cols), 1)), np.ones(len(cols))


@pytest.mark.parametrize("padded", [False, True], ids=["width6", "zero-padded-width7"])
def test_rows_with_a_right_hand_side_match_highs(padded):
    # the metric LP of this instance is 6.5; its five violated (1, 3) partition
    # rows lift it to 7.0, the optimum. The padded case adds a seventh slot
    # repeating each row's first column at coefficient 0, which must change nothing.
    from scipy.optimize import linprog

    from ccpivot.lp import GAP_TOL, _Tableau, _dual_bound, _objective_terms, _triangle_rows

    inst = cc.gen_complete_random(8, 0.5, seed=3)
    _x, stats = cc.solve_relaxation(inst)
    coeff, const = _objective_terms(inst)
    idx = symmetric_from_upper(inst.n, np.arange(len(coeff)), np.int64)
    tab = _Tableau(coeff)
    tab.add_rows(*_triangle_rows(idx, stats.final_constraints))
    tab.dual()
    assert float(coeff @ tab.point()) + const == pytest.approx(6.5, abs=1e-9)
    cols, coefs, rhs = _partition_rows(idx, symmetric_from_upper(inst.n, tab.point()))
    assert len(cols) == 5
    if padded:
        cols, coefs = np.hstack([cols, cols[:, :1]]), np.hstack([coefs, np.zeros((5, 1))])
    tab.add_rows(cols, coefs, rhs)
    tab.dual()
    obj = float(coeff @ tab.point()) + const

    a_ub = np.zeros((0, len(coeff)))
    for c, a, _b in tab.rows:
        block = np.zeros((len(c), len(coeff)))
        np.add.at(block, (np.arange(len(c))[:, None], c), a)
        a_ub = np.vstack([a_ub, block])
    b_ub = np.concatenate([b for _c, _a, b in tab.rows])
    res = linprog(coeff, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    assert res.status == 0
    assert obj == pytest.approx(res.fun + const, abs=1e-9)
    assert obj == pytest.approx(cc.brute_force_opt(inst)[1], abs=1e-9)
    bound = _dual_bound(coeff, const, tab.rows, tab.multipliers())
    assert obj - GAP_TOL * max(1.0, abs(obj)) <= bound <= obj


# The LP's bits at four pinned instances, recorded on x86-64 with numpy's
# bundled OpenBLAS: sha256 of x.vec's bytes (first 16 hex digits), the
# objective and dual bound as float.hex, and the dual pivot count. A change
# to the tableau or its rows that moves any of them must say so.
LP_PINS = {
    "complete11": (lambda: cc.gen_complete_random(11, 0.5, 1000),
                   "c4f5247fe5807e7f", "0x1.a000000000000p+3", "0x1.a000000000000p+3", 31),
    "kpartite443": (lambda: cc.gen_kpartite_random([4, 4, 3], 0.5, 1000),
                    "4858d5e4c28fc998", "0x1.0800000000000p+3", "0x1.0800000000000p+3", 44),
    "weighted10": (lambda: cc.gen_weighted_random(10, 1000),
                   "2765c46fcd13afae", "0x1.e9db68973f524p+3", "0x1.e9db68973f524p+3", 23),
    "complete16": (lambda: cc.gen_complete_random(16, 0.5, 1000),
                   "a30dfb6218444aec", "0x1.9000000000000p+4", "0x1.9000000000000p+4", 71),
}


@pytest.mark.parametrize("name", sorted(LP_PINS))
def test_lp_outputs_are_pinned_bit_for_bit(name):
    make, digest, objective, dual_bound, iterations = LP_PINS[name]
    x, stats = cc.solve_relaxation(make())
    assert hashlib.sha256(x.vec.tobytes()).hexdigest()[:16] == digest
    assert (stats.objective.hex(), stats.dual_bound.hex()) == (objective, dual_bound)
    assert stats.iterations == iterations
