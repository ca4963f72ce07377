"""The labeled certification sweep against per-assignment references.

`certify` prices every assignment of the class on batches of sorted
length triples l0 <= l1 <= l2, one per triangle: the tight family
(a, b, a+b) with a <= b, or the metric polytope's sorted triples in whole
l0 slabs joined up to `_MIX_BLOCK` points. It prices the corners of every
assignment in one batch, each assignment reading its own slice. Two
references sweep one assignment at a time:

- the sorted reference builds the same triples with Python loops, one l0
  slab at a time, and prices the corners one scalar `triple_costs` call at
  a time. The sweep must match it to the last bit in minima, witnesses
  (the first point in sweep order among ties, whatever the batches) and
  corner rows.
- the all-orderings reference sweeps both tight families, (x,y,x+y) and
  (x,x+z,z), over every grid pair, or the ordered full grid. Its per-type
  minima must equal the sweep's to the last bit on the tight family, and
  within 4.5e-16 on the full grid, where a relabeling reorders a float
  sum. Every sweep witness is sorted and reproduces its minimum through
  `triple_costs`.

So the other orderings add nothing: every one is a sorted triple
relabeled, and every relabeling of the types is swept.
"""

import importlib
import itertools
import json
import math

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.certify import admissible_types, corner_sets, triple_costs, triple_sums
from ccpivot.rounding import Piece, PiecewiseFn, RoundingScheme

certify_mod = importlib.import_module("ccpivot.certify")  # cc.certify is the function
S206 = cc.get_scheme("complete206")
DECREASING_NEUTRAL = RoundingScheme(
    "complete206_decreasing_neutral",
    S206.f_plus,
    S206.f_minus,
    PiecewiseFn([Piece(0.0, 1.0, "linear", (1.0, -1.0))]),
)


def grid(step):
    return np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)


def surplus_on_lengths(types, L0, L1, L2, scheme, alpha):
    probs = [scheme.fn(t)(L) for t, L in zip(types, (L0, L1, L2))]
    alg, lp = triple_sums(types, (L0, L1, L2), probs)
    return alpha * lp - alg


def sweep_argmin(best, types, family, lengths, scheme, alpha):
    """best, or the first lowest point of this batch if strictly below it."""
    s = surplus_on_lengths(types, *lengths, scheme, alpha)
    i = int(np.argmin(s))
    if s[i] < best[0]:
        return float(s[i]), {"types": "".join(types), "family": family,
                             "lengths": [float(v[i]) for v in lengths]}
    return best


def columns(triples):
    return [np.array(v, dtype=np.float64) for v in zip(*triples)]


def sorted_tight_triples(step):
    g = grid(step)
    return [(a, b, a + b) for i, a in enumerate(g) for b in g[i:] if a + b <= 1.0 + 1e-12]


def sorted_slabs(step):
    """The sorted metric triples of the grid, one l0 slab at a time."""
    g = grid(step)
    return [[(l0, b, c) for j, b in enumerate(g[i:], i) for c in g[j:] if c <= l0 + b + 1e-12]
            for i, l0 in enumerate(g)]


def reference_sorted_tight(types, scheme, alpha, step):
    return sweep_argmin((math.inf, None), types, "(x,y,x+y)",
                        columns(sorted_tight_triples(step)), scheme, alpha)


def reference_sorted_full_grid(types, scheme, alpha, step):
    best = (math.inf, None)
    for slab in sorted_slabs(step):
        best = sweep_argmin(best, types, "full-grid", columns(slab), scheme, alpha)
    return best


def reference_tight_families(types, scheme, alpha, step):
    g = grid(step)
    A, B = np.meshgrid(g, g, indexing="ij")
    mask = A + B <= 1.0 + 1e-12
    a, b = A[mask], B[mask]
    best = (math.inf, None)
    for fam, lengths in (("(x,y,x+y)", (a, b, a + b)), ("(x,x+z,z)", (a, a + b, b))):
        best = sweep_argmin(best, types, fam, lengths, scheme, alpha)
    return best


def reference_full_grid(types, scheme, alpha, step):
    g = grid(step)
    best = (math.inf, None)
    for l0 in g:
        B, C = np.meshgrid(g, g, indexing="ij")
        ok = (l0 <= B + C + 1e-12) & (B <= l0 + C + 1e-12) & (C <= l0 + B + 1e-12)
        b, c = B[ok], C[ok]
        best = sweep_argmin(best, types, "full-grid", (np.full_like(b, l0), b, c), scheme, alpha)
    return best


def reference_corners(types, scheme, alpha, corners):
    results = []
    best = (math.inf, None)
    for lengths in itertools.product(*(corners[t] for t in types)):
        if any(lengths[i] > lengths[(i + 1) % 3] + lengths[(i + 2) % 3] + 1e-12
               for i in range(3)):
            continue
        l = list(lengths)
        tc = triple_costs(types, l, scheme, alpha)
        results.append({"types": "".join(types), "lengths": l, "surplus": tc.surplus})
        if tc.surplus < best[0]:
            best = (tc.surplus, {"types": "".join(types), "family": "corner", "lengths": l})
    return best, results


def reference_certify(scheme, alpha, graph_class, sweep):
    """(label, min_surplus, witness, corner_min, corner_results) per canonical type."""
    corners = corner_sets(scheme)
    out = []
    for canonical in admissible_types(graph_class):
        best = corner_best = (math.inf, None)
        rows = []
        for types in sorted(set(itertools.permutations(canonical))):
            cand = sweep(types, scheme, alpha)
            if cand[0] < best[0]:
                best = cand
            cb, r = reference_corners(types, scheme, alpha, corners)
            rows.extend(r)
            if cb[0] < corner_best[0]:
                corner_best = cb
        witness = best[1] if best[0] <= corner_best[0] else corner_best[1]
        out.append(("".join(canonical), best[0], witness, corner_best[0], rows))
    return out


def assert_matches_references(scheme, alpha, graph_class, step, full_grid):
    rep = cc.certify(scheme, alpha, graph_class, grid_step=step)
    assert rep.used_full_grid == full_grid
    sweep = reference_sorted_full_grid if full_grid else reference_sorted_tight
    ref = reference_certify(scheme, alpha, graph_class,
                            lambda t, s, a: sweep(t, s, a, step))
    assert len(rep.results) == len(ref)
    for got, (label, min_surplus, witness, corner_min, rows) in zip(rep.results, ref):
        assert got.label == label
        assert got.min_surplus.hex() == min_surplus.hex()
        assert got.witness == witness
        assert got.corner_min.hex() == corner_min.hex()
        assert got.corner_results == rows
    sweep = reference_full_grid if full_grid else reference_tight_families
    ref = reference_certify(scheme, alpha, graph_class,
                            lambda t, s, a: sweep(t, s, a, step))
    for got, (_label, min_surplus, _witness, _corner_min, _rows) in zip(rep.results, ref):
        if full_grid:
            assert abs(got.min_surplus - min_surplus) <= 4.5e-16
        else:
            assert got.min_surplus.hex() == min_surplus.hex()
        w = got.witness
        assert w["family"] == "corner" or w["lengths"] == sorted(w["lengths"])
        own = triple_costs(tuple(w["types"]), w["lengths"], scheme, alpha).surplus
        assert own.hex() == got.passed_at.hex()


@pytest.mark.parametrize("name, graph_class, alpha", [
    ("complete206", "complete", 2.06),
    ("complete206", "complete", 2.0),
    ("kpartite3", "kpartite", 3.0),
    ("kpartite3", "kpartite", 2.5),
    ("acn_linear", "complete", 3.0),
    ("acn_linear", "complete", 2.5),
])
@pytest.mark.parametrize("step", [0.05, 0.1])
def test_tight_sweep_matches_reference(name, graph_class, alpha, step):
    assert_matches_references(cc.get_scheme(name), alpha, graph_class, step, full_grid=False)


@pytest.mark.parametrize("graph_class, alpha", [
    ("complete", 2.06), ("complete", 2.0), ("kpartite", 3.0),
])
def test_full_grid_matches_reference(graph_class, alpha):
    assert_matches_references(DECREASING_NEUTRAL, alpha, graph_class, 0.1, full_grid=True)


def full_grid_batches(step):
    return list(certify_mod._length_batches(certify_mod._grid(step), True))


def batch_minima(scheme, alpha, graph_class, step):
    """Per assignment, the batches whose lowest surplus is the assignment's minimum."""
    rows = [t for c in admissible_types(graph_class) for t in set(itertools.permutations(c))]
    lows = {t: [] for t in rows}
    for lengths in full_grid_batches(step):
        for t in rows:
            lows[t].append(float(np.min(surplus_on_lengths(t, *lengths, scheme, alpha))))
    return {t: [k for k, v in enumerate(low) if v == min(low)] for t, low in lows.items()}


@pytest.mark.parametrize("graph_class, alpha", [
    ("complete", 2.06), ("complete", 2.0), ("kpartite", 3.0),
])
def test_full_grid_matches_reference_over_batches(graph_class, alpha):
    # the benchmark's grid: two batches, and minima tied across them
    assert len(full_grid_batches(0.02)) == 2
    assert any(len(k) > 1 for k in batch_minima(DECREASING_NEUTRAL, alpha, graph_class,
                                                0.02).values())
    assert_matches_references(DECREASING_NEUTRAL, alpha, graph_class, 0.02, full_grid=True)


def test_full_grid_batches_are_the_sorted_slabs():
    # slab by slab, in the same order, whatever the batches
    want = [t for slab in sorted_slabs(0.05) for t in slab]
    got = [t for b in full_grid_batches(0.05) for t in zip(*b)]
    assert np.array(got).tobytes() == np.array(want).tobytes()


# At step 0.1 the sorted l0 slabs hold 11, 19, 24, 26, 25, 21, 15, 10, 6, 3, 1 points.
@pytest.mark.parametrize("block, slabs_per_batch", [
    (30, [2, 2, 2, 3, 2]),  # the last batch, 4 points, is short
    (45, [3, 2, 3, 3]),  # the last batch, 10 points, is short
])
@pytest.mark.parametrize("graph_class, alpha", [
    ("complete", 2.06), ("complete", 2.0), ("kpartite", 3.0),
])
def test_full_grid_batches_of_whole_slabs(monkeypatch, block, slabs_per_batch, graph_class,
                                          alpha):
    monkeypatch.setattr(certify_mod, "_MIX_BLOCK", block)
    batches = full_grid_batches(0.1)
    assert [len(set(b[0])) for b in batches] == slabs_per_batch
    assert all(len(b[0]) >= block for b in batches[:-1])
    assert 0 < len(batches[-1][0]) < block
    assert_matches_references(DECREASING_NEUTRAL, alpha, graph_class, 0.1, full_grid=True)


@pytest.mark.parametrize("graph_class", ["complete", "kpartite"])
def test_nan_in_a_later_full_grid_batch_counts_as_minus_inf(monkeypatch, graph_class):
    # two NaNs, in the fourth batch of 30 points (slab 6) and in the short fifth (slab 9);
    # the first in sweep order is the witness, and the corners (priced by the same
    # kernel) miss both
    monkeypatch.setattr(certify_mod, "_MIX_BLOCK", 30)
    g = grid(0.1)
    planted_types = ("+", "-", "-")
    planted = [(g[6], g[7], g[9]), (g[9], g[9], g[10])]
    surpluses = certify_mod._type_surpluses

    def with_nans(type_rows, lengths, scheme, alpha):
        for types, s in zip(type_rows, surpluses(type_rows, lengths, scheme, alpha)):
            if types == planted_types:
                for p in planted:
                    s[np.all([l == v for l, v in zip(lengths, p)], axis=0)] = math.nan
            yield s

    monkeypatch.setattr(certify_mod, "_type_surpluses", with_nans)
    rep = cc.certify(DECREASING_NEUTRAL, 3.0, graph_class, grid_step=0.1)
    assert rep.used_full_grid and not rep.passed
    worst = rep.worst()
    assert worst.label == "+--" and worst.min_surplus == -math.inf
    assert worst.witness == {"types": "+--", "family": "full-grid",
                             "lengths": [float(v) for v in planted[0]]}
    assert math.isfinite(worst.corner_min)


def assert_sorted_relabelings(lengths, type_rows, scheme, alpha):
    """Each point, under each type row, equals its sorted triple with the types carried along.

    Only the summation order differs, so the two agree to a few ulp of the
    terms summed.
    """
    L = np.array(lengths, dtype=np.float64)
    order = np.argsort(L, axis=0, kind="stable")  # sorted position q holds edge order[q]
    S = np.take_along_axis(L, order, axis=0)
    for perm in set(map(tuple, order.T)):
        at = np.all(order.T == perm, axis=1)
        for types in type_rows:
            probs = [scheme.fn(t)(l) for t, l in zip(types, L[:, at])]
            alg, lp = triple_sums(types, L[:, at], probs)
            want = surplus_on_lengths(tuple(types[q] for q in perm), *S[:, at], scheme, alpha)
            ulp = np.spacing(np.maximum(np.abs(alpha * lp), np.abs(alg)))
            assert np.all(np.abs(alpha * lp - alg - want) <= 4 * ulp)
    return {tuple(t) for t in S.T}


@pytest.mark.parametrize("name, graph_class, alpha", [
    ("complete206", "complete", 2.06),
    ("acn_linear", "complete", 2.5),
    ("kpartite3", "kpartite", 3.0),
])
def test_every_tight_ordering_is_the_sorted_one_relabeled(name, graph_class, alpha):
    # (b, a, a+b) with a > b, and (a, a+b, b) and (a+b, a, b) for every pair, are the
    # swept (a, b, a+b) with a <= b relabeled
    scheme = cc.get_scheme(name)
    g = grid(0.01)
    A, B = np.meshgrid(g, g, indexing="ij")
    mask = A + B <= 1.0 + 1e-12
    a, b = A[mask], B[mask]
    rows = [t for c in admissible_types(graph_class) for t in set(itertools.permutations(c))]
    swept = {tuple(t) for t in zip(*next(certify_mod._length_batches(g, False)))}
    for lengths in itertools.permutations((a, b, a + b)):
        assert assert_sorted_relabelings(lengths, rows, scheme, alpha) == swept


@pytest.mark.parametrize("graph_class, alpha", [("complete", 2.06), ("kpartite", 3.0)])
def test_every_ordered_full_grid_triple_is_a_sorted_one_relabeled(graph_class, alpha):
    g = grid(0.05)
    ordered = [t for t in itertools.product(g, repeat=3)
               if all(t[i] <= t[(i + 1) % 3] + t[(i + 2) % 3] + 1e-12 for i in range(3))]
    rows = [t for c in admissible_types(graph_class) for t in set(itertools.permutations(c))]
    swept = {t for b in full_grid_batches(0.05) for t in zip(*b)}
    assert assert_sorted_relabelings(list(zip(*ordered)), rows, DECREASING_NEUTRAL,
                                     alpha) == swept


def metric_count(triples):
    return sum(1 for t in triples
               if all(t[i] <= t[(i + 1) % 3] + t[(i + 2) % 3] + 1e-12 for i in range(3)))


@pytest.mark.parametrize("scheme, graph_class, alpha, step, full_grid", [
    (S206, "complete", 2.06, 0.005, False),
    (cc.get_scheme("kpartite3"), "kpartite", 3.0, 0.05, False),
    (DECREASING_NEUTRAL, "complete", 2.06, 0.1, True),
    (DECREASING_NEUTRAL, "kpartite", 3.0, 0.1, True),
])
def test_report_meta_counts_swept_points(scheme, graph_class, alpha, step, full_grid):
    # every assignment is priced on each sorted grid triple, then on its own corners
    rep = cc.certify(scheme, alpha, graph_class, grid_step=step)
    assert rep.used_full_grid == full_grid
    k = round(1 / step)
    assignments = [types for c in admissible_types(graph_class)
                   for types in set(itertools.permutations(c))]
    grid_points = (metric_count(itertools.combinations_with_replacement(range(k + 1), 3))
                   if full_grid else (k + 2) ** 2 // 4)  # pairs a <= b with a + b <= k
    corners = corner_sets(scheme)
    corner_points = sum(metric_count(itertools.product(*(corners[t] for t in types)))
                        for types in assignments)
    meta = json.loads(rep.to_json())["meta"]
    assert meta["surplus_points"] == len(assignments) * grid_points + corner_points
    if scheme is S206 and step == 0.005:
        assert meta["surplus_points"] == 8 * 101 * 101 + 87 == 81_695
