"""The labeled certification sweep against a per-assignment reference.

`certify` prices every assignment of the class on one length batch (the
tight family (x,y,x+y), or whole full-grid l0 slabs joined up to
`_MIX_BLOCK` points) and the corners of every assignment in one batch,
each assignment reading its own slice. The reference below sweeps one
assignment and both tight families, (x,y,x+y) then (x,x+z,z), one at a
time, the full grid one l0 slab at a time, and prices the corners one
scalar `triple_costs` call at a time, as the sweep first did; both must
give the same minima to the last bit, the same witnesses (the first
point in sweep order among ties, whatever the batches) and the same
corner rows, so the second family adds nothing.
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


def reference_tight_families(types, scheme, alpha, step):
    g = grid(step)
    A, B = np.meshgrid(g, g, indexing="ij")
    mask = A + B <= 1.0 + 1e-12
    a, b = A[mask], B[mask]
    best = (math.inf, None)
    for fam, lengths in (("(x,y,x+y)", (a, b, a + b)), ("(x,x+z,z)", (a, a + b, b))):
        s = surplus_on_lengths(types, *lengths, scheme, alpha)
        i = int(np.argmin(s))
        if s[i] < best[0]:
            best = (float(s[i]), {"types": "".join(types), "family": fam,
                                  "lengths": [float(v[i]) for v in lengths]})
    return best


def reference_full_grid(types, scheme, alpha, step):
    g = grid(step)
    best = (math.inf, None)
    for l0 in g:
        B, C = np.meshgrid(g, g, indexing="ij")
        ok = (l0 <= B + C + 1e-12) & (B <= l0 + C + 1e-12) & (C <= l0 + B + 1e-12)
        b, c = B[ok], C[ok]
        s = surplus_on_lengths(types, np.full_like(b, l0), b, c, scheme, alpha)
        i = int(np.argmin(s))
        if s[i] < best[0]:
            best = (float(s[i]), {"types": "".join(types), "family": "full-grid",
                                  "lengths": [float(l0), float(b[i]), float(c[i])]})
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


def reference_certify(scheme, alpha, graph_class, step, full_grid):
    """(label, min_surplus, witness, corner_min, corner_results) per canonical type."""
    corners = corner_sets(scheme)
    out = []
    for canonical in admissible_types(graph_class):
        best = corner_best = (math.inf, None)
        rows = []
        for types in sorted(set(itertools.permutations(canonical))):
            sweep = reference_full_grid if full_grid else reference_tight_families
            cand = sweep(types, scheme, alpha, step)
            if cand[0] < best[0]:
                best = cand
            cb, r = reference_corners(types, scheme, alpha, corners)
            rows.extend(r)
            if cb[0] < corner_best[0]:
                corner_best = cb
        witness = best[1] if best[0] <= corner_best[0] else corner_best[1]
        out.append(("".join(canonical), best[0], witness, corner_best[0], rows))
    return out


def assert_matches_reference(scheme, alpha, graph_class, step, full_grid):
    rep = cc.certify(scheme, alpha, graph_class, grid_step=step)
    assert rep.used_full_grid == full_grid
    ref = reference_certify(scheme, alpha, graph_class, step, full_grid)
    assert len(rep.results) == len(ref)
    for got, (label, min_surplus, witness, corner_min, rows) in zip(rep.results, ref):
        assert got.label == label
        assert got.min_surplus.hex() == min_surplus.hex()
        assert got.witness == witness
        assert got.corner_min.hex() == corner_min.hex()
        assert got.corner_results == rows


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
    assert_matches_reference(cc.get_scheme(name), alpha, graph_class, step, full_grid=False)


@pytest.mark.parametrize("graph_class, alpha", [
    ("complete", 2.06), ("complete", 2.0), ("kpartite", 3.0),
])
def test_full_grid_matches_reference(graph_class, alpha):
    assert_matches_reference(DECREASING_NEUTRAL, alpha, graph_class, 0.1, full_grid=True)


def batch_minima(scheme, alpha, graph_class, step):
    """Per assignment, the batches whose lowest surplus is the assignment's minimum."""
    rows = [t for c in admissible_types(graph_class) for t in set(itertools.permutations(c))]
    lows = {t: [] for t in rows}
    for _family, lengths in certify_mod._labeled_batches(True, step):
        for t in rows:
            lows[t].append(float(np.min(surplus_on_lengths(t, *lengths, scheme, alpha))))
    return {t: [k for k, v in enumerate(low) if v == min(low)] for t, low in lows.items()}


@pytest.mark.parametrize("graph_class, alpha", [
    ("complete", 2.06), ("complete", 2.0), ("kpartite", 3.0),
])
def test_full_grid_matches_reference_over_batches(graph_class, alpha):
    # the benchmark's grid: several batches, and minima tied across them
    assert 4 <= len(list(certify_mod._labeled_batches(True, 0.02))) <= 5
    assert any(len(k) > 1 for k in batch_minima(DECREASING_NEUTRAL, alpha, graph_class,
                                                0.02).values())
    assert_matches_reference(DECREASING_NEUTRAL, alpha, graph_class, 0.02, full_grid=True)


# At step 0.1 the l0 slabs hold 11, 30, 46, 59, 69, 76, 80, 81, 79, 74, 66 points.
# No one batch size gives batches of 2-3 slabs ending in a short one, so two do.
@pytest.mark.parametrize("block, slabs_per_batch", [
    (87, [3, 2, 2, 2, 2]),
    (141, [4, 2, 2, 2, 1]),  # the last batch, 66 points, is short
])
@pytest.mark.parametrize("graph_class, alpha", [
    ("complete", 2.06), ("complete", 2.0), ("kpartite", 3.0),
])
def test_full_grid_batches_of_whole_slabs(monkeypatch, block, slabs_per_batch, graph_class,
                                          alpha):
    monkeypatch.setattr(certify_mod, "_MIX_BLOCK", block)
    batches = [lengths for _f, lengths in certify_mod._labeled_batches(True, 0.1)]
    assert [len(set(b[0])) for b in batches] == slabs_per_batch
    assert all(len(b[0]) >= block for b in batches[:-1])
    assert_matches_reference(DECREASING_NEUTRAL, alpha, graph_class, 0.1, full_grid=True)


@pytest.mark.parametrize("graph_class", ["complete", "kpartite"])
def test_nan_in_a_later_full_grid_batch_counts_as_minus_inf(monkeypatch, graph_class):
    # two NaNs, in the fourth batch of 141 points and in the short fifth; the first in
    # sweep order is the witness, and the corners (priced by the same kernel) miss both
    monkeypatch.setattr(certify_mod, "_MIX_BLOCK", 141)
    g = grid(0.1)
    planted_types = ("+", "-", "-")
    planted = [(g[8], g[3], g[6]), (g[10], g[4], g[7])]
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


@pytest.mark.parametrize("name, graph_class, alpha", [
    ("complete206", "complete", 2.06),
    ("acn_linear", "complete", 2.5),
    ("kpartite3", "kpartite", 3.0),
])
def test_second_tight_family_is_the_first_relabeled(name, graph_class, alpha):
    # (a, a+b, b) is (a, b, a+b) with edges 1 and 2 swapped; only the summation order differs
    scheme = cc.get_scheme(name)
    g = grid(0.01)
    A, B = np.meshgrid(g, g, indexing="ij")
    mask = A + B <= 1.0 + 1e-12
    a, b = A[mask], B[mask]
    for canonical in admissible_types(graph_class):
        for types in set(itertools.permutations(canonical)):
            probs = [scheme.fn(t)(L) for t, L in zip(types, (a, a + b, b))]
            alg, lp = triple_sums(types, (a, a + b, b), probs)
            swapped = (types[0], types[2], types[1])
            want = surplus_on_lengths(swapped, a, b, a + b, scheme, alpha)
            ulp = np.spacing(np.maximum(np.abs(alpha * lp), np.abs(alg)))  # of the terms summed
            assert np.all(np.abs(alpha * lp - alg - want) <= 4 * ulp)


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
    # every assignment is priced on each grid point, then on its own corners
    rep = cc.certify(scheme, alpha, graph_class, grid_step=step)
    assert rep.used_full_grid == full_grid
    k = round(1 / step)
    assignments = [types for c in admissible_types(graph_class)
                   for types in set(itertools.permutations(c))]
    grid_points = (metric_count(itertools.product(range(k + 1), repeat=3)) if full_grid
                   else (k + 1) * (k + 2) // 2)  # one tight family of (k+1)(k+2)/2 pairs
    corners = corner_sets(scheme)
    corner_points = sum(metric_count(itertools.product(*(corners[t] for t in types)))
                        for types in assignments)
    meta = json.loads(rep.to_json())["meta"]
    assert meta["surplus_points"] == len(assignments) * grid_points + corner_points
    if scheme is S206 and step == 0.005:
        assert meta["surplus_points"] == 8 * 201 * 202 // 2 + 87 == 162_495
