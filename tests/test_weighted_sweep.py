"""The weighted certification sweep against per-row references.

`certify_weighted_ti` prices sorted length triples l0 <= l1 <= l2, one
per triangle: the tight family (a, b, a+b) with a <= b, then the sorted
metric triples of the breakpoints. It computes the eight per-coin surplus
arrays and the eight coin weights of every lam row once, and mixes them,
with the same mixture `weighted_surplus` uses, only on the tiles of
lengths that a lower bound does not rule out. The sorted reference below
builds the same lengths with Python loops and recomputes the whole coin
mixture for every lam row, as the sweep first did, and the untiled
reference is the block loop that mixed every entry; all must give the
same minimum to the last bit and the same witness, at any block size.
The all-orderings reference sweeps all three
tight families, (a, b, a+b), (a, a+b, b) and (a+b, a, b), over every pair,
and the ordered corner triples; the tests show that they add nothing,
because every ordering is a sorted triple relabeled (each edge keeps its
own lam_minus, and the lam grid is closed under permutation).
"""

import importlib
import itertools
import json
import math

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.certify import triple_sums, weighted_surplus

COINS = list(itertools.product(("+", "-"), repeat=3))
certify_mod = importlib.import_module("ccpivot.certify")  # cc.certify is the function


def reference_weighted_surplus(lam_minus, lengths, scheme, alpha):
    lm = [np.asarray(v, dtype=np.float64) for v in lam_minus]
    ls = [np.asarray(v, dtype=np.float64) for v in lengths]
    probs = {
        ("+", i): scheme.f_plus(ls[i]) for i in range(3)
    } | {
        ("-", i): scheme.f_minus(ls[i]) for i in range(3)
    }
    total = 0.0
    for combo in COINS:
        weight = 1.0
        for i, t in enumerate(combo):
            weight = weight * (lm[i] if t == "-" else (1.0 - lm[i]))
        p = [probs[(combo[i], i)] for i in range(3)]
        alg, lp = triple_sums(combo, ls, p)
        total = total + weight * (alpha * lp - alg)
    return total


def reference_lam_rows(lam_grid_step):
    g = np.linspace(0.0, 1.0, round(1.0 / lam_grid_step) + 1)
    out = []
    for l0 in g:
        for l1 in g:
            for l2 in g:
                if l0 <= l1 + l2 + 1e-12 and l1 <= l0 + l2 + 1e-12 and l2 <= l0 + l1 + 1e-12:
                    out.append((l0, l1, l2))
    return np.array(out, dtype=np.float64)


def breakpoints(scheme):
    return sorted(set(scheme.f_plus.breakpoints()) | set(scheme.f_minus.breakpoints()))


def sorted_lengths(scheme, length_grid_step):
    """The swept lengths: sorted tight triples, then sorted corner triples, as three columns."""
    g = np.linspace(0.0, 1.0, round(1.0 / length_grid_step) + 1)
    triples = [(a, b, a + b) for i, a in enumerate(g) for b in g[i:] if a + b <= 1.0 + 1e-12]
    pts = breakpoints(scheme)
    triples += [(a, b, c) for i, a in enumerate(pts) for j, b in enumerate(pts[i:], i)
                for c in pts[j:] if c <= a + b + 1e-12]
    return [np.array(v, dtype=np.float64) for v in zip(*triples)]


def reference_sweep(scheme, alpha, length_grid_step, lam_grid_step):
    ls = sorted_lengths(scheme, length_grid_step)
    best = (math.inf, None)
    for lam in reference_lam_rows(lam_grid_step):
        s = reference_weighted_surplus(lam, ls, scheme, alpha)
        i = int(np.argmin(s))
        if s[i] < best[0]:
            best = (
                float(s[i]),
                {
                    "lam_minus": [float(v) for v in lam],
                    "lengths": [float(ls[0][i]), float(ls[1][i]), float(ls[2][i])],
                },
            )
    return best


def assert_matches_reference(name, alpha, length_grid_step, lam_grid_step):
    scheme = cc.get_scheme(name)
    rep = cc.certify_weighted_ti(scheme, alpha, length_grid_step=length_grid_step,
                                 lam_grid_step=lam_grid_step)
    ref_min, ref_witness = reference_sweep(scheme, alpha, length_grid_step, lam_grid_step)
    got = rep.worst()
    assert got.min_surplus.hex() == ref_min.hex()
    assert got.witness == ref_witness
    assert_witness_reproduces(rep, scheme, alpha)
    return got.witness


def assert_witness_reproduces(rep, scheme, alpha):
    w = rep.worst().witness
    assert w["lengths"] == sorted(w["lengths"])
    own = float(weighted_surplus(w["lam_minus"], w["lengths"], scheme, alpha))
    assert own.hex() == rep.min_surplus.hex()


@pytest.mark.parametrize("name", ["weighted_ti_150", "weighted_ti_153"])
@pytest.mark.parametrize("alpha", [1.5, 1.53, 1.49, 1.2])
@pytest.mark.parametrize("length_grid_step, lam_grid_step",
                         [(0.1, 0.25), (0.1, 1.0 / 12.0), (0.2, 0.1)])
def test_sweep_matches_per_row_reference(name, alpha, length_grid_step, lam_grid_step):
    assert_matches_reference(name, alpha, length_grid_step, lam_grid_step)


def test_sweep_matches_per_row_reference_default_grid():
    assert_matches_reference("weighted_ti_153", 1.49, 0.01, 1.0 / 12.0)


def tight_pairs(length_grid_step):
    g = np.linspace(0.0, 1.0, round(1.0 / length_grid_step) + 1)
    return [(a, b) for a in g for b in g if a + b <= 1.0 + 1e-12]


def coin_term_scale(lam_minus, lengths, scheme, alpha):
    """The coin mixture of max(|alpha * LP|, |ALG|): the size of the terms the surplus sums."""
    lm = [np.asarray(v, dtype=np.float64) for v in lam_minus]
    total = 0.0
    for combo in COINS:
        weight = 1.0
        for i, t in enumerate(combo):
            weight = weight * (lm[i] if t == "-" else (1.0 - lm[i]))
        alg, lp = triple_sums(combo, lengths, [scheme.fn(t)(l) for t, l in zip(combo, lengths)])
        total = total + weight * np.maximum(np.abs(alpha * lp), np.abs(alg))
    return total


@pytest.mark.parametrize("name", ["weighted_ti_150", "weighted_ti_153"])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.53])
@pytest.mark.parametrize("length_grid_step, lam_grid_step", [(0.05, 1.0 / 12.0), (0.01, 0.25)])
def test_other_tight_families_are_relabelings(name, alpha, length_grid_step, lam_grid_step):
    # every ordering of (a, b, a+b), over every pair (so (b, a, a+b) with a > b too), is
    # the swept sorted triple with each edge keeping its own lam_minus; only the
    # summation order differs
    scheme = cc.get_scheme(name)
    a, b = (np.array(v) for v in zip(*tight_pairs(length_grid_step)))
    lam = reference_lam_rows(lam_grid_step).T[:, :, None]
    g = np.linspace(0.0, 1.0, round(1.0 / length_grid_step) + 1)
    swept = {tuple(t) for t in zip(*next(certify_mod._length_batches(g, False)))}
    for lengths in itertools.permutations((a, b, a + b)):
        L = np.array(lengths)
        order = np.argsort(L, axis=0, kind="stable")  # sorted position q holds edge order[q]
        S = np.take_along_axis(L, order, axis=0)
        assert {tuple(t) for t in S.T} == swept
        for perm in set(map(tuple, order.T)):
            at = np.all(order.T == perm, axis=1)
            got = weighted_surplus(lam, L[:, at], scheme, alpha)
            want = weighted_surplus([lam[q] for q in perm], S[:, at], scheme, alpha)
            scale = coin_term_scale(lam, L[:, at], scheme, alpha)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))


def reference_three_families(scheme, alpha, length_grid_step, lam_grid_step):
    """Per-row sweep over all three tight families and the corners, built here."""
    pairs = tight_pairs(length_grid_step)
    triples = ([(a, b, a + b) for a, b in pairs] + [(a, a + b, b) for a, b in pairs]
               + [(a + b, a, b) for a, b in pairs])
    triples += [t for t in itertools.product(breakpoints(scheme), repeat=3)
                if all(t[i] <= t[(i + 1) % 3] + t[(i + 2) % 3] + 1e-12 for i in range(3))]
    ls = [np.array(v, dtype=np.float64) for v in zip(*triples)]
    return min(float(np.min(reference_weighted_surplus(lam, ls, scheme, alpha)))
               for lam in reference_lam_rows(lam_grid_step))


@pytest.mark.parametrize("name", ["weighted_ti_150", "weighted_ti_153"])
@pytest.mark.parametrize("alpha", [1.2, 1.49, 1.5, 1.53])
@pytest.mark.parametrize("length_grid_step, lam_grid_step", [(0.1, 0.25), (0.2, 0.1)])
def test_one_family_matches_three_family_reference(name, alpha, length_grid_step, lam_grid_step):
    scheme = cc.get_scheme(name)
    rep = cc.certify_weighted_ti(scheme, alpha, length_grid_step=length_grid_step,
                                 lam_grid_step=lam_grid_step)
    ref = reference_three_families(scheme, alpha, length_grid_step, lam_grid_step)
    assert rep.passed == (ref >= -rep.tol)
    assert abs(rep.min_surplus - ref) <= 1e-15  # another ordering reorders the float sums
    assert_witness_reproduces(rep, scheme, alpha)


def test_one_family_matches_three_family_reference_default_grid():
    scheme = cc.get_scheme("weighted_ti_150")
    rep = cc.certify_weighted_ti(scheme, 1.5)
    ref = reference_three_families(scheme, 1.5, 0.01, 1.0 / 12.0)
    assert rep.passed and ref >= -rep.tol
    assert abs(rep.min_surplus - ref) <= 1e-15  # another ordering reorders the float sums
    assert_witness_reproduces(rep, scheme, 1.5)


def set_rows_per_block(monkeypatch, scheme, length_grid_step, rows):
    """Make each bound block hold `rows` lam rows (the last one fewer)."""
    n_tiles = -(-len(sorted_lengths(scheme, length_grid_step)[0]) // certify_mod._TILE)
    monkeypatch.setattr(certify_mod, "_MIX_BLOCK", rows * n_tiles + n_tiles - 1)


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("name, alpha, length_grid_step, lam_grid_step, witness_row", [
    ("weighted_ti_153", 1.49, 0.1, 1.0 / 12.0, 411),  # 1,105 rows: 1 left over in both
    ("weighted_ti_150", 1.2, 0.2, 1.0 / 12.0, 6),
    ("weighted_ti_150", 1.5, 0.1, 0.25, 25),  # 65 rows: 1 and 2 left over
    ("weighted_ti_150", 1.53, 0.1, 0.25, 0),  # minimum 0 on many rows: the first wins
])
def test_blocks_match_per_row_reference(monkeypatch, rows, name, alpha, length_grid_step,
                                        lam_grid_step, witness_row):
    scheme = cc.get_scheme(name)
    assert len(reference_lam_rows(lam_grid_step)) % rows != 0
    set_rows_per_block(monkeypatch, scheme, length_grid_step, rows)
    witness = assert_matches_reference(name, alpha, length_grid_step, lam_grid_step)
    lam_rows = [[float(v) for v in r] for r in reference_lam_rows(lam_grid_step)]
    assert lam_rows.index(witness["lam_minus"]) == witness_row


def untiled_sweep(scheme, alpha, length_grid_step, lam_grid_step):
    """(minimum, witness) of the sweep before tiles, which mixed every (lam row, length) entry.

    From `g = ...` on, this is that sweep's code verbatim, on the module's helpers,
    imported at call time so that a test's patched helper is the one it runs.
    """
    from ccpivot.certify import (_COIN_TYPES, _MIX_BLOCK, _coin_mixture, _coin_weights, _grid,
                                 _length_batches, _lowest, _metric_triples, _type_surpluses)

    g = _grid(lam_grid_step)
    lam_rows = np.array(_metric_triples(g, g, g), dtype=np.float64)
    pts = sorted(set(scheme.f_plus.breakpoints()) | set(scheme.f_minus.breakpoints()))
    ls = [np.concatenate(p) for p in zip(*_length_batches(_grid(length_grid_step), False),
                                         *_length_batches(pts, True))]
    surpluses = list(_type_surpluses(_COIN_TYPES, ls, scheme, alpha))
    weights = _coin_weights(lam_rows.T)[:, :, None]
    L = len(ls[0])
    rows = max(1, _MIX_BLOCK // L)
    out, tmp = np.empty((2, rows, L))
    best = (math.inf, None)
    for r0 in range(0, len(lam_rows), rows):
        block = lam_rows[r0:r0 + rows]
        mixed = _coin_mixture(weights[:, r0:r0 + rows], surpluses, out[:len(block)],
                              tmp[:len(block)])
        best = _lowest(best, mixed.ravel(), lambda i: {
            "lam_minus": [float(v) for v in block[i // L]],
            "lengths": [float(l[i % L]) for l in ls],
        })
    return best


@pytest.mark.parametrize("name", ["weighted_ti_150", "weighted_ti_153"])
@pytest.mark.parametrize("alpha", [1.2, 1.4, 1.49, 1.5, 1.53, 1.55, 1.6, 2.0])
@pytest.mark.parametrize("length_grid_step", [0.2, 0.1, 0.05, 0.01, 0.002])
def test_tiles_match_the_untiled_sweep(name, alpha, length_grid_step):
    # from alpha 1.53 on the minimum is 0, tied on every lam row at lengths (0, 0, 0):
    # the first in sweep order must win
    scheme = cc.get_scheme(name)
    for lam_grid_step in (1.0 / 12.0, 0.25, 0.1):
        rep = cc.certify_weighted_ti(scheme, alpha, length_grid_step=length_grid_step,
                                     lam_grid_step=lam_grid_step)
        want, witness = untiled_sweep(scheme, alpha, length_grid_step, lam_grid_step)
        assert rep.min_surplus.hex() == want.hex()
        assert rep.worst().witness == witness
        if length_grid_step == 0.01:  # the pruning must not fade away unnoticed
            assert rep.sweep["mixed_points"] < 0.05 * rep.sweep["surplus_points"]


def plant(monkeypatch, coin, j, value):
    """Make the sweep's surplus array of one coin outcome read value at length j."""
    surpluses = certify_mod._type_surpluses

    def planted(type_rows, lengths, scheme, alpha):
        for types, s in zip(type_rows, surpluses(type_rows, lengths, scheme, alpha)):
            if types == coin:
                s = s.copy()
                s[j] = value
            yield s

    monkeypatch.setattr(certify_mod, "_type_surpluses", planted)


N_LENGTHS = 43  # weighted_ti_150 at grid 0.1: tiles [0, 16), [16, 32) and the short [32, 43)


@pytest.mark.parametrize("rows", [2, 3, None])
@pytest.mark.parametrize("coin, value", [
    (("-", "+", "-"), math.nan),  # NaN on every lam row: the first is row 0
    # +inf times a zero weight is NaN; the weight of "+++" is zero first on row 4,
    # (0, 1, 1), in block 2 of 2 rows and block 1 of 3 (on rows 0-3 the mixture is +inf)
    (("+", "+", "+"), math.inf),
])
@pytest.mark.parametrize("j", [20, N_LENGTHS - 1])  # a middle tile, the short last tile
def test_nan_in_a_later_block_counts_as_minus_inf(monkeypatch, rows, coin, value, j):
    # the report reads -inf at the first NaN mixture in sweep order (row-major over
    # lam rows, then lengths), as the untiled sweep does, whatever the blocks
    scheme = cc.get_scheme("weighted_ti_150")
    lam_rows = reference_lam_rows(0.25)
    ls = sorted_lengths(scheme, 0.1)
    assert len(ls[0]) == N_LENGTHS
    first = 0 if math.isnan(value) else 4
    assert certify_mod._coin_weights(lam_rows[first])[COINS.index(coin)] == 0
    if rows is not None:
        set_rows_per_block(monkeypatch, scheme, 0.1, rows)
    plant(monkeypatch, coin, j, value)
    with np.errstate(invalid="ignore"):  # 0 * inf
        rep = cc.certify_weighted_ti(scheme, 1.5, length_grid_step=0.1, lam_grid_step=0.25)
        untiled = untiled_sweep(scheme, 1.5, 0.1, 0.25)
    worst = rep.worst()
    assert worst.min_surplus == -math.inf and not rep.passed
    assert worst.witness == {"lam_minus": [float(v) for v in lam_rows[first]],
                             "lengths": [float(l[j]) for l in ls]}
    assert untiled == (-math.inf, worst.witness)


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("plant_in_last_row", ["nan weight", "lowest surplus"])
@pytest.mark.parametrize("j", [20, N_LENGTHS - 1])
def test_the_short_last_row_block_is_swept(monkeypatch, rows, plant_in_last_row, j):
    # 65 lam rows on grid 0.25: the last bound block is row 64, (1, 1, 1), alone at 2 rows
    # and with row 63 at 3. Either a NaN coin weight on row 64 alone makes every mixture
    # of that row NaN, the first at length 0, or a surplus of "---" planted far below the
    # rest is weighted in full on row 64 alone, which holds the minimum at length j
    scheme = cc.get_scheme("weighted_ti_150")
    lam_rows = reference_lam_rows(0.25)
    last = len(lam_rows) - 1
    assert len(lam_rows) % rows != 0 and tuple(lam_rows[last]) == (1.0, 1.0, 1.0)
    set_rows_per_block(monkeypatch, scheme, 0.1, rows)
    if plant_in_last_row == "nan weight":
        weights = certify_mod._coin_weights

        def nan_on_last_row(lam_minus):
            w = weights(lam_minus)
            w[COINS.index(("+", "-", "+")), last] = math.nan
            return w

        monkeypatch.setattr(certify_mod, "_coin_weights", nan_on_last_row)
        low, at = (-math.inf, -math.inf), 0  # the first NaN reads -inf
    else:
        plant(monkeypatch, ("-", "-", "-"), j, -1e300)
        low, at = (-1.01e300, -0.99e300), j
    rep = cc.certify_weighted_ti(scheme, 1.5, length_grid_step=0.1, lam_grid_step=0.25)
    untiled = untiled_sweep(scheme, 1.5, 0.1, 0.25)
    witness = {"lam_minus": [1.0, 1.0, 1.0],
               "lengths": [float(l[at]) for l in sorted_lengths(scheme, 0.1)]}
    assert rep.worst().witness == witness and untiled[1] == witness
    assert rep.min_surplus.hex() == untiled[0].hex() and not rep.passed
    assert low[0] <= rep.min_surplus <= low[1]


@pytest.mark.parametrize("coin, value", [(("-", "+", "-"), math.nan), (("+", "+", "+"), math.inf)])
def test_a_non_finite_surplus_costs_only_its_tile(monkeypatch, coin, value):
    # the tile of a planted NaN or +inf is mixed on every lam row; the others are still
    # bounded, with a margin from the finite surpluses alone
    scheme = cc.get_scheme("weighted_ti_150")
    lam_rows = reference_lam_rows(1.0 / 12.0)
    zero = certify_mod._coin_weights(lam_rows.T)[COINS.index(coin)] == 0
    first = 0 if math.isnan(value) else int(np.flatnonzero(zero)[0])
    j = 1000
    plant(monkeypatch, coin, j, value)
    with np.errstate(invalid="ignore"):  # 0 * inf
        rep = cc.certify_weighted_ti(scheme, 1.5)
    assert rep.min_surplus == -math.inf
    assert rep.worst().witness == {
        "lam_minus": [float(v) for v in lam_rows[first]],
        "lengths": [float(l[j]) for l in sorted_lengths(scheme, 0.01)]}
    assert rep.sweep["mixed_points"] < 0.05 * rep.sweep["surplus_points"]


@pytest.mark.parametrize("rows", [2, 3, None])
@pytest.mark.parametrize("name, alpha", [("weighted_ti_150", 1.5), ("weighted_ti_153", 1.49)])
def test_block_mixture_is_weighted_surplus(monkeypatch, rows, name, alpha):
    # every (lam row, length) entry the sweep mixes is weighted_surplus to the last bit
    # (and the sign of zero); every entry it skips lies strictly above the minimum
    scheme = cc.get_scheme(name)
    lam_rows = reference_lam_rows(0.25)
    ls = sorted_lengths(scheme, 0.05)
    want = weighted_surplus(lam_rows.T[:, :, None], ls, scheme, alpha)
    assert want.shape == (len(lam_rows), len(ls[0]))
    row_of = {r: i for i, r in enumerate(map(tuple, lam_rows.tolist()))}
    cols_of = {}  # (0, 0, 0) and (0, 1, 1) are tight triples and corner triples both
    for j, t in enumerate(zip(*(l.tolist() for l in ls))):
        cols_of.setdefault(t, []).append(j)
    if rows is not None:
        set_rows_per_block(monkeypatch, scheme, 0.05, rows)
    blocks = []
    lowest = certify_mod._lowest

    def recorded(best, s, witness):
        blocks.append([(witness(i), s[i]) for i in range(len(s))])
        return lowest(best, s, witness)

    monkeypatch.setattr(certify_mod, "_lowest", recorded)
    rep = cc.certify_weighted_ti(scheme, alpha, length_grid_step=0.05, lam_grid_step=0.25)
    mixed, ids = np.zeros(want.shape, dtype=bool), []
    for block in blocks:
        seen = set()
        for w, v in block:
            r = row_of[tuple(w["lam_minus"])]
            seen.add(r)
            for j in cols_of[tuple(w["lengths"])]:
                assert v.tobytes() == want[r, j].tobytes()
                mixed[r, j] = True
        if rows is not None:
            ids.append({r // rows for r in seen})
    if rows is not None:  # one bound block per call, in order (a block may mix nothing)
        assert all(len(i) == 1 for i in ids)
        assert [min(i) for i in ids] == sorted({min(i) for i in ids})
    assert 0 < np.count_nonzero(mixed) < 0.5 * mixed.size
    assert np.all(want[~mixed] > rep.min_surplus)


def test_weighted_reports_are_strict_json(monkeypatch):
    # a weighted report has no corners (corner_min is inf) and a NaN sweep reads -inf;
    # both are written as null, which every JSON parser reads
    def strict(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))

    scheme = cc.get_scheme("weighted_ti_150")
    doc = strict(cc.certify_weighted_ti(scheme, 1.5, length_grid_step=0.05).to_json())
    assert doc["verdict"] == "PASS" and doc["types"][0]["corner_min"] is None
    assert doc["min_surplus"] == doc["types"][0]["min_surplus"] < 0
    plant(monkeypatch, COINS[3], 5, math.nan)
    doc = strict(cc.certify_weighted_ti(scheme, 1.5, length_grid_step=0.05).to_json())
    assert doc["verdict"] == "FAIL" and doc["min_surplus"] is None
    assert doc["types"][0]["min_surplus"] is None


def _integer_metric_triples(m):
    """Integer triples in [0, m]^3 satisfying the triangle inequality."""
    return sum(1 for a, b, c in itertools.product(range(m + 1), repeat=3)
               if a <= b + c and b <= a + c and c <= a + b)


@pytest.mark.parametrize("name", ["weighted_ti_150", "weighted_ti_153"])
@pytest.mark.parametrize("length_grid_step, lam_grid_step",
                         [(0.01, 1.0 / 12.0), (0.1, 0.25)])
def test_report_meta_counts_swept_points(name, length_grid_step, lam_grid_step):
    scheme = cc.get_scheme(name)
    rep = cc.certify_weighted_ti(scheme, 1.5, length_grid_step=length_grid_step,
                                 lam_grid_step=lam_grid_step)
    k = round(1 / length_grid_step)
    corners = sum(1 for a, b, c in itertools.combinations_with_replacement(breakpoints(scheme), 3)
                  if c <= a + b + 1e-12)  # sorted: the other two inequalities hold
    tight = (k + 2) ** 2 // 4  # pairs a <= b with a + b <= k
    expected = (tight + corners) * _integer_metric_triples(round(1 / lam_grid_step))
    meta = json.loads(rep.to_json())["meta"]
    assert meta["lam_grid_step"] == lam_grid_step
    assert meta["surplus_points"] == expected
    if name == "weighted_ti_150" and length_grid_step == 0.01:
        assert expected == 2_608 * 1_105
