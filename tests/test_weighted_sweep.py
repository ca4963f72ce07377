"""The weighted certification sweep against per-row references.

`certify_weighted_ti` prices sorted length triples l0 <= l1 <= l2, one
per triangle: the tight family (a, b, a+b) with a <= b, then the sorted
metric triples of the breakpoints. It computes the eight per-coin surplus
arrays and the eight coin weights of every lam row once, and mixes them
over blocks of lam rows with the same mixture `weighted_surplus` uses.
The sorted reference below builds the same lengths with Python loops and
recomputes the whole coin mixture for every lam row, as the sweep first
did; both must give the same minimum to the last bit and the same
witness, at any block size. The all-orderings reference sweeps all three
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
    """Make each mixture block hold `rows` lam rows (the last one fewer)."""
    n_lengths = len(sorted_lengths(scheme, length_grid_step)[0])
    monkeypatch.setattr(certify_mod, "_MIX_BLOCK", rows * n_lengths + n_lengths - 1)


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


@pytest.mark.parametrize("rows", [2, 3, None])
@pytest.mark.parametrize("planted, first", [
    ({(7, 40), (10, 3)}, (7, 40)),  # row 7 is in block 3 (0-based) of 2 rows and block 2 of 3
    ({(64, 5)}, (64, 5)),  # the last of 65 rows, in the short last block
])
def test_nan_in_a_later_block_counts_as_minus_inf(monkeypatch, rows, planted, first):
    # NaN planted at (lam row, length) points; the first in sweep order
    # (row-major over lam rows, then lengths) is the witness, whatever the blocks
    scheme = cc.get_scheme("weighted_ti_150")
    if rows is not None:
        set_rows_per_block(monkeypatch, scheme, 0.1, rows)
    lam_rows = reference_lam_rows(0.25)
    weights = certify_mod._coin_weights(lam_rows.T)  # (8, lam rows); one column per row
    ls = sorted_lengths(scheme, 0.1)
    mixture = certify_mod._coin_mixture

    def with_nans(w, surpluses, out, tmp):  # w: a block's coin weights as (8, rows, 1)
        mixed = mixture(w, surpluses, out, tmp)
        for r, j in planted:
            mixed[np.all(w[:, :, 0].T == weights[:, r], axis=1), j] = math.nan
        return mixed

    monkeypatch.setattr(certify_mod, "_coin_mixture", with_nans)
    rep = cc.certify_weighted_ti(scheme, 1.5, length_grid_step=0.1, lam_grid_step=0.25)
    worst = rep.worst()
    assert worst.min_surplus == -math.inf and not rep.passed
    assert worst.witness == {"lam_minus": [float(v) for v in lam_rows[first[0]]],
                             "lengths": [float(l[first[1]]) for l in ls]}


@pytest.mark.parametrize("rows", [2, 3, None])
@pytest.mark.parametrize("name, alpha", [("weighted_ti_150", 1.5), ("weighted_ti_153", 1.49)])
def test_block_mixture_is_weighted_surplus(monkeypatch, rows, name, alpha):
    # every (lam row, length) entry the sweep mixes, to the last bit (and the sign of zero)
    scheme = cc.get_scheme(name)
    lam_rows = reference_lam_rows(0.25)
    ls = sorted_lengths(scheme, 0.1)
    want = weighted_surplus(lam_rows.T[:, :, None], ls, scheme, alpha)
    assert want.shape == (len(lam_rows), len(ls[0]))
    if rows is not None:
        set_rows_per_block(monkeypatch, scheme, 0.1, rows)
    blocks = []
    mixture = certify_mod._coin_mixture

    def recorded(w, surpluses, out, tmp):
        blocks.append(mixture(w, surpluses, out, tmp).copy())
        return out

    monkeypatch.setattr(certify_mod, "_coin_mixture", recorded)
    cc.certify_weighted_ti(scheme, alpha, length_grid_step=0.1, lam_grid_step=0.25)
    if rows is not None:
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) < rows
    assert np.concatenate(blocks).tobytes() == want.tobytes()


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
