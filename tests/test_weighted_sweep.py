"""The weighted certification sweep against the per-row reference.

`certify_weighted_ti` computes the eight per-coin surplus arrays once
and mixes them per lam row. The reference below recomputes the whole
coin mixture for every lam row, as the sweep first did; both must give
the same minimum to the last bit and the same witness.
"""

import itertools
import json
import math

import numpy as np
import pytest

import ccpivot as cc
from ccpivot.certify import _weighted_length_batches, triple_sums

COINS = list(itertools.product(("+", "-"), repeat=3))


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


def reference_sweep(scheme, alpha, length_grid_step, lam_grid_step):
    ls = _weighted_length_batches(scheme, length_grid_step)
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


@pytest.mark.parametrize("name", ["weighted_ti_150", "weighted_ti_153"])
@pytest.mark.parametrize("alpha", [1.5, 1.53, 1.49, 1.2])
@pytest.mark.parametrize("length_grid_step, lam_grid_step",
                         [(0.1, 0.25), (0.1, 1.0 / 12.0), (0.2, 0.1)])
def test_sweep_matches_per_row_reference(name, alpha, length_grid_step, lam_grid_step):
    assert_matches_reference(name, alpha, length_grid_step, lam_grid_step)


def test_sweep_matches_per_row_reference_default_grid():
    assert_matches_reference("weighted_ti_153", 1.49, 0.01, 1.0 / 12.0)


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
    pts = sorted(set(scheme.f_plus.breakpoints()) | set(scheme.f_minus.breakpoints()))
    corners = sum(1 for a, b, c in itertools.product(pts, repeat=3)
                  if a <= b + c + 1e-12 and b <= a + c + 1e-12 and c <= a + b + 1e-12)
    expected = (3 * (k + 1) * (k + 2) // 2 + corners) * _integer_metric_triples(round(1 / lam_grid_step))
    meta = json.loads(rep.to_json())["meta"]
    assert meta["lam_grid_step"] == lam_grid_step
    assert meta["surplus_points"] == expected
    if name == "weighted_ti_150" and length_grid_step == 0.01:
        assert expected == 15_468 * 1_105
