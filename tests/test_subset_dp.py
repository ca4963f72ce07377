"""The layered subset DP against a per-mask scalar reference.

The reference functions below fill the block-cost table one bit row at
a time and run the DP one mask at a time with a full choice table, the
plain reading of the recursion. The layered, values-only DP with its
path backtrack must reproduce them exactly: the same g bytes, the same
optimum to the last bit and the same argmin.
"""

import numpy as np
import pytest

import ccpivot as cc
from ccpivot import oracle

# -- scalar reference ----------------------------------------------------------


def ref_block_costs(inst):
    n = inst.n
    wp, wm = inst.pair_weights()
    delta = wm - wp
    base = float(np.triu(wp, 1).sum())
    size = 1 << n
    link = np.zeros((n, size), dtype=np.float64)  # link[v][m] = sum delta[v, j in m]
    idx = np.arange(size)
    for v in range(n):
        row = link[v]
        for j in range(n):
            if j == v:
                continue
            bit = 1 << j
            has = (idx & bit) != 0
            row[has] = row[idx[has] ^ bit] + delta[v, j]
    g = np.zeros(size, dtype=np.float64)
    for low in range(n - 1, -1, -1):
        bit = 1 << low
        rests = idx[: size >> (low + 1)] << (low + 1)
        g[rests + bit] = g[rests] + link[low][rests]
    return g, base


def ref_subset_dp(inst):
    n = inst.n
    size = 1 << n
    g, base = ref_block_costs(inst)
    counters = [
        ((np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k)) & 1)
        for k in range(n)
    ]
    opt = np.full(size, np.inf, dtype=np.float64)
    choice = np.zeros(size, dtype=np.int64)
    opt[0] = 0.0
    for mask in range(1, size):
        lowbit = mask & (-mask)
        rest = mask ^ lowbit
        bits = [1 << j for j in range(n) if (rest >> j) & 1]
        k = len(bits)
        subs = counters[k] @ np.asarray(bits, dtype=np.int64) if k else np.zeros(1, dtype=np.int64)
        vals = g[subs + lowbit] + opt[rest - subs]
        i = int(np.argmin(vals))
        opt[mask] = vals[i]
        choice[mask] = subs[i] + lowbit
    assignment = np.zeros(n, dtype=np.int64)
    mask = size - 1
    cid = 0
    while mask:
        block = int(choice[mask])
        for v in range(n):
            if (block >> v) & 1:
                assignment[v] = cid
        mask ^= block
        cid += 1
    return cc.Clustering(assignment), float(base + opt[size - 1])


# -- instances -----------------------------------------------------------------


def make(kind, n, seed):
    if kind == "complete":
        return cc.gen_complete_random(n, 0.5, seed)
    if kind == "kpartite":
        return cc.gen_kpartite_random([n // 3, n // 3, n - 2 * (n // 3)], 0.5, seed)
    if kind == "weighted":
        return cc.gen_weighted_random(n, seed)
    # blowup: n is (weighted vertices, copies per vertex)
    w_n, N = n
    return cc.weighted_to_unweighted(cc.gen_weighted_random(w_n, seed), N, seed + 1)[0]


CASES = (
    [("complete", n, 40 + n) for n in range(11, 16)]
    + [("kpartite", n, 50 + n) for n in range(11, 16)]
    + [("weighted", n, 60 + n) for n in range(11, 16)]
    + [("blowup", wn, 70 + i) for i, wn in enumerate([(3, 4), (2, 7), (7, 2), (3, 5)])]
)


def case_id(case):
    kind, n, seed = case
    size = n[0] * n[1] if kind == "blowup" else n
    return f"{kind}-{size}"


def assert_same(inst):
    c_ref, v_ref = ref_subset_dp(inst)
    c, v = oracle._brute_force_subset_dp(inst)
    assert v.hex() == v_ref.hex()
    assert np.array_equal(c.assignment, c_ref.assignment)


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("kind,n,seed", CASES, ids=[case_id(c) for c in CASES])
def test_layered_dp_matches_per_mask_reference(kind, n, seed):
    assert_same(make(kind, n, seed))


@pytest.mark.parametrize(
    "kind,n", [("complete", 2), ("weighted", 7), ("complete", 12), ("blowup", (3, 5))]
)
def test_block_costs_byte_equal(kind, n):
    inst = make(kind, n, 3)
    g, base = oracle._block_costs(inst)
    g_ref, base_ref = ref_block_costs(inst)
    assert g.tobytes() == g_ref.tobytes()
    assert base == base_ref


@pytest.mark.parametrize("chunk", [1, 6, 1 << 5])
@pytest.mark.parametrize("kind,n,seed", [("complete", 11, 1), ("blowup", (3, 4), 2),
                                         ("weighted", 12, 3)])
def test_tiny_chunks_give_the_same_results(kind, n, seed, chunk, monkeypatch):
    # many chunks per layer, a partial last chunk, and layers wider than a chunk
    monkeypatch.setattr(oracle, "_DP_CHUNK", chunk)
    assert_same(make(kind, n, seed))


def test_all_tied_instance_keeps_first_argmin():
    # every partition of an all-neutral instance costs 0; the first candidate
    # of each mask is its lowest vertex alone, so the argmin is all singletons
    inst = cc.gen_kpartite_random([11], 0.5, 1)
    c, v = oracle._brute_force_subset_dp(inst)
    assert v == 0.0
    assert c == cc.Clustering.singletons(11)
    assert_same(inst)
