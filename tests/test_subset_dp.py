"""The pruned push DP over subsets against a per-mask scalar reference.

The reference functions below fill the block-cost table one bit row at
a time and run the DP one mask at a time with a full choice table, the
plain reading of the recursion. The push DP, which pushes only from
blocks that beat every partition of themselves and only from vertex 1
up, its top pull for the whole vertex set and its path backtrack must
reproduce them exactly: the same g bytes, the same optimum to the last
bit and the same argmin.
"""

import itertools
import logging
import re

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


def test_every_complete_labeling_up_to_five_vertices():
    # all 2^(n (n - 1) / 2) labelings, 1,024 at n = 5: every top pull the DP can face there
    for n in range(1, 6):
        upper = np.triu_indices(n, 1)
        for signs in itertools.product((1, -1), repeat=len(upper[0])):
            labels = np.zeros((n, n), dtype=np.int8)
            labels[upper] = signs
            assert_same(cc.Instance.complete(labels + labels.T))


@pytest.mark.parametrize("n", range(1, 7))
def test_small_weighted_instances(n):
    for seed in range(1, 21):
        assert_same(make("weighted", n, seed))


def test_all_tied_instance_keeps_first_argmin():
    # every partition of an all-neutral instance costs 0; the first candidate
    # of each mask is its lowest vertex alone, so the argmin is all singletons
    inst = cc.gen_kpartite_random([11], 0.5, 1)
    c, v = oracle._brute_force_subset_dp(inst)
    assert v == 0.0
    assert c == cc.Clustering.singletons(11)
    assert_same(inst)


# -- pruning and its DEBUG line ------------------------------------------------

DP_LINE = re.compile(r"subset DP n=(\d+): (\d+) blocks kept, (\d+) of (\d+) candidates pushed, "
                     r"(\d+) pulled, (\d+\.\d{3}) s")


def dp_counts(inst, caplog):
    """(n, kept, pushed, candidates, pulled, seconds) from the one line of a brute_force_opt call."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ccpivot.oracle"):
        cc.brute_force_opt(inst)
    lines = [r.getMessage() for r in caplog.records if r.name == "ccpivot.oracle"]
    assert len(lines) == 1
    match = DP_LINE.fullmatch(lines[0])
    assert match, lines[0]
    *counts, seconds = match.groups()
    return (*map(int, counts), float(seconds))


def test_dp_logs_one_line_per_call(caplog):
    n = 12
    got_n, kept, pushed, total, pulled, seconds = dp_counts(make("weighted", n, 5), caplog)
    assert got_n == n
    assert total == (3**n - 1) // 2
    # vertices 1 to n - 1 push, vertex 0's 2^(n - 1) blocks are pulled into V
    assert 1 <= kept <= 2 ** (n - 1) - 1
    assert kept <= pushed <= (3 ** (n - 1) - 1) // 2
    assert pulled == 2 ** (n - 1)
    assert seconds >= 0.0


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_tie_heavy_weighted_instances(k, chunk, monkeypatch):
    # 1/3 and 2/3 weights tie many partitions at sums that are not exact in
    # float; a chunk of 1 tests every block instead of pushing small lows whole
    if chunk is not None:
        monkeypatch.setattr(oracle, "_DP_CHUNK", chunk)
    assert_same(cc.gen_gap_triangle_ineq(k))


@pytest.mark.parametrize("chunk", [None, 1])
def test_all_plus_prunes_nothing_and_all_minus_keeps_singletons(chunk, caplog, monkeypatch):
    n = 12
    if chunk is not None:
        monkeypatch.setattr(oracle, "_DP_CHUNK", chunk)
    plus, minus = cc.gen_complete_random(n, 1.0, 1), cc.gen_complete_random(n, 0.0, 1)
    assert_same(plus)
    assert_same(minus)
    # every block beats its partitions when all pairs are "+": vertices 1 to n - 1
    # push all their candidates, and the top pull reads all of vertex 0's blocks
    assert dp_counts(plus, caplog)[2:5] == ((3 ** (n - 1) - 1) // 2, (3**n - 1) // 2, 2 ** (n - 1))
    if chunk == 1:
        # every lowest vertex from 1 up is tested, and only its singleton beats its partitions
        assert dp_counts(minus, caplog)[1:3] == (n - 1, 2 ** (n - 1) - 1)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_single_vertex(n):
    inst = cc.Instance.complete(np.zeros((n, n))) if n == 0 else make("weighted", n, 1)
    c, v = oracle._brute_force_subset_dp(inst)
    assert v == 0.0
    assert c == cc.Clustering.singletons(n)
    assert_same(inst)


def test_blowup_pushes_under_half_of_its_candidates(caplog):
    n, _kept, pushed, total, _pulled, _s = dp_counts(make("blowup", (3, 5), 73), caplog)
    assert n == 15
    assert pushed < total // 2
