"""Block-drawn rounding and generators against a scalar reference.

The reference functions below draw one word at a time with next_u64,
uniform and randint, the plain reading of the stream-consumption
contract in the README. Each public path must reproduce them exactly:
same pivots, same clusters, same instances, same Monte-Carlo statistics
to the last bit.
"""

import math

import numpy as np
import pytest

import ccpivot as cc
from ccpivot import rounding
from ccpivot.instance import COMPLETE, KPARTITE, WEIGHTED, clustering_cost, pair_iter
from ccpivot.rng import SplitMix64
from test_rng import _MASK, _seed_with_first_word

_GAMMA = 0x9E3779B97F4A7C15

SEEDS = range(24)

# -- scalar reference ----------------------------------------------------------


def ref_pivot_loop(p, rng):
    n = p.shape[0]
    active = list(range(n))
    assignment = np.full(n, -1, dtype=np.int64)
    steps = []
    cid = 0
    while active:
        w = active[rng.randint(len(active))]
        cluster = []
        survivors = []
        for u in active:  # ascending id: one coin per active vertex
            if rng.uniform() < 1.0 - p[u, w]:
                cluster.append(u)
            else:
                survivors.append(u)
        assignment[cluster] = cid
        steps.append((w, cluster))
        active = survivors
        cid += 1
    return cc.Clustering(assignment), steps


def ref_weighted_probability_matrix(inst, x, scheme):
    """Each pair's cut probability over its label coin, one pair at a time."""
    n = inst.n
    xm = np.clip(x.matrix, 0.0, 1.0)
    p = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            lam = float(inst.lam_plus[u, v])
            fp = float(scheme.f_plus(xm[u, v]))
            fm = float(scheme.f_minus(xm[u, v]))
            p[u, v] = p[v, u] = lam * fp + (1.0 - lam) * fm
    return p


def ref_round(inst, x, scheme, seed):
    return ref_pivot_loop(rounding.cut_probabilities(inst, x, scheme), SplitMix64(seed))


def ref_monte_carlo_ratio(inst, x, scheme, trials, seed):
    master = SplitMix64(seed)
    costs = np.empty(trials)
    for t in range(trials):
        c, _steps = ref_round(inst, x, scheme, master.next_u64())
        costs[t] = clustering_cost(inst, c)
    lp = cc.lp_objective(inst, x)
    mean = float(costs.mean())
    if lp > 0:
        ratio = mean / lp
    else:
        ratio = 1.0 if mean == 0 else math.inf
    return cc.MonteCarloStats(
        trials=trials,
        mean=mean,
        stddev=float(costs.std(ddof=1)) if trials > 1 else 0.0,
        min=float(costs.min()),
        max=float(costs.max()),
        lp=lp,
        ratio=ratio,
    )


def ref_gen_labels(n, seed, sign):
    """Labels from one uniform per pair in pair_iter order; sign(u, v, r) -> +-1 or None."""
    rng = SplitMix64(seed)
    labels = np.zeros((n, n), dtype=np.int8)
    for u, v in pair_iter(n):
        s = sign(u, v, rng)
        if s is not None:
            labels[u, v] = labels[v, u] = s
    return labels


def ref_gen_complete_random(n, plus_prob, seed):
    return ref_gen_labels(n, seed, lambda u, v, rng: 1 if rng.uniform() < plus_prob else -1)


def ref_gen_kpartite_random(sizes, plus_prob, seed):
    parts = np.repeat(np.arange(len(sizes)), sizes)

    def sign(u, v, rng):
        if parts[u] != parts[v]:
            return 1 if rng.uniform() < plus_prob else -1
        return None

    return ref_gen_labels(len(parts), seed, sign)


def ref_gen_planted(n, k, corruption, seed):
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    truth = np.repeat(np.arange(k), sizes)

    def sign(u, v, rng):
        s = 1 if truth[u] == truth[v] else -1
        return -s if rng.uniform() < corruption else s

    return ref_gen_labels(n, seed, sign)


def ref_gen_weighted_random(n, seed):
    rng = SplitMix64(seed)
    w = np.zeros((n, n), dtype=np.float64)
    for u, v in pair_iter(n):
        w[u, v] = w[v, u] = rng.uniform()
    return w


def ref_weighted_to_unweighted(inst, N, seed):
    n = inst.n
    total = n * N
    rng = SplitMix64(seed)
    labels = np.zeros((total, total), dtype=np.int8)
    for u in range(n):
        labels[u * N:(u + 1) * N, u * N:(u + 1) * N] = 1
    for u, v in pair_iter(n):
        lp = inst.lam_plus[u, v]
        for i in range(N):
            for j in range(N):
                s = 1 if rng.uniform() < lp else -1
                a, b = u * N + i, v * N + j
                labels[a, b] = labels[b, a] = s
    np.fill_diagonal(labels, 0)
    return labels


# -- inputs --------------------------------------------------------------------


def lengths(n, seed):
    """An LP-like point: uniform lengths plus exact scheme breakpoints."""
    rng = SplitMix64(seed ^ 0x5EED)
    marks = [0.0, 0.19, 0.5095, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    vec = [marks[rng.randint(len(marks))] if rng.uniform() < 0.3 else rng.uniform()
           for _ in range(n * (n - 1) // 2)]
    return cc.LpSolution(n, vec)


def instances(seed):
    """(instance, scheme) for each class, sizes varying with the seed."""
    n = 1 + seed % 11
    sizes = [1 + (seed + i) % 4 for i in range(1 + seed % 3)]
    kp = cc.gen_kpartite_random(sizes, 0.5, seed)
    return [
        (cc.gen_complete_random(n, 0.5, seed), cc.get_scheme("complete206")),
        (cc.gen_planted(n, 1 + seed % n, 0.2, seed)[0], cc.get_scheme("acn_linear")),
        (kp, cc.get_scheme("kpartite3")),
        (cc.gen_weighted_random(n, seed), cc.get_scheme("weighted_ti_150")),
        (cc.gen_weighted_random(n, seed + 1), cc.get_scheme("weighted_ti_153")),
    ]


# -- rounding ------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_pivot_runs_match_reference(seed):
    for inst, scheme in instances(seed):
        x = lengths(inst.n, seed)
        for run_seed in (seed, seed * 7919 + 1, (1 << 64) - 1 - seed):
            want, want_steps = ref_round(inst, x, scheme, run_seed)
            got, trace = cc.pivot_round(inst, x, scheme, run_seed)
            assert got == want and trace.steps == want_steps
            if inst.kind == WEIGHTED:
                assert cc.pivot_round_weighted(inst, x, scheme, run_seed) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_probability_matrix_matches_reference(seed):
    inst = cc.gen_weighted_random(1 + seed % 9, seed)
    x = lengths(inst.n, seed)
    scheme = cc.get_scheme("weighted_ti_150")
    want = ref_weighted_probability_matrix(inst, x, scheme)
    assert np.array_equal(rounding.cut_probabilities(inst, x, scheme), want)
    # a weighted run pivots on the mixture and draws no coin words
    for run_seed in (seed, (1 << 64) - 1 - seed):
        got = cc.pivot_round_weighted(inst, x, scheme, run_seed)
        assert got == ref_pivot_loop(want, SplitMix64(run_seed))[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_monte_carlo_matches_reference(seed):
    for inst, scheme in instances(seed):
        x = lengths(inst.n, seed)
        got = cc.monte_carlo_ratio(inst, x, scheme, 25, seed)
        assert got == ref_monte_carlo_ratio(inst, x, scheme, 25, seed)


def test_monte_carlo_chunks_match_reference(monkeypatch):
    # small chunks: trials split over many block_rows calls, ragged last one
    monkeypatch.setattr("ccpivot.rounding.CHUNK_WORDS", 200)
    for inst, scheme in instances(9):
        x = lengths(inst.n, 9)
        got = cc.monte_carlo_ratio(inst, x, scheme, 77, 2024)
        assert got == ref_monte_carlo_ratio(inst, x, scheme, 77, 2024)


@pytest.mark.parametrize("seed", SEEDS)
def test_pivot_chunk_partitions_match_reference(seed):
    # every lockstep run, not only the statistics, is the scalar run of its seed
    seeds = SplitMix64(seed).block(30)
    for inst, scheme in instances(seed):
        x = lengths(inst.n, seed)
        ids = rounding._pivot_chunk(seeds, 1.0 - rounding.cut_probabilities(inst, x, scheme))
        for row, s in zip(ids, seeds.tolist()):
            assert cc.Clustering(row) == ref_round(inst, x, scheme, s)[0]


def _seed_with_word(word, t):
    """A seed whose stream has the given word at position t (0 = first word)."""
    return (_seed_with_first_word(word) - t * _GAMMA) & _MASK


@pytest.mark.parametrize("trial", [0, 4, 5])
def test_monte_carlo_rejecting_trial_matches_reference(monkeypatch, trial):
    # n = 3: randint(3) rejects only the word 2**64 - 1. A master seed whose
    # word `trial` seeds a run starting with that word; chunks of 4 labeled
    # runs put trial 0 and 4 first in a chunk, trial 5 in the middle of one
    monkeypatch.setattr("ccpivot.rounding.CHUNK_WORDS", 36)
    run_seed = _seed_with_first_word(_MASK)
    master = _seed_with_word(run_seed, trial)
    assert SplitMix64(master).block(trial + 1)[trial] == run_seed
    words = SplitMix64(run_seed).block(9)
    _ids, rejected = rounding._pivot_batch(np.ones((3, 3)), words[None], np.zeros((1, 9)))
    assert rejected.tolist() == [True]
    for inst, scheme in instances(2)[:2]:  # complete and planted, n = 3
        assert inst.n == 3
        for x in (lengths(3, trial), cc.LpSolution.constant(3, 1.0)):
            got = cc.monte_carlo_ratio(inst, x, scheme, 10, master)
            assert got == ref_monte_carlo_ratio(inst, x, scheme, 10, master)


def test_monte_carlo_on_lp_points_matches_reference():
    for inst in (cc.gen_complete_random(8, 0.5, 3), cc.gen_kpartite_random((3, 3, 2), 0.5, 4),
                 cc.gen_gap_triangle_ineq(3)):
        scheme = {COMPLETE: "complete206", KPARTITE: "kpartite3",
                  WEIGHTED: "weighted_ti_150"}[inst.kind]
        x, _stats = cc.solve_relaxation(inst)
        s = cc.get_scheme(scheme)
        assert cc.monte_carlo_ratio(inst, x, s, 300, 11) == ref_monte_carlo_ratio(
            inst, x, s, 300, 11)


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_reference(seed):
    n = 1 + seed % 13
    for prob in (0.0, 0.3, 0.5, 1.0):
        got = cc.gen_complete_random(n, prob, seed)
        assert np.array_equal(got.labels, ref_gen_complete_random(n, prob, seed))
    sizes = [1 + (seed * 3 + i) % 5 for i in range(1 + seed % 4)]
    got = cc.gen_kpartite_random(sizes, 0.4, seed)
    assert np.array_equal(got.labels, ref_gen_kpartite_random(sizes, 0.4, seed))
    for k in {1, 1 + seed % n, n}:
        inst, truth = cc.gen_planted(n, k, 0.25, seed)
        assert np.array_equal(inst.labels, ref_gen_planted(n, k, 0.25, seed))
        assert truth == cc.Clustering(np.repeat(np.arange(k), [
            n // k + (1 if i < n % k else 0) for i in range(k)]))
    got = cc.gen_weighted_random(n, seed)
    assert np.array_equal(got.lam_plus, ref_gen_weighted_random(n, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_blowup_matches_reference(seed):
    w = cc.gen_weighted_random(1 + seed % 5, seed)
    for N in (1, 2, 3 + seed % 3):
        blown, vmap = cc.weighted_to_unweighted(w, N, seed)
        assert np.array_equal(blown.labels, ref_weighted_to_unweighted(w, N, seed))
        assert np.array_equal(vmap, np.repeat(np.arange(w.n), N))


def test_blowup_chunks_match_reference(monkeypatch):
    # chunks of 2 pairs, and of 1 pair when a pair's N * N draws overflow one
    monkeypatch.setattr("ccpivot.instance.CHUNK_WORDS", 20)
    w = cc.gen_weighted_random(5, 31)
    for N in (3, 5):
        blown, _vmap = cc.weighted_to_unweighted(w, N, 77)
        assert np.array_equal(blown.labels, ref_weighted_to_unweighted(w, N, 77))
