"""Edge paths of the lockstep Monte-Carlo kernel against the scalar reference.

A randint that rejects a word after the first step, the largest words a
randint accepts, a uniform equal to its keep value, runs of one chunk
that finish at different steps, and instances of 0, 1 and 2 vertices.
Every lockstep run must be the scalar run of its seed (ref_round), and
every statistic the reference's to the last bit (ref_monte_carlo_ratio).
"""

import logging

import numpy as np
import pytest

import ccpivot as cc
from ccpivot import rounding
from ccpivot.rng import SplitMix64, block_rows, rejection_bound, unit_floats
from test_block_equivalence import _seed_with_word, ref_monte_carlo_ratio, ref_round
from test_rng import _MASK


def _tables(inst, x, scheme):
    """The keep table 1 - p as monte_carlo_ratio hands it to _pivot_chunk."""
    return 1.0 - rounding.cut_probabilities(inst, x, scheme)


# n = 4 at x = 1: every pair is cut whatever its coin, so each step keeps
# only its pivot and the randints run over k = 4, 3, 2, 1 active vertices.
# The k = 3 draw is stream word 5 of a run on either class: word 0 and
# four uniforms come first.
LATER_STEP = [
    (cc.gen_complete_random(4, 0.5, 1), cc.get_scheme("complete206"), 5),
    (cc.gen_weighted_random(4, 1), cc.get_scheme("weighted_ti_150"), 5),
]


@pytest.mark.parametrize("inst, scheme, word", LATER_STEP, ids=["labeled", "weighted"])
def test_rejection_on_a_later_step(monkeypatch, inst, scheme, word):
    assert rejection_bound(3) == _MASK  # randint(3) rejects 2**64 - 1 alone
    x = cc.LpSolution.constant(4, 1.0)
    run_seed = _seed_with_word(_MASK, word)
    assert SplitMix64(run_seed).block(word + 1)[word] == _MASK
    steps = ref_round(inst, x, scheme, run_seed)[1]
    assert [members for _w, members in steps] == [[w] for w, _m in steps]
    # the run is the middle one of five, with runs before and after it
    seeds = SplitMix64(7).block(5)
    seeds[2] = run_seed
    keep = _tables(inst, x, scheme)
    redone = []
    ids = rounding._pivot_chunk(seeds, keep, redone)
    assert redone == [1]
    for row, s in zip(ids, seeds.tolist()):
        assert cc.Clustering(row) == ref_round(inst, x, scheme, s)[0]
    words = block_rows(seeds, 14)
    _ids, rejected = rounding._pivot_batch(keep, words, unit_floats(words))
    assert rejected.tolist() == [False, False, True, False, False]
    # the same five runs as trials 0..4 of one Monte-Carlo chunk
    monkeypatch.setattr("ccpivot.rounding.CHUNK_WORDS", 100)
    master = _seed_with_word(run_seed, 2)
    assert SplitMix64(master).block(3)[2] == run_seed
    got = cc.monte_carlo_ratio(inst, x, scheme, 5, master)
    assert got == ref_monte_carlo_ratio(inst, x, scheme, 5, master)


@pytest.mark.parametrize("inst, scheme, word", LATER_STEP, ids=["labeled", "weighted"])
def test_largest_accepted_words_are_not_redone(inst, scheme, word):
    # randint(4) accepts every word and randint(3) every word below 2**64 - 1:
    # runs drawing 2**64 - 1 at k = 4 or 2**64 - 2 at k = 3 stay in lockstep
    x = cc.LpSolution.constant(4, 1.0)
    first = word - 5  # the k = 4 draw
    seeds = SplitMix64(5).block(4)
    seeds[1] = _seed_with_word(_MASK, first)
    seeds[2] = _seed_with_word(_MASK - 1, word)
    keep = _tables(inst, x, scheme)
    redone = []
    ids = rounding._pivot_chunk(seeds, keep, redone)
    assert redone == [0]
    for row, s in zip(ids, seeds.tolist()):
        assert cc.Clustering(row) == ref_round(inst, x, scheme, s)[0]


@pytest.mark.parametrize("inst, scheme, word", LATER_STEP, ids=["labeled", "weighted"])
def test_uniform_equal_to_keep_does_not_join(inst, scheme, word):
    # at x = 1 a non-pivot vertex has keep = 0; the uniform 0.0 (a word
    # below 2**11) is not below it, so the vertex stays active
    x = cc.LpSolution.constant(4, 1.0)
    first = word - 5  # the k = 4 draw; uniforms of vertices 0..3 follow
    for vertex in (0, 1):
        seed = _seed_with_word(0, first + 1 + vertex)
        if SplitMix64(seed).block(first + 1)[first] % 4 != vertex:
            break
    pivot, members = ref_round(inst, x, scheme, seed)[1][0]
    assert pivot != vertex and members == [pivot]
    keep = _tables(inst, x, scheme)
    seeds = np.array([seed, 12345], dtype=np.uint64)
    ids = rounding._pivot_chunk(seeds, keep)
    for row, s in zip(ids, seeds.tolist()):
        assert cc.Clustering(row) == ref_round(inst, x, scheme, s)[0]


RAGGED = [
    (cc.gen_complete_random(6, 0.5, 2), cc.get_scheme("acn_linear")),
    (cc.gen_weighted_random(6, 2), cc.get_scheme("weighted_ti_153")),
]


@pytest.mark.parametrize("inst, scheme", RAGGED, ids=["labeled", "weighted"])
def test_runs_finishing_at_different_steps(inst, scheme):
    # at x = 0.5 a run makes anywhere from one cluster to six: the runs
    # done early draw dummy words while the others go on
    x = cc.LpSolution.constant(6, 0.5)
    seeds = SplitMix64(11).block(40)
    keep = _tables(inst, x, scheme)
    ids = rounding._pivot_chunk(seeds, keep)
    clusters = ids.max(axis=1) + 1
    assert clusters.min() < clusters.max()
    for row, s in zip(ids, seeds.tolist()):
        assert cc.Clustering(row) == ref_round(inst, x, scheme, s)[0]


def _tiny(n, seed):
    if n == 0:
        empty = np.zeros((0, 0), dtype=np.int8)
        return [(cc.Instance.complete(empty), "complete206"),
                (cc.Instance.kpartite(empty, []), "kpartite3"),
                (cc.Instance.weighted(np.zeros((0, 0))), "weighted_ti_150")]
    return [(cc.gen_complete_random(n, 0.5, seed), "complete206"),
            (cc.gen_kpartite_random([1] * n, 0.5, seed), "kpartite3"),
            (cc.gen_weighted_random(n, seed), "weighted_ti_150")]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_instances_match_reference(n):
    for seed in range(4):
        for inst, name in _tiny(n, seed):
            scheme = cc.get_scheme(name)
            for value in (0.0, 0.5, 1.0):
                x = cc.LpSolution.constant(n, value)
                got = cc.monte_carlo_ratio(inst, x, scheme, 9, seed)
                assert got == ref_monte_carlo_ratio(inst, x, scheme, 9, seed)


def test_monte_carlo_logs_one_line_per_call(monkeypatch, caplog):
    inst, scheme, word = LATER_STEP[0]
    x = cc.LpSolution.constant(4, 1.0)
    master = _seed_with_word(_seed_with_word(_MASK, word), 2)
    monkeypatch.setattr("ccpivot.rounding.CHUNK_WORDS", 28)  # two runs a chunk
    with caplog.at_level(logging.DEBUG, logger="ccpivot.rounding"):
        cc.monte_carlo_ratio(inst, x, scheme, 5, master)
    lines = [r.getMessage() for r in caplog.records if r.name == "ccpivot.rounding"]
    assert len(lines) == 1
    assert lines[0].startswith(
        "monte_carlo_ratio: n=4, 5 trials in 3 chunks, 1 redone by the scalar kernel, ")
    assert lines[0].endswith(" s")
