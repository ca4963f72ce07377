import numpy as np
import pytest

import ccpivot as cc
from ccpivot.rounding import _pivot_kernel
from ccpivot.rng import SplitMix64, block_rows, mix64, rejection_bound, unit_floats


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_known_splitmix_values():
    # reference outputs of splitmix64 seeded with 0 and 1
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    assert SplitMix64(1).next_u64() == 0x910A2DEC89025CC1


def test_uniform_range_and_determinism():
    r = SplitMix64(7)
    vals = [r.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    replay = SplitMix64(7)
    assert vals == [replay.uniform() for _ in range(1000)]


def test_randint_bounds():
    r = SplitMix64(9)
    seen = {r.randint(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        r.randint(0)


def test_spawn_is_seeded_by_parent_output():
    child_seed = SplitMix64(42).next_u64()
    child = SplitMix64(42).spawn()
    expect = SplitMix64(child_seed)
    assert [child.next_u64() for _ in range(10)] == [expect.next_u64() for _ in range(10)]


# -- block draws ----------------------------------------------------------------

BLOCK_SEEDS = [0, 1, (1 << 64) - 1, 12345, 0xDEADBEEFCAFEF00D, 1 << 63]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_block_equals_scalar_stream(seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    words = a.block(10_000)
    assert words.dtype == np.uint64 and words.shape == (10_000,)
    assert words.tolist() == [b.next_u64() for _ in range(10_000)]
    assert unit_floats(words[:500]).tolist() == [
        (w >> 11) * 2.0**-53 for w in words[:500].tolist()]


def test_unit_floats_at_the_edge_words():
    # the smallest and largest words, the sign bit alone, and the largest word below 2**64
    # whose low 11 bits are zero: each maps to the float uniform() makes of it
    edges = [0, 1, 1 << 11, 1 << 63, (1 << 63) - 1, ((1 << 53) - 1) << 11, (1 << 64) - 1]
    got = unit_floats(np.array(edges, dtype=np.uint64)).tolist()
    assert got == [(w >> 11) * 2.0**-53 for w in edges]
    assert got[0] == 0.0 and got[3] == 0.5 and got[-1] == 1.0 - 2.0**-53


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_stream_continues_after_block(seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    a.block(37)
    for _ in range(37):
        b.next_u64()
    assert a.next_u64() == b.next_u64()
    assert a.block(5).tolist() == [b.next_u64() for _ in range(5)]
    ca, cb = a.spawn(), b.spawn()
    assert ca.block(8).tolist() == [cb.next_u64() for _ in range(8)]


def test_block_rows_are_independent_streams():
    states = np.array(BLOCK_SEEDS, dtype=np.uint64)
    rows = block_rows(states, 20)
    assert states.tolist() == BLOCK_SEEDS  # the states are not advanced
    for s, row in zip(BLOCK_SEEDS, rows.tolist()):
        ref = SplitMix64(s)
        assert row == [ref.next_u64() for _ in range(20)]


def test_block_zero_is_empty():
    r = SplitMix64(5)
    assert r.block(0).shape == (0,)
    assert r.next_u64() == SplitMix64(5).next_u64()
    with pytest.raises(ValueError):
        r.block(-1)


# -- the randint rejection path ---------------------------------------------------

_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _unxorshift(y: int, s: int) -> int:
    """Inverse of x -> x ^ (x >> s) on 64-bit words."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _unmix64(z: int) -> int:
    z = _unxorshift(z, 31)
    z = _unxorshift(z * pow(_M2, -1, 1 << 64) & _MASK, 27)
    return _unxorshift(z * pow(_M1, -1, 1 << 64) & _MASK, 30)


def _seed_with_first_word(word: int) -> int:
    """A seed whose stream starts with the given word."""
    return (_unmix64(word) - 0x9E3779B97F4A7C15) & _MASK


def test_unmix_inverts_the_finalizer():
    for w in (0, 1, 12345, _MASK, 1 << 63):
        assert mix64(_unmix64(w)) == w
        assert SplitMix64(_seed_with_first_word(w)).next_u64() == w


def test_pivot_kernel_rejects_like_randint():
    # n = 3: randint(3) rejects exactly the word 2**64 - 1
    assert rejection_bound(3) == _MASK
    seed = _seed_with_first_word(_MASK)
    rng = SplitMix64(seed)
    first = rng.randint(3)  # rejects word 0, accepts word 1
    second_word = SplitMix64(seed)
    second_word.next_u64()
    assert first == second_word.next_u64() % 3
    # all-minus triangle at x = 1: p = 1 off the diagonal, so every step
    # keeps only its pivot and the run reads 1 + 9 words, one past its block
    inst = cc.Instance.complete(-(np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8)))
    x = cc.LpSolution.constant(3, 1.0)
    _c, trace = cc.pivot_round(inst, x, cc.get_scheme("complete206"), seed)
    assert trace.steps[0] == (first, [first])
    ref = SplitMix64(seed)
    active, want = [0, 1, 2], []
    while active:
        w = active[ref.randint(len(active))]
        for _u in active:
            ref.uniform()
        want.append((w, [w]))
        active.remove(w)
    assert trace.steps == want


def test_pivot_kernel_extends_block_after_rejection():
    seed = _seed_with_first_word(_MASK)
    words = SplitMix64(seed).block(11).tolist()
    unif = unit_floats(np.array(words[:9], dtype=np.uint64)).tolist()
    rng = SplitMix64(seed)
    rng.block(9)
    keep = [[1.0 if u == w else 0.0 for u in range(3)] for w in range(3)]
    steps = _pivot_kernel(keep, words[:9], unif, rng)
    assert [len(m) for _w, m in steps] == [1, 1, 1]
    assert rng.next_u64() == words[10]  # the kernel drew word 9 and no more
