"""Seeded 64-bit PRNG used by every randomized operation in the package.

The generator is splitmix64: a counter stream passed through a fixed
64-bit finalizer. It is tiny, has no platform-dependent state, and the
same seed produces the same stream on every machine, which is what the
reproducibility contract of the generators and rounding routines needs.
Nothing in this package ever falls back to wall-clock seeding.

Word k = 1, 2, ... of a stream is ``mix64((seed + k * GAMMA) mod 2**64)``,
a closed form in the seed and k, so ``block(k)`` computes the next k
words at once with wrapping numpy arithmetic, and ``block_rows`` does so
for many streams in one call. Block and scalar draws interleave freely:
``block(k)`` returns exactly what k ``next_u64`` calls would and leaves
the stream in the same state. ``unit_floats`` maps words to the same
floats as ``uniform``, and ``rejection_bound`` is the cut-off ``randint``
uses, so callers that decide from a block make the scalar decisions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64
_G, _M1, _M2 = _U64(_GAMMA), _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)

# Word budget of one block when a caller splits a long draw into several:
# bounds the temporaries whatever the size of the whole draw. Monte-Carlo
# runs a chunk's trials in lockstep: a chunk takes up to n steps of a
# fixed set of numpy calls whatever its size, so larger chunks spread
# that cost over more runs, and its words and uniforms take 16 bytes per
# word. Untraced monte_carlo_ratio at the sample workload's sizes (8 LP
# points each, 2-core host, medians of 7) spent 3.18, 2.47 and 2.74 us
# per labeled trial (n = 10) and 2.52, 1.92 and 2.02 us per weighted
# trial (n = 9) at 1 << 14, 15 and 16 words; the last two are within the
# host's noise. 1 << 16 holds 1,000 runs at n = 10 in one chunk; a call
# then peaks at 1.5 MB (traced), against 0.4 MB at 1 << 14, and its
# arrays, above glibc's 128 KB mmap threshold, are page-faulted afresh
# more often.
CHUNK_WORDS = 1 << 16


def mix64(z: int) -> int:
    """The splitmix64 finalizer: a bijective scramble of a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 in place on a uint64 array (uint64 products wrap mod 2**64)."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def block_rows(states: np.ndarray, k: int) -> np.ndarray:
    """Row i holds the next k words of the stream whose state is states[i].

    states is a uint64 array (a seed is the state of a fresh stream); it
    is not advanced.
    """
    if k < 0:
        raise ValueError("block needs k >= 0")
    steps = np.arange(1, k + 1, dtype=_U64) * _G
    return _mix64_array(np.asarray(states, dtype=_U64)[:, None] + steps)


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Floats in [0, 1) from words, element-wise equal to ``uniform``; a word
    shifted right by 11 reads the same as an int64, converted exactly."""
    return (words >> _S11).view(np.int64).astype(np.float64) * 2.0**-53


def rejection_bound(n: int) -> int:
    """``randint(n)`` accepts a word v iff v < this bound (then returns v % n)."""
    if n <= 0:
        raise ValueError("randint needs n >= 1")
    return _MASK + 1 - ((_MASK + 1) % n)


class SplitMix64:
    """Deterministic stream of 64-bit words from an explicit seed.

    Child streams come from ``spawn()`` (or from feeding ``next_u64``
    outputs back in as seeds), which keeps per-trial substreams
    independent of how many draws the parent made before.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def block(self, k: int) -> np.ndarray:
        """The next k words as a uint64 array; advances the stream by k."""
        words = block_rows(np.array([self._state], dtype=_U64), k)[0]
        self._state = (self._state + k * _GAMMA) & _MASK
        return words

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        bound = rejection_bound(n)
        while True:
            v = self.next_u64()
            if v < bound:
                return v % n

    def spawn(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())
