"""Exact ground truth for small instances.

``brute_force_opt`` minimizes over every partition of the vertex set by
an exact DP over bit masks: opt[mask] is the cheapest partition of
mask, taken over the (3^n - 1) / 2 candidate blocks that hold each
mask's lowest vertex, instead of over the Bell(n) partitions (the
tests enumerate those as the reference).
It serves every n up to ``MAX_EXACT_N``; tied optima resolve to the
DP's first minimum, so the argmin is some optimum, not a canonical one.

The DP keeps values only. It fills opt[mask] layer by layer in
popcount order, in chunks of at most ``_DP_CHUNK`` candidates per numpy
call, and then rebuilds the argmin on the optimal path alone (at most n
masks), scanning each mask's candidates in the same order as the
values. Memory is two 2^n float tables (block costs g and opt), a 2^n
byte table of popcounts and three chunk buffers of max(_DP_CHUNK,
2^(n-1)) 8-byte entries (fewer when all (3^n - 1) / 2 candidates fit):
about 3 MB at n = 16 and 30 MB at the n = 20 wall.

The exact expectations of the randomized pivot algorithm run the same
kind of DP over active sets, on the marginal cut probabilities p of
``rounding.cut_probabilities`` alone. A pair's label coin is read at
most once, when one endpoint pivots while the other is active, and
given the pivot w every active u joins independently with probability
1 - p[u, w]; so the expectation is multilinear in the coins and the
coin mixture p is exact. With F[S] the expected sum of g over the
clusters cut from an active set S,

    F[S] = (1/|S|) sum_{w in S} sum_{w in B <= S}
           prod_{u in B-w} (1 - p[u, w]) prod_{u in S-B} p[u, w] (g[B] + F[S-B])

and E[ALG] = base + F[V]. The DP serves every class up to
``MAX_EXPECT_N``: it reads n 3^(n-1) (pivot, cluster) terms, about 0.5 s
at n = 14 on a 2-core host, and holds the two membership products as
n x 2^n tables (about 4 MB at n = 14). The first step alone needs no
DP: ``step_cost_formula`` is its pairwise closed form, O(n^3) at any n.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import Clustering, Instance
from .lp import LpSolution, solve_relaxation
from .rounding import RoundingScheme, cut_probabilities, pair_model, pivot_sums

MAX_EXACT_N = 20  # the DP's wall: (3^n - 1) / 2 candidate blocks
MAX_EXPECT_N = 14  # the expectation DP's cap: n 3^(n-1) (pivot, cluster) terms
_DP_CHUNK = 1 << 16  # DP candidates evaluated per numpy call (masks x blocks)


def _pair_sums(m: np.ndarray) -> np.ndarray:
    """t[mask] = sum of m[u, v] over the pairs u < v inside mask."""
    n = m.shape[0]
    size = 1 << n
    # peel the lowest bit: a mask with lowest bit `low` is bit + (r << (low+1)),
    # and its rest r << (low+1) has strictly higher bits, so fill low descending.
    # link[r] = sum of m[low, j] over the bits j of r << (low+1), added in
    # ascending j by one doubling step per bit.
    t = np.zeros(size, dtype=np.float64)
    idx = np.arange(size)
    for low in range(n - 1, -1, -1):
        shift = low + 1
        link = np.zeros(size >> shift, dtype=np.float64)
        for j in range(n - shift):
            np.add(link[: 1 << j], m[low, shift + j], out=link[1 << j : 2 << j])
        rests = idx[: size >> shift] << shift
        t[rests + (1 << low)] = t[rests] + link
    return t


def _block_costs(inst: Instance) -> tuple[np.ndarray, float]:
    """g[mask] = sum over pairs inside mask of (keep cost - cut cost).

    Total cost of a partition is then base + sum of g over its blocks,
    with base the all-singletons cost.
    """
    wp, wm = inst.pair_weights()
    # joining u, v costs (wm - wp)[u, v] more than splitting them
    return _pair_sums(wm - wp), float(np.triu(wp, 1).sum())


def _popcounts(n: int) -> np.ndarray:
    """popcount[mask] for every mask of n bits, by doubling."""
    popcount = np.zeros(1 << n, dtype=np.int8)
    for j in range(n):
        np.add(popcount[: 1 << j], 1, out=popcount[1 << j : 2 << j])
    return popcount


def _brute_force_subset_dp(inst: Instance) -> tuple[Clustering, float]:
    """Exact optimum via DP over subsets (no size check; see brute_force_opt)."""
    n = inst.n
    size = 1 << n
    g, base = _block_costs(inst)
    opt = np.full(size, np.inf, dtype=np.float64)
    opt[0] = 0.0
    popcount = _popcounts(n)
    # a chunk holds at most max(_DP_CHUNK, size / 2) of all (3^n - 1) / 2 candidates
    cap = min(max(_DP_CHUNK, size >> 1), 3**n // 2)
    bufs = (np.empty(cap, dtype=np.int64), np.empty(cap), np.empty(cap))

    def candidates(masks: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(rests, vals) of masks of popcount k, one row per mask.

        Each row covers every block that holds the mask's lowest bit,
        built by doubling over its other set bits in ascending order
        (column c adds the bits picked by the binary digits of c);
        rests[i, c] is what the block leaves over and vals[i, c] =
        g[block] + opt[rest]. Written into bufs, so a chunk allocates
        nothing large.
        """
        shape = (len(masks), 1 << (k - 1))
        m = shape[0] * shape[1]
        _rows, pos = np.nonzero((masks[:, None] >> np.arange(n)) & 1)
        bits = np.left_shift(1, pos.reshape(shape[0], k))
        blocks = bufs[0][:m].reshape(shape)
        blocks[:, 0] = bits[:, 0]
        for j in range(1, k):
            half = 1 << (j - 1)
            np.add(blocks[:, :half], bits[:, j : j + 1], out=blocks[:, half : 2 * half])
        # mode="clip" lets take write straight into out; every index is in range
        vals = np.take(g, blocks, out=bufs[1][:m].reshape(shape), mode="clip")
        rests = np.subtract(masks[:, None], blocks, out=blocks)
        np.add(vals, np.take(opt, rests, out=bufs[2][:m].reshape(shape), mode="clip"),
               out=vals)
        return rests, vals

    # values only, layer by layer: every rest lies in a smaller layer
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcount == k)
        step = max(1, _DP_CHUNK >> (k - 1))
        for lo in range(0, len(layer), step):
            masks = layer[lo : lo + step]
            opt[masks] = candidates(masks, k)[1].min(axis=1)

    # rebuild the argmin on the optimal path only: the same sums in the same
    # order, so the first minimum is the block a full choice table would keep
    assignment = np.zeros(n, dtype=np.int64)
    mask = size - 1
    cid = 0
    while mask:
        rests, vals = candidates(np.array([mask]), int(popcount[mask]))
        block = mask - int(rests[0, np.argmin(vals[0])])
        for v in range(n):
            if (block >> v) & 1:
                assignment[v] = cid
        mask ^= block
        cid += 1
    return Clustering(assignment), float(base + opt[size - 1])


def _refuse_above(inst: Instance, cap: int, name: str, what: str) -> None:
    if inst.n > cap:
        raise ValueError(f"{what} instances up to n = {cap} ({name}); this one has n = {inst.n}")


def brute_force_opt(inst: Instance) -> tuple[Clustering, float]:
    """Global minimum clustering cost and one argmin, for n <= MAX_EXACT_N."""
    _refuse_above(inst, MAX_EXACT_N, "MAX_EXACT_N", "the exact oracle solves")
    return _brute_force_subset_dp(inst)


def integrality_ratio(inst: Instance) -> dict:
    """{opt, lp, ratio} with ratio = opt / lp (1.0 when both vanish)."""
    _c, opt = brute_force_opt(inst)
    _x, stats = solve_relaxation(inst)
    lp = stats.objective
    if lp > 1e-12:
        ratio = opt / lp
    else:
        ratio = 1.0 if opt <= 1e-12 else math.inf
    return {"opt": opt, "lp": lp, "ratio": ratio}


# ---------------------------------------------------------------------------
# exact expectations of the randomized pivot algorithm
# ---------------------------------------------------------------------------


def _membership_tables(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stay, cut): stay[w, mask] = prod of 1 - p[u, w] and cut[w, mask] =
    prod of p[u, w] over the bits u of mask, filled by doubling.

    p has a zero diagonal, so the pivot's own bit leaves stay unchanged.
    """
    n = p.shape[0]
    stay = np.ones((n, 1 << n), dtype=np.float64)
    cut = np.ones((n, 1 << n), dtype=np.float64)
    for u in range(n):
        lo, hi = slice(0, 1 << u), slice(1 << u, 2 << u)
        np.multiply(stay[:, lo], (1.0 - p[u])[:, None], out=stay[:, hi])
        np.multiply(cut[:, lo], p[u][:, None], out=cut[:, hi])
    return stay, cut


def _first_clusters(masks: np.ndarray, k: int, stay: np.ndarray,
                    cut: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(blocks, rests, prob) for active sets of popcount k, one row per mask.

    Column c of a row is the submask B picked by the binary digits of c
    over the mask's bits in ascending order, rests = mask - B, and prob
    is the chance that the first pivot's cluster is B: the pivot w is
    uniform on the mask, every other u joins w.p. 1 - p[u, w]. Each
    row's prob sums to 1 (the empty column has 0).
    """
    n = stay.shape[0]
    rows = len(masks)
    _rows, pos = np.nonzero((masks[:, None] >> np.arange(n)) & 1)
    pos = pos.reshape(rows, k)
    blocks = np.zeros((rows, 1 << k), dtype=np.int64)
    for j in range(k):
        np.add(blocks[:, : 1 << j], np.left_shift(1, pos[:, j : j + 1]),
               out=blocks[:, 1 << j : 2 << j])
    rests = masks[:, None] - blocks
    prob = np.zeros((rows, 1 << k), dtype=np.float64)
    stay, cut = stay.ravel(), cut.ravel()
    for j in range(k):
        # the blocks holding pivot pos[:, j] are the columns with digit j set
        shape = (rows, 1 << (k - 1 - j), 2, 1 << j)
        held = (slice(None), slice(None), 1)
        row_of_w = (pos[:, j] << n)[:, None, None]
        prob.reshape(shape)[held] += (stay[row_of_w + blocks.reshape(shape)[held]]
                                      * cut[row_of_w + rests.reshape(shape)[held]])
    prob /= k
    return blocks, rests, prob


def step_cost_formula(inst: Instance, x: LpSolution, scheme: RoundingScheme) -> dict:
    """Exact E[violations] and E[LP removed] of the first pivot step.

    The pairwise closed form, O(n^3) on every class with no size cap:
    pivot_sums without self-loops, over 2n. Weighted instances plug in
    the coin-averaged cut probabilities, which is exact because every
    term is multilinear in the independent per-pair values.
    """
    wp, wm, L = pair_model(inst, x)
    np.fill_diagonal(wp, 0.0)  # a real step has no self-loops
    e_alg, e_lp = pivot_sums(wp, wm, L, cut_probabilities(inst, x, scheme))
    n = max(inst.n, 1)  # n = 0: no pivot step, both sums are 0
    return {"e_alg_0": float(0.5 * e_alg / n), "e_lp_0": float(0.5 * e_lp / n)}


def exact_expected_total_cost(
    inst: Instance, x: LpSolution, scheme: RoundingScheme
) -> float:
    """Exact expected final cost of the randomized pivot algorithm.

    F[S] = sum over first clusters B of Pr(B) (g[B] + F[S - B]), filled
    layer by layer in popcount order like the OPT DP, in chunks of at
    most _DP_CHUNK (mask, cluster) columns; E[ALG] = base + F[V]. For
    n <= MAX_EXPECT_N on every class.
    """
    _refuse_above(inst, MAX_EXPECT_N, "MAX_EXPECT_N", "the exact expectations handle")
    n = inst.n
    g, base = _block_costs(inst)
    tables = _membership_tables(cut_probabilities(inst, x, scheme))
    popcount = _popcounts(n)
    F = np.zeros(1 << n, dtype=np.float64)
    for k in range(1, n + 1):
        layer = np.flatnonzero(popcount == k)
        step = max(1, _DP_CHUNK >> k)
        for lo in range(0, len(layer), step):
            masks = layer[lo : lo + step]
            blocks, rests, prob = _first_clusters(masks, k, *tables)
            # the empty column reads F[mask] itself, still 0, with prob 0
            F[masks] = (prob * (g[blocks] + F[rests])).sum(axis=1)
    return float(base + F[-1])
