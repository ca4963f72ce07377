"""Exact ground truth for small instances.

``brute_force_opt`` minimizes over every partition of the vertex set by
an exact DP over bit masks: opt[mask] is the cheapest partition of
mask, taken over the (3^n - 1) / 2 candidate blocks that hold each
mask's lowest vertex, instead of over the Bell(n) partitions (the
tests enumerate those as the reference).
It serves every n up to ``MAX_EXACT_N``; tied optima resolve to the
DP's first minimum, so the argmin is some optimum, not a canonical one.

The DP pushes values forward. For each lowest vertex l from n - 1 down
to 1, a block B whose lowest vertex is l pushes g[B] + opt[S] into
opt[B | S] for every set S of vertices above l that misses B (each such
opt[S] is final by then), with ``np.minimum.at`` since the targets of
different blocks collide. Vertex 0 pushes nothing: a mask that holds it
is never a rest, so of its 3^(n-1) targets only V would be read. V
instead pulls once, the minimum over the 2^(n-1) blocks B holding
vertex 0 of g[B] + opt[V - B], every such rest final after vertex 1;
that pull is the first step of the argmin rebuild below. The pushing
blocks go in order of size, so when B comes up opt[B] is its best
partition into two or more blocks, and B pushes only if g[B] < opt[B]:
only if it beats every proper partition of itself. That is exact,
because an optimal partition with the most blocks has only such blocks
(one that some partition of it matches could be split at no cost).
Labeled block costs are small integers, exact in float; on weighted
instances a block within 1e-9 of its best partition still pushes, so
float near-ties keep the value table bit-identical to the plain
per-mask DP. A lowest vertex with 3^m <= ``_DP_CHUNK`` candidates (m
vertices above it) pushes them all in one call, untested: per-size
calls would cost more than the pruning saves.
The argmin is rebuilt on the optimal path alone (at most n masks) from
all of each mask's candidates in the per-mask DP's order, so it is the
same as well; at V, whose pull reads every block holding vertex 0, not
only the kept ones, the value is the per-mask DP's by construction.

How much is pruned depends on the instance. On a 2-core host the DP
pushed 0.77M of the 7.17M candidates of a 15-vertex blow-up (three
weighted vertices with five copies each) and pulled 16,384 in 8 ms, and
solves a random complete instance at n = 20 in 0.3 s. When every pair
is "+" no block is beaten by a partition of itself and nothing is
pruned: all (3^(n-1) - 1) / 2 candidates above vertex 0 are pushed, and
16, 18 and 20 vertices take about 0.05 s, 0.6 s and 9 s, since the
scattered writes of ``np.minimum.at`` miss the cache once opt outgrows
it. Memory is two 2^n float tables (block costs g and opt), a 2^n byte
table of popcounts, three chunk buffers of max(_DP_CHUNK, 2^(n-1))
8-byte entries (fewer when all (3^n - 1) / 2 candidates fit) and a pair
table of at most 2 x 3^10 2-byte entries: about 3 MB at n = 16 and
34 MB at the n = 20 wall.

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
DP: ``rounding.step_cost_formula`` is its closed form, O(n^3) at any n.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from .instance import Clustering, Instance
from .lp import LpSolution, solve_relaxation
from .rounding import RoundingScheme, cut_probabilities

# The DP's wall: up to (3^(n-1) - 1) / 2 candidates pushed and 2^(n-1) pulled, all
# of them when nothing is pruned (every pair "+": 9 s at n = 20; random complete: 0.3 s)
MAX_EXACT_N = 20
MAX_EXPECT_N = 14  # the expectation DP's cap: n 3^(n-1) (pivot, cluster) terms
_DP_CHUNK = 1 << 16  # DP candidates evaluated per numpy call (masks x blocks)
_TIE_SLACK = 1e-9  # a weighted block this close to its best partition still pushes

log = logging.getLogger(__name__)


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


def _submasks(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Every subset of each row of k distinct single bits, written into out.

    Returns out viewed as (rows, 2^k); column c adds the bits of its row
    picked by the binary digits of c, so column 0 is the empty set.
    """
    rows, k = bits.shape
    subs = out[: rows << k].reshape(rows, 1 << k)
    subs[:, 0] = 0
    for j in range(k):
        np.add(subs[:, : 1 << j], bits[:, j : j + 1], out=subs[:, 1 << j : 2 << j])
    return subs


def _disjoint_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(block, rest): all 3^m pairs of disjoint subsets of m bits.

    Built by tripling, each bit joining neither set, the block or the
    rest, so the pairs over fewer bits are a prefix.
    """
    dtype = np.min_scalar_type(1 << m)
    block = np.zeros(3**m, dtype=dtype)
    rest = np.zeros(3**m, dtype=dtype)
    for j in range(m):
        c = 3**j
        np.add(block[:c], 1 << j, out=block[c : 2 * c])
        block[2 * c : 3 * c] = block[:c]
        rest[c : 2 * c] = rest[:c]
        np.add(rest[:c], 1 << j, out=rest[2 * c : 3 * c])
    return block, rest


def _brute_force_subset_dp(inst: Instance) -> tuple[Clustering, float]:
    """Exact optimum via DP over subsets (no size check; see brute_force_opt)."""
    start = time.perf_counter()
    n = inst.n
    size = 1 << n
    g, base = _block_costs(inst)
    # labeled block costs are small integers, exact in float
    slack = 0.0 if inst.labels is not None else _TIE_SLACK
    opt = np.full(size, np.inf, dtype=np.float64)
    opt[0] = 0.0
    popcount = _popcounts(n)
    # a chunk holds at most max(_DP_CHUNK, size / 2) of all (3^n - 1) / 2 candidates
    cap = min(max(_DP_CHUNK, size >> 1), 3**n // 2)
    bufs = (np.empty(cap, dtype=np.int64), np.empty(cap), np.empty(cap))
    # a lowest vertex with m <= flat vertices above it has 3^m <= _DP_CHUNK
    # candidates: it pushes them all in one call, untested
    flat = max((m for m in range(n - 1) if 3**m <= _DP_CHUNK), default=0)
    pair_block, pair_rest = _disjoint_pairs(flat)
    bit = np.left_shift(1, np.arange(n))
    kept = pushed = 0
    # vertex 0 pushes nothing: a mask holding it is never a rest, so of its
    # targets only V is read, and the top pull below fills it
    for low in range(n - 1, 0, -1):
        # with this stride, from 1 << low run the masks whose lowest vertex is low
        # and from 0 the masks above low, all final: entry t of either view holds
        # the vertices above low picked by the bits of t
        m, stride = n - 1 - low, 2 << low
        g_low, opt_low, opt_above = g[1 << low :: stride], opt[1 << low :: stride], opt[::stride]
        if m <= flat:
            c = 3**m
            blocks, rests, idx = pair_block[:c], pair_rest[:c], bufs[0][:c]
            # widened in place, since take would copy small ints; mode="clip" lets
            # take write straight into out, and every index is in range
            idx[:] = blocks
            vals = np.take(g_low, idx, out=bufs[1][:c], mode="clip")
            idx[:] = rests
            vals += np.take(opt_above, idx, out=bufs[2][:c], mode="clip")
            np.minimum.at(opt_low, np.add(blocks, rests, out=idx), vals)
            kept += 1 << m
            pushed += c
            continue
        # smaller blocks first: opt of a block is by then its best proper partition
        for k in range(m + 1):
            blocks = np.flatnonzero(popcount[: 1 << m] == k)
            gb = g_low[blocks]
            keep = gb < opt_low[blocks] + slack
            blocks, gb = blocks[keep], gb[keep]
            f = m - k  # vertices above low that a block leaves free
            kept += len(blocks)
            pushed += len(blocks) << f
            rows = max(1, _DP_CHUNK >> f)
            for c in range(0, len(blocks), rows):
                free = ((1 << m) - 1) ^ blocks[c : c + rows]
                _rows, pos = np.nonzero(free[:, None] & bit[:m])
                rests = _submasks(bit[pos].reshape(len(free), f), bufs[0])
                vals = np.take(opt_above, rests, out=bufs[2][: rests.size].reshape(rests.shape),
                               mode="clip")
                vals += gb[c : c + rows, None]
                rests += blocks[c : c + rows, None]
                np.minimum.at(opt_low, rests.ravel(), vals.ravel())

    # rebuild the argmin on the optimal path only, over every block that holds
    # the mask's lowest vertex: the first minimum is the block the per-mask DP keeps
    assignment = np.zeros(n, dtype=np.int64)
    mask = size - 1
    cid = 0
    while mask:
        low = mask & -mask
        rests = _submasks(bit[(mask ^ low) & bit != 0][None, :], bufs[0])[0]
        vals = np.take(g, np.add(rests, low, out=rests), out=bufs[1][: len(rests)], mode="clip")
        rests = np.subtract(mask, rests, out=rests)
        vals += np.take(opt, rests, out=bufs[2][: len(rests)], mode="clip")
        best = int(np.argmin(vals))
        if mask == size - 1:
            # the top pull: every rest lies above vertex 0, final, and every
            # block holding vertex 0 is read, so this is the per-mask DP at V
            opt[mask] = vals[best]
        block = mask - int(rests[best])
        assignment[block & bit != 0] = cid
        mask ^= block
        cid += 1
    log.debug("subset DP n=%d: %d blocks kept, %d of %d candidates pushed, %d pulled, %.3f s",
              n, kept, pushed, 3**n // 2, size >> 1, time.perf_counter() - start)
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
    blocks = _submasks(np.left_shift(1, pos), np.empty(rows << k, dtype=np.int64))
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


def exact_expected_total_cost(
    inst: Instance, x: LpSolution, scheme: RoundingScheme
) -> float:
    """Exact expected final cost of the randomized pivot algorithm.

    F[S] = sum over first clusters B of Pr(B) (g[B] + F[S - B]), filled
    layer by layer in popcount order (every S - B lies in a smaller
    layer), in chunks of at most _DP_CHUNK (mask, cluster) columns;
    E[ALG] = base + F[V]. Unlike the OPT DP it cannot skip blocks: every
    cluster the pivot may cut carries weight in the sum. For
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
