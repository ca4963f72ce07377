"""Exact ground truth for small instances.

``brute_force_opt`` minimizes over every partition of the vertex set by
an exact DP over bit masks: opt[mask] is the cheapest partition of
mask, taken over the (3^n - 1) / 2 candidate blocks that hold each
mask's lowest vertex, instead of over the Bell(n) partitions that
``partitions`` enumerates (the tests price those as the reference).
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

The exact expectations of the randomized pivot algorithm enumerate the
label coins that are uncertain (0 < lam_plus < 1) in the coin table of
``rounding.pair_candidates``, then the pivots and memberships; a
labeled instance has one coin outcome, of probability 1.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import WEIGHTED, Clustering, Instance, pair_iter
from .lp import LpSolution, solve_relaxation
from .rounding import (
    RoundingScheme,
    cut_probabilities,
    pair_candidates,
    pair_model,
    pivot_terms,
)

MAX_EXACT_N = 20  # the DP's wall: (3^n - 1) / 2 candidate blocks
_DP_CHUNK = 1 << 16  # DP candidates evaluated per numpy call (masks x blocks)


def partitions(n: int):
    """Every set partition of range(n) exactly once, as assignment arrays.

    Restricted-growth order: element 0 is always in block 0 and each new
    block id is one more than the current maximum, so the yielded arrays
    are already in canonical first-occurrence form. Count is the Bell
    number of n.
    """
    if n == 0:
        yield np.zeros(0, dtype=np.int64)
        return
    a = np.zeros(n, dtype=np.int64)
    m = np.zeros(n, dtype=np.int64)  # m[i] = max block id among a[:i+1]
    while True:
        yield a.copy()
        i = n - 1
        while i > 0 and a[i] == m[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        m[i] = max(m[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            m[j] = m[i]


def _block_costs(inst: Instance) -> tuple[np.ndarray, float]:
    """g[mask] = sum over pairs inside mask of (keep cost - cut cost).

    Total cost of a partition is then base + sum of g over its blocks,
    with base the all-singletons cost.
    """
    n = inst.n
    wp, wm = inst.pair_weights()
    delta = wm - wp  # joining u, v costs delta[u, v] more than splitting them
    base = float(np.triu(wp, 1).sum())
    size = 1 << n

    # peel the lowest bit: a mask with lowest bit `low` is bit + (r << (low+1)),
    # and its rest r << (low+1) has strictly higher bits, so fill low descending.
    # link[r] = sum of delta[low, j] over the bits j of r << (low+1), added in
    # ascending j by one doubling step per bit.
    g = np.zeros(size, dtype=np.float64)
    idx = np.arange(size)
    for low in range(n - 1, -1, -1):
        shift = low + 1
        link = np.zeros(size >> shift, dtype=np.float64)
        for j in range(n - shift):
            np.add(link[: 1 << j], delta[low, shift + j], out=link[1 << j : 2 << j])
        rests = idx[: size >> shift] << shift
        g[rests + (1 << low)] = g[rests] + link
    return g, base


def _brute_force_subset_dp(inst: Instance) -> tuple[Clustering, float]:
    """Exact optimum via DP over subsets (no size check; see brute_force_opt)."""
    n = inst.n
    size = 1 << n
    g, base = _block_costs(inst)
    opt = np.full(size, np.inf, dtype=np.float64)
    opt[0] = 0.0
    popcount = np.zeros(size, dtype=np.int8)
    for j in range(n):
        np.add(popcount[: 1 << j], 1, out=popcount[1 << j : 2 << j])
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


def brute_force_opt(inst: Instance) -> tuple[Clustering, float]:
    """Global minimum clustering cost and one argmin, for n <= MAX_EXACT_N."""
    if inst.n > MAX_EXACT_N:
        raise ValueError(
            f"the exact oracle solves instances up to n = {MAX_EXACT_N} "
            f"(MAX_EXACT_N); this one has n = {inst.n}"
        )
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
# exhaustive expectations
# ---------------------------------------------------------------------------


def _join_outcomes(p: np.ndarray, verts: list, w: int):
    """(members, probability) of each outcome of pivot w; u joins w.p. 1 - p[u, w]."""
    others = [u for u in verts if u != w]
    for bits in range(1 << len(others)):
        members = {w}
        prob = 1.0
        for i, u in enumerate(others):
            join = (bits >> i) & 1
            q = 1.0 - p[u, w]
            prob *= q if join else 1.0 - q
            if join:
                members.add(u)
        if prob != 0.0:
            yield members, prob


def _coin_outcomes(inst: Instance, x: LpSolution, scheme: RoundingScheme):
    """(probability, cut-probability matrix) of each outcome of the label coins.

    Only the pairs with 0 < lam_plus < 1 flip, in pair_iter order; every
    other coin is certain, so a labeled instance has a single outcome of
    probability 1.
    """
    fp, fm, lam = pair_candidates(inst, x, scheme)
    coins = [(u, v) for u, v in pair_iter(inst.n) if 0.0 < lam[u, v] < 1.0]
    plus = lam == 1.0
    for bits in range(1 << len(coins)):
        prob = 1.0
        for i, (u, v) in enumerate(coins):
            up = (bits >> i) & 1
            prob *= lam[u, v] if up else 1.0 - lam[u, v]
            plus[u, v] = plus[v, u] = up
        p = np.where(plus, fp, fm)
        np.fill_diagonal(p, 0.0)
        yield prob, p


def _step_masses(verts: list, members: set, wp, wm, L) -> tuple[float, float]:
    """(violated mass, LP mass removed) of one step over the pairs of verts."""
    alg = 0.0
    lpmass = 0.0
    for ui, u in enumerate(verts):
        for v in verts[ui + 1:]:
            u_in, v_in = u in members, v in members
            if u_in != v_in:
                alg += wp[u, v]
            elif u_in:
                alg += wm[u, v]
            if u_in or v_in:
                lpmass += L[u, v]
    return alg, lpmass


def _enumerate_step(p: np.ndarray, wp: np.ndarray, wm: np.ndarray,
                    L: np.ndarray) -> tuple[float, float]:
    """Step-0 expectations by brute enumeration of pivot and memberships."""
    n = p.shape[0]
    verts = list(range(n))
    e_alg = 0.0
    e_lp = 0.0
    for w in verts:
        for members, prob in _join_outcomes(p, verts, w):
            alg, lpmass = _step_masses(verts, members, wp, wm, L)
            e_alg += prob * alg / n
            e_lp += prob * lpmass / n
    return e_alg, e_lp


def exact_expected_step_cost(
    inst: Instance, x: LpSolution, scheme: RoundingScheme
) -> dict:
    """Exact E[violations] and E[LP removed] of the first pivot step.

    Computed by enumerating the uncertain label coins, the pivot and all
    2^(n-1) membership outcomes. Weighted instances flip a coin on every
    pair, so they are capped at n = 5 (2^10 coin outcomes; n = 6 has 2^15
    and takes tens of seconds), labeled ones at n = 12. Matches the
    pairwise closed form.
    """
    cap = 5 if inst.kind == WEIGHTED else 12
    if inst.n > cap:
        raise ValueError(f"step-cost enumeration capped at n = {cap} for {inst.kind} instances")
    model = pair_model(inst, x)  # the enumeration reads no self-loop
    e_alg = 0.0
    e_lp = 0.0
    for prob, p in _coin_outcomes(inst, x, scheme):
        a, l = _enumerate_step(p, *model)
        e_alg += prob * a
        e_lp += prob * l
    return {"e_alg_0": e_alg, "e_lp_0": e_lp}


def step_cost_formula(inst: Instance, x: LpSolution, scheme: RoundingScheme) -> dict:
    """Pairwise closed form for the same two step-0 expectations.

    Weighted instances plug in the coin-averaged cut probabilities,
    which is exact because every term is multilinear in the independent
    per-pair values.
    """
    n = inst.n
    p = cut_probabilities(inst, x, scheme)
    wp, wm, L = pair_model(inst, x)
    np.fill_diagonal(wp, 0.0)  # a real step has no self-loops
    e_alg = 0.0
    e_lp = 0.0
    for w in range(n):
        cost, lp = pivot_terms(wp, wm, L, p[:, w])
        e_alg += 0.5 * cost / n
        e_lp += 0.5 * lp / n
    return {"e_alg_0": float(e_alg), "e_lp_0": float(e_lp)}


def exact_expected_total_cost(
    inst: Instance, x: LpSolution, scheme: RoundingScheme
) -> float:
    """Exact expected final cost of the randomized pivot algorithm.

    Recursion over active sets with memoization per coin outcome;
    exponential, meant for cross-checking Monte-Carlo runs at n <= 6
    (weighted: n <= 4, since the label coins are enumerated too).
    """
    cap = 4 if inst.kind == WEIGHTED else 6
    if inst.n > cap:
        raise ValueError(f"total-cost enumeration capped at n = {cap} for {inst.kind} instances")
    model = pair_model(inst, x)
    total = 0.0
    for prob, p in _coin_outcomes(inst, x, scheme):
        total += prob * _expected_total(p, model)
    return total


def _expected_total(p: np.ndarray, model) -> float:
    n = p.shape[0]
    memo: dict[int, float] = {0: 0.0}

    def solve(mask: int) -> float:
        if mask in memo:
            return memo[mask]
        verts = [u for u in range(n) if (mask >> u) & 1]
        total = 0.0
        for w in verts:
            acc = 0.0
            for members, prob in _join_outcomes(p, verts, w):
                step_cost, _lp = _step_masses(verts, members, *model)
                rest = mask
                for u in members:
                    rest ^= 1 << u
                acc += prob * (step_cost + solve(rest))
            total += acc / len(verts)
        memo[mask] = total
        return total

    return solve((1 << n) - 1)
