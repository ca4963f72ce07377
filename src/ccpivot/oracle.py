"""Exact ground truth for small instances.

``brute_force_opt`` minimizes over every partition of the vertex set.
Up to 10 vertices it walks restricted-growth strings with incremental
prefix costs (so the reported argmin is the first optimum in enumeration
order); from 11 vertices it switches to an exact subset DP over bit
masks, which evaluates the same minimum in 3^n vectorized steps instead
of Bell(n) leaves. Both paths are exhaustive; they cross-check each
other in the tests.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .instance import WEIGHTED, Clustering, Instance, pair_iter
from .lp import LpSolution, solve_relaxation
from .rounding import (
    RoundingScheme,
    cut_probabilities,
    pair_model,
    pivot_terms,
    probability_matrix,
)

DEFAULT_BRUTE_CAP = 13
_RGS_MAX = 10
_ABS_MAX = 20  # subset DP memory wall (the link table is n * 2^n floats)


def brute_force_cap() -> int:
    """Hard size cap; CC_MAX_BRUTE_N raises it (clamped to the DP limit)."""
    raw = os.environ.get("CC_MAX_BRUTE_N")
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        return DEFAULT_BRUTE_CAP
    return max(1, min(cap, _ABS_MAX))


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


def _pair_delta(inst: Instance) -> np.ndarray:
    """delta[u, v] = cost of putting u, v together minus cost of splitting."""
    wp, wm = inst.pair_weights()
    return wm - wp


def _brute_force_rgs(inst: Instance) -> tuple[Clustering, float]:
    n = inst.n
    wp, wm = inst.pair_weights()
    delta = wm - wp
    # split_cost[i] = what vertex i's pairs to 0..i-1 pay if i opens a new block
    split_cost = [float(wp[:i, i].sum()) for i in range(n)]

    best_cost = math.inf
    best: np.ndarray | None = None
    a = np.zeros(n, dtype=np.int64)
    blocks: list[list[int]] = [[0]]

    def rec(i: int, cur: float):
        nonlocal best_cost, best
        if i == n:
            if cur < best_cost - 1e-12:  # strict: keep the first argmin
                best_cost = cur
                best = a.copy()
            return
        for b in range(len(blocks) + 1):
            add = split_cost[i]
            if b < len(blocks):
                for j in blocks[b]:
                    add += delta[j, i]
            new = cur + add
            # remaining pairs cost >= 0, so a beaten prefix cannot recover
            if new >= best_cost - 1e-12:
                continue
            a[i] = b
            if b == len(blocks):
                blocks.append([i])
                rec(i + 1, new)
                blocks.pop()
            else:
                blocks[b].append(i)
                rec(i + 1, new)
                blocks[b].pop()

    if n == 1:
        return Clustering([0]), 0.0
    rec(1, 0.0)
    return Clustering(best), float(best_cost)


def _block_costs(inst: Instance) -> tuple[np.ndarray, float]:
    """g[mask] = sum over pairs inside mask of (keep cost - cut cost).

    Total cost of a partition is then base + sum of g over its blocks,
    with base the all-singletons cost.
    """
    n = inst.n
    delta = _pair_delta(inst)
    wp, _wm = inst.pair_weights()
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
    # peel the lowest bit; masks with lowest bit `low` are bit + (k << (low+1)),
    # and their rests have strictly higher lowest bits, so fill low descending
    g = np.zeros(size, dtype=np.float64)
    for low in range(n - 1, -1, -1):
        bit = 1 << low
        rests = idx[: size >> (low + 1)] << (low + 1)
        g[rests + bit] = g[rests] + link[low][rests]
    return g, base


def _brute_force_subset_dp(inst: Instance) -> tuple[Clustering, float]:
    """Exact optimum via DP over subsets, for sizes past the RGS range."""
    n = inst.n
    size = 1 << n
    g, base = _block_costs(inst)

    # binary counter matrices: C[k] rows enumerate subsets of k given bits
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
        vals_bits = []
        r = rest
        while r:
            b = r & (-r)
            vals_bits.append(b)
            r ^= b
        k = len(vals_bits)
        subs = counters[k] @ np.asarray(vals_bits, dtype=np.int64) if k else np.zeros(1, dtype=np.int64)
        vals = g[subs + lowbit] + opt[rest - subs]
        i = int(np.argmin(vals))
        opt[mask] = vals[i]
        choice[mask] = subs[i] + lowbit

    full = size - 1
    assignment = np.zeros(n, dtype=np.int64)
    mask = full
    cid = 0
    while mask:
        block = int(choice[mask])
        for v in range(n):
            if (block >> v) & 1:
                assignment[v] = cid
        mask ^= block
        cid += 1
    return Clustering(assignment), float(base + opt[full])


def brute_force_opt(inst: Instance) -> tuple[Clustering, float]:
    """Global minimum clustering cost and one argmin."""
    cap = brute_force_cap()
    if inst.n > cap:
        raise ValueError(
            f"brute force capped at {cap} vertices (got {inst.n}); "
            "set CC_MAX_BRUTE_N to override"
        )
    if inst.n <= _RGS_MAX:
        return _brute_force_rgs(inst)
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


def _label_coin_outcomes(inst: Instance):
    """(probability, labeled instance) of each label-coin outcome of a weighted instance."""
    n = inst.n
    pairs = list(pair_iter(n))
    for bits in range(1 << len(pairs)):
        labels = np.zeros((n, n), dtype=np.int8)
        prob = 1.0
        for i, (u, v) in enumerate(pairs):
            plus = (bits >> i) & 1
            prob *= inst.lam_plus[u, v] if plus else 1.0 - inst.lam_plus[u, v]
            labels[u, v] = labels[v, u] = 1 if plus else -1
        if prob != 0.0:
            yield prob, Instance.complete(labels)


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

    Computed by enumerating the pivot and all 2^(n-1) membership
    outcomes; weighted instances also enumerate the per-pair label
    coins, so keep n tiny there. Matches the pairwise closed form.
    """
    n = inst.n
    model = pair_model(inst, x)  # the enumeration reads no self-loop
    if inst.kind == WEIGHTED:
        if n > 6:
            raise ValueError("weighted enumeration is capped at n = 6")
        e_alg = 0.0
        e_lp = 0.0
        for prob, sampled in _label_coin_outcomes(inst):
            a, l = _enumerate_step(probability_matrix(sampled, x, scheme), *model)
            e_alg += prob * a
            e_lp += prob * l
        return {"e_alg_0": e_alg, "e_lp_0": e_lp}
    if n > 12:
        raise ValueError("enumeration capped at n = 12")
    e_alg, e_lp = _enumerate_step(probability_matrix(inst, x, scheme), *model)
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

    Recursion over active sets with memoization; exponential, meant for
    cross-checking Monte-Carlo runs at n <= 6 (weighted: n <= 4, since
    the label coins are enumerated too).
    """
    n = inst.n
    if inst.kind == WEIGHTED:
        if n > 4:
            raise ValueError("weighted total-cost enumeration capped at n = 4")
        total = 0.0
        for prob, sampled in _label_coin_outcomes(inst):
            # violation costs are still charged against the weights
            total += prob * _expected_total(sampled, inst, x, scheme)
        return total
    if n > 6:
        raise ValueError("total-cost enumeration capped at n = 6")
    return _expected_total(inst, inst, x, scheme)


def _expected_total(
    label_inst: Instance, cost_inst: Instance, x: LpSolution, scheme: RoundingScheme
) -> float:
    n = label_inst.n
    p = probability_matrix(label_inst, x, scheme)
    model = pair_model(cost_inst, x)
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
