"""Exhaustive references for the exact oracle and the triangle scan.

``partitions`` enumerates every set partition (the reference for the
subset DP's optimum). ``expected_step`` and ``expected_total`` price the
randomized pivot algorithm the long way: they flip every uncertain label
coin (0 < lam_plus < 1), with the cut probabilities built here from the
instance's own labels or lam_plus, and for each coin outcome enumerate
the pivots and all membership outcomes. They never read the coin
mixture ``cut_probabilities``, so they check the oracle's claim that the
mixture is exact. Exponential in the coins too: weighted instances stop
at n = 4 (total) and n = 5 (step).

``slab_separation`` and ``slab_worst_triangle`` scan the triangle gaps
one n x n slab per vertex u with a Python sort, the reference for the
blocked tensor pass of ``instance.triangle_blocks``.
"""

import math

import numpy as np

from ccpivot.instance import KPARTITE, pair_iter
from ccpivot.rounding import pair_model


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


def join_outcomes(p: np.ndarray, verts: list, w: int):
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


def coin_outcomes(inst, x, scheme):
    """(probability, cut-probability matrix) of each outcome of the label coins.

    A weighted pair's coin lands "+" with probability lam_plus and the
    pair is then cut with f_plus(x), else with f_minus(x); a labeled
    pair's coin is certain, and a k-partite neutral pair reads f_neutral
    either way. Only the pairs with 0 < lam_plus < 1 flip, in pair_iter
    order, so a labeled instance has a single outcome of probability 1.
    """
    xm = np.clip(x.matrix, 0.0, 1.0)
    fp, fm = scheme.f_plus(xm), scheme.f_minus(xm)
    if inst.lam_plus is not None:
        lam = inst.lam_plus
    else:
        lam = (inst.labels == 1).astype(np.float64)
        if inst.kind == KPARTITE:
            neutral, f0 = inst.labels == 0, scheme.fn("0")(xm)
            fp, fm = np.where(neutral, f0, fp), np.where(neutral, f0, fm)
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


def step_masses(verts: list, members: set, wp, wm, L) -> tuple[float, float]:
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


def enumerate_step(p: np.ndarray, wp, wm, L) -> tuple[float, float]:
    """Step-0 expectations by brute enumeration of pivot and memberships."""
    n = p.shape[0]
    verts = list(range(n))
    e_alg = 0.0
    e_lp = 0.0
    for w in verts:
        for members, prob in join_outcomes(p, verts, w):
            alg, lpmass = step_masses(verts, members, wp, wm, L)
            e_alg += prob * alg / n
            e_lp += prob * lpmass / n
    return e_alg, e_lp


def expected_step(inst, x, scheme) -> dict:
    """Exact E[violations] and E[LP removed] of the first pivot step."""
    model = pair_model(inst, x)  # the enumeration reads no self-loop
    e_alg = 0.0
    e_lp = 0.0
    for prob, p in coin_outcomes(inst, x, scheme):
        a, l = enumerate_step(p, *model)
        e_alg += prob * a
        e_lp += prob * l
    return {"e_alg_0": e_alg, "e_lp_0": e_lp}


def expected_given_coins(p: np.ndarray, model) -> float:
    """Expected final cost for one coin outcome: recursion over active sets."""
    n = p.shape[0]
    memo: dict[int, float] = {0: 0.0}

    def solve(mask: int) -> float:
        if mask in memo:
            return memo[mask]
        verts = [u for u in range(n) if (mask >> u) & 1]
        total = 0.0
        for w in verts:
            acc = 0.0
            for members, prob in join_outcomes(p, verts, w):
                step_cost, _lp = step_masses(verts, members, *model)
                rest = mask
                for u in members:
                    rest ^= 1 << u
                acc += prob * (step_cost + solve(rest))
            total += acc / len(verts)
        memo[mask] = total
        return total

    return solve((1 << n) - 1)


def expected_total(inst, x, scheme) -> float:
    """Exact expected final cost of the randomized pivot algorithm."""
    model = pair_model(inst, x)
    return sum(prob * expected_given_coins(p, model)
               for prob, p in coin_outcomes(inst, x, scheme))


def triangle_slabs(d: np.ndarray):
    """(u, slab) per vertex u of a symmetric d: one n x n slab at a time.

    slab[v, w] = d[u,w] - d[u,v] - d[v,w] on distinct u < w, v, else -inf.
    """
    for u in range(d.shape[0]):
        with np.errstate(invalid="ignore"):  # inf - inf gives a NaN gap
            slab = d[u][None, :] - d[u][:, None] - d
        slab[:, :u + 1] = slab[u, :] = -math.inf
        np.fill_diagonal(slab, -math.inf)
        yield u, slab


def slab_separation(d: np.ndarray, tol: float) -> list:
    """(u, v, w, gap) of every gap > tol, by -gap, then u, v, w."""
    found = []
    for u, slab in triangle_slabs(d):
        vs, ws = np.nonzero(slab > tol)
        found += [(u, v, w, g) for v, w, g in zip(vs.tolist(), ws.tolist(), slab[vs, ws].tolist())]
    found.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    return found


def slab_worst_triangle(d: np.ndarray) -> tuple:
    """(gap, (u, v, w)) of the largest non-NaN gap, the first in (u, v, w) order."""
    best, where = -math.inf, None
    for u, slab in triangle_slabs(d):
        v, w = divmod(int(np.nanargmax(slab)), d.shape[0])
        if slab[v, w] > best:
            best, where = float(slab[v, w]), (u, v, w)
    return best, where
