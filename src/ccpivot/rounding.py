"""Rounding schemes and the pivot algorithms that consume them.

A scheme is a named triple of piecewise functions (f_plus, f_minus,
f_neutral) mapping an LP edge length in [0, 1] to a cut probability.
Every class reads one formula, ``cut_probabilities``: a pair of
positive mass lam (W+ of ``Instance.pair_weights``) is cut with probability
lam f_plus(x) + (1 - lam) f_minus(x), and a k-partite neutral pair with
f_neutral(x). On a weighted pair this is the mixture over its label
coin, which a pivot run reads at most once, so the mixture has the law
of the paper's coin flips. The randomized pivot algorithm repeatedly
picks a uniform pivot among active vertices and keeps each active u
with probability 1 - p_uw; the derandomized variant rounds every p_uv
to 0/1 greedily against the step surplus and then picks the best pivot,
which turns the expected guarantee into a deterministic one. Both read
one step kernel, ``pivot_terms``; its columns summed over all pivots are
the first step's expectations (``step_inequality_check``, ``step_cost_formula``).

Every randomized run, labeled or weighted, reads its seed's splitmix64
stream in one order: each pivot step draws one ``randint`` over the
active vertices and one uniform per active vertex, in ascending id
order, so a run reads at most n + n(n+1)/2 words unless a randint
rejects. Trial t of ``monte_carlo_ratio`` runs on the stream seeded by
word t of the master stream. The words are computed in blocks
(``rng.block_rows``) and every decision is the one the scalar draws
would make, so outputs at a given seed do not depend on how the stream
is computed.

The cut probabilities, their keep rows and the pair model are prepared
once per LP point (``_tables``) and read by every entry that rounds it.
Single runs (``pivot_round``) use the scalar kernel. Monte-Carlo trials
run in lockstep chunks: each pass of ``_pivot_batch`` makes one pivot
step in every run of the chunk on vertex-major (n, runs) arrays. The
runs share one (n, n) keep table, 1 - p, read as built, untransposed as
p is symmetric. One small matrix product ranks every active vertex and
points it at its uniform, so a step makes a handful of numpy calls: the
randint from per-k tables, the pivot by one comparison and sum, the keep
values and uniforms by two gathers, then the joins. A run whose randint would reject a word is
redone alone by the scalar kernel. Any trial can still be replayed
alone from seed word t, and its cost has the same bits alone or in a
batch (``assignment_cost``).
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .instance import (
    KPARTITE,
    Clustering,
    Instance,
    _json_typed,
    assignment_cost,
)
from .lp import LpSolution, lp_objective
from .rng import CHUNK_WORDS, SplitMix64, block_rows, rejection_bound, unit_floats

EDGE_PLUS = "+"
EDGE_MINUS = "-"
EDGE_NEUTRAL = "0"

log = logging.getLogger(__name__)


class IneligibleSchemeError(ValueError):
    """Scheme lacks the shape a routine requires (e.g. no f_neutral)."""


def _finite(what: str, value: float) -> None:
    """ValueError unless value is a finite number (NaN and +-inf are refused)."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# piecewise functions
# ---------------------------------------------------------------------------


_PIECE_PARAMS = {"constant": 1, "linear": 2, "power": 3}


@dataclass(frozen=True)
class Piece:
    """One piece of a piecewise function on [lo, hi].

    kind:
      * "constant": params = (value,)
      * "linear":   params = (intercept, slope)
      * "power":    params = (anchor, scale, exponent) -> ((x-anchor)/scale)**e,
                    base clipped at 0; scale != 0 and exponent > 0

    Bounds and params must be finite, with lo < hi.

    closed_left says whether the piece owns its left endpoint; interior
    breakpoints belong to exactly one side, which matters at jumps.
    """

    lo: float
    hi: float
    kind: str
    params: tuple
    closed_left: bool = True

    def __post_init__(self):
        want = _PIECE_PARAMS.get(self.kind)
        if want is None:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        if len(self.params) != want:
            raise ValueError(f"a {self.kind} piece takes {want} params, got {len(self.params)}")
        if not all(math.isfinite(v) for v in (self.lo, self.hi, *self.params)):
            raise ValueError(f"a piece needs finite bounds and params, got {self}")
        if not self.lo < self.hi:
            raise ValueError(f"a piece needs from < to, got [{self.lo}, {self.hi}]")
        if self.kind == "power" and (self.params[1] == 0 or self.params[2] <= 0):
            raise ValueError(f"a power piece needs scale != 0 and exponent > 0, got {self.params}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "constant":
            return np.full_like(x, self.params[0])
        if self.kind == "linear":
            b, a = self.params
            return b + a * x
        anchor, scale, expo = self.params  # "power"
        base = np.maximum((x - anchor) / scale, 0.0)
        return base**expo


class PiecewiseFn:
    """Piecewise function on [0, 1], vectorized, with owned breakpoints.

    The pieces tile [0, 1] exactly: the first owns 0, the last ends at 1,
    and each starts where the one before it ends. A point belongs to the
    last piece whose left end admits it, so a call writes the pieces in
    order, each over the points it admits.
    """

    def __init__(self, pieces: list[Piece]):
        if not pieces:
            raise ValueError("need at least one piece")
        if not (pieces[0].lo == 0.0 and pieces[0].closed_left and pieces[-1].hi == 1.0):
            raise ValueError("pieces must cover [0, 1], the first one closed at 0")
        for a, b in zip(pieces, pieces[1:]):
            if a.hi != b.lo:
                raise ValueError("pieces must tile [0, 1] without gaps or overlaps")
        self.pieces = pieces

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        if scalar:  # shape (1,): 0-d arithmetic yields numpy scalars, whose ** 0.5 is pow, not sqrt
            x = x.reshape(1)
        if not (x.min(initial=0.0) >= 0.0 and x.max(initial=1.0) <= 1.0):  # NaN fails too
            raise ValueError("argument outside [0, 1]")
        out = self.pieces[0](x)  # closed at 0, it admits every x
        for p in self.pieces[1:]:
            value = p.params[0] if p.kind == "constant" else p(x)
            np.copyto(out, value, where=x >= p.lo if p.closed_left else x > p.lo)
        return float(out[0]) if scalar else out

    def breakpoints(self) -> list[float]:
        pts = [self.pieces[0].lo] + [p.hi for p in self.pieces]
        return sorted(set(pts))

    def to_json_obj(self):
        return [
            {"from": p.lo, "to": p.hi, "kind": p.kind, "params": list(p.params),
             "closed_left": p.closed_left}
            for p in self.pieces
        ]

    @staticmethod
    def from_json_obj(obj) -> "PiecewiseFn":
        pieces = []
        for e in obj:
            kind = e["kind"]
            params = tuple(_json_number(v, "param") for v in e.get("params", ()))
            if kind == "quadratic":  # ((x-anchor)/scale)^2 shorthand
                kind, params = "power", (*params, 2.0)
            elif kind == "sqrt":
                kind, params = "power", (0.0, 1.0, 0.5)
            pieces.append(Piece(_json_number(e["from"], "from"), _json_number(e["to"], "to"),
                                kind, params,
                                _json_typed(e.get("closed_left", True), bool, "closed_left")))
        return PiecewiseFn(pieces)


def _json_number(value, what: str) -> float:
    return float(_json_typed(value, (int, float), what))


def identity_fn() -> PiecewiseFn:
    return PiecewiseFn([Piece(0.0, 1.0, "linear", (0.0, 1.0))])


def sqrt_fn() -> PiecewiseFn:
    return PiecewiseFn([Piece(0.0, 1.0, "power", (0.0, 1.0, 0.5))])


def step_fn(threshold: float) -> PiecewiseFn:
    """0 below threshold, 1 from threshold on (threshold owned by the 1-piece)."""
    return PiecewiseFn(
        [
            Piece(0.0, threshold, "constant", (0.0,)),
            Piece(threshold, 1.0, "constant", (1.0,), closed_left=True),
        ]
    )


@dataclass
class RoundingScheme:
    """Named (f_plus, f_minus, f_neutral) triple; f_neutral may be absent."""

    name: str
    f_plus: PiecewiseFn
    f_minus: PiecewiseFn
    f_neutral: PiecewiseFn | None = None

    def fn(self, edge_type: str) -> PiecewiseFn:
        if edge_type == EDGE_PLUS:
            return self.f_plus
        if edge_type == EDGE_MINUS:
            return self.f_minus
        if edge_type == EDGE_NEUTRAL:
            if self.f_neutral is None:
                raise IneligibleSchemeError(
                    f"scheme {self.name!r} has no neutral-edge function"
                )
            return self.f_neutral
        raise ValueError(f"unknown edge type {edge_type!r}")

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "f_plus": self.f_plus.to_json_obj(),
            "f_minus": self.f_minus.to_json_obj(),
            "f_neutral": self.f_neutral.to_json_obj() if self.f_neutral else None,
        }
        return json.dumps(doc, indent=1)

    @staticmethod
    def from_json(text: str) -> "RoundingScheme":
        doc = json.loads(text)
        return RoundingScheme(
            name=_json_typed(doc["name"], str, "name"),
            f_plus=PiecewiseFn.from_json_obj(doc["f_plus"]),
            f_minus=PiecewiseFn.from_json_obj(doc["f_minus"]),
            f_neutral=(PiecewiseFn.from_json_obj(doc["f_neutral"]) if doc.get("f_neutral")
                       else None),
        )


# -- shipped schemes --------------------------------------------------------

_A206, _B206 = 0.19, 0.5095
# cap point of min(c*x^2, 1) for c = 4 - 2*sqrt(2)
_C150 = 4.0 - 2.0 * math.sqrt(2.0)
_X150 = 1.0 / math.sqrt(_C150)


def _scheme_acn_linear() -> RoundingScheme:
    return RoundingScheme("acn_linear", identity_fn(), identity_fn())


def _scheme_complete206() -> RoundingScheme:
    f_plus = PiecewiseFn(
        [
            Piece(0.0, _A206, "constant", (0.0,)),
            Piece(_A206, _B206, "power", (_A206, _B206 - _A206, 2.0)),
            Piece(_B206, 1.0, "constant", (1.0,), closed_left=False),
        ]
    )
    return RoundingScheme("complete206", f_plus, identity_fn())


def _scheme_kpartite3() -> RoundingScheme:
    f_neutral = PiecewiseFn(
        [
            Piece(0.0, 2.0 / 3.0, "linear", (0.0, 1.5)),
            Piece(2.0 / 3.0, 1.0, "constant", (1.0,), closed_left=False),
        ]
    )
    return RoundingScheme("kpartite3", step_fn(1.0 / 3.0), identity_fn(), f_neutral)


def _scheme_weighted_ti_150() -> RoundingScheme:
    f_plus = PiecewiseFn(
        [
            Piece(0.0, _X150, "power", (0.0, _X150, 2.0)),
            Piece(_X150, 1.0, "constant", (1.0,), closed_left=False),
        ]
    )
    return RoundingScheme("weighted_ti_150", f_plus, sqrt_fn())


def _scheme_weighted_ti_153() -> RoundingScheme:
    f_plus = PiecewiseFn([Piece(0.0, 1.0, "power", (0.0, 1.0, 2.0))])
    return RoundingScheme("weighted_ti_153", f_plus, sqrt_fn())


SCHEMES = {
    s.name: s
    for s in (
        _scheme_acn_linear(),
        _scheme_complete206(),
        _scheme_kpartite3(),
        _scheme_weighted_ti_150(),
        _scheme_weighted_ti_153(),
    )
}


def get_scheme(name: str) -> RoundingScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None


# ---------------------------------------------------------------------------
# cut probabilities
# ---------------------------------------------------------------------------


def _lengths(inst: Instance, x: LpSolution) -> np.ndarray:
    """x's edge lengths clipped to [0, 1]; ValueError unless x has inst's vertex count."""
    if x.n != inst.n:
        raise ValueError(f"LP point has {x.n} vertices, instance has {inst.n}")
    return np.clip(x.matrix, 0.0, 1.0)


def cut_probabilities(inst: Instance, x: LpSolution, scheme: RoundingScheme) -> np.ndarray:
    """Cut probability of every pair, zero diagonal: lam f_plus + (1 - lam) f_minus
    with lam = W+ of pair_weights, and f_neutral on k-partite neutral pairs.

    lam is 1 on "+" pairs and 0 on "-" pairs, so a labeled pair reads its
    own function. A weighted pair's label coin is read at most once, when
    one endpoint pivots while the other is active, so pivoting on this
    mixture has the law of flipping every coin first, and the step
    expectations and the expected total cost, multilinear in the coins,
    are exact on it.
    """
    xm = _lengths(inst, x)
    lam = inst.pair_weights()[0]
    p = lam * scheme.f_plus(xm) + (1.0 - lam) * scheme.f_minus(xm)
    if inst.kind == KPARTITE:
        np.copyto(p, scheme.fn(EDGE_NEUTRAL)(xm), where=inst.labels == 0)
    np.fill_diagonal(p, 0.0)
    return p


def _tables(inst: Instance, x: LpSolution, scheme: RoundingScheme):
    """(P, keep rows, (W+, W-, L)): cut_probabilities, 1 - P as lists for the
    scalar pivot kernel, and pair_model, read-only, prepared once per point. x
    keeps those of the last (inst, scheme) it was rounded with, keyed by
    identity, so an instance or scheme must not be mutated once it is used."""
    t = x._tables
    if t is None or t[0] is not inst or t[1] is not scheme:
        P = cut_probabilities(inst, x, scheme)
        model = pair_model(inst, x)
        for a in (P, *model):
            a.flags.writeable = False
        t = x._tables = (inst, scheme, P, (1.0 - P).tolist(), model)
    return t[2:]


# ---------------------------------------------------------------------------
# randomized pivot rounding
# ---------------------------------------------------------------------------


@dataclass
class PivotTrace:
    steps: list = field(default_factory=list)  # (pivot, sorted cluster members)

    def check(self, n: int) -> None:
        seen: set[int] = set()
        for pivot, members in self.steps:
            ms = set(members)
            if pivot not in ms:
                raise AssertionError("pivot left its own cluster")
            if ms & seen:
                raise AssertionError("clusters overlap")
            seen |= ms
        if seen != set(range(n)):
            raise AssertionError("clusters do not cover the vertex set")


def _pivot_kernel(keep: list, raw: list, unif: list, rng: SplitMix64) -> list:
    """One randomized pivot run; returns [(pivot, members in id order), ...].

    keep[u][w] = 1 - p[u, w], symmetric like p. raw holds the stream's
    next words and unif their unit floats, n + n(n+1)/2 or more of each:
    a run makes at most n steps, each drawing one randint and one uniform
    per active vertex, so it needs no more unless a randint rejects. rng
    continues the stream after them. Per step: one randint over the
    active list, with SplitMix64.randint's rejection bound, then one
    uniform per active vertex in ascending id order; u joins pivot w iff
    its uniform is below keep[w][u].
    """
    steps = []
    active = list(range(len(keep)))
    i = 0
    while active:
        k = len(active)
        bound = rejection_bound(k)
        while raw[i] >= bound:
            # each rejected word is one more than the block budgets for
            extra = rng.block(1)
            raw += extra.tolist()
            unif += unit_floats(extra).tolist()
            i += 1
        pivot = active[raw[i] % k]
        row = keep[pivot]
        cluster, survivors = [], []
        for u, r in zip(active, unif[i + 1:i + 1 + k]):
            (cluster if r < row[u] else survivors).append(u)
        i += 1 + k
        steps.append((pivot, cluster))
        active = survivors
    return steps


def _pivot_batch(keep: np.ndarray, words: np.ndarray, unif: np.ndarray):
    """Runs of _pivot_kernel in lockstep, one pivot step of every run per pass.

    keep (n, n), keep[u, w] = 1 - p[u, w], is shared by all runs; p is
    symmetric, so column w serves pivot w. Run t reads row t of words and
    unif, both (T, width): n + n(n+1)/2 words or more. Returns the (T, n)
    cluster ids, numbered in pivot order, and a (T,) mask of the runs
    whose randint would reject a word: those go on with the rejected
    word, inside their rows, and the caller redoes them with
    _pivot_kernel, which reads past the block.

    A step works on (n, T) arrays. Rows 0..n-1 of state hold the active
    flags as 0/1 floats and row n each run's flat index of its next word,
    so one product with lift gives every vertex that index plus the count
    of active vertices up to itself (small integers, exact in float64).
    An active vertex of rank j reads the uniform at index + 1 + j, which
    is that sum, and the pivot is the vertex with pick = randint(k)
    active vertices before it. randint's modulus and largest accepted
    word come from per-k tables; a finished run (k = 0) draws randint(1),
    a dummy that never rejects. Rejections are looked for only when some
    word is above the smallest accepted limit.
    """
    (T, width), n = words.shape, keep.shape[0]
    words, unif = words.reshape(-1), unif.reshape(-1)
    state = np.ones((n + 1, T))
    state[n] = np.arange(T) * width
    active = state[:n]
    lift = np.tri(n + 1)  # row u < n sums rows 0..u and n of state; row n copies row n
    lift[:, n] = 1.0
    lift[n, :n] = 0.0
    mods = [max(k, 1) for k in range(n + 1)]
    tops = np.array([rejection_bound(m) - 1 for m in mods], dtype=np.uint64)
    mods = np.array(mods, dtype=np.uint64)
    lowest_top = tops.min()
    ids = np.zeros((n, T))
    rejected = np.zeros(T, dtype=bool)
    for _ in range(n):
        idx = (lift @ state).astype(np.intp)
        ptr, k = idx[n], idx[n - 1] - idx[n]
        if not k.any():
            break
        raw = words.take(ptr)
        if raw.max() > lowest_top:
            rejected |= raw > tops.take(k)
        last = ptr + (raw % mods.take(k)).view(np.int64)
        idx = idx[:n]
        pivot = (idx <= last).sum(axis=0)  # n on finished runs, clipped below
        col = keep.take(pivot, axis=1, mode="clip")
        np.greater(active, unif.take(idx) < col, out=active)
        ids += active
        np.add(idx[n - 1], 1, out=state[n])
    return ids.T.astype(np.int64, order="C"), rejected


def _run_width(n: int) -> int:
    """Stream words a run reads unless a randint rejects: at most n steps,
    each one randint and one uniform per active vertex."""
    return n + n * (n + 1) // 2


def _pivot_run(seed: int, keep: list) -> list:
    """The pivot steps of one run on the stream of seed; keep rows of 1 - p."""
    rng = SplitMix64(seed)
    words = rng.block(_run_width(len(keep)))
    return _pivot_kernel(keep, words.tolist(), unit_floats(words).tolist(), rng)


def _pivot_chunk(seeds: np.ndarray, keep: np.ndarray, redone: list | None = None) -> np.ndarray:
    """Cluster ids (len(seeds), n) of one run per seed on keep, run in lockstep.

    A run whose randint rejects a word is redone alone by _pivot_run,
    which reads past the block; the number of such runs is appended to
    redone when it is given.
    """
    n = len(keep)
    words = block_rows(seeds, _run_width(n))
    ids, rejected = _pivot_batch(keep, words, unit_floats(words))
    for t in np.flatnonzero(rejected):
        ids[t] = _assignment(n, _pivot_run(int(seeds[t]), keep.tolist()))
    if redone is not None:
        redone.append(int(rejected.sum()))
    return ids


def _assignment(n: int, steps: list) -> list:
    """Cluster id per vertex, clusters numbered in pivot order."""
    a = [0] * n
    for cid, (_pivot, members) in enumerate(steps):
        for u in members:
            a[u] = cid
    return a


def pivot_round(
    inst: Instance, x: LpSolution, scheme: RoundingScheme, seed: int
) -> tuple[Clustering, PivotTrace]:
    """One run of the randomized pivot algorithm on any class, with its trace."""
    steps = _pivot_run(seed, _tables(inst, x, scheme)[1])
    return Clustering(_assignment(inst.n, steps)), PivotTrace(steps)


def pivot_round_weighted(
    inst: Instance, x: LpSolution, scheme: RoundingScheme, seed: int
) -> Clustering:
    """pivot_round's clustering alone; kept as a name for existing callers."""
    return pivot_round(inst, x, scheme, seed)[0]


# ---------------------------------------------------------------------------
# step surplus machinery (shared by derandomization and the exact checks)
# ---------------------------------------------------------------------------


def pair_model(inst: Instance, x: LpSolution):
    """(W+, W-, L): per-pair positive and negative mass (``Instance.pair_weights``)
    and the per-pair objective cost of removal, W+ x + W- (1 - x); all three have a
    zero diagonal on every class.
    """
    wp, wm = inst.pair_weights()
    xm = _lengths(inst, x)
    return wp, wm, wp * xm + wm * (1.0 - xm)


def pivot_terms(wp, wm, L, P):
    """(cost, lp): expected violated and removed LP mass per pivot (column of P).

    wp, wm, L: the pair model on the active vertices; P[:, w]: their cut
    probabilities to pivot w. Sums run over ordered pairs; over 2n, the
    column sums are the first step's exact expectations.
    """
    Q = 1.0 - P
    cost = 2.0 * (P * (wp @ Q)).sum(axis=0) + (Q * (wm @ Q)).sum(axis=0)
    return cost, L.sum() - (P * (L @ P)).sum(axis=0)


def _first_step(inst: Instance, x: LpSolution, scheme: RoundingScheme):
    """(cost, lp, P, 2n): pivot_terms' columns summed over all pivots on the cut
    probabilities P; over 2n they are the first step's exact expected violated and
    removed LP mass."""
    P, _keep, model = _tables(inst, x, scheme)
    cost, lp = pivot_terms(*model, P)
    return cost.sum(), lp.sum(), P, 2.0 * max(inst.n, 1)  # n = 0: no step, both sums 0


@dataclass
class StepInequality:
    lhs: float  # bound on the expected step-0 violation count: exact value plus self-loops
    rhs: float  # alpha times the expected step-0 LP mass removed
    holds: bool


def step_inequality_check(
    inst: Instance, x: LpSolution, scheme: RoundingScheme, alpha: float
) -> StepInequality:
    """Evaluate the first-step inequality via the pairwise sums. On complete and
    weighted instances lhs adds a unit positive self-loop per vertex, as the
    triangle charging does: pivot w violates the loop of u with probability
    p_uw (1 - p_uw), so the exact cost gains sum_{u != w} p_uw (1 - p_uw) / n."""
    _finite("alpha", alpha)
    cost, lp, P, two_n = _first_step(inst, x, scheme)
    if inst.kind != KPARTITE:
        cost += 2.0 * (P * (1.0 - P)).sum()
    lhs, rhs = float(cost / two_n), float(alpha * lp / two_n)
    return StepInequality(lhs, rhs, lhs <= rhs + 1e-9)


def step_cost_formula(inst: Instance, x: LpSolution, scheme: RoundingScheme) -> dict:
    """Exact E[violations] and E[LP removed] of the first pivot step, O(n^3) at any n.
    On weighted instances the coin mixture is exact: every term is multilinear in the coins.
    """
    cost, lp, _P, two_n = _first_step(inst, x, scheme)
    return {"e_alg_0": float(cost / two_n), "e_lp_0": float(lp / two_n)}


def _active_model(wp, wm, L, active: np.ndarray):
    sub = active[:, None], active
    return wp[sub], wm[sub], L[sub]


_LIST_ROWS = 24  # a greedy block's trailing rows that run on lists; longer rows are faster in numpy


def greedy_round_probabilities(wp, wm, L, P: np.ndarray, alpha: float) -> np.ndarray:
    """Round each off-diagonal P_uv to 0 or 1, never decreasing the step surplus.

    All four are blocks on the active vertices; returns a rounded copy of P.
    Pairs are visited in ascending lexicographic order, and a pair goes
    to 1 only when that strictly raises the surplus, so ties go to 0.
    Only the two pivot terms touching (u, v) depend on p_uv, and each is
    quadratic in it. For pivot w with column c = P[:, w], let c0 be
    c with entry i set to 0; moving entry i from 0 to 1 changes that
    pivot's alpha * lp - cost by the closed form

        (C c0)_i + d_i,   C = 4 W+ - 2 W- - 2 alpha L,   d_i = 2 (W- 1)_i - 2 (W+ 1)_i,

    where the pair model's zero diagonals (pair_model) make C's diagonal 0,
    so (C c0)_i = (C c)_i. Row w of H holds C c for pivot w. A rounding
    changes one entry of two columns, and H follows by one row update
    each, so a pair is scored in O(k) rather than by re-evaluating its
    two quadratic forms. The last _LIST_ROWS rows run on Python lists
    (_greedy_rows), which beat a dozen numpy calls per row on short rows
    and update only the entries of H read later; the leading rows of a
    wider block update H row-wise in numpy. Every entry read sees the
    same float operations in the same order either way.
    """
    P = P.copy()
    k = len(P)
    C = 4.0 * wp - 2.0 * wm - 2.0 * alpha * L
    d = 2.0 * wm.sum(axis=1) - 2.0 * wp.sum(axis=1)
    H = P.T @ C
    lead = max(k - _LIST_ROWS, 0)
    for i in range(lead):
        rest = slice(i + 1, k)
        # pair (i, j): column j's gain at entry i, plus column i's gain at
        # entry j less its (C c)_j, which h = H[i] tracks through this row;
        # column j changes only at entry i here, so rows j > i follow after it
        fixed = (H[rest, i] + d[i] + d[rest]).tolist()
        h = H[i]
        new = []
        for j, g in enumerate(fixed, start=i + 1):
            best = 1.0 if h[j] + g > 0.0 else 0.0
            if best != P[j, i]:
                h += (best - P[j, i]) * C[j]
            new.append(best)
        H[rest] += np.outer(new - P[i, rest], C[i])
        P[i, rest] = P[rest, i] = new
    tail = slice(lead, k)
    P[tail, tail] = _greedy_rows(H[tail, tail].tolist(), C[tail, tail].tolist(),
                                 d[tail].tolist(), P[tail, tail].tolist())
    return P


def _greedy_rows(H: list, C: list, d: list, P: list) -> list:
    """greedy_round_probabilities' row loop on lists, entry for entry; returns P rounded.

    A flip at (i, j) updates row i of H past column j, and after row i the
    rows below it are updated past column i: the entries read later. A
    zero step would add only a signed zero, which no decision can tell
    apart, so it is skipped.
    """
    k = len(P)
    for i in range(k - 1):
        hi, ci, pi, di = H[i], C[i], P[i], d[i]
        deltas = []
        for j in range(i + 1, k):
            best = 1.0 if hi[j] + (H[j][i] + di + d[j]) > 0.0 else 0.0
            step = best - P[j][i]
            if step:
                cj = C[j]
                for m in range(j + 1, k):
                    hi[m] += step * cj[m]
            deltas.append(best - pi[j])
            pi[j] = P[j][i] = best
        for r, step in enumerate(deltas, start=i + 1):
            if step:
                hr = H[r]
                for m in range(i + 1, k):
                    hr[m] += step * ci[m]
    return P


def derandomize_round(
    inst: Instance, x: LpSolution, scheme: RoundingScheme, alpha: float
) -> Clustering:
    """Deterministic pivot rounding with cost at most alpha * LP(x).

    Per step, on one pair model of the active block: greedily round the
    scheme's probabilities to 0/1 (the step surplus is convex in each
    variable, so endpoint choices never decrease it;
    greedy_round_probabilities scores each pair in O(k) by its
    closed-form change), then take the pivot whose conditional surplus
    is largest, all scored at once by pivot_terms, the kernel of the
    first-step sums. A pivot must beat the best so far by 1e-15, so
    near-ties go to the lowest id. Membership is then deterministic.
    Each step logs one DEBUG line on the ``ccpivot.rounding`` logger.
    """
    _finite("alpha", alpha)
    base, _keep, (wp, wm, L) = _tables(inst, x, scheme)
    active = np.arange(inst.n)
    assignment = np.full(inst.n, -1, dtype=np.int64)
    cid = 0
    while active.size:
        model = _active_model(wp, wm, L, active)
        P = greedy_round_probabilities(*model, base[active[:, None], active], alpha)
        cost, lp = pivot_terms(*model, P)
        best, best_val = -1, -math.inf
        for i, val in enumerate((0.5 * (alpha * lp - cost)).tolist()):
            if val > best_val + 1e-15:
                best, best_val = i, val
        cluster = active[P[:, best] == 0.0]
        log.debug("derand step %d: %d active, pivot %d, cluster of %d, surplus %.9g",
                  cid, active.size, active[best], cluster.size, best_val)
        assignment[cluster] = cid
        active = active[P[:, best] != 0.0]
        cid += 1
    return Clustering(assignment)


# ---------------------------------------------------------------------------
# Monte-Carlo ratio estimation
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloStats:
    trials: int
    mean: float
    stddev: float
    min: float
    max: float
    lp: float
    ratio: float  # mean / lp, 1.0 when both are zero

    @property
    def sem(self) -> float:
        return self.stddev / math.sqrt(self.trials) if self.trials else 0.0


def monte_carlo_ratio(
    inst: Instance, x: LpSolution, scheme: RoundingScheme, trials: int, seed: int
) -> MonteCarloStats:
    """Empirical cost of repeated randomized rounding against the LP value.

    Per-trial seeds come from the master stream, so any single trial can
    be replayed in isolation: trial t equals pivot_round with seed
    word t. The keep table (1 - cut_probabilities) and the pair weights
    come from the point's prepared tables; the trials run in lockstep
    chunks of about CHUNK_WORDS stream words, each drawing its seeds as
    the master stream's next words. Logs one DEBUG line on the ``ccpivot.rounding``
    logger: trials, chunks, runs redone by the scalar kernel and seconds.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    n = inst.n
    P, _keep, (wp, wm, _L) = _tables(inst, x, scheme)
    keep = 1.0 - P
    # an empty instance's runs read no words; count one word each
    per_chunk = max(1, CHUNK_WORDS // max(1, _run_width(n)))
    master = SplitMix64(seed)
    costs = np.empty(trials)
    redone: list[int] = []
    for lo in range(0, trials, per_chunk):
        ids = _pivot_chunk(master.block(min(per_chunk, trials - lo)), keep, redone)
        costs[lo:lo + len(ids)] = assignment_cost(ids, wp, wm)
    log.debug("monte_carlo_ratio: n=%d, %d trials in %d chunks, %d redone by the scalar "
              "kernel, %.6f s", n, trials, len(redone), sum(redone), time.perf_counter() - t0)
    lp = lp_objective(inst, x)
    mean = float(costs.mean())
    if lp > 0:
        ratio = mean / lp
    else:
        ratio = 1.0 if mean == 0 else math.inf
    return MonteCarloStats(
        trials=trials,
        mean=mean,
        stddev=float(costs.std(ddof=1)) if trials > 1 else 0.0,
        min=float(costs.min()),
        max=float(costs.max()),
        lp=lp,
        ratio=ratio,
    )
