"""Problem instances, clusterings, generators, and (de)serialization.

An instance is a complete graph on vertices 0..n-1 whose pairs carry one
of three kinds of data, per graph class:

* ``complete``   - every pair labeled "+" or "-";
* ``kpartite``   - pairs inside a part are neutral, cross-part pairs are
                   labeled "+" or "-";
* ``weighted``   - every pair carries (lam_plus, lam_minus) with
                   lam_plus + lam_minus = 1, optionally with lam_minus
                   satisfying the triangle inequality (``ti`` flag).

Labeled classes store an int8 matrix (+1 / -1 / 0 for neutral); the
weighted class stores the lam_plus matrix. Instances are immutable after
construction by convention and safe to share across workers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .rng import CHUNK_WORDS, SplitMix64, unit_floats

COMPLETE = "complete"
KPARTITE = "kpartite"
WEIGHTED = "weighted"

_CLASSES = (COMPLETE, KPARTITE, WEIGHTED)

WEIGHT_SUM_TOL = 1e-9

# Guard for weighted_to_unweighted: N * n beyond this is refused.
MAX_BLOWUP_VERTICES = 20_000

# Entries per block of the triangle scan: 128 KB of float64, which stays in cache.
_SCAN_BLOCK = 1 << 14


class FormatError(ValueError):
    """Malformed instance text (bad header, bad line, broken invariant)."""


def pair_iter(n: int):
    """Yield unordered pairs (u, v) with u < v in lexicographic order."""
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v


@functools.lru_cache(maxsize=16)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1): the (u, v) rows of the pairs in pair_iter order.

    Cached per n and shared by every caller, so both arrays are read-only.
    """
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def symmetric_from_upper(n: int, vals, dtype=np.float64) -> np.ndarray:
    """Symmetric (..., n, n) matrices, zero diagonal, from per-pair values.

    The last axis of vals runs over the pairs in pair_iter order (the
    order of pair_index); leading axes are kept.
    """
    vals = np.asarray(vals)
    out = np.zeros(vals.shape[:-1] + (n, n), dtype=dtype)
    iu, ju = pair_index(n)
    out[..., iu, ju] = vals
    out[..., ju, iu] = vals
    return out


@dataclass(eq=False)
class Instance:
    kind: str
    n: int
    labels: np.ndarray | None = None      # int8 (n, n), labeled classes
    lam_plus: np.ndarray | None = None    # float64 (n, n), weighted class
    parts: np.ndarray | None = None       # int (n,), kpartite class
    ti: bool = False                      # weighted triangle-inequality flag

    def __post_init__(self):
        if self.kind not in _CLASSES:
            raise ValueError(f"unknown graph class {self.kind!r}")
        self.validate()

    # -- construction -------------------------------------------------

    @staticmethod
    def complete(labels: np.ndarray) -> "Instance":
        labels = np.asarray(labels, dtype=np.int8)
        return Instance(COMPLETE, labels.shape[0], labels=labels)

    @staticmethod
    def kpartite(labels: np.ndarray, parts) -> "Instance":
        labels = np.asarray(labels, dtype=np.int8)
        parts = np.asarray(parts, dtype=np.int64)
        return Instance(KPARTITE, labels.shape[0], labels=labels, parts=parts)

    @staticmethod
    def weighted(lam_plus: np.ndarray, ti: bool = False) -> "Instance":
        lam_plus = np.asarray(lam_plus, dtype=np.float64)
        return Instance(WEIGHTED, lam_plus.shape[0], lam_plus=lam_plus, ti=ti)

    # -- invariants ----------------------------------------------------

    def validate(self) -> None:
        n = self.n
        if self.kind in (COMPLETE, KPARTITE):
            a = self.labels
            if a is None or a.shape != (n, n):
                raise ValueError("labeled instance needs an (n, n) label matrix")
            if not np.array_equal(a, a.T):
                raise ValueError("label matrix must be symmetric")
            if np.any(np.diag(a) != 0):
                raise ValueError("diagonal must be neutral")
            off = ~np.eye(n, dtype=bool)
            if self.kind == COMPLETE:
                if np.any(a[off] == 0):
                    raise ValueError("complete instance has a neutral pair")
            else:
                if self.parts is None or self.parts.shape != (n,):
                    raise ValueError("k-partite instance needs a part assignment")
                same = self.parts[:, None] == self.parts[None, :]
                if np.any((a == 0) & off & ~same):
                    raise ValueError("cross-part pair is neutral")
                if np.any((a != 0) & same & off):
                    raise ValueError("intra-part pair is labeled")
        else:
            w = self.lam_plus
            if w is None or w.shape != (n, n):
                raise ValueError("weighted instance needs an (n, n) weight matrix")
            if not np.all(np.isfinite(w)):
                raise ValueError("lam_plus must be finite")
            if not np.array_equal(w, w.T):
                raise ValueError("weight matrix must be symmetric")
            if np.any(np.diag(w) != 0):
                raise ValueError("lam_plus diagonal must be zero")
            if np.any(w < -WEIGHT_SUM_TOL) or np.any(w > 1 + WEIGHT_SUM_TOL):
                raise ValueError("lam_plus outside [0, 1]")
            if self.ti:
                lm = 1.0 - w
                np.fill_diagonal(lm, 0.0)
                worst, _triple = worst_triangle(lm)
                if worst > 1e-9:
                    raise ValueError(f"lam_minus violates triangle inequality by {worst:.3g}")

    # -- views ---------------------------------------------------------

    def pair_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(W+, W-) matrices: per-pair positive / negative mass, zero diagonal.

        Labeled pairs contribute 1 on their own side; neutral pairs 0; a
        weighted pair contributes (lam_plus, 1 - lam_plus).
        """
        if self.kind == WEIGHTED:
            wp = self.lam_plus.astype(np.float64).copy()
            wm = 1.0 - wp
        else:
            wp = (self.labels == 1).astype(np.float64)
            wm = (self.labels == -1).astype(np.float64)
        np.fill_diagonal(wp, 0.0)
        np.fill_diagonal(wm, 0.0)
        return wp, wm


@functools.lru_cache(maxsize=16)
def _invalid_entries(rows: int, n: int) -> np.ndarray:
    """Read-only mask of w <= u, v = u or v = w, one per block shape (rows, n, n).

    Entry [i, a, b] is (u0 + i, a - s, b - s) with s = n - 1 - u0: the conditions
    depend on v - u0 and w - u0 alone, so block u0 reads [:, s:s + n, s:s + n].
    """
    i, a, b = np.ogrid[:rows, :2 * n - 1, :2 * n - 1]
    mask = (b <= i + n - 1) | (a == i + n - 1) | (a == b)
    mask.flags.writeable = False
    return mask


def triangle_blocks(d: np.ndarray):
    """(u0, g) per block of rows u = u0 + i of the n x n x n gap tensor of a symmetric d.

    g[i, v, w] = d[u,w] - d[u,v] - d[v,w] on distinct u < w, v, else -inf.
    A block holds at most max(n^2, _SCAN_BLOCK) entries: one block up to n = 25.
    """
    n = d.shape[0]
    rows = max(1, _SCAN_BLOCK // max(1, n * n))
    for u0 in range(0, n, rows):
        du = d[u0:u0 + rows]
        with np.errstate(invalid="ignore"):  # inf - inf gives a NaN gap
            g = du[:, None, :] - du[:, :, None]
            g -= d
        s = n - 1 - u0
        np.copyto(g, -math.inf, where=_invalid_entries(len(g), n)[:, s:s + n, s:s + n])
        yield u0, g


def worst_triangle(d: np.ndarray) -> tuple[float, tuple | None]:
    """(gap, (u, v, w)) maximizing d[u,w] - d[u,v] - d[v,w] over distinct u < w, v.

    d is symmetric. Ties go to the first triple in (u, v, w) order, NaN gaps
    are skipped, memory stays within one triangle_blocks block, and with
    fewer than three vertices the result is (-inf, None).
    """
    best, where = -math.inf, None
    for u0, g in triangle_blocks(d):
        i = int(np.nanargmax(g))
        if g.flat[i] > best:
            u, vw = divmod(i, d.shape[0] ** 2)
            best, where = float(g.flat[i]), (u0 + u, *divmod(vw, d.shape[0]))
    return best, where


class Clustering:
    """A partition of 0..n-1, stored canonically.

    Cluster ids are renumbered by first occurrence, so two clusterings
    are equal iff they induce the same partition.
    """

    __slots__ = ("assignment",)

    def __init__(self, assignment):
        a = np.asarray(assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat vector")
        self.assignment = _canonicalize(a)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def num_clusters(self) -> int:
        return int(self.assignment.max()) + 1 if self.n else 0

    @staticmethod
    def single_cluster(n: int) -> "Clustering":
        return Clustering(np.zeros(n, dtype=np.int64))

    @staticmethod
    def singletons(n: int) -> "Clustering":
        return Clustering(np.arange(n, dtype=np.int64))

    def __eq__(self, other):
        return isinstance(other, Clustering) and np.array_equal(
            self.assignment, other.assignment
        )

    def __hash__(self):
        return hash(self.assignment.tobytes())

    def __repr__(self):
        return f"Clustering({self.assignment.tolist()})"


def _canonicalize(a: np.ndarray) -> np.ndarray:
    seen: dict[int, int] = {}  # a new id takes the count of ids before it
    return np.array([seen.setdefault(c, len(seen)) for c in a.tolist()], dtype=np.int64)


def clustering_cost(inst: Instance, c: Clustering) -> float:
    """Total disagreement mass of a clustering.

    Labeled classes count "+" pairs cut plus "-" pairs kept together;
    the weighted class charges lam_plus on cut pairs and lam_minus on
    uncut pairs. Neutral pairs are free.
    """
    if c.n != inst.n:
        raise ValueError(f"clustering covers {c.n} vertices, instance has {inst.n}")
    return assignment_cost(c.assignment, *inst.pair_weights())


def assignment_cost(a, wp: np.ndarray, wm: np.ndarray):
    """clustering_cost from cluster ids and the instance's pair weights.

    a has shape (..., n); leading axes are separate clusterings, and the
    result has their shape (a float for a single vector). Each unordered
    pair is counted once, in pair_iter order, by a sequential cumsum, so
    a clustering's cost has the same bits in any batch (np.sum picks its
    summation order from the shape).
    """
    a = np.asarray(a)
    iu, ju = pair_index(a.shape[-1])
    terms = np.where(a[..., iu] == a[..., ju], wm[iu, ju], wp[iu, ju])
    total = np.cumsum(terms, axis=-1)[..., -1] if iu.size else np.zeros(a.shape[:-1])
    return float(total) if a.ndim == 1 else total


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _pair_uniforms(seed: int, count: int) -> np.ndarray:
    """The first count uniforms of the seed's stream, one per pair in order."""
    return unit_floats(SplitMix64(seed).block(count))


def gen_complete_random(n: int, plus_prob: float, seed: int) -> Instance:
    """Complete instance with each pair independently '+' with plus_prob."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= plus_prob <= 1.0:
        raise ValueError("plus_prob must be in [0, 1]")
    u = _pair_uniforms(seed, n * (n - 1) // 2)
    return Instance.complete(symmetric_from_upper(n, np.where(u < plus_prob, 1, -1), np.int8))


def gen_kpartite_random(part_sizes, plus_prob: float, seed: int) -> Instance:
    """K-partite instance: intra-part pairs neutral, cross pairs random.

    Only cross-part pairs draw, in pair_iter order.
    """
    sizes = list(part_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must all be >= 1")
    if not 0.0 <= plus_prob <= 1.0:
        raise ValueError("plus_prob must be in [0, 1]")
    parts = np.repeat(np.arange(len(sizes)), sizes)
    n = int(parts.shape[0])
    iu, ju = pair_index(n)
    cross = parts[iu] != parts[ju]
    u = _pair_uniforms(seed, int(cross.sum()))
    s = np.zeros(iu.shape[0], dtype=np.int8)
    s[cross] = np.where(u < plus_prob, 1, -1)
    return Instance.kpartite(symmetric_from_upper(n, s, np.int8), parts)


def gen_planted(n: int, k: int, corruption: float, seed: int) -> tuple[Instance, Clustering]:
    """Near-balanced planted clustering with labels flipped at rate corruption.

    Returns (instance, ground-truth clustering).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0.0 <= corruption <= 1.0:
        raise ValueError("corruption must be in [0, 1]")
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    truth = np.repeat(np.arange(k), sizes)
    iu, ju = pair_index(n)
    s = np.where(truth[iu] == truth[ju], 1, -1)
    s = np.where(_pair_uniforms(seed, iu.shape[0]) < corruption, -s, s)
    return Instance.complete(symmetric_from_upper(n, s, np.int8)), Clustering(truth)


def gen_weighted_random(n: int, seed: int) -> Instance:
    """Weighted-complete instance with lam_plus uniform on [0, 1] per pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = symmetric_from_upper(n, _pair_uniforms(seed, n * (n - 1) // 2))
    return Instance.weighted(w, ti=False)


def gen_gap_triangle_ineq(n: int) -> Instance:
    """Two-sided weighted instance whose LP relaxation undershoots OPT.

    2n vertices split into two sides; lam_minus is 1/3 across the split
    and 2/3 within a side (so lam_minus is a metric), lam_plus = 1 - lam_minus.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 2 * n
    side = np.arange(total) < n
    cross = side[:, None] != side[None, :]
    lam_minus = np.where(cross, 1.0 / 3.0, 2.0 / 3.0)
    np.fill_diagonal(lam_minus, 0.0)
    lam_plus = 1.0 - lam_minus
    np.fill_diagonal(lam_plus, 0.0)
    return Instance.weighted(lam_plus, ti=True)


def weighted_to_unweighted(inst: Instance, N: int, seed: int):
    """Blow each vertex up into N copies and sample labels from the weights.

    Copies of the same vertex get "+" edges; a cross pair (u_i, v_j) is
    "+" with probability lam_plus[u, v]. Returns (labeled instance, map)
    where map[blowup vertex] = original vertex.
    """
    if inst.kind != WEIGHTED:
        raise ValueError("blowup takes a weighted instance")
    if N < 1:
        raise ValueError("N must be >= 1")
    n = inst.n
    total = n * N
    if total > MAX_BLOWUP_VERTICES:
        raise ValueError(f"blowup would have {total} vertices (max {MAX_BLOWUP_VERTICES})")
    rng = SplitMix64(seed)
    labels = np.zeros((total, total), dtype=np.int8)
    vmap = np.repeat(np.arange(n), N)
    for u in range(n):
        lo, hi = u * N, (u + 1) * N
        labels[lo:hi, lo:hi] = 1
    # blocks[u, i, v, j] is labels[u * N + i, v * N + j]; each pair (u, v)
    # takes N * N draws, its copy pairs (u_i, v_j) in row-major order
    blocks = labels.reshape(n, N, n, N)
    us, vs = pair_index(n)
    per_chunk = max(1, CHUNK_WORDS // (N * N))
    for c in range(0, us.shape[0], per_chunk):
        u, v = us[c:c + per_chunk], vs[c:c + per_chunk]
        coins = unit_floats(rng.block(u.shape[0] * N * N)).reshape(-1, N, N)
        s = np.where(coins < inst.lam_plus[u, v][:, None, None], 1, -1)
        blocks[u, :, v, :] = s
        blocks[v, :, u, :] = s.transpose(0, 2, 1)
    np.fill_diagonal(labels, 0)
    return Instance.complete(labels), vmap


def lift_clustering(c: Clustering, vmap: np.ndarray, seed: int) -> Clustering:
    """Project a blowup clustering back to the original vertices.

    Each original vertex adopts the cluster of one of its copies, picked
    uniformly from the seeded stream.
    """
    vmap = np.asarray(vmap)
    if vmap.ndim != 1 or not np.issubdtype(vmap.dtype, np.integer):
        raise ValueError("vertex map must be a flat vector of integers")
    if not vmap.size:
        raise ValueError("vertex map is empty")
    if c.n != vmap.shape[0]:
        raise ValueError("clustering does not cover the blowup graph")
    if vmap.min() < 0:
        raise ValueError(f"vertex map holds a negative id {int(vmap.min())}")
    n_orig = int(vmap.max()) + 1
    missing = np.flatnonzero(np.bincount(vmap, minlength=n_orig) == 0)
    if missing.size:
        raise ValueError(f"original vertex {int(missing[0])} has no copy in the vertex map")
    rng = SplitMix64(seed)
    out = np.empty(n_orig, dtype=np.int64)
    for u in range(n_orig):
        copies = np.flatnonzero(vmap == u)
        pick = copies[rng.randint(len(copies))]
        out[u] = c.assignment[pick]
    return Clustering(out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_LABEL_TO_CHAR = {1: "+", -1: "-", 0: "0"}
_CHAR_TO_LABEL = {"+": 1, "-": -1, "0": 0}


def serialize_instance(inst: Instance, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return _to_edgelist(inst)
    if fmt == "json":
        return _to_json(inst)
    raise ValueError(f"unknown format {fmt!r}")


def parse_instance(text: str) -> Instance:
    """Parse either format; JSON is detected by a leading '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(text)
    return _from_edgelist(text)


def _pair_values(inst: Instance):
    """(u, v, value) per pair in pair_iter order: lam_plus as a float, else the label char."""
    iu, ju = pair_index(inst.n)
    if inst.kind == WEIGHTED:
        vals = inst.lam_plus[iu, ju].tolist()
    else:
        vals = [_LABEL_TO_CHAR[s] for s in inst.labels[iu, ju].tolist()]
    return zip(iu.tolist(), ju.tolist(), vals)


def _to_edgelist(inst: Instance) -> str:
    head = ["cc", inst.kind, str(inst.n)]
    if inst.kind == KPARTITE:
        head += [str(int(p)) for p in inst.parts]
    if inst.kind == WEIGHTED and inst.ti:
        head.append("ti")
    # str of a float is its repr, so weights round-trip exactly
    lines = [" ".join(head)] + [f"{u} {v} {val}" for u, v, val in _pair_values(inst)]
    return "\n".join(lines) + "\n"


def _to_json(inst: Instance) -> str:
    key = "lplus" if inst.kind == WEIGHTED else "label"
    edges = [{"u": u, "v": v, key: val} for u, v, val in _pair_values(inst)]
    doc = {"class": inst.kind, "n": inst.n, "edges": edges, "flags": {"ti": inst.ti}}
    if inst.kind == KPARTITE:
        doc["parts"] = [int(p) for p in inst.parts]
    return json.dumps(doc, indent=1)


def _from_pairs(kind, n: int, entries, value, parts, ti: bool) -> Instance:
    """The instance from one (u, v, item) row per pair; value(item) is its label or lam_plus.

    Both readers end here. After the pair count check, n(n-1)/2 distinct
    in-range pairs cover every pair, so none can be missing.
    """
    if kind not in _CLASSES:
        raise FormatError(f"unknown class {kind!r}")
    if n < 1:
        raise FormatError("vertex count must be >= 1")
    if (parts is not None) != (kind == KPARTITE) or (ti and kind != WEIGHTED):
        raise FormatError("part ids fit only k-partite instances, the ti flag only weighted ones")
    if kind == KPARTITE and len(parts) != n:
        raise FormatError(f"k-partite instance needs {n} part ids, got {len(parts)}")
    if len(entries) != n * (n - 1) // 2:  # before any n x n allocation
        raise FormatError(f"{len(entries)} pair entries for {n} vertices; need {n * (n - 1) // 2}")
    us, vs, items = zip(*entries) if entries else ((), (), ())
    dtype = np.float64 if kind == WEIGHTED else np.int8
    try:
        u, v = np.array((us, vs), dtype=np.int64)
        vals = np.array([value(item) for item in items], dtype=dtype)
    except OverflowError as e:
        raise FormatError(f"number out of range: {e}") from e
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"pair ({u[i]}, {v[i]}) out of range")
    keys = np.sort(lo * n + hi)
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if dup.size:
        raise FormatError("duplicate pair ({}, {})".format(*divmod(int(keys[dup[0]]), n)))
    m = np.zeros((n, n), dtype=dtype)
    m[lo, hi] = m[hi, lo] = vals
    try:
        if kind == COMPLETE:
            return Instance.complete(m)
        if kind == KPARTITE:
            return Instance.kpartite(m, parts)
        return Instance.weighted(m, ti=ti)
    except (ValueError, OverflowError) as e:
        raise FormatError(str(e)) from e


def _label(item) -> int:
    if isinstance(item, str) and item in _CHAR_TO_LABEL:
        return _CHAR_TO_LABEL[item]
    raise FormatError(f"bad label {item!r}")


def _edgelist_weight(token: str) -> float:
    try:
        return float(token)
    except ValueError as e:
        raise FormatError(f"bad weight {token!r}") from e


def _from_edgelist(text: str) -> Instance:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise FormatError("empty instance text")
    head = rows[0].split()
    if len(head) < 3 or head[0] != "cc":
        raise FormatError(f"bad header {rows[0]!r}")
    kind, extra = head[1], head[3:]
    try:
        n = int(head[2])
    except ValueError as e:
        raise FormatError(f"bad vertex count {head[2]!r}") from e
    parts, ti = None, extra == ["ti"]
    if kind == KPARTITE:
        try:
            parts = [int(t) for t in extra]
        except ValueError as e:
            raise FormatError("bad part id in header") from e
    elif extra and not ti:
        raise FormatError(f"unexpected header tokens {extra}")

    entries = []
    for line in rows[1:]:
        toks = line.split()
        if len(toks) != 3:
            raise FormatError(f"bad pair line {line!r}")
        try:
            entries.append((int(toks[0]), int(toks[1]), toks[2]))
        except ValueError as e:
            raise FormatError(f"bad vertex id in {line!r}") from e
    return _from_pairs(kind, n, entries, _edgelist_weight if kind == WEIGHTED else _label,
                       parts, ti)


def _json_typed(value, types, what: str):
    """value if it has one of the given types, else FormatError; a bool passes only as bool."""
    if isinstance(value, types) and (types is bool or not isinstance(value, bool)):
        return value
    raise FormatError(f"bad {what} {value!r}")


def _json_weight(edge: dict) -> float:
    """lplus, checked against lminus when the edge carries one."""
    lp = _json_typed(edge.get("lplus"), (int, float), "lplus")
    if "lminus" in edge:
        total = lp + _json_typed(edge["lminus"], (int, float), "lminus")
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise FormatError(f"edge {edge!r}: lplus + lminus = {total!r} != 1")
    return lp


def _from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"bad JSON: {e}") from e
    try:
        kind, n, raw_edges = doc["class"], _json_typed(doc["n"], int, "n"), doc["edges"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"missing or bad field: {e}") from e
    flags = doc.get("flags", {})
    if not isinstance(flags, dict) or not isinstance(flags.get("ti", False), bool):
        raise FormatError("flags must be an object whose ti is a boolean")
    parts = None
    if "parts" in doc:
        if not isinstance(doc["parts"], list):
            raise FormatError("parts must be an array")
        parts = [_json_typed(p, int, "part id") for p in doc["parts"]]
    if not isinstance(raw_edges, list):
        raise FormatError("edges must be an array")
    try:
        entries = [(_json_typed(e["u"], int, "u"), _json_typed(e["v"], int, "v"), e)
                   for e in raw_edges]
    except (KeyError, TypeError) as err:
        raise FormatError(f"bad edge entry: {err!r}") from err
    value = _json_weight if kind == WEIGHTED else lambda edge: _label(edge.get("label"))
    return _from_pairs(kind, n, entries, value, parts, flags.get("ti", False))
