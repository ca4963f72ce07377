"""The metric relaxation: build, solve, separate, validate.

One variable x_uv in [0, 1] per unordered pair, objective
sum over "+" pairs of x plus sum over "-" pairs of (1 - x) (weighted
classes mix the two with lam), subject to x_uw <= x_uv + x_vw for all
triples. The O(n^3) triangle family is generated lazily: one dense
simplex tableau lives across separation rounds. It starts at the
optimum of the box 0 <= x <= 1 alone, x_j = 1 where c_j < -SIMPLEX_TOL,
which is dual feasible; each round appends every violated triangle not
yet in the working set, worst first and at most n^2 of them, as new rows,
which keeps it dual feasible, and the dual simplex restores primal
feasibility. A cut is a row a.x <= b in the (cols, coefs, rhs) form that
_triangle_rows builds. No primal simplex is needed. The dual prices by
the largest infeasibility relative to the row norm and falls back to
Bland's rule after DEGENERATE_RUN degenerate pivots in a row, so it
cannot cycle. The loop ends when the working set is optimal and the
separation scan is empty; the result is then checked apart from the
tableau, by a dual bound built from the final cut-row multipliers and
by validate_solution. Both triangle scans use instance.triangle_blocks.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .instance import (FormatError, Instance, _json_typed, pair_index, symmetric_from_upper,
                       triangle_blocks, worst_triangle)

FEAS_TOL = 1e-6          # separation / reported-solution feasibility
SIMPLEX_TOL = 1e-8       # pivot feasibility tolerance inside the simplex
GAP_TOL = 1e-6           # largest primal-dual gap accepted, relative to max(1, |objective|)
DEGENERATE_RUN = 50      # degenerate pivots in a row before pricing falls back to Bland
MAX_PIVOTS = 200_000     # dual simplex pivots over one solve
MAX_ROUNDS = 500
MAX_LP_N = 40            # largest n `ccpivot lp` accepts: about 4 s and 300 MB at n = 40

log = logging.getLogger(__name__)


class LpNumericalError(RuntimeError):
    """Iteration cap hit or tableau breakdown; never silently swallowed."""


class LpSolution:
    """Symmetric pairwise distances, one stored entry per unordered pair.

    vec is a read-only copy of the caller's array, so the cached matrix and
    the rounding tables that rounding.py keeps in _tables cannot go stale."""

    __slots__ = ("n", "vec", "_matrix", "_tables")

    def __init__(self, n: int, vec: np.ndarray):
        self.n = n
        vec = np.array(vec, dtype=np.float64)
        if vec.shape != (n * (n - 1) // 2,):
            raise ValueError("wrong vector length for n")
        vec.flags.writeable = False
        self.vec = vec
        self._matrix = self._tables = None

    @staticmethod
    def from_matrix(m: np.ndarray) -> "LpSolution":
        m = np.asarray(m, dtype=np.float64)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be square")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise ValueError("matrix must be symmetric within 1e-12")
        if np.abs(np.diag(m)).max(initial=0.0) > 1e-12:
            raise ValueError("matrix must have a zero diagonal")
        return LpSolution(n, m[pair_index(n)])

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = symmetric_from_upper(self.n, self.vec)
            self._matrix.flags.writeable = False
        return self._matrix

    @staticmethod
    def constant(n: int, value: float) -> "LpSolution":
        return LpSolution(n, np.full(n * (n - 1) // 2, float(value)))


@dataclass
class LpStats:
    objective: float = 0.0
    iterations: int = 0  # dual simplex pivots
    constraints_generated: int = 0
    separation_rounds: int = 0
    # per-round objectives and the final working triangle set, to audit monotonicity and re-solves
    round_objectives: list = field(default_factory=list)
    final_constraints: list = field(default_factory=list)
    # Lagrangian lower bound on the full relaxation and objective minus it
    dual_bound: float = 0.0
    gap: float = 0.0
    # one dict per round: cuts added, dual pivots, seconds, scan_seconds (its separation scan)
    rounds: list = field(default_factory=list)


@dataclass
class ValidationReport:
    box: float = 0.0
    triangle: float = 0.0
    worst_triple: tuple | None = None

    def feasible(self, tol: float = FEAS_TOL) -> bool:
        return max(self.box, self.triangle) <= tol

    def __str__(self):
        return f"box={self.box:.3g} triangle={self.triangle:.3g} worst={self.worst_triple}"


def _objective_terms(inst: Instance) -> tuple[np.ndarray, float]:
    """Linear coefficients over pair variables plus the constant offset."""
    wp, wm = inst.pair_weights()
    iu = pair_index(inst.n)
    return wp[iu] - wm[iu], float(wm[iu].sum())


def lp_objective(inst: Instance, x: LpSolution) -> float:
    if x.n != inst.n:
        raise ValueError("solution size mismatch")
    coeff, const = _objective_terms(inst)
    return float(coeff @ x.vec + const)


def _violations(x: LpSolution, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(flat, gap) of every gap > tol, worst first, ties by flat, the (u, v, w) rank."""
    n = x.n
    flats, gaps = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for u0, g in triangle_blocks(x.matrix):
        i = np.flatnonzero(g > tol)
        flats.append(i + u0 * n * n)
        gaps.append(g.ravel()[i])
    flat, gap = np.concatenate(flats), np.concatenate(gaps)
    order = np.lexsort((flat, -gap))
    return flat[order], gap[order]


def separate_triangle_violations(x: LpSolution, tol: float = FEAS_TOL):
    """All triples with x_uw - x_uv - x_vw > tol, worst first, ties in (u, v, w) order.

    Returned as (u, v, w, violation) with v the middle vertex of the
    violated constraint x_uv + x_vw >= x_uw. A hit's flat index into the
    n x n x n tensor of triangle_blocks is its (u, v, w) rank.
    """
    flat, gap = _violations(x, tol)
    u, v, w = np.unravel_index(flat, (x.n,) * 3)
    return list(zip(u.tolist(), v.tolist(), w.tolist(), gap.tolist()))


def validate_solution(x: LpSolution, tol: float = FEAS_TOL) -> ValidationReport:
    """Worst violation per constraint family; never raises."""
    m = x.matrix
    rep = ValidationReport()
    if not np.isfinite(m).all():  # max() would drop a NaN, calling the point feasible
        rep.box = math.inf
    else:
        rep.box = max(0.0, float(max(np.max(-m, initial=0.0), np.max(m - 1.0, initial=0.0))))
    gap, triple = worst_triangle(m)
    if gap > 0:
        rep.triangle, rep.worst_triple = gap, triple
    return rep


# ---------------------------------------------------------------------------
# one dense simplex tableau, kept across separation rounds
# ---------------------------------------------------------------------------


class _Tableau:
    """Dense tableau for min c.x s.t. x <= 1, A x <= b, x >= 0.

    Rows 0..m-1 are the constraints: the nvar unit rows x_j <= 1, then
    the cut rows, in the order of the (cols, coefs, rhs) blocks in rows.
    Row m holds the reduced costs and the last column the right-hand
    sides (row m: minus the objective). Column j < nvar is x_j and
    column nvar + i the slack of row i. It starts at the box optimum,
    which is dual feasible: where c_j < -SIMPLEX_TOL, x_j = 1 is basic in
    its unit row (reduced cost 0, and -c_j on that row's slack); every
    other x_j is nonbasic at 0 with reduced cost c_j.

    The dual simplex, the only pivoting loop, picks the row with the most
    negative value relative to its norm. After DEGENERATE_RUN degenerate
    pivots in a row it uses Bland's rule (lowest index), which cannot
    cycle, until a pivot makes progress again. Ratio-test ties go to the
    most negative pivot element, or under Bland's rule to the lowest index.
    """

    def __init__(self, c: np.ndarray):
        self.nvar = nvar = len(c)
        j = np.arange(nvar)
        self.t = np.zeros((nvar + 1, 2 * nvar + 1), order="F")
        self.t[j, j] = self.t[j, nvar + j] = self.t[j, -1] = 1.0
        one = j[c < -SIMPLEX_TOL]
        self.t[nvar, :nvar] = c
        self.t[nvar, one] = 0.0
        self.t[nvar, nvar + one] = -c[one]
        self.t[nvar, -1] = -c[one].sum()
        self.basis = nvar + j
        self.basis[one] = one
        self.pivots, self.rows = 0, []

    def add_rows(self, cols: np.ndarray, coefs: np.ndarray, rhs: np.ndarray) -> None:
        """Append sum_s coefs[i, s] x[cols[i, s]] <= rhs[i] for each row i.

        Each new row gets its own slack column and is reduced against the
        current basis, so the reduced costs do not change (the tableau
        stays dual feasible) and a violated row gets a negative value.
        """
        old, basis = self.t, self.basis
        m, k = len(basis), len(cols)
        ncols = old.shape[1] - 1
        # the new rows over the old columns and the right-hand side, reduced
        # row-major; old rows are zero on the new slack columns
        rows = np.zeros((k, ncols + 1))
        rows[:, -1] = rhs
        r = np.arange(k)
        for col, a in zip(cols.T, coefs.T):  # add, not assign: a zero pad may repeat a column
            rows[r, col] += a
        pos = np.full(ncols, -1)
        pos[basis] = np.arange(m)
        # subtract a times the row of each basic variable the cut touches;
        # that row is zero on every other basic column, so the order is free
        for col, a in zip(cols.T, coefs.T):
            p = pos[col]
            hit = p >= 0
            rows[hit] -= a[hit, None] * old[p[hit]]
        t = np.zeros((m + k + 1, ncols + k + 1), order="F")
        t[:m, :ncols], t[:m, -1] = old[:m, :-1], old[:m, -1]
        t[m:-1, :ncols], t[m:-1, -1] = rows[:, :-1], rows[:, -1]
        t[-1, :ncols], t[-1, -1] = old[m, :-1], old[m, -1]
        t[m + r, ncols + r] = 1.0
        self.t = t
        self.basis = np.concatenate([basis, ncols + r])
        self.rows.append((cols, coefs, rhs))

    def _pivot(self, row: int, col: int, norms: np.ndarray) -> None:
        """Pivot on t[row, col]; keep norms, the squared row norms, up to date."""
        # column-major storage: the update touches only the columns where the pivot
        # row is nonzero, each contiguous: rows of the row-major view t.T
        t, tt = self.t, self.t.T
        r = t[row] / t[row, col]
        cols = r.nonzero()[0]
        prow = r[cols]
        f = tt[col]  # a view, read before the write-back; f[row] only reaches entries reset below
        block = tt.take(cols, axis=0)
        # |r - f p|^2 = |r|^2 - 2 f (r.p) + f^2 |p|^2, from r before the update;
        # each constraint row holds its basic variable's 1, so stays >= 1
        pp = prow @ prow
        norms += f * (f * pp - 2.0 * (prow @ block))
        norms[row] = pp
        np.maximum(norms, 1.0, out=norms)
        block -= prow[:, None] * f
        block[:, row] = prow
        tt[cols] = block
        self.basis[row] = col
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise LpNumericalError(f"simplex exceeded {MAX_PIVOTS} pivots")

    def dual(self) -> int:
        """Dual simplex from a dual feasible basis; returns its pivot count.

        Outside Bland's rule the leaving row is the one whose negative
        value is largest relative to its norm, not the most negative one:
        at n = 24 that took a third of the pivots. The norms span whole
        rows, right-hand side included, which ranks the rows as norms
        over the coefficients alone would (b^2/(a^2 + b^2) grows with
        b^2/a^2).
        """
        t, m = self.t, len(self.basis)
        if m == 0:  # no pairs: nothing to price
            return 0
        start, run = self.pivots, 0
        norms = np.einsum("ij,ij->i", t, t)
        rhs, row_norms = t[:m, -1], norms[:m]  # views; _pivot writes t and norms in place
        pick = np.array([[0], [m]])  # the leaving row and the reduced costs
        while True:
            # infeasible rows score rhs^2 / norm > 0, the others -1
            score = np.where(rhs < -SIMPLEX_TOL, rhs * rhs / row_norms, -1.0)
            leave = score.argmax()
            if score[leave] < 0.0:
                break
            bland = run >= DEGENERATE_RUN
            if bland:  # lowest basic index among the infeasible rows
                leave = np.where(score < 0.0, t.shape[1], self.basis).argmin()
            cols = (t[leave, :-1] < -SIMPLEX_TOL).nonzero()[0]
            if len(cols) == 0:
                raise LpNumericalError("infeasible working relaxation (tableau breakdown)")
            # a few candidates: the ratio test in Python floats, the same IEEE operations
            pick[0] = leave
            a, c = t[pick, cols].tolist()
            ratio = [(0.0 if cj < 0.0 else cj) / -aj for aj, cj in zip(a, c)]
            best = min(ratio)
            tie = [j for j, rj in enumerate(ratio) if rj <= best + SIMPLEX_TOL]
            enter = cols[tie[0] if bland else min(tie, key=a.__getitem__)]
            run = run + 1 if best <= SIMPLEX_TOL else 0
            self._pivot(leave, enter, norms)
        return self.pivots - start

    def point(self) -> np.ndarray:
        x = np.zeros(self.nvar)
        on = self.basis < self.nvar
        x[self.basis[on]] = self.t[:-1, -1][on]
        return x

    def multipliers(self) -> np.ndarray:
        """Cut-row multipliers: reduced costs on their slacks, clipped at 0."""
        return np.maximum(self.t[-1, 2 * self.nvar : -1], 0.0)


def _triangle_rows(idx: np.ndarray, triangles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows x_uw - x_uv - x_vw <= 0 per (u, v, w), as (cols, coefs, rhs)."""
    u, v, w = np.asarray(triangles, dtype=np.int64).reshape(-1, 3).T
    cols = np.stack([idx[u, w], idx[u, v], idx[v, w]], axis=1)
    return cols, np.broadcast_to([1.0, -1.0, -1.0], cols.shape), np.zeros(len(cols))


def _dual_bound(coeff: np.ndarray, const: float, rows: list, lam: np.ndarray) -> float:
    """const - lam.b + sum_j min(0, c_j + (A^T lam)_j) over the box 0 <= x <= 1.

    rows: (cols, coefs, rhs) blocks of A x <= b, joined once, short rows
    zero-padded. For any lam >= 0 it is at most c.x at every x in the box
    with A x <= b, so any subset of the triangle rows bounds the relaxation.
    """
    w = max((c.shape[1] for c, _a, _b in rows), default=0)
    pad = lambda a: a if a.shape[1] == w else np.pad(a, ((0, 0), (0, w - a.shape[1])))
    joined = [(np.zeros((0, w), np.int64), np.zeros((0, w)), np.zeros(0))]
    joined += [(pad(c), pad(a), b) for c, a, b in rows]
    cols, coefs, rhs = (np.concatenate(p) for p in zip(*joined))
    red = coeff.copy()
    for col, a in zip(cols.T, coefs.T):
        red += np.bincount(col, weights=lam * a, minlength=len(coeff))
    return const - float(lam @ rhs) + float(np.minimum(red, 0.0).sum())


def solve_relaxation(inst: Instance, tol: float = FEAS_TOL) -> tuple[LpSolution, LpStats]:
    """Solve the relaxation to (certified) optimality.

    Round 1 reads the box optimum off the starting tableau; each later
    round appends every violated triangle not yet in the working set,
    worst first and at most n^2 of them, and re-optimizes by the dual
    simplex. A whole batch saves rounds and pivots (n = 40 takes 3 rounds
    and about 1,100 pivots); the n^2 cap bounds the rows one round adds
    to the dense tableau. The loop ends when the separation scan is
    empty. The result is then checked without trusting the
    tableau: the point must validate within tol, and the dual bound from
    the final cut-row multipliers must be within GAP_TOL * max(1,
    |objective|) of the objective; either failure raises LpNumericalError.
    """
    if not 0.0 < tol <= FEAS_TOL:  # a looser tol would let the closing validation pass a violated point
        raise ValueError(f"tol must be in (0, {FEAS_TOL:g}], got {tol!r}")
    n = inst.n
    coeff, const = _objective_terms(inst)
    stats = LpStats()
    idx = symmetric_from_upper(n, np.arange(len(coeff)), np.int64)
    tab = _Tableau(coeff)
    seen, new = np.zeros(n ** 3, dtype=bool), []  # the working set by (u, v, w) rank
    while True:
        start = time.perf_counter()
        if len(new):
            seen[new] = True
            tab.add_rows(*_triangle_rows(idx, np.transpose(np.unravel_index(new, (n, n, n)))))
        pivots = tab.dual()
        x = LpSolution(n, tab.point())
        obj = float(coeff @ x.vec) + const
        scan = time.perf_counter()
        flat, _gap = _violations(x, tol)
        end = time.perf_counter()
        seconds, scan_seconds = end - start, end - scan
        stats.separation_rounds += 1
        stats.round_objectives.append(obj)
        stats.rounds.append({"cuts": len(new), "dual_pivots": pivots, "seconds": seconds,
                             "scan_seconds": scan_seconds})
        log.debug("round %d: objective %.9g, %d cuts, %d dual pivots, %.3f s (scan %.3f s)",
                  stats.separation_rounds, obj, len(new), pivots, seconds, scan_seconds)
        if not len(flat):
            break
        if stats.separation_rounds >= MAX_ROUNDS:
            raise LpNumericalError(f"separation exceeded {MAX_ROUNDS} rounds")
        new = flat[~seen[flat]][: n * n]
        if not len(new):
            raise LpNumericalError("separation found only working-set triangles violated")

    stats.iterations = tab.pivots
    final = np.unravel_index(seen.nonzero()[0], (n, n, n))
    stats.final_constraints = list(zip(*(a.tolist() for a in final)))
    stats.constraints_generated = len(stats.final_constraints)
    stats.objective = float(coeff @ x.vec + const)
    stats.dual_bound = _dual_bound(coeff, const, tab.rows, tab.multipliers())
    stats.gap = stats.objective - stats.dual_bound
    if not stats.gap <= GAP_TOL * max(1.0, abs(stats.objective)):  # a NaN gap fails too
        raise LpNumericalError(
            f"primal-dual gap {stats.gap:.3g} at objective {stats.objective:.9g}")
    report = validate_solution(x, tol)
    if not report.feasible(tol):
        raise LpNumericalError(f"solution fails validation: {report}")
    return x, stats


def gap_kpartite_lp_point(n1: int, n2: int, edges):
    """Bipartite-graph gap construction and its fractional solution.

    The caller supplies a bipartite graph (edges as (i, j) with i < n1,
    j < n2). Cross pairs that are edges become "+", cross non-edges "-",
    within-side pairs neutral. The returned fractional point is 1/3 on
    "+", 1 on "-", 2/3 on neutral pairs; its objective is |E|/3 and it is
    verified feasible before returning.

    Returns (Instance, LpSolution).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both sides must be nonempty")
    n = n1 + n2
    adj = np.zeros((n1, n2), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n1 and 0 <= j < n2):
            raise ValueError(f"edge ({i}, {j}) out of range")
        if adj[i, j]:
            raise ValueError(f"duplicate edge ({i}, {j})")
        adj[i, j] = True

    parts = np.concatenate([np.zeros(n1, dtype=np.int64), np.ones(n2, dtype=np.int64)])
    iu, ju = pair_index(n)
    plus = np.pad(adj, ((0, n2), (n1, 0)))[iu, ju]  # adj as the cross block of an n x n matrix
    sign = np.where(plus, 1, np.where(parts[iu] == parts[ju], 0, -1))
    inst = Instance.kpartite(symmetric_from_upper(n, sign, np.int8), parts)
    sol = LpSolution(n, (2.0 - sign) / 3.0)  # 1/3 on "+", 1 on "-", 2/3 on neutral pairs
    report = validate_solution(sol)
    if not report.feasible(1e-9):
        raise ValueError(f"constructed point infeasible: {report}")
    return inst, sol


# ---------------------------------------------------------------------------
# JSON dump / load
# ---------------------------------------------------------------------------


def solution_to_json(x: LpSolution, objective: float | None = None) -> str:
    doc = {"n": x.n, "x": [[float(v) for v in row] for row in x.matrix]}
    if objective is not None:
        doc["objective"] = float(objective)
    return json.dumps(doc, indent=1)


def solution_from_json(text: str) -> LpSolution:
    """Inverse of solution_to_json ("x" may also be the upper-triangle vector).

    FormatError on bad JSON, a missing key, an "n" that is not an integer
    >= 1 or disagrees with x, an entry that is not a finite JSON number,
    or a matrix x that is not symmetric within 1e-12 or has a nonzero
    diagonal.
    """
    try:
        doc = json.loads(text)
        n, raw = doc["n"], np.asarray(doc["x"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise FormatError(f"bad LP solution: {e!r}") from e
    if _json_typed(n, int, "n") < 1:
        raise FormatError(f"LP solution needs n >= 1, got {n}")
    # np.asarray reads "0.5" and true as numbers; as in the instance reader, neither is one
    rows = doc["x"] if raw.ndim == 2 else [doc["x"]] if raw.ndim == 1 else []
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise FormatError("LP solution has an entry that is not a JSON number")
    if not np.isfinite(raw).all():
        raise FormatError("LP solution has a non-finite entry")
    try:
        x = LpSolution.from_matrix(raw) if raw.ndim == 2 else LpSolution(n, raw)
    except ValueError as e:
        raise FormatError(f"bad LP solution: {e}") from e
    if x.n != n:
        raise FormatError(f"LP solution says n = {n} but carries a {x.n}-vertex matrix")
    return x
