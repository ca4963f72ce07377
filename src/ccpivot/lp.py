"""The metric relaxation: build, solve, separate, validate.

One variable x_uv in [0, 1] per unordered pair, objective
sum over "+" pairs of x plus sum over "-" pairs of (1 - x) (weighted
classes mix the two with lam), subject to x_uw <= x_uv + x_vw for all
triples. The O(n^3) triangle family is generated lazily: solve the
working relaxation with a dense primal simplex, scan for violated
triangles, add the worst ones, repeat. Termination requires both simplex
optimality on the working set and an empty separation scan, which
together certify the objective is the true relaxation optimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import WEIGHTED, FormatError, Instance, worst_triangle

FEAS_TOL = 1e-6          # separation / reported-solution feasibility
SIMPLEX_TOL = 1e-8       # pivot feasibility tolerance inside the simplex
MAX_PIVOTS = 200_000
MAX_ROUNDS = 500


class LpNumericalError(RuntimeError):
    """Iteration cap hit or tableau breakdown; never silently swallowed."""


class LpSolution:
    """Symmetric pairwise distances, one stored entry per unordered pair."""

    __slots__ = ("n", "vec", "_matrix")

    def __init__(self, n: int, vec: np.ndarray):
        self.n = n
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (n * (n - 1) // 2,):
            raise ValueError("wrong vector length for n")
        self.vec = vec
        self._matrix = None

    @staticmethod
    def from_matrix(m: np.ndarray) -> "LpSolution":
        m = np.asarray(m, dtype=np.float64)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        iu = np.triu_indices(n, 1)
        return LpSolution(n, m[iu].copy())

    @staticmethod
    def from_upper(n: int, vec) -> "LpSolution":
        return LpSolution(n, np.asarray(vec, dtype=np.float64))

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            n = self.n
            m = np.zeros((n, n))
            iu = np.triu_indices(n, 1)
            m[iu] = self.vec
            m += m.T
            self._matrix = m
        return self._matrix

    def value(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return float(self.matrix[u, v])

    @staticmethod
    def constant(n: int, value: float) -> "LpSolution":
        return LpSolution(n, np.full(n * (n - 1) // 2, float(value)))


@dataclass
class LpStats:
    objective: float = 0.0
    iterations: int = 0
    constraints_generated: int = 0
    separation_rounds: int = 0
    # per-round objective values and the final working triangle set; kept so
    # monotonicity / re-solve determinism can be audited after the fact
    round_objectives: list = field(default_factory=list)
    final_constraints: list = field(default_factory=list)


@dataclass
class ValidationReport:
    box: float = 0.0
    diagonal: float = 0.0
    triangle: float = 0.0
    worst_triple: tuple | None = None

    def feasible(self, tol: float = FEAS_TOL) -> bool:
        return max(self.box, self.diagonal, self.triangle) <= tol

    def __str__(self):
        return (
            f"box={self.box:.3g} diagonal={self.diagonal:.3g} "
            f"triangle={self.triangle:.3g} worst={self.worst_triple}"
        )


def _objective_terms(inst: Instance) -> tuple[np.ndarray, float]:
    """Linear coefficients over pair variables plus the constant offset."""
    wp, wm = inst.pair_weights()
    iu = np.triu_indices(inst.n, 1)
    coeff = wp[iu] - wm[iu]
    const = float(wm[iu].sum())
    return coeff, const


def lp_objective(inst: Instance, x: LpSolution) -> float:
    if x.n != inst.n:
        raise ValueError("solution size mismatch")
    coeff, const = _objective_terms(inst)
    return float(coeff @ x.vec + const)


def separate_triangle_violations(x: LpSolution, tol: float = FEAS_TOL):
    """All triples with x_uw - x_uv - x_vw > tol, worst first.

    Returned as (u, v, w, violation) with v the middle vertex of the
    violated constraint x_uv + x_vw >= x_uw. Full cubic scan.
    """
    m = x.matrix
    n = x.n
    found = []
    for v in range(n):
        slack = m - m[:, v][:, None] - m[v, :][None, :]
        uu, ww = np.nonzero(slack > tol)
        for u, w in zip(uu, ww):
            if u < w and u != v and w != v:
                found.append((int(u), int(v), int(w), float(slack[u, w])))
    found.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    return found


def validate_solution(x: LpSolution, tol: float = FEAS_TOL) -> ValidationReport:
    """Worst violation per constraint family; never raises."""
    m = x.matrix
    rep = ValidationReport()
    if not np.isfinite(m).all():  # max() would drop a NaN, calling the point feasible
        rep.box = math.inf
    else:
        rep.box = max(0.0, float(max(np.max(-m, initial=0.0), np.max(m - 1.0, initial=0.0))))
    rep.diagonal = float(np.max(np.abs(np.diag(m)), initial=0.0))
    gap, triple = worst_triangle(m)
    if gap > 0:
        rep.triangle, rep.worst_triple = gap, triple
    return rep


# ---------------------------------------------------------------------------
# dense primal simplex on the working relaxation
# ---------------------------------------------------------------------------
#
# Working problem:  min c.x  s.t.  A x <= b,  x >= 0,
# where A always contains the unit rows x_i <= 1 and the lazily added
# triangle rows -x_uv - x_vw + x_uw <= 0. All b >= 0, so the all-slack
# basis at x = 0 is feasible and no phase-1 is needed. Bland's rule
# (lowest eligible index) guards against cycling.


def _simplex_min(c: np.ndarray, rows: np.ndarray, rhs: np.ndarray):
    """Return (x, objective, pivot_count) for min c.x, rows.x <= rhs, x >= 0."""
    m, nvar = rows.shape
    ncols = nvar + m
    # tableau: [A | I | b], objective row keeps reduced costs
    t = np.zeros((m + 1, ncols + 1))
    t[:m, :nvar] = rows
    t[:m, nvar : nvar + m] = np.eye(m)
    t[:m, -1] = rhs
    t[m, :nvar] = c
    basis = list(range(nvar, nvar + m))

    pivots = 0
    while True:
        red = t[m, :ncols]
        enter = -1
        for j in range(ncols):
            if red[j] < -SIMPLEX_TOL:
                enter = j  # Bland: first (lowest-index) improving column
                break
        if enter < 0:
            break
        col = t[:m, enter]
        best = math.inf
        leave = -1
        for i in range(m):
            if col[i] > SIMPLEX_TOL:
                ratio = t[i, -1] / col[i]
                if ratio < best - SIMPLEX_TOL or (
                    abs(ratio - best) <= SIMPLEX_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LpNumericalError("unbounded working relaxation (tableau breakdown)")
        piv = t[leave, enter]
        t[leave] /= piv
        col_vals = t[:, enter].copy()
        col_vals[leave] = 0.0
        t -= np.outer(col_vals, t[leave])
        t[:, enter] = 0.0
        t[leave, enter] = 1.0
        basis[leave] = enter
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise LpNumericalError(f"simplex exceeded {MAX_PIVOTS} pivots")

    x = np.zeros(nvar)
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = t[i, -1]
    return x, float(c @ x), pivots


def _pair_index_map(n: int) -> np.ndarray:
    idx = np.zeros((n, n), dtype=np.int64)
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            idx[u, v] = idx[v, u] = k
            k += 1
    return idx


def _triangle_row(nvar: int, idx: np.ndarray, u: int, v: int, w: int) -> np.ndarray:
    # x_uw - x_uv - x_vw <= 0
    row = np.zeros(nvar)
    row[idx[u, w]] = 1.0
    row[idx[u, v]] -= 1.0
    row[idx[v, w]] -= 1.0
    return row


def _warm_start_point(inst: Instance) -> LpSolution:
    """Label-consistent integral point: 0 on '+', 1 on '-', 1/2 on neutral.

    Weighted pairs take whichever of 0/1 their own objective prefers.
    Usually infeasible; it only seeds the first separation round.
    """
    n = inst.n
    if inst.kind == WEIGHTED:
        m = np.where(inst.lam_plus >= 0.5, 0.0, 1.0)
    else:
        m = np.full((n, n), 0.5)
        m[inst.labels == 1] = 0.0
        m[inst.labels == -1] = 1.0
    np.fill_diagonal(m, 0.0)
    m = np.triu(m, 1)
    return LpSolution(n, m[np.triu_indices(n, 1)])


def solve_relaxation(inst: Instance, tol: float = FEAS_TOL) -> tuple[LpSolution, LpStats]:
    """Solve the relaxation to (certified) optimality.

    The returned point is feasible within tol; the objective equals the
    relaxation optimum because the simplex is optimal on the working
    constraint set and the final separation scan is empty.
    """
    n = inst.n
    coeff, const = _objective_terms(inst)
    stats = LpStats()

    if n <= 2:
        # no triangle constraints: each variable minimizes independently
        vec = np.where(coeff > 0, 0.0, 1.0) if n == 2 else np.zeros(0)
        sol = LpSolution(n, vec)
        stats.objective = lp_objective(inst, sol)
        stats.round_objectives = [stats.objective]
        return sol, stats

    idx = _pair_index_map(n)
    nvar = n * (n - 1) // 2
    unit_rows = np.eye(nvar)
    unit_rhs = np.ones(nvar)
    tri_rows: list[np.ndarray] = []
    tri_set: set[tuple[int, int, int]] = set()
    per_round = 5 * n

    x = _warm_start_point(inst)
    solved_once = False
    while True:
        viols = separate_triangle_violations(x, tol)
        if not viols and solved_once:
            break
        for u, v, w, _g in viols[:per_round]:
            key = (u, v, w)
            if key not in tri_set:
                tri_set.add(key)
                tri_rows.append(_triangle_row(nvar, idx, u, v, w))
        rows = np.vstack([unit_rows] + tri_rows) if tri_rows else unit_rows
        rhs = np.concatenate([unit_rhs, np.zeros(len(tri_rows))])
        vec, obj, pivots = _simplex_min(coeff, rows, rhs)
        x = LpSolution(n, vec)
        solved_once = True
        stats.iterations += pivots
        stats.separation_rounds += 1
        stats.round_objectives.append(obj + const)
        if stats.separation_rounds > MAX_ROUNDS:
            raise LpNumericalError(f"separation exceeded {MAX_ROUNDS} rounds")

    stats.constraints_generated = len(tri_rows)
    stats.final_constraints = sorted(tri_set)
    stats.objective = lp_objective(inst, x)
    return x, stats


def resolve_with_constraints(inst: Instance, triangles) -> float:
    """Objective of a fresh solve restricted to the given triangle set."""
    n = inst.n
    coeff, const = _objective_terms(inst)
    if n <= 2:
        sol, stats = solve_relaxation(inst)
        return stats.objective
    idx = _pair_index_map(n)
    nvar = n * (n - 1) // 2
    rows = [np.eye(nvar)]
    rows += [_triangle_row(nvar, idx, u, v, w) for (u, v, w) in triangles]
    rhs = np.concatenate([np.ones(nvar), np.zeros(len(triangles))])
    _vec, obj, _p = _simplex_min(coeff, np.vstack(rows), rhs)
    return obj + const


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

    FormatError on bad JSON, a missing key, an "n" that disagrees with x,
    or a non-finite entry.
    """
    try:
        doc = json.loads(text)
        n = int(doc["n"])
        raw = doc["x"]
        if raw and isinstance(raw[0], list):
            x = LpSolution.from_matrix(np.asarray(raw, dtype=np.float64))
        else:
            x = LpSolution.from_upper(n, np.asarray(raw, dtype=np.float64))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad LP solution: {e!r}") from e
    if x.n != n:
        raise FormatError(f"LP solution says n = {n} but carries a {x.n}-vertex matrix")
    if not np.isfinite(x.vec).all():
        raise FormatError("LP solution has a non-finite entry")
    return x
