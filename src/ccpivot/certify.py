"""Numerical certification of rounding schemes via triangle analysis.

For a triangle with edge types (t0, t1, t2) and LP lengths (l0, l1, l2)
(edge i opposite vertex i), the per-pivot expected violation cost and
removed LP mass are closed-form polynomials in the three cut
probabilities. A scheme certifies ratio alpha for a graph class when the
surplus alpha * LP - ALG is nonnegative on every admissible triangle.
For monotone schemes with piecewise-convex f_plus and piecewise-concave
f_minus, it is enough to check triangles whose lengths make the triangle
inequality tight, plus a finite corner set built from the pieces'
endpoints; ``certify`` sweeps exactly those on a grid. Ineligible
schemes fall back to a full 3-D grid over the metric polytope.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import COMPLETE, KPARTITE, WEIGHTED, Instance
from .lp import LpSolution
from .rounding import (
    EDGE_MINUS,
    EDGE_NEUTRAL,
    EDGE_PLUS,
    IneligibleSchemeError,
    RoundingScheme,
    cut_probabilities,
    pair_model,
    pivot_terms,
)

COMPLETE_TYPES = [
    ("+", "+", "+"),
    ("+", "+", "-"),
    ("+", "-", "-"),
    ("-", "-", "-"),
]

# all-neutral contributes nothing and exactly-two-neutral cannot occur
KPARTITE_TYPES = COMPLETE_TYPES + [
    ("+", "+", "0"),
    ("+", "-", "0"),
    ("-", "-", "0"),
]


def admissible_types(graph_class: str) -> list[tuple[str, str, str]]:
    if graph_class == COMPLETE:
        return list(COMPLETE_TYPES)
    if graph_class == KPARTITE:
        return list(KPARTITE_TYPES)
    raise ValueError(f"no labeled triangle types for class {graph_class!r}")


# ---------------------------------------------------------------------------
# per-pivot edge costs and triple sums
# ---------------------------------------------------------------------------


def edge_cost_given_pivot(edge_type: str, p_u, p_v):
    """Probability the pair is violated at this step, given the pivot.

    A "+" pair is violated when exactly one endpoint joins the cluster,
    a "-" pair when both do; neutral pairs cost nothing.
    """
    p_u = np.asarray(p_u, dtype=np.float64)
    p_v = np.asarray(p_v, dtype=np.float64)
    if edge_type == EDGE_PLUS:
        return p_u * (1.0 - p_v) + (1.0 - p_u) * p_v
    if edge_type == EDGE_MINUS:
        return (1.0 - p_u) * (1.0 - p_v)
    if edge_type == EDGE_NEUTRAL:
        return np.zeros(np.broadcast(p_u, p_v).shape)
    raise ValueError(f"unknown edge type {edge_type!r}")


def edge_lp_given_pivot(edge_type: str, x, p_u, p_v):
    """Expected LP mass of the pair removed at this step, given the pivot."""
    x = np.asarray(x, dtype=np.float64)
    p_u = np.asarray(p_u, dtype=np.float64)
    p_v = np.asarray(p_v, dtype=np.float64)
    removed = 1.0 - p_u * p_v
    if edge_type == EDGE_PLUS:
        return removed * x
    if edge_type == EDGE_MINUS:
        return removed * (1.0 - x)
    if edge_type == EDGE_NEUTRAL:
        return np.zeros(np.broadcast(x, p_u, p_v).shape)
    raise ValueError(f"unknown edge type {edge_type!r}")


@dataclass(frozen=True)
class TripleCosts:
    alg: float
    lp: float
    surplus: float  # alpha * lp - alg


def triple_sums(types, lengths, probs):
    """(ALG, LP) of one triangle from explicit cut probabilities.

    Edge i sits opposite vertex i; the pivot-i term uses the other two
    probabilities. lengths/probs may be arrays for grid sweeps.
    """
    alg = 0.0
    lp = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        alg = alg + edge_cost_given_pivot(types[i], probs[j], probs[k])
        lp = lp + edge_lp_given_pivot(types[i], lengths[i], probs[j], probs[k])
    return alg, lp


def triple_costs_probs(types, lengths, probs, alpha: float) -> TripleCosts:
    alg, lp = triple_sums(types, lengths, probs)
    return TripleCosts(float(alg), float(lp), float(alpha * lp - alg))


def triple_costs(types, lengths, scheme: RoundingScheme, alpha: float) -> TripleCosts:
    """Like triple_costs_probs with probabilities taken from the scheme."""
    lengths = tuple(float(v) for v in lengths)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        if lengths[i] > lengths[j] + lengths[k] + 1e-12:
            raise ValueError(f"lengths {lengths} violate the triangle inequality")
    probs = tuple(float(scheme.fn(t)(l)) for t, l in zip(types, lengths))
    return triple_costs_probs(types, lengths, probs, alpha)


# ---------------------------------------------------------------------------
# eligibility for the tight-triangle reduction
# ---------------------------------------------------------------------------


@dataclass
class EligibilityReport:
    starts_at_zero: bool
    in_range: bool
    monotone: bool
    plus_piecewise_convex: bool
    minus_piecewise_concave: bool

    @property
    def eligible(self) -> bool:
        return (
            self.starts_at_zero
            and self.in_range
            and self.monotone
            and self.plus_piecewise_convex
            and self.minus_piecewise_concave
        )


def _monotone_in_range(fn, step=1e-3) -> tuple[bool, bool]:
    xs = np.arange(0.0, 1.0 + step / 2, step)
    ys = fn(xs)
    mono = bool(np.all(np.diff(ys) >= -1e-12))
    inr = bool(np.all(ys >= -1e-12) and np.all(ys <= 1 + 1e-12))
    return mono, inr


def _piecewise_shape(fn, convex: bool, step=1e-3) -> bool:
    """Midpoint test on every piece: chord above (convex) or below (concave)."""
    for p in fn.pieces:
        if p.hi - p.lo < 2 * step:
            continue
        xs = np.arange(p.lo, p.hi + step / 2, step)
        xs = xs[(xs >= p.lo) & (xs <= p.hi)]
        lo, hi = xs[:-2], xs[2:]
        mid = xs[1:-1]
        chord = (p(lo) + p(hi)) / 2.0
        val = p(mid)
        if convex:
            if np.any(val > chord + 1e-9):
                return False
        else:
            if np.any(val < chord - 1e-9):
                return False
    return True


def check_eligibility(scheme: RoundingScheme) -> EligibilityReport:
    fns = [scheme.f_plus, scheme.f_minus]
    if scheme.f_neutral is not None:
        fns.append(scheme.f_neutral)
    zero_ok = all(abs(float(f(0.0))) <= 1e-12 for f in fns)
    monos, ranges = zip(*(_monotone_in_range(f) for f in fns))
    return EligibilityReport(
        starts_at_zero=zero_ok,
        in_range=all(ranges),
        monotone=all(monos),
        plus_piecewise_convex=_piecewise_shape(scheme.f_plus, convex=True),
        minus_piecewise_concave=_piecewise_shape(scheme.f_minus, convex=False),
    )


def corner_sets(scheme: RoundingScheme) -> dict[str, list[float]]:
    """Candidate corner lengths per edge type from the pieces' endpoints."""
    out = {
        EDGE_PLUS: scheme.f_plus.breakpoints(),
        EDGE_MINUS: scheme.f_minus.breakpoints(),
    }
    neutral = [0.0, 1.0]
    if scheme.f_neutral is not None:
        neutral = sorted(set(neutral) | set(scheme.f_neutral.interior_breakpoints()))
    out[EDGE_NEUTRAL] = neutral
    return out


# ---------------------------------------------------------------------------
# grid certification
# ---------------------------------------------------------------------------


@dataclass
class TypeResult:
    label: str
    min_surplus: float
    witness: dict
    corner_min: float
    corner_results: list

    @property
    def passed_at(self):
        return min(self.min_surplus, self.corner_min)


@dataclass
class CertificateReport:
    scheme: str
    alpha: float
    graph_class: str
    grid_step: float
    tol: float
    eligible: bool
    used_full_grid: bool
    results: list = field(default_factory=list)  # TypeResult
    sweep: dict = field(default_factory=dict)  # extra meta entries of the sweep

    @property
    def min_surplus(self) -> float:
        return min(r.passed_at for r in self.results)

    @property
    def passed(self) -> bool:
        return self.min_surplus >= -self.tol

    def worst(self) -> TypeResult:
        return min(self.results, key=lambda r: r.passed_at)

    def to_json(self) -> str:
        from . import __version__

        doc = {
            "meta": {
                "version": __version__,
                "scheme": self.scheme,
                "alpha": self.alpha,
                "class": self.graph_class,
                "grid_step": self.grid_step,
                "tol": self.tol,
                "eligible": self.eligible,
                "full_grid": self.used_full_grid,
                **self.sweep,
            },
            "verdict": "PASS" if self.passed else "FAIL",
            "min_surplus": self.min_surplus,
            "types": [
                {
                    "type": r.label,
                    "min_surplus": r.min_surplus,
                    "witness": r.witness,
                    "corner_min": r.corner_min,
                    "corner_results": r.corner_results,
                    "grid_step": self.grid_step,
                }
                for r in self.results
            ],
        }
        return json.dumps(doc, indent=1)


def _grid(step: float) -> np.ndarray:
    k = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, k + 1)


def _assignments(canonical: tuple[str, str, str]):
    return sorted(set(itertools.permutations(canonical)))


def _metric_triples(s0, s1, s2) -> list:
    """Triples of s0 x s1 x s2, in product order, that satisfy the triangle inequality."""
    return [
        t for t in itertools.product(s0, s1, s2)
        if t[0] <= t[1] + t[2] + 1e-12
        and t[1] <= t[0] + t[2] + 1e-12
        and t[2] <= t[0] + t[1] + 1e-12
    ]


def _surplus_on_lengths(types, L0, L1, L2, scheme, alpha):
    probs = [scheme.fn(t)(L) for t, L in zip(types, (L0, L1, L2))]
    alg, lp = triple_sums(types, (L0, L1, L2), probs)
    return alpha * lp - alg


def _sweep_tight_families(types, scheme, alpha, step):
    """Min surplus over both tight-length families for one type assignment."""
    g = _grid(step)
    A, B = np.meshgrid(g, g, indexing="ij")
    mask = A + B <= 1.0 + 1e-12
    a, b = A[mask], B[mask]
    best = (math.inf, None)
    for fam, lengths in (("(x,y,x+y)", (a, b, a + b)), ("(x,x+z,z)", (a, a + b, b))):
        s = _surplus_on_lengths(types, *lengths, scheme, alpha)
        i = int(np.argmin(s))
        if s[i] < best[0]:
            best = (
                float(s[i]),
                {
                    "types": "".join(types),
                    "family": fam,
                    "lengths": [float(lengths[0][i]), float(lengths[1][i]), float(lengths[2][i])],
                },
            )
    return best


def _sweep_corners(types, scheme, alpha, corners):
    results = []
    best = (math.inf, None)
    for lengths in _metric_triples(*(corners[t] for t in types)):
        l = list(lengths)
        tc = triple_costs(types, l, scheme, alpha)
        results.append({"types": "".join(types), "lengths": l, "surplus": tc.surplus})
        if tc.surplus < best[0]:
            best = (tc.surplus, {"types": "".join(types), "family": "corner", "lengths": l})
    return best, results


def _sweep_full_grid(types, scheme, alpha, step):
    """Fallback for ineligible schemes: full 3-D metric-polytope grid."""
    g = _grid(step)
    best = (math.inf, None)
    for l0 in g:
        B, C = np.meshgrid(g, g, indexing="ij")
        ok = (l0 <= B + C + 1e-12) & (B <= l0 + C + 1e-12) & (C <= l0 + B + 1e-12)
        if not ok.any():
            continue
        b, c = B[ok], C[ok]
        a = np.full_like(b, l0)
        s = _surplus_on_lengths(types, a, b, c, scheme, alpha)
        i = int(np.argmin(s))
        if s[i] < best[0]:
            best = (
                float(s[i]),
                {"types": "".join(types), "family": "full-grid",
                 "lengths": [float(l0), float(b[i]), float(c[i])]},
            )
    return best


def certify(
    scheme: RoundingScheme,
    alpha: float,
    graph_class: str = COMPLETE,
    grid_step: float = 0.005,
    tol: float = 1e-9,
    allow_full_grid: bool = True,
) -> CertificateReport:
    """Grid-certify that the scheme rounds within factor alpha on the class.

    Eligible schemes are checked on the two tight-length families (over
    every assignment of the type triple to edge positions) plus the
    corner set; PASS means the minimum surplus stays above -tol.
    """
    elig = check_eligibility(scheme)
    use_full = not elig.eligible
    if use_full and not allow_full_grid:
        raise IneligibleSchemeError(
            f"scheme {scheme.name!r} fails the tight-triangle eligibility check"
        )
    corners = corner_sets(scheme)
    report = CertificateReport(
        scheme=scheme.name,
        alpha=alpha,
        graph_class=graph_class,
        grid_step=grid_step,
        tol=tol,
        eligible=elig.eligible,
        used_full_grid=use_full,
    )
    for canonical in admissible_types(graph_class):
        best = (math.inf, None)
        corner_best = (math.inf, None)
        corner_rows: list = []
        for types in _assignments(canonical):
            if use_full:
                cand = _sweep_full_grid(types, scheme, alpha, grid_step)
            else:
                cand = _sweep_tight_families(types, scheme, alpha, grid_step)
            if cand[0] < best[0]:
                best = cand
            cb, rows = _sweep_corners(types, scheme, alpha, corners)
            corner_rows.extend(rows)
            if cb[0] < corner_best[0]:
                corner_best = cb
        witness = best[1] if best[0] <= corner_best[0] else corner_best[1]
        report.results.append(
            TypeResult(
                label="".join(canonical),
                min_surplus=best[0],
                witness=witness,
                corner_min=corner_best[0],
                corner_results=corner_rows,
            )
        )
    return report


# ---------------------------------------------------------------------------
# bound curves and the lower-bound computation
# ---------------------------------------------------------------------------


@dataclass
class BoundCurves:
    """Necessary envelopes on the rounding functions at ratio alpha.

    Outside a curve's real domain the constraint is vacuous and the
    curve evaluates to NaN.
    """

    alpha: float

    def f_minus_lower(self, x):
        x = np.asarray(x, dtype=np.float64)
        rad = 1.0 - self.alpha * (1.0 - x)
        return np.sqrt(np.where(rad >= 0, rad, np.nan))

    def f_plus_upper(self, x):
        x = np.asarray(x, dtype=np.float64)
        rad = 1.0 - self.alpha * x
        return 1.0 - np.sqrt(np.where(rad >= 0, rad, np.nan))

    def f_plus_lower(self, x):
        """Lower envelope from the two-equal-plus-edges family (f_minus = id)."""
        x = np.asarray(x, dtype=np.float64)
        a = self.alpha
        lead = 1.0 + a - 2.0 * a * x
        b = 4.0 * a * x**2 - 8.0 * x
        rad = b**2 - 4.0 * (1.0 - a + 4.0 * x) * lead
        rad = np.where(rad >= 0, rad, np.nan)
        return (-b - np.sqrt(rad)) / (2.0 * lead)

    def tabulate(self, step: float = 1e-3):
        xs = _grid(step)
        return {
            "x": xs,
            "f_minus_lower": self.f_minus_lower(xs),
            "f_plus_upper": self.f_plus_upper(xs),
            "f_plus_lower": self.f_plus_lower(xs),
        }


def bound_curves(alpha: float) -> BoundCurves:
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return BoundCurves(alpha)


@dataclass
class LowerBoundResult:
    alpha: float
    x: float
    root_interval: tuple[float, float] | None  # outward-rounded to 3 decimals
    roots_raw: tuple[float, float] | None
    upper_bound: float  # cap on f_plus(x) from the all-plus family (1 if vacuous)
    contradiction: bool


def lower_bound_check(alpha: float, x: float) -> LowerBoundResult:
    """Test whether ratio alpha is impossible for any scheme, probed at x.

    On the two-equal-plus family the surplus forces f_plus(x) into the
    root interval of a quadratic whose coefficients use the f_minus
    envelope; the all-plus family caps f_plus(x) from above. An empty
    intersection of the interval with [0, cap] rules the ratio out.

    The family's triangle (x, x, 2x) has its "-" edge at length 2x, so
    the probe exists only for x <= 1/2; beyond that it is vacuous. On
    that domain the leading coefficient A = 2 - rad is at least 1, so
    the quadratic is convex and its feasible set is the root interval.
    """
    rad = 1.0 - alpha * (1.0 - 2.0 * x)
    cap_rad = 1.0 - alpha * x
    cap = 1.0 - math.sqrt(cap_rad) if cap_rad >= 0 else 1.0
    if rad < 0 or x > 0.5:
        return LowerBoundResult(alpha, x, None, None, cap, False)
    s = math.sqrt(rad)
    A = 1.0 + alpha - 2.0 * alpha * x
    B = 2.0 * (2.0 - alpha * x) * s
    C = 2.0 * s - alpha + 1.0
    disc = B * B - 4.0 * A * C
    if disc < 0:
        # the required quadratic can never be satisfied at this x
        return LowerBoundResult(alpha, x, None, None, cap, True)
    r1 = (B - math.sqrt(disc)) / (2.0 * A)
    r2 = (B + math.sqrt(disc)) / (2.0 * A)
    lo = math.floor(r1 * 1000.0) / 1000.0
    hi = math.ceil(r2 * 1000.0) / 1000.0
    contradiction = lo > cap or hi < 0.0
    return LowerBoundResult(alpha, x, (lo, hi), (r1, r2), cap, contradiction)


# ---------------------------------------------------------------------------
# weighted triangle-inequality certification
# ---------------------------------------------------------------------------

_COIN_TYPES = list(itertools.product(("+", "-"), repeat=3))


def _coin_surpluses(lengths, scheme: RoundingScheme, alpha: float) -> list:
    """alpha * LP - ALG per label-coin outcome, in _COIN_TYPES order (free of lam_minus)."""
    ls = [np.asarray(v, dtype=np.float64) for v in lengths]
    probs = {
        ("+", i): scheme.f_plus(ls[i]) for i in range(3)
    } | {
        ("-", i): scheme.f_minus(ls[i]) for i in range(3)
    }
    out = []
    for combo in _COIN_TYPES:
        p = [probs[(combo[i], i)] for i in range(3)]
        alg, lp = triple_sums(combo, ls, p)
        out.append(alpha * lp - alg)
    return out


def _coin_mixture(lam_minus, surpluses):
    """Sum of the per-coin surpluses weighted by their lam_minus probabilities."""
    lm = [np.asarray(v, dtype=np.float64) for v in lam_minus]
    total = 0.0
    for combo, s in zip(_COIN_TYPES, surpluses):
        weight = 1.0
        for i, t in enumerate(combo):
            weight = weight * (lm[i] if t == "-" else (1.0 - lm[i]))
        total = total + weight * s
    return total


def weighted_surplus(lam_minus, lengths, scheme: RoundingScheme, alpha: float):
    """Expected surplus of a weighted triangle over the three label coins.

    lam_minus and lengths are triples (arrays allowed); each of the 8
    coin outcomes contributes its unweighted surplus times its
    probability.
    """
    return _coin_mixture(lam_minus, _coin_surpluses(lengths, scheme, alpha))


def _weighted_length_batches(scheme: RoundingScheme, grid_step: float):
    """Tight-family length triples plus corner triples, as one batch."""
    g = _grid(grid_step)
    A, B = np.meshgrid(g, g, indexing="ij")
    mask = A + B <= 1.0 + 1e-12
    a, b = A[mask], B[mask]
    batches = [
        (a, b, a + b),
        (a, a + b, b),
        (a + b, a, b),
    ]
    pts = sorted(set(scheme.f_plus.breakpoints()) | set(scheme.f_minus.breakpoints()))
    corner = _metric_triples(pts, pts, pts)
    if corner:
        arr = np.array(corner, dtype=np.float64)
        batches.append((arr[:, 0], arr[:, 1], arr[:, 2]))
    ls = [np.concatenate([b[i] for b in batches]) for i in range(3)]
    return ls


def certify_weighted_ti(
    scheme: RoundingScheme,
    alpha: float,
    length_grid_step: float = 0.01,
    tol: float = 1e-7,
    lam_grid_step: float = 1.0 / 12.0,
    jobs: int = 1,
) -> CertificateReport:
    """Certify a scheme on weighted instances with metric negative weights.

    The surplus is swept over tight length triples (and length corners)
    crossed with a grid of lam_minus triples restricted to the metric
    polytope. The eight per-coin surplus arrays are computed once; each
    lam row only mixes them. The sweep is serial: ``jobs`` is accepted
    for compatibility and ignored.
    """
    elig = check_eligibility(scheme)
    if not elig.eligible:
        raise IneligibleSchemeError(
            f"scheme {scheme.name!r} fails the tight-triangle eligibility check"
        )
    g = _grid(lam_grid_step)
    lam_rows = np.array(_metric_triples(g, g, g), dtype=np.float64)
    ls = _weighted_length_batches(scheme, length_grid_step)
    surpluses = _coin_surpluses(ls, scheme, alpha)
    best = (math.inf, None)
    for lam in lam_rows:
        s = _coin_mixture(lam, surpluses)
        i = int(np.argmin(s))
        if s[i] < best[0]:
            best = (
                float(s[i]),
                {
                    "lam_minus": [float(v) for v in lam],
                    "lengths": [float(ls[0][i]), float(ls[1][i]), float(ls[2][i])],
                },
            )

    report = CertificateReport(
        scheme=scheme.name,
        alpha=alpha,
        graph_class=WEIGHTED,
        grid_step=length_grid_step,
        tol=tol,
        eligible=True,
        used_full_grid=False,
        sweep={"lam_grid_step": lam_grid_step, "surplus_points": len(ls[0]) * len(lam_rows)},
    )
    report.results.append(
        TypeResult(
            label="weighted-mixture",
            min_surplus=best[0],
            witness=best[1],
            corner_min=math.inf,
            corner_results=[],
        )
    )
    return report


# ---------------------------------------------------------------------------
# per-instance step inequality (exact, no sampling)
# ---------------------------------------------------------------------------


@dataclass
class StepInequality:
    lhs: float  # triple-sum bound on the expected step-0 violation count
    rhs: float  # alpha times the expected step-0 LP mass removed
    holds: bool


def step_inequality_check(
    inst: Instance, x: LpSolution, scheme: RoundingScheme, alpha: float
) -> StepInequality:
    """Evaluate the first-step inequality exactly via the triple sums.

    Both sides are the ordered-triple sums divided by 6n; the
    complete-type classes include the positive self-loop terms, so the
    left side upper-bounds the true expectation.
    """
    n = inst.n
    p = cut_probabilities(inst, x, scheme)
    wp, wm, L = pair_model(inst, x)
    cost_sum = 0.0
    lp_sum = 0.0
    for w in range(n):
        cost, lp = pivot_terms(wp, wm, L, p[:, w])
        cost_sum += cost
        lp_sum += lp
    lhs = cost_sum / (2.0 * n)
    rhs = alpha * lp_sum / (2.0 * n)
    return StepInequality(float(lhs), float(rhs), bool(lhs <= rhs + 1e-9))
