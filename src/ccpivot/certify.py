"""Numerical certification of rounding schemes via triangle analysis.

For a triangle with edge types (t0, t1, t2) and LP lengths (l0, l1, l2)
(edge i opposite vertex i), the per-pivot expected violation cost and
removed LP mass are closed-form polynomials in the three cut
probabilities. One edge kernel, ``edge_terms``, computes them in the
arithmetic of its inputs: floats on the sweeps, Fractions exactly. A
scheme certifies ratio alpha for a graph class when the surplus
alpha * LP - ALG is nonnegative on every admissible triangle. For
monotone schemes with piecewise-convex f_plus and piecewise-concave
f_minus, it is enough to check triangles whose lengths make the triangle
inequality tight, plus a finite corner set built from the pieces'
endpoints; ``certify`` sweeps exactly those on a grid. Eligibility is
read off each piece's kind and parameters (sufficient conditions, no
sampling); ineligible schemes fall back to a full 3-D grid over the
metric polytope, and schemes whose values leave [0, 1] are refused,
because the surplus formulas assume probabilities.

One generator, ``_length_batches``, builds every swept length triple,
sorted l0 <= l1 <= l2, one per triangle: the tight family (x, y, x+y)
with x <= y, or the sorted metric triples of the full grid. Any other
ordering is a sorted triple relabeled, and the sweeps price every
relabeling of the types (and of lam_minus, whose grid is closed under
permutation). Every sweep prices its length batches with one kernel,
``_type_surpluses``, which computes each (edge type, position)
probability array once per batch, and keeps its minimum with
``_lowest``: the first strictly lower value wins, so ties resolve in
sweep order, and a NaN counts as -inf, so it can only fail a sweep.
The labeled corners stay ordered triples, as each is a row of the
report, and the corners of every type assignment form one batch;
full-grid batches and weighted mixture blocks are sized by ``_MIX_BLOCK``.
The module reads schemes alone; the first step's sums over an instance are in rounding.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import COMPLETE, KPARTITE, WEIGHTED
from .rounding import (EDGE_MINUS, EDGE_NEUTRAL, EDGE_PLUS, IneligibleSchemeError, RoundingScheme,
                       _finite)

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


def edge_terms(edge_type: str, x, p_u, p_v):
    """(cost, lp) of one pair at a pivot step, in the arithmetic of its inputs.

    cost: the probability the pair is violated given the pivot ("+": exactly
    one endpoint joins the cluster, "-": both do); lp: the expected LP mass
    of the pair removed. A neutral pair gives 0, 0.
    """
    if edge_type == EDGE_PLUS:
        return p_u * (1 - p_v) + (1 - p_u) * p_v, (1 - p_u * p_v) * x
    if edge_type == EDGE_MINUS:
        return (1 - p_u) * (1 - p_v), (1 - p_u * p_v) * (1 - x)
    if edge_type == EDGE_NEUTRAL:
        return 0, 0
    raise ValueError(f"unknown edge type {edge_type!r}")


@dataclass(frozen=True)
class TripleCosts:
    alg: float
    lp: float
    surplus: float  # alpha * lp - alg


def triple_sums(types, lengths, probs):
    """(ALG, LP) of one triangle from explicit cut probabilities.

    Edge i sits opposite vertex i; the pivot-i term uses the other two
    probabilities. lengths/probs may be arrays (grid sweeps) or Fractions.
    """
    alg = lp = 0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cost, mass = edge_terms(types[i], lengths[i], probs[j], probs[k])
        alg += cost
        lp += mass
        del cost, mass  # free this edge's arrays before the next edge allocates
    return alg, lp


def _is_metric(a, b, c) -> bool:
    """Each length is at most the sum of the other two, within 1e-12."""
    return a <= b + c + 1e-12 and b <= a + c + 1e-12 and c <= a + b + 1e-12


def triple_costs(types, lengths, scheme: RoundingScheme, alpha: float) -> TripleCosts:
    """ALG, LP and surplus of one metric triangle, probabilities from the scheme."""
    lengths = tuple(float(v) for v in lengths)
    if not _is_metric(*lengths):
        raise ValueError(f"lengths {lengths} violate the triangle inequality")
    probs = tuple(float(scheme.fn(t)(l)) for t, l in zip(types, lengths))
    alg, lp = triple_sums(types, lengths, probs)
    return TripleCosts(float(alg), float(lp), float(alpha * lp - alg))


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
        return all(vars(self).values())


def _piece_shape(p) -> tuple[bool, bool, bool]:
    """(nondecreasing, convex, concave) for one piece, from its kind and params.

    These are sufficient conditions; a shape they do not cover reads False.
    """
    if p.kind == "constant":
        return True, True, True
    if p.kind == "linear":
        return p.params[1] >= 0, True, True
    anchor, scale, expo = p.params  # power: ((x - anchor)/scale)**expo, base clipped at 0
    up = scale > 0
    return up, up and expo >= 1, up and expo <= 1 and anchor <= p.lo


def _ends(p) -> tuple[float, float]:
    """The piece's values at lo and hi; every valid piece is monotone between them."""
    return float(p(p.lo)), float(p(p.hi))


def _monotone(fn) -> bool:
    """Every piece nondecreasing and no downward jump at a breakpoint."""
    ends = [_ends(p) for p in fn.pieces]
    return all(_piece_shape(p)[0] for p in fn.pieces) and all(
        left[1] <= right[0] + 1e-12 for left, right in zip(ends, ends[1:])
    )


def check_eligibility(scheme: RoundingScheme) -> EligibilityReport:
    fns = [f for f in (scheme.f_plus, scheme.f_minus, scheme.f_neutral) if f is not None]
    return EligibilityReport(
        starts_at_zero=all(abs(float(f(0.0))) <= 1e-12 for f in fns),
        in_range=all(
            -1e-12 <= v <= 1 + 1e-12 for f in fns for p in f.pieces for v in _ends(p)
        ),
        monotone=all(_monotone(f) for f in fns),
        plus_piecewise_convex=all(_piece_shape(p)[1] for p in scheme.f_plus.pieces),
        minus_piecewise_concave=all(_piece_shape(p)[2] for p in scheme.f_minus.pieces),
    )


def corner_sets(scheme: RoundingScheme) -> dict[str, list[float]]:
    """Candidate corner lengths per edge type from the pieces' endpoints."""
    neutral = [0.0, 1.0]
    if scheme.f_neutral is not None:
        inner = [b for b in scheme.f_neutral.breakpoints() if 1e-12 < b < 1 - 1e-12]
        neutral = [0.0, *inner, 1.0]  # breakpoints() is sorted and distinct
    return {EDGE_PLUS: scheme.f_plus.breakpoints(), EDGE_MINUS: scheme.f_minus.breakpoints(),
            EDGE_NEUTRAL: neutral}


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


# Full-grid batches join whole l0 slabs up to this many points; a weighted mixture
# buffer holds at most this many (lam row, length) entries, or one row. On the
# weighted sweep at grid 0.01 (2,608 sorted lengths, 2-core host, minimum of 11
# calls) one row per block (2^12) took 30-52 ms a call, two rows (6,144) 20-21 ms,
# three (2^13) 42-52 ms and six (2^14) 35-43 ms; the full-grid fallback at grid
# 0.005 then takes 90 batches instead of 37, in the same 0.16-0.17 s.
_MIX_BLOCK = 6144


def _grid(step: float) -> np.ndarray:
    if not 0.0 < step <= 1.0:  # NaN fails too
        raise ValueError(f"grid step must be in (0, 1], got {step!r}")
    k = int(round(1.0 / step))
    return np.linspace(0.0, 1.0, k + 1)


def _assignments(canonical: tuple[str, str, str]):
    return sorted(set(itertools.permutations(canonical)))


def _metric_triples(s0, s1, s2) -> list:
    """Triples of s0 x s1 x s2, in product order, that satisfy the triangle inequality."""
    return [t for t in itertools.product(s0, s1, s2) if _is_metric(*t)]


def _length_batches(values, full_grid: bool):
    """Batches of sorted length triples l0 <= l1 <= l2 over ascending values, one per triangle.

    The tight family is (a, b, a+b) with a <= b and a + b <= 1, one batch in
    (a, b) order. The full grid streams the metric polytope in l0 slabs,
    l2 <= l0 + l1, joining whole slabs until a batch holds ``_MIX_BLOCK``
    points (the last may hold fewer).
    """
    v = np.asarray(values, dtype=np.float64)
    if not full_grid:
        A, B = np.meshgrid(v, v, indexing="ij")
        mask = (A <= B) & (A + B <= 1.0 + 1e-12)
        yield A[mask], B[mask], A[mask] + B[mask]
        return
    slabs = []
    for i, l0 in enumerate(v):
        B, C = np.meshgrid(v[i:], v[i:], indexing="ij")
        ok = (B <= C) & (C <= l0 + B + 1e-12)
        b, c = B[ok], C[ok]
        slabs.append((np.full_like(b, l0), b, c))
        if sum(len(s[0]) for s in slabs) >= _MIX_BLOCK or i == len(v) - 1:
            yield [np.concatenate(p) for p in zip(*slabs)]
            slabs = []


def _type_surpluses(type_rows, lengths, scheme: RoundingScheme, alpha: float):
    """Yield alpha * LP - ALG on the length batch for each type triple of type_rows.

    Each (edge type, position) probability array is computed once and
    shared by every row that uses it.
    """
    lengths = [np.asarray(v, dtype=np.float64) for v in lengths]
    used = {(t, i) for types in type_rows for i, t in enumerate(types)}
    probs = {(t, i): scheme.fn(t)(lengths[i]) for t, i in used}
    for types in type_rows:
        alg, lp = triple_sums(types, lengths, [probs[t, i] for i, t in enumerate(types)])
        yield alpha * lp - alg


def _lowest(best, s, witness):
    """(s[i], witness(i)) at the first argmin i of s if strictly below best[0], else best.

    A NaN surplus counts as -inf at the first NaN point (np.argmin
    returns it), so no minimum behind a PASS rests on a NaN.
    """
    i = int(np.argmin(s))
    low = -math.inf if math.isnan(s[i]) else float(s[i])
    return (low, witness(i)) if low < best[0] else best


def certify(
    scheme: RoundingScheme,
    alpha: float,
    graph_class: str = COMPLETE,
    grid_step: float = 0.005,
    tol: float = 1e-9,
    allow_full_grid: bool = True,
) -> CertificateReport:
    """Grid-certify that the scheme rounds within factor alpha on the class.

    Eligible schemes are checked on the tight family (x,y,x+y) with
    x <= y over every assignment of the type triple to edge positions
    (which covers its relabelings) plus the corner set; PASS means the
    minimum surplus stays above -tol. A scheme whose values leave
    [0, 1] is refused, fallback or not.
    """
    _finite("alpha", alpha)
    elig = check_eligibility(scheme)
    if not elig.in_range:
        raise IneligibleSchemeError(
            f"scheme {scheme.name!r} takes values outside [0, 1]; "
            "the surplus formulas need probabilities"
        )
    use_full = not elig.eligible
    if use_full and not allow_full_grid:
        raise IneligibleSchemeError(
            f"scheme {scheme.name!r} fails the tight-triangle eligibility check"
        )
    canonicals = admissible_types(graph_class)
    # each assignment's lowest grid surplus, the first in sweep order
    found = {types: (math.inf, None) for c in canonicals for types in _assignments(c)}
    rows = list(found)
    points = 0  # surplus evaluations, grid and corners
    family = "full-grid" if use_full else "(x,y,x+y)"
    for lengths in _length_batches(_grid(grid_step), use_full):
        points += len(rows) * len(lengths[0])
        for types, s in zip(rows, _type_surpluses(rows, lengths, scheme, alpha)):
            found[types] = _lowest(found[types], s, lambda i: {
                "types": "".join(types), "family": family,
                "lengths": [float(l[i]) for l in lengths],
            })
    # every assignment's corner triples, priced as one batch; each reads its own slice
    corners = corner_sets(scheme)
    triples = {types: _metric_triples(*(corners[t] for t in types)) for types in rows}
    flat = [t for types in rows for t in triples[types]]
    points += len(flat)
    starts = itertools.accumulate((len(triples[t]) for t in rows), initial=0)
    corner_s = {types: s[i:i + len(triples[types])] for types, i, s in
                zip(rows, starts, _type_surpluses(rows, list(zip(*flat)), scheme, alpha))}
    results = []
    for canonical in canonicals:
        best = min((found[t] for t in _assignments(canonical)), key=lambda b: b[0])
        corner_best, corner_rows = (math.inf, None), []
        for types in _assignments(canonical):
            label, s = "".join(types), corner_s[types]
            corner_rows += [{"types": label, "lengths": list(t), "surplus": float(v)}
                            for t, v in zip(triples[types], s)]
            corner_best = _lowest(corner_best, s, lambda i: {
                "types": label, "family": "corner", "lengths": list(triples[types][i]),
            })
        witness = best[1] if best[0] <= corner_best[0] else corner_best[1]
        results.append(
            TypeResult("".join(canonical), best[0], witness, corner_best[0], corner_rows)
        )
    return CertificateReport(scheme=scheme.name, alpha=alpha, graph_class=graph_class,
                             grid_step=grid_step, tol=tol, eligible=elig.eligible,
                             used_full_grid=use_full, results=results,
                             sweep={"surplus_points": points})


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


def bound_curves(alpha: float) -> BoundCurves:
    _finite("alpha", alpha)
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
    _finite("alpha", alpha)
    _finite("x", x)
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


def _coin_weights(lam_minus) -> np.ndarray:
    """The probability of each coin outcome of _COIN_TYPES, stacked on a new first axis."""
    lm = [np.asarray(v, dtype=np.float64) for v in lam_minus]
    side = {"-": lm, "+": [1.0 - v for v in lm]}
    weights = [1.0 * side[a][0] * side[b][1] * side[c][2] for a, b, c in _COIN_TYPES]
    return np.stack(np.broadcast_arrays(*weights))


def _coin_mixture(weights, surpluses, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Sum of the per-coin weight * surplus from 0.0 in coin order, into out (tmp: scratch)."""
    total = 0.0
    for w, s in zip(weights, surpluses):
        total = np.add(total, np.multiply(w, s, out=tmp), out=out)
    return out


def weighted_surplus(lam_minus, lengths, scheme: RoundingScheme, alpha: float):
    """Expected surplus of a weighted triangle over the three label coins.

    lam_minus and lengths are triples (arrays allowed); each of the 8
    coin outcomes contributes its unweighted surplus times its
    probability.
    """
    weights = _coin_weights(lam_minus)
    surpluses = list(_type_surpluses(_COIN_TYPES, lengths, scheme, alpha))
    shape = np.broadcast_shapes(weights.shape[1:], *(np.shape(s) for s in surpluses))
    return _coin_mixture(weights, surpluses, np.empty(shape), np.empty(shape))


def certify_weighted_ti(
    scheme: RoundingScheme,
    alpha: float,
    length_grid_step: float = 0.01,
    tol: float = 1e-7,
    lam_grid_step: float = 1.0 / 12.0,
    jobs: int = 1,
) -> CertificateReport:
    """Certify a scheme on weighted instances with metric negative weights.

    The surplus is swept over the sorted tight length triples (a, b, a+b)
    with a <= b, then the sorted metric triples of the breakpoints,
    crossed with a grid of lam_minus triples restricted to the metric
    polytope: at grid 0.01 and lam grid 1/12, 2,608 lengths by 1,105
    rows. Every other ordering is a sorted triple relabeled and adds no
    point, as every coin outcome is swept and the lam grid is closed
    under permutation. The eight per-coin surplus arrays are
    computed once, and so are the eight coin weights of every lam row;
    each block of lam rows only multiplies and adds them into two
    buffers reused from block to block. The sweep is serial: ``jobs`` is
    accepted and ignored. It stays because the benchmark passes
    ``jobs=1``; both go together at the next change to the benchmark.
    """
    _finite("alpha", alpha)
    elig = check_eligibility(scheme)
    if not elig.eligible:
        raise IneligibleSchemeError(
            f"scheme {scheme.name!r} fails the tight-triangle eligibility check"
        )
    g = _grid(lam_grid_step)
    lam_rows = np.array(_metric_triples(g, g, g), dtype=np.float64)
    pts = sorted(set(scheme.f_plus.breakpoints()) | set(scheme.f_minus.breakpoints()))
    ls = [np.concatenate(p) for p in zip(*_length_batches(_grid(length_grid_step), False),
                                         *_length_batches(pts, True))]
    surpluses = list(_type_surpluses(_COIN_TYPES, ls, scheme, alpha))
    weights = _coin_weights(lam_rows.T)[:, :, None]
    L = len(ls[0])
    rows = max(1, _MIX_BLOCK // L)
    out, tmp = np.empty((2, rows, L))
    best = (math.inf, None)
    for r0 in range(0, len(lam_rows), rows):
        block = lam_rows[r0:r0 + rows]
        mixed = _coin_mixture(weights[:, r0:r0 + rows], surpluses, out[:len(block)],
                              tmp[:len(block)])
        best = _lowest(best, mixed.ravel(), lambda i: {
            "lam_minus": [float(v) for v in block[i // L]],
            "lengths": [float(l[i % L]) for l in ls],
        })

    return CertificateReport(
        scheme=scheme.name, alpha=alpha, graph_class=WEIGHTED, grid_step=length_grid_step,
        tol=tol, eligible=True, used_full_grid=False,
        results=[TypeResult("weighted-mixture", best[0], best[1], math.inf, [])],
        sweep={"lam_grid_step": lam_grid_step, "surplus_points": L * len(lam_rows)},
    )
