"""The benchmark's four workloads and the checks on every output.

Each workload is a fixed list of tasks made from one seed. A task is one
closed-loop job of a single caller: it calls ccpivot's public functions
in order and returns their outputs. ``inspect`` then checks those
outputs with code of its own and counts the work done. No check relies
on the ccpivot function that produced the value it checks.

Why these four:

* ``solve``   - time to a certified clustering: gen, LP, validate,
  pivot rounding and derandomized rounding. The LP is the main cost.
* ``sample``  - the Monte-Carlo ratio study (the ``ccpivot bench`` shape):
  gen, LP, Monte-Carlo rounding, step inequality, exact optimum.
  Monte-Carlo rounding is the main cost.
* ``certify`` - the scheme certification sweeps. No instance, LP,
  rounding or oracle work at all.
* ``exact``   - the weighted-to-labeled reduction checked with exact
  optima at 15-16 vertices. The subset DP is the main cost.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ccpivot as cc
from ccpivot.rounding import Piece, PiecewiseFn, RoundingScheme

TOL = 1e-9          # cost and surplus comparisons
LP_TOL = 1e-6       # LP feasibility and LP-vs-OPT, as the package's FEAS_TOL
CERT_TOL = {"labeled": 1e-9, "weighted": 1e-7}

S206 = cc.get_scheme("complete206")
KP3 = cc.get_scheme("kpartite3")
W150 = cc.get_scheme("weighted_ti_150")
W153 = cc.get_scheme("weighted_ti_153")
# complete206 with a decreasing neutral function: the complete class never
# uses f_neutral, so the verdicts are complete206's, but the scheme is
# ineligible and certify() must take its full 3-D grid fallback
S206_INELIGIBLE = RoundingScheme(
    "complete206_decreasing_neutral",
    S206.f_plus,
    S206.f_minus,
    PiecewiseFn([Piece(0.0, 1.0, "linear", (1.0, -1.0))]),
)

# (scheme, alpha, certified for the class)
SCHEME_FOR = {
    "complete": (S206, 2.06, True),
    "kpartite": (KP3, 3.0, True),
    "weighted": (W150, 1.5, False),  # gen_weighted_random is not metric
}

GEN = {
    "complete": lambda size, seed: cc.gen_complete_random(size, 0.5, seed),
    "kpartite": lambda size, seed: cc.gen_kpartite_random(size, 0.5, seed),
    "weighted": lambda size, seed: cc.gen_weighted_random(size, seed),
}

# Sizes, chosen so the main layer dominates and a 20 s run covers enough
# distinct instances that the run-to-run spread over seeds stays small.
SOLVE_SIZES = (("complete", 11), ("kpartite", (4, 4, 3)), ("weighted", 10))
SOLVE_PIVOTS = 5
# (class, n, trials); the cycles are uneven so the median task is not
# the boundary between two groups of equal size
SAMPLE_SIZES = (("complete", 10, 1000), ("weighted", 9, 400), ("complete", 10, 1000))
EXACT_SIZES = ((3, 5), (4, 4), (4, 4))  # (weighted n, blowup N): 15 and 16 vertices
CERT_GRID = 0.005
CERT_FULL_GRID = 0.02
CERT_WEIGHTED_GRID = 0.01
LOWER_BOUND_ALPHA = 2.025
CERTIFY_ROUND = 11  # tasks in one certify_round
RGS_MAX_N = 10  # the oracle enumerates partitions up to here, then runs the subset DP
BRUTE_CAP = 16

# Tasks per second on the reference host (2 cores, Python 3.11, numpy 2.4):
# a list built for s seconds holds about rate * s tasks, whatever the speed
# of the code under test, so every version runs the same inputs.
RATE = {"solve": 30.0, "sample": 3.9, "certify": 1.34, "exact": 1.0}


@dataclass
class Task:
    label: str
    run: Callable        # run(tracer) -> outputs
    inspect: Callable    # inspect(outputs) -> (failures, counts)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(64)


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def pair_masses(inst) -> tuple[np.ndarray, np.ndarray]:
    """(mass paid if the pair is cut, mass paid if kept), from raw fields."""
    if inst.kind == "weighted":
        cut = np.array(inst.lam_plus, dtype=np.float64)
        keep = 1.0 - cut
    else:
        cut = (inst.labels == 1).astype(np.float64)
        keep = (inst.labels == -1).astype(np.float64)
    np.fill_diagonal(cut, 0.0)
    np.fill_diagonal(keep, 0.0)
    return cut, keep


def cost_of(inst, assignment) -> float:
    a = np.asarray(assignment)
    same = a[:, None] == a[None, :]
    cut, keep = pair_masses(inst)
    return float((cut[~same].sum() + keep[same].sum()) / 2.0)


def matrix_of(n: int, vec) -> np.ndarray:
    """Symmetric matrix from the row-major upper triangle."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = vec
    return m + m.T


def lp_value(inst, m: np.ndarray) -> float:
    cut, keep = pair_masses(inst)
    return float(np.triu(cut * m + keep * (1.0 - m), 1).sum())


def infeasibility(m: np.ndarray) -> float:
    """Worst box or triangle violation of a distance matrix."""
    box = max(float(np.max(-m)), float(np.max(m - 1.0)), 0.0)
    # tri[u, v, w] = m[u, w] - m[u, v] - m[v, w]
    tri = m[:, None, :] - m[:, :, None] - m[None, :, :]
    return max(box, float(tri.max()))


def same_instance(a, b) -> bool:
    def eq(x, y):
        return (x is None and y is None) or (
            x is not None and y is not None and np.array_equal(x, y))
    return (a.kind == b.kind and a.n == b.n and a.ti == b.ti and eq(a.labels, b.labels)
            and eq(a.lam_plus, b.lam_plus) and eq(a.parts, b.parts))


def _edge_terms(t: str, x, pu, pv):
    """(violation probability, LP mass removed) of one edge at one pivot."""
    removed = 1.0 - pu * pv
    if t == "+":
        return pu * (1.0 - pv) + (1.0 - pu) * pv, removed * x
    if t == "-":
        return (1.0 - pu) * (1.0 - pv), removed * (1.0 - x)
    return 0.0, 0.0


def triangle_surplus(types, lengths, probs, alpha: float) -> float:
    """alpha * LP - ALG of one triangle; edge i lies opposite vertex i."""
    alg = lp = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        a, l = _edge_terms(types[i], lengths[i], probs[j], probs[k])
        alg += a
        lp += l
    return alpha * lp - alg


def labeled_surplus(scheme, types, lengths, alpha: float) -> float:
    probs = [float(scheme.fn(t)(l)) for t, l in zip(types, lengths)]
    return triangle_surplus(types, lengths, probs, alpha)


def weighted_surplus(scheme, lam_minus, lengths, alpha: float) -> float:
    """Expected surplus over the three independent label coins."""
    total = 0.0
    for bits in range(8):
        types = ["-" if (bits >> i) & 1 else "+" for i in range(3)]
        weight = math.prod(lam_minus[i] if t == "-" else 1.0 - lam_minus[i]
                           for i, t in enumerate(types))
        total += weight * labeled_surplus(scheme, types, lengths, alpha)
    return total


def opt_span(n: int) -> str:
    return "oracle.opt_rgs" if n <= RGS_MAX_N else "oracle.opt_dp"


def oracle_counts(n: int) -> dict:
    """Oracle path and DP work, computed from n (not measured)."""
    if n <= RGS_MAX_N:
        return {"oracle.rgs_calls": 1}
    # the DP tries every block containing each mask's lowest vertex
    return {"oracle.dp_calls": 1, "oracle.dp_submasks": (3 ** n - 1) // 2}


def lp_counts(stats, m: np.ndarray) -> dict:
    tight = sum(1 for u, v, w in stats.final_constraints
                if m[u, v] + m[v, w] - m[u, w] <= TOL)
    return {"lp.rounds": stats.separation_rounds, "lp.simplex_pivots": stats.iterations,
            "lp.cuts": stats.constraints_generated, "lp.tight_cuts": tight}


def check_lp(inst, x, stats, fail: list) -> tuple[np.ndarray, float]:
    """Own feasibility scan and objective for an LP point; returns (matrix, LP)."""
    m = matrix_of(inst.n, x.vec)
    lp = lp_value(inst, m)
    if infeasibility(m) > LP_TOL:
        fail.append(f"LP point infeasible by {infeasibility(m):.3g}")
    if abs(lp - stats.objective) > LP_TOL:
        fail.append(f"LP objective {stats.objective} but the point costs {lp}")
    return m, lp


# ---------------------------------------------------------------------------
# solve: instance -> certified clustering
# ---------------------------------------------------------------------------


def solve_task(kind: str, size, rng: random.Random) -> Task:
    scheme, alpha, certified = SCHEME_FOR[kind]
    gen_seed = _seed(rng)
    pivot_seeds = [_seed(rng) for _ in range(SOLVE_PIVOTS)]

    def run(tr):
        with tr.span("instance.gen"):
            inst = GEN[kind](size, gen_seed)
        with tr.span("instance.io"):
            parsed = cc.parse_instance(cc.serialize_instance(inst))
        with tr.span("lp.solve"):
            x, stats = cc.solve_relaxation(parsed)
        with tr.span("lp.validate"):
            report = cc.validate_solution(x)
        pivots = []
        for s in pivot_seeds:
            with tr.span("rounding.pivot"):
                if kind == "weighted":
                    pivots.append((cc.pivot_round_weighted(parsed, x, scheme, s), None))
                else:
                    pivots.append(cc.pivot_round(parsed, x, scheme, s))
        with tr.span("rounding.derand"):
            best = cc.derandomize_round(parsed, x, scheme, alpha)
        return inst, parsed, x, stats, report, pivots, best

    def inspect(out):
        inst, parsed, x, stats, report, pivots, best = out
        fail: list[str] = []
        if not same_instance(inst, parsed):
            fail.append("serialize/parse round trip changed the instance")
        m, lp = check_lp(parsed, x, stats, fail)
        if not report.feasible():
            fail.append(f"validate_solution reports {report}")
        steps = 0
        for clustering, trace in pivots:
            steps += clustering.num_clusters
            if trace is not None:
                try:
                    trace.check(inst.n)
                except AssertionError as exc:
                    fail.append(f"pivot trace: {exc}")
            if cost_of(parsed, clustering.assignment) < lp - LP_TOL:
                fail.append("a pivot clustering costs less than the LP")
        cost = cost_of(parsed, best.assignment)
        if cost < lp - LP_TOL:
            fail.append("the derandomized clustering costs less than the LP")
        if certified and cost > alpha * lp + TOL:
            fail.append(f"derandomized cost {cost} > {alpha} * LP {lp}")
        counts = lp_counts(stats, m) | {"rounding.pivot_steps": steps}
        if lp > TOL:
            counts |= {"alg_over_lp.sum": cost / lp, "alg_over_lp.n": 1}
        return fail, counts

    return Task(kind, run, inspect)


# ---------------------------------------------------------------------------
# sample: Monte-Carlo ratio against the LP and the exact optimum
# ---------------------------------------------------------------------------


def sample_task(kind: str, n: int, trials: int, rng: random.Random) -> Task:
    scheme, alpha, certified = SCHEME_FOR[kind]
    gen_seed, mc_seed = _seed(rng), _seed(rng)
    mc_kind = "weighted" if kind == "weighted" else "labeled"

    def run(tr):
        with tr.span("instance.gen"):
            inst = GEN[kind](n, gen_seed)
        with tr.span("lp.solve"):
            x, stats = cc.solve_relaxation(inst)
        with tr.span(f"rounding.mc_{mc_kind}"):
            mc = cc.monte_carlo_ratio(inst, x, scheme, trials, mc_seed)
        with tr.span("certify.step_ineq"):
            step = cc.step_inequality_check(inst, x, scheme, alpha)
        with tr.span(opt_span(n)):
            best, opt = cc.brute_force_opt(inst)
        return inst, x, stats, mc, step, best, opt

    def inspect(out):
        inst, x, stats, mc, step, best, opt = out
        fail: list[str] = []
        m, lp = check_lp(inst, x, stats, fail)
        if abs(cost_of(inst, best.assignment) - opt) > TOL:
            fail.append(f"reported OPT {opt} is not the cost of its argmin")
        if lp > opt + LP_TOL:
            fail.append(f"LP {lp} above OPT {opt}")
        if mc.trials != trials:
            fail.append(f"Monte-Carlo ran {mc.trials} trials, not {trials}")
        if mc.min < opt - TOL:
            fail.append(f"Monte-Carlo minimum {mc.min} below OPT {opt}")
        if certified:
            if lp > TOL and mc.mean / lp > alpha + 3.0 * mc.sem / lp:
                fail.append(f"Monte-Carlo mean/LP {mc.mean / lp} above {alpha} + 3 SEM")
            if lp <= TOL and mc.mean != 0.0:
                fail.append("zero LP but nonzero Monte-Carlo mean")
            if not (step.holds and step.lhs <= step.rhs + TOL):
                fail.append(f"step inequality fails: {step}")
        counts = lp_counts(stats, m) | oracle_counts(inst.n)
        counts[f"rounding.mc_trials.{mc_kind}"] = mc.trials
        if lp > TOL:
            counts |= {"alg_over_lp.sum": mc.mean / lp, "alg_over_lp.n": 1}
        return fail, counts

    return Task(kind, run, inspect)


# ---------------------------------------------------------------------------
# certify: scheme certification sweeps
# ---------------------------------------------------------------------------


def grid_task(label: str, scheme, alpha: float, graph_class: str, step: float,
              expect_pass: bool, full_grid: bool) -> Task:
    tol = CERT_TOL["labeled"]

    def run(tr):
        with tr.span("certify.grid"):
            return cc.certify(scheme, alpha, graph_class, grid_step=step, tol=tol)

    def inspect(rep):
        fail: list[str] = []
        if rep.passed != expect_pass:
            fail.append(f"verdict {'PASS' if rep.passed else 'FAIL'} at alpha {alpha}")
        if rep.used_full_grid != full_grid:
            fail.append(f"full-grid fallback {rep.used_full_grid}")
        worst = rep.worst()
        own = labeled_surplus(scheme, tuple(worst.witness["types"]),
                              worst.witness["lengths"], alpha)
        if abs(own - worst.passed_at) > TOL or (own < -tol) == expect_pass:
            fail.append(f"witness surplus {own} vs reported {worst.passed_at}")
        return fail, {}

    return Task(label, run, inspect)


def weighted_points(scheme, step: float, lam_step: float = 1.0 / 12.0) -> int:
    """Surplus evaluations of certify_weighted_ti, computed from its grids."""
    k = round(1.0 / step)
    lengths = 3 * (k + 1) * (k + 2) // 2  # three tight families, a + b <= 1
    pts = sorted(set(scheme.f_plus.breakpoints()) | set(scheme.f_minus.breakpoints()))
    lengths += sum(1 for t in _triples(pts))
    g = np.linspace(0.0, 1.0, round(1.0 / lam_step) + 1)
    return lengths * sum(1 for t in _triples(g))


def _triples(values):
    for a in values:
        for b in values:
            for c in values:
                if a <= b + c + 1e-12 and b <= a + c + 1e-12 and c <= a + b + 1e-12:
                    yield a, b, c


def weighted_task(label: str, scheme, alpha: float, step: float = CERT_WEIGHTED_GRID) -> Task:
    tol = CERT_TOL["weighted"]
    points = weighted_points(scheme, step)

    def run(tr):
        with tr.span("certify.weighted"):
            return cc.certify_weighted_ti(scheme, alpha, length_grid_step=step, tol=tol, jobs=1)

    def inspect(rep):
        fail: list[str] = []
        if not rep.passed:
            fail.append(f"FAIL at alpha {alpha}")
        w = rep.worst()
        own = weighted_surplus(scheme, w.witness["lam_minus"], w.witness["lengths"], alpha)
        if abs(own - w.min_surplus) > TOL:
            fail.append(f"witness surplus {own} vs reported {w.min_surplus}")
        return fail, {"certify.weighted_points": points}

    return Task(label, run, inspect)


def lower_bound_task(label: str, alpha: float, offset: float, expect: bool) -> Task:
    # x <= 1/2 keeps the two-equal-plus family (x, x, <= 2x) inside [0, 1]
    xs = [offset + 0.001 * k for k in range(500)]

    def run(tr):
        with tr.span("certify.lower_bound"):
            return [cc.lower_bound_check(alpha, x) for x in xs]

    def inspect(results):
        fail: list[str] = []
        hits = [r for r in results if r.contradiction]
        if bool(hits) != expect:
            fail.append(f"{len(hits)} contradictions at alpha {alpha}")
        for r in hits:
            if r.root_interval is None:
                continue  # the quadratic has no real root: nothing to compare
            cap = 1.0 - math.sqrt(1.0 - alpha * r.x) if alpha * r.x <= 1.0 else 1.0
            lo, hi = r.root_interval
            if not (lo > cap or hi < 0.0):
                fail.append(f"interval ({lo}, {hi}) meets [0, {cap}] at x={r.x}")
        return fail, {}

    return Task(label, run, inspect)


def certify_round(rng: random.Random) -> list[Task]:
    """One pass over the sweeps. Alphas are drawn where the verdict is known:
    the surplus grows with alpha, complete206 certifies 2.06 and fails 2.00,
    kpartite3 certifies 3, the weighted schemes 1.5 and 1.53."""
    a_pass, a_fail = rng.uniform(2.06, 2.2), rng.uniform(1.9, 2.0)
    return [
        grid_task("complete206-pass", S206, a_pass, "complete", CERT_GRID, True, False),
        grid_task("complete206-fail", S206, a_fail, "complete", CERT_GRID, False, False),
        *(grid_task(f"kpartite3-pass-{k}", KP3, rng.uniform(3.0, 3.3), "kpartite", CERT_GRID,
                    True, False) for k in range(3)),
        grid_task("fullgrid-pass", S206_INELIGIBLE, a_pass, "complete", CERT_FULL_GRID,
                  True, True),
        grid_task("fullgrid-fail", S206_INELIGIBLE, a_fail, "complete", CERT_FULL_GRID,
                  False, True),
        weighted_task("weighted150", W150, rng.uniform(1.5, 1.6)),
        weighted_task("weighted153", W153, rng.uniform(1.53, 1.6)),
        lower_bound_task("lower-bound-2.025", LOWER_BOUND_ALPHA, rng.uniform(0.0, 0.001),
                         True),
        lower_bound_task("lower-bound-pass", a_pass, rng.uniform(0.0, 0.001), False),
    ]


# ---------------------------------------------------------------------------
# exact: weighted optimum vs the optimum of its labeled blowup
# ---------------------------------------------------------------------------


def exact_task(n: int, N: int, rng: random.Random) -> Task:
    gen_seed, blow_seed = _seed(rng), _seed(rng)

    def run(tr):
        with tr.span("instance.gen"):
            w = cc.gen_weighted_random(n, gen_seed)
        with tr.span(opt_span(n)):
            cw, opt_w = cc.brute_force_opt(w)
        with tr.span("instance.blowup"):
            blown, vmap = cc.weighted_to_unweighted(w, N, blow_seed)
        with tr.span(opt_span(n * N)):
            cb, opt_b = cc.brute_force_opt(blown)
        return w, cw, opt_w, blown, vmap, cb, opt_b

    def inspect(out):
        w, cw, opt_w, blown, vmap, cb, opt_b = out
        fail: list[str] = []
        if abs(cost_of(w, cw.assignment) - opt_w) > TOL:
            fail.append(f"weighted OPT {opt_w} is not the cost of its argmin")
        if abs(cost_of(blown, cb.assignment) - opt_b) > TOL:
            fail.append(f"blowup OPT {opt_b} is not the cost of its argmin")
        lifted = cw.assignment[np.asarray(vmap)]
        if opt_b > cost_of(blown, lifted) + TOL:
            fail.append(f"blowup OPT {opt_b} above its lifted weighted optimum")
        counts = oracle_counts(w.n)
        for k, v in oracle_counts(blown.n).items():
            counts[k] = counts.get(k, 0) + v
        return fail, counts

    return Task(f"{n}x{N}", run, inspect)


# ---------------------------------------------------------------------------
# task lists
# ---------------------------------------------------------------------------


def _cycles(workload: str, seconds: float, cycle: int) -> int:
    return max(1, round(seconds * RATE[workload] / cycle))


def build(workload: str, seed: int, seconds: float) -> list[Task]:
    """The fixed task list of a run: same seed and seconds, same inputs."""
    rng = random.Random(seed)
    tasks: list[Task] = []
    if workload == "solve":
        for _ in range(_cycles(workload, seconds, len(SOLVE_SIZES))):
            tasks += [solve_task(kind, size, rng) for kind, size in SOLVE_SIZES]
    elif workload == "sample":
        for _ in range(_cycles(workload, seconds, len(SAMPLE_SIZES))):
            tasks += [sample_task(kind, n, t, rng) for kind, n, t in SAMPLE_SIZES]
    elif workload == "certify":
        for _ in range(_cycles(workload, seconds, CERTIFY_ROUND)):
            tasks += certify_round(rng)
    elif workload == "exact":
        os.environ["CC_MAX_BRUTE_N"] = str(BRUTE_CAP)
        for _ in range(_cycles(workload, seconds, len(EXACT_SIZES))):
            tasks += [exact_task(n, N, rng) for n, N in EXACT_SIZES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks


SCHEMES_USED = {
    "solve": ("complete206", "kpartite3", "weighted_ti_150"),
    "sample": ("complete206", "weighted_ti_150"),
    "certify": ("complete206", "kpartite3", "weighted_ti_150", "weighted_ti_153"),
    "exact": (),
}
