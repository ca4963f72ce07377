"""Command-line surface: gen / lp / round / certify / opt / bench.

Every command is a pure function of its inputs, flags and seed, and
randomized commands require an explicit seed. Exit codes: 0 success or
certification PASS, 1 certification FAIL, 2 ineligible scheme without
the full-grid fallback, 64 usage error, 65 data-format error, 70
internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certify import certify, certify_weighted_ti
from .instance import (
    COMPLETE,
    KPARTITE,
    WEIGHTED,
    FormatError,
    clustering_cost,
    gen_complete_random,
    gen_gap_triangle_ineq,
    gen_kpartite_random,
    gen_planted,
    gen_weighted_random,
    parse_instance,
    serialize_instance,
)
from .lp import (
    FEAS_TOL,
    MAX_LP_N,
    LpNumericalError,
    lp_objective,
    solution_from_json,
    solution_to_json,
    solve_relaxation,
    validate_solution,
)
from .oracle import MAX_EXACT_N, brute_force_opt
from .rng import SplitMix64
from .rounding import (
    IneligibleSchemeError,
    RoundingScheme,
    derandomize_round,
    get_scheme,
    monte_carlo_ratio,
    pivot_round,
)

EXIT_OK = 0
EXIT_CERTIFY_FAIL = 1
EXIT_INELIGIBLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERICAL = 70

# walls of the CLI (peak RSS, 2-core host): at grid 1e-3 the weighted sweep takes 75 MB
# and 4 s, the complete-class full-grid fallback 74 MB and 22 s; at 5e-4, 207 MB and
# 19 s, and 215 MB and 230 s. A 1,000-vertex instance takes about 0.5 GB as JSON.
MIN_GRID_STEP = 1e-3
MAX_GEN_N = 1000
# bench's walls (2-core host): 10**6 trials hold 8 MB of costs and take 2.4 s per
# instance at the default n = 9, 33 s at n = 40 (MAX_LP_N); an instance takes 5 ms at
# n = 9 with 200 trials, 12 s at n = 40, so 10**4 instances take about a minute at the
# defaults.
_MAX_TRIALS = 10**6
_MAX_INSTANCES = 10**4


class _UsageExit(Exception):
    def __init__(self, message):
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(message)


def _checked(convert, ok, wants):
    """An argparse type: convert, then refuse values failing ok (exit 64)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {wants}")
    return parse


def _int_list(text):
    return [int(t) for t in text.split(",")]


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]")
_grid_step = _checked(float, lambda v: MIN_GRID_STEP <= v <= 1.0,
                      f"a grid step in [{MIN_GRID_STEP:g}, 1] (MIN_GRID_STEP)")
_part_sizes = _checked(_int_list, lambda v: min(v) >= 1,
                       "a comma-separated list of integers >= 1")
_alpha = _checked(float, lambda v: 1.0 < v < math.inf, "a finite ratio > 1")
_certify_tol = _checked(float, lambda v: 0.0 <= v <= 1e-6, "a tolerance in [0, 1e-6]")
_lp_tol = _checked(float, lambda v: 0.0 < v <= FEAS_TOL,
                   f"a tolerance in (0, {FEAS_TOL:g}] (FEAS_TOL)")
_opt_cap = _checked(int, lambda v: v <= MAX_EXACT_N,
                    f"an integer <= {MAX_EXACT_N} (MAX_EXACT_N)")
_trials = _checked(int, lambda v: 1 <= v <= _MAX_TRIALS, f"an integer in [1, {_MAX_TRIALS}]")
_instances = _checked(int, lambda v: 1 <= v <= _MAX_INSTANCES,
                      f"an integer in [1, {_MAX_INSTANCES}]")


def _write(path: str | None, text: str) -> None:
    """Output to stdout (no path or "-") or a file; an unwritable path is a data error."""
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e}") from e


def _read(path: str) -> str:
    """An input file's text; a directory, unreadable or non-UTF-8 file is a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from e


def _check_size(command: str, n: int, cap: int, name: str) -> None:
    """Refuse (exit 64) an instance past a command's size wall, before any work."""
    if n > cap:
        raise _UsageExit(f"{command} takes instances up to n = {cap} ({name}); got n = {n}")


def _resolve_scheme(name: str) -> RoundingScheme:
    if Path(name).is_file():
        text = _read(name)
        try:
            return RoundingScheme.from_json(text)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
            raise FormatError(f"bad scheme file {name}: {e!r}") from e
    try:
        return get_scheme(name)
    except KeyError as e:
        raise _UsageExit(str(e)) from None


def _meta(args, **extra) -> dict:
    m = {"version": __version__}
    for key in ("seed", "grid", "tol", "alpha", "trials"):
        if hasattr(args, key) and getattr(args, key) is not None:
            m[key] = getattr(args, key)
    m.update(extra)
    return m


# -- subcommands ------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.family != "gap-ti" and args.seed is None:
        raise _UsageExit(f"gen {args.family} requires an explicit --seed")
    n = {"kpartite": sum(args.parts), "gap-ti": 2 * args.n}.get(args.family, args.n)
    _check_size("gen", n, MAX_GEN_N, "MAX_GEN_N")
    if args.family == "complete":
        inst = gen_complete_random(args.n, args.p, args.seed)
    elif args.family == "kpartite":
        inst = gen_kpartite_random(args.parts, args.p, args.seed)
    elif args.family == "planted":
        if args.k > args.n:
            raise _UsageExit(f"planted needs --k <= --n (got k = {args.k}, n = {args.n})")
        inst, _truth = gen_planted(args.n, args.k, args.corruption, args.seed)
    elif args.family == "gap-ti":
        inst = gen_gap_triangle_ineq(args.n)
    else:  # weighted: argparse choices refuse any other family
        inst = gen_weighted_random(args.n, args.seed)
    _write(args.output, serialize_instance(inst, fmt=args.format))
    return EXIT_OK


def _cmd_lp(args) -> int:
    inst = parse_instance(_read(args.instance))
    _check_size("lp", inst.n, MAX_LP_N, "MAX_LP_N")
    x, stats = solve_relaxation(inst, tol=args.tol)
    doc = json.loads(solution_to_json(x, stats.objective))
    doc["meta"] = _meta(
        args,
        iterations=stats.iterations,
        constraints_generated=stats.constraints_generated,
        separation_rounds=stats.separation_rounds,
        dual_bound=stats.dual_bound,
        gap=stats.gap,
        rounds=stats.rounds,
    )
    _write(args.output, json.dumps(doc, indent=1))
    print(
        f"objective={stats.objective:.9g} rounds={stats.separation_rounds} "
        f"cuts={stats.constraints_generated} pivots={stats.iterations} gap={stats.gap:.3g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_round(args) -> int:
    inst = parse_instance(_read(args.instance))
    x = solution_from_json(_read(args.lp_solution))
    if x.n != inst.n:
        raise FormatError(f"LP solution has {x.n} vertices, instance has {inst.n}")
    report = validate_solution(x)  # the rounding analysis covers metric points in the box only
    if not report.feasible():
        raise FormatError(f"LP solution is not a metric in [0, 1] within {FEAS_TOL:g}: {report}")
    scheme = _resolve_scheme(args.scheme)
    if args.mode == "random":
        if args.seed is None:
            raise _UsageExit("--seed is required in random mode")
        clustering = pivot_round(inst, x, scheme, args.seed)[0]
    else:
        if args.alpha is None:
            raise _UsageExit("--alpha is required in derand mode")
        clustering = derandomize_round(inst, x, scheme, args.alpha)
    cost = clustering_cost(inst, clustering)
    lp = lp_objective(inst, x)
    doc = {
        "meta": _meta(args, mode=args.mode, scheme=scheme.name),
        "assignment": clustering.assignment.tolist(),
        "cost": cost,
        "lp": lp,
    }
    if args.mode == "derand":
        if cost > args.alpha * lp + 1e-9:
            raise LpNumericalError(
                f"derandomized cost {cost} exceeds alpha * LP = {args.alpha * lp}"
            )
        doc["alpha_lp"] = args.alpha * lp
    _write(args.output, json.dumps(doc, indent=1))
    print(f"cost={cost:.9g} lp={lp:.9g}", file=sys.stderr)
    return EXIT_OK


def _cmd_certify(args) -> int:
    scheme = _resolve_scheme(args.scheme)
    if args.graph_class == WEIGHTED:
        report = certify_weighted_ti(scheme, args.alpha, length_grid_step=args.grid,
                                     tol=args.tol, jobs=args.jobs)
    else:
        report = certify(scheme, args.alpha, graph_class=args.graph_class, grid_step=args.grid,
                         tol=args.tol, allow_full_grid=not args.no_full_grid)
    _write(args.output, report.to_json())
    verdict = "PASS" if report.passed else "FAIL"
    worst = report.worst()
    print(
        f"{verdict} scheme={scheme.name} alpha={args.alpha} "
        f"min_surplus={report.min_surplus:.3g} worst_type={worst.label} "
        f"witness={worst.witness}",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_CERTIFY_FAIL


def _cmd_opt(args) -> int:
    inst = parse_instance(_read(args.instance))
    _check_size("opt", inst.n, MAX_EXACT_N, "MAX_EXACT_N")
    clustering, cost = brute_force_opt(inst)
    doc = {
        "meta": _meta(args),
        "cost": cost,
        "assignment": clustering.assignment.tolist(),
    }
    _write(args.output, json.dumps(doc, indent=1))
    print(f"opt={cost:.9g} clusters={clustering.num_clusters}", file=sys.stderr)
    return EXIT_OK


def _bench_one(args, scheme: RoundingScheme, i: int, inst_seed: int, mc_seed: int) -> dict:
    if args.family == "complete":
        inst = gen_complete_random(args.n, args.p, inst_seed)
    else:
        inst = gen_kpartite_random(args.parts, args.p, inst_seed)
    x, stats = solve_relaxation(inst)
    mc = monte_carlo_ratio(inst, x, scheme, args.trials, mc_seed)
    derand = derandomize_round(inst, x, scheme, args.alpha)
    row = {
        "instance": i,
        "lp": stats.objective,
        "mean_alg": mc.mean,
        "std_alg": mc.stddev,
        "derand_alg": clustering_cost(inst, derand),
        "ratio_mean": mc.ratio,
    }
    if inst.n <= args.opt_cap:
        _c, opt = brute_force_opt(inst)
        row["opt"] = opt
    return row


def _cmd_bench(args) -> int:
    scheme = _resolve_scheme(args.scheme)
    n = args.n if args.family == "complete" else sum(args.parts)
    _check_size("bench", n, MAX_LP_N, "MAX_LP_N")
    master = SplitMix64(args.seed)
    rows = []
    for i in range(args.instances):
        inst_seed = master.next_u64()
        mc_seed = master.next_u64()
        rows.append(_bench_one(args, scheme, i, inst_seed, mc_seed))

    buf = io.StringIO()
    fields = ["instance", "lp", "opt", "mean_alg", "std_alg", "derand_alg", "ratio_mean"]
    writer = csv.DictWriter(buf, fieldnames=fields, restval="")
    buf.write(f"# meta: {json.dumps(_meta(args, scheme=scheme.name))}\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write(args.output, buf.getvalue())
    ratios = [r["ratio_mean"] for r in rows]
    print(
        f"instances={len(rows)} mean_ratio={np.mean(ratios):.4f} "
        f"max_ratio={np.max(ratios):.4f}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="ccpivot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("family", choices=["complete", "kpartite", "planted", "gap-ti", "weighted"])
    g.add_argument("--n", type=_count, default=8)
    g.add_argument("--parts", type=_part_sizes, default="3,3,3")
    g.add_argument("--p", type=_probability, default=0.5)
    g.add_argument("--k", type=_count, default=2)
    g.add_argument("--corruption", type=_probability, default=0.1)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_gen)

    l = sub.add_parser("lp", help="solve the relaxation")
    l.add_argument("--instance", required=True)
    l.add_argument("--tol", type=_lp_tol, default=FEAS_TOL)
    l.add_argument("-o", "--output", default=None)
    l.set_defaults(func=_cmd_lp)

    r = sub.add_parser("round", help="round an LP solution to a clustering")
    r.add_argument("--instance", required=True)
    r.add_argument("--lp-solution", required=True)
    r.add_argument("--scheme", required=True)
    r.add_argument("--mode", choices=["random", "derand"], default="random")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--alpha", type=_alpha, default=None)
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=_cmd_round)

    c = sub.add_parser("certify", help="grid-certify a scheme at a ratio")
    c.add_argument("scheme")
    c.add_argument("--alpha", type=_alpha, required=True)
    c.add_argument("--class", dest="graph_class",
                   choices=[COMPLETE, KPARTITE, WEIGHTED], default=COMPLETE)
    c.add_argument("--grid", type=_grid_step, default=0.005)
    c.add_argument("--tol", type=_certify_tol, default=1e-9)
    c.add_argument("--no-full-grid", action="store_true",
                   help="refuse ineligible schemes instead of full-grid fallback")
    c.add_argument("--jobs", type=int, default=1,
                   help="ignored: the sweep is serial; kept for compatibility")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_certify)

    o = sub.add_parser("opt", help="exact optimum by exhaustive search")
    o.add_argument("--instance", required=True)
    o.add_argument("-o", "--output", default=None)
    o.set_defaults(func=_cmd_opt)

    b = sub.add_parser("bench", help="per-instance LP/OPT/rounding table")
    b.add_argument("--family", choices=["complete", "kpartite"], default="complete")
    b.add_argument("--n", type=_count, default=9)
    b.add_argument("--parts", type=_part_sizes, default="3,3,3")
    b.add_argument("--p", type=_probability, default=0.5)
    b.add_argument("--instances", type=_instances, default=10)
    b.add_argument("--trials", type=_trials, default=200)
    b.add_argument("--scheme", default="complete206")
    b.add_argument("--alpha", type=_alpha, default=2.06)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--opt-cap", type=_opt_cap, default=10)
    b.add_argument("--jobs", type=int, default=1,
                   help="ignored: the sweep is serial; kept for compatibility")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageExit as e:
        print(f"usage error: {e.message}", file=sys.stderr)
        return EXIT_USAGE
    except IneligibleSchemeError as e:
        print(f"ineligible scheme: {e}", file=sys.stderr)
        return EXIT_INELIGIBLE
    except FormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except LpNumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
