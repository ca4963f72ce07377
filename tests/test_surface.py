import ast
import inspect
from pathlib import Path

import ccpivot as cc

# The library surface: adding or removing a public name is an edit here.
PUBLIC = [
    "CertificateReport", "Clustering", "FormatError", "IneligibleSchemeError", "Instance",
    "LpNumericalError", "LpSolution", "LpStats", "MonteCarloStats", "PivotTrace",
    "RoundingScheme", "SCHEMES", "SplitMix64", "bound_curves", "brute_force_opt", "certify",
    "certify_weighted_ti", "check_eligibility", "clustering_cost", "derandomize_round",
    "edge_terms", "exact_expected_total_cost",
    "gap_kpartite_lp_point", "gen_complete_random", "gen_gap_triangle_ineq",
    "gen_kpartite_random", "gen_planted", "gen_weighted_random", "get_scheme",
    "integrality_ratio", "lift_clustering", "lower_bound_check", "lp_objective",
    "monte_carlo_ratio", "parse_instance", "pivot_round", "pivot_round_weighted",
    "separate_triangle_violations", "serialize_instance", "solve_relaxation",
    "step_cost_formula", "step_inequality_check", "triple_costs",
    "validate_solution", "weighted_to_unweighted",
]


def test_public_names_are_pinned():
    names = sorted(n for n, v in vars(cc).items() if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC


# Each module imports only modules below it; "" is the package itself, for __version__.
LAYERS = {
    "rng": set(),
    "instance": {"rng"},
    "lp": {"instance"},
    "rounding": {"instance", "lp", "rng"},
    "certify": {"instance", "rounding", ""},
    "oracle": {"instance", "lp", "rounding"},
    "cli": {"", "certify", "instance", "lp", "oracle", "rng", "rounding"},
    "__init__": {"certify", "instance", "lp", "oracle", "rng", "rounding"},
}


def _package_imports(tree: ast.Module):
    """The package modules a module imports, relative or absolute; "" is the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.module or ""
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            yield from (n.removeprefix("ccpivot").lstrip(".") for n in names
                        if n.split(".")[0] == "ccpivot")


def test_modules_import_only_the_layers_below():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(cc.__file__).parent.glob("*.py")}
    assert set(trees) == set(LAYERS)
    for name, tree in trees.items():
        assert set(_package_imports(tree)) == LAYERS[name], name


def test_no_function_level_import_but_the_version():
    # the package's __init__ imports certify, so certify reads __version__ at call time
    found = []
    for path in Path(cc.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, fn.name, ast.unparse(node)) for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == [("certify", "to_json", "from . import __version__")]
