import inspect

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
