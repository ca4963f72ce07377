"""Correlation clustering via LP rounding.

Build labeled or weighted instances, solve the metric relaxation with
lazy triangle separation, round with function-driven pivot algorithms
(randomized, on every class alike, or derandomized), and numerically
certify the approximation factor of a rounding scheme by minimizing the
per-triangle surplus over tight triangles and corner cases.
"""

__version__ = "0.1.0"

from .instance import (
    Clustering,
    FormatError,
    Instance,
    clustering_cost,
    gen_complete_random,
    gen_gap_triangle_ineq,
    gen_kpartite_random,
    gen_planted,
    gen_weighted_random,
    lift_clustering,
    parse_instance,
    serialize_instance,
    weighted_to_unweighted,
)
from .lp import (
    LpNumericalError,
    LpSolution,
    LpStats,
    gap_kpartite_lp_point,
    lp_objective,
    separate_triangle_violations,
    solve_relaxation,
    validate_solution,
)
from .rounding import (
    SCHEMES,
    IneligibleSchemeError,
    MonteCarloStats,
    PivotTrace,
    RoundingScheme,
    derandomize_round,
    get_scheme,
    monte_carlo_ratio,
    pivot_round,
    pivot_round_weighted,
    step_cost_formula,
    step_inequality_check,
)
from .certify import (
    CertificateReport,
    bound_curves,
    certify,
    certify_weighted_ti,
    check_eligibility,
    edge_terms,
    lower_bound_check,
    triple_costs,
)
from .oracle import (
    brute_force_opt,
    exact_expected_total_cost,
    integrality_ratio,
)
from .rng import SplitMix64
