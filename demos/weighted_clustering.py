"""The weighted variant: pivot rounding, certification, reduction.

Weighted pairs carry (lam_plus, lam_minus) with lam_plus + lam_minus = 1.
When lam_minus is a metric, a square-root negative rule with a quadratic
positive rule certifies ratio 1.5; the blowup reduction maps weighted
instances to labeled ones.
"""

import ccpivot as cc

print("certifying the weighted schemes (length grid 0.02 for speed):")
for name, alpha in (("weighted_ti_150", 1.5), ("weighted_ti_153", 1.53),
                    ("weighted_ti_153", 1.49)):
    rep = cc.certify_weighted_ti(cc.get_scheme(name), alpha, length_grid_step=0.02,
                                 tol=1e-7)
    tag = "PASS" if rep.passed else "FAIL"
    print(f"  {name} @ {alpha}: {tag} (min surplus {rep.min_surplus:+.5f})")
w = rep.worst().witness
print(f"  failing witness: lam_minus = {w['lam_minus']}, lengths = {w['lengths']}")
print()

inst = cc.gen_weighted_random(4, seed=5)
x, stats = cc.solve_relaxation(inst)
scheme = cc.get_scheme("weighted_ti_150")
print(f"random weighted instance n = 4: LP = {stats.objective:.4f}")
c, _trace = cc.pivot_round(inst, x, scheme, seed=9)  # on the mixture over each pair's label coin
print(f"randomized pivot rounding cost: {cc.clustering_cost(inst, c):.4f}")
d = cc.derandomize_round(inst, x, scheme, alpha=1.5)
print(f"derandomized cost: {cc.clustering_cost(inst, d):.4f} "
      f"<= 1.5 * LP = {1.5 * stats.objective:.4f}")
print()

print("blowup reduction (each vertex becomes N copies):")
small = cc.gen_weighted_random(3, seed=11)
_c, opt_w = cc.brute_force_opt(small)
for N in (2, 4, 6):
    blown, vmap = cc.weighted_to_unweighted(small, N=N, seed=13)
    _cb, opt_b = cc.brute_force_opt(blown)
    lifted = cc.lift_clustering(_cb, vmap, seed=17)
    print(f"  N = {N}: blowup OPT / N^2 = {opt_b / N**2:.4f} "
          f"(weighted OPT {opt_w:.4f}); lifted cost {cc.clustering_cost(small, lifted):.4f}")
