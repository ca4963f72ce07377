"""The triangle kernel on Fractions: exact surpluses from the same formulas as the float sweeps.

`triple_sums` keeps the arithmetic of its inputs, so Fraction lengths and
Fraction cut probabilities give an exact ALG and LP. The probabilities
come from `exact_value`, a reference evaluator of a scheme's pieces on
Fractions (constant, linear and integer-power pieces; a float parameter
is read as the exact binary value it holds). The grid checks cover every
type assignment of the tight family (x, y, x+y), x <= y, on the 1/40
rational grid.
"""

from fractions import Fraction

import ccpivot as cc
from ccpivot.certify import _assignments, admissible_types, triple_sums

S206 = cc.get_scheme("complete206")
KP3 = cc.get_scheme("kpartite3")
THIRD = Fraction(1.0 / 3.0)  # fl(1/3) = 1/3 - 2^-54/3


def exact_value(fn, x: Fraction) -> Fraction:
    """fn(x) in Fractions; the first piece that owns x wins, as in PiecewiseFn."""
    for i, p in enumerate(fn.pieces):
        next_owns_hi = i + 1 < len(fn.pieces) and fn.pieces[i + 1].closed_left
        if (x >= p.lo if p.closed_left else x > p.lo) and (x < p.hi if next_owns_hi else x <= p.hi):
            c = [Fraction(v) for v in p.params]
            if p.kind == "constant":
                return c[0]
            if p.kind == "linear":
                return c[0] + c[1] * x
            assert p.kind == "power" and c[2].denominator == 1, p
            return max((x - c[0]) / c[1], Fraction(0)) ** int(c[2])
    raise ValueError(f"{x} outside [0, 1]")


def exact_surplus(types, lengths, scheme, alpha) -> Fraction:
    lengths = [Fraction(v) for v in lengths]
    alg, lp = triple_sums(types, lengths, [exact_value(scheme.fn(t), l) for t, l in zip(types, lengths)])
    return Fraction(alpha) * lp - alg


def tight_min(scheme, alpha, graph_class, k=40):
    """The exact minimum surplus over the 1/k tight grid and every type assignment."""
    grid = [Fraction(i, k) for i in range(k + 1)]
    return min(
        (exact_surplus(types, (x, y, x + y), scheme, alpha), "".join(types), (x, y, x + y))
        for c in admissible_types(graph_class) for types in _assignments(c)
        for x in grid for y in grid if x <= y and x + y <= 1
    )


def test_triple_sums_returns_fractions_on_fraction_inputs():
    third = Fraction(1, 3)
    for types in (("+", "+", "+"), ("+", "-", "0"), ("-", "-", "0")):
        alg, lp = triple_sums(types, (third, third, 2 * third), (Fraction(1, 2), third, 1))
        assert type(alg) is Fraction and type(lp) is Fraction
    alg, lp = triple_sums(("+", "+", "+"), (third, third, 2 * third), (0, 0, 0))
    assert (alg, lp) == (0, Fraction(4, 3))


def test_complete206_and_kpartite3_exactly_nonnegative_on_the_rational_tight_grid():
    assert tight_min(S206, Fraction(103, 50), "complete")[0] == 0
    assert tight_min(KP3, 3, "kpartite")[0] == 0


def test_complete206_exactly_negative_at_200_at_criterion_3_witness():
    witness = cc.certify(S206, 2.00, "complete", grid_step=0.005, tol=1e-9).worst().witness
    lengths = [Fraction(v).limit_denominator(200) for v in witness["lengths"]]
    assert (witness["types"], lengths) == ("+++", [Fraction(21, 200), Fraction(81, 200), Fraction(51, 100)])
    s = exact_surplus(("+", "+", "+"), lengths, S206, 2)
    assert s < 0 and abs(float(s) + 0.0551) < 1e-4


def test_kpartite3_float_corner_is_exactly_negative_below_the_tolerance():
    # (0, fl(1/3), fl(1/3)) "+++": both long edges are cut (step at fl(1/3)), so
    # ALG = 2 and LP = 2 fl(1/3); 3 * LP rounds to 2 in floats, exactly it is 2 - 2^-53
    rep = cc.certify(KP3, 3.0, "kpartite", grid_step=0.005, tol=1e-9)
    rows = [r for t in rep.results for r in t.corner_results]
    row = next(r for r in rows if r["types"] == "+++" and r["lengths"] == [0.0, 1 / 3, 1 / 3])
    assert row["surplus"] == 0.0
    assert exact_surplus(("+", "+", "+"), row["lengths"], KP3, 3) == 6 * THIRD - 2 == Fraction(-1, 2**53)
    negative = [r for r in rows if exact_surplus(tuple(r["types"]), r["lengths"], KP3, 3) < 0]
    assert len(negative) == 18
    assert rep.passed
