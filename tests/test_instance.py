import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccpivot as cc
from ccpivot.cli import main
from ccpivot.instance import FormatError, assignment_cost, pair_index, pair_iter
from ccpivot.rng import SplitMix64
from exhaustive import partitions


def k3(labels_ut):
    m = np.zeros((3, 3), dtype=np.int8)
    (m[0, 1], m[0, 2], m[1, 2]) = labels_ut
    m += m.T
    return cc.Instance.complete(m)


def test_cost_all_plus_single_cluster_is_zero():
    inst = k3((1, 1, 1))
    assert cc.clustering_cost(inst, cc.Clustering.single_cluster(3)) == 0.0


def test_bad_triangle_costs_at_least_one_everywhere():
    inst = k3((1, 1, -1))
    costs = [cc.clustering_cost(inst, cc.Clustering(a)) for a in partitions(3)]
    assert len(costs) == 5
    assert min(costs) >= 1.0


def test_weighted_pair_cost_is_lambda():
    w = np.array([[0.0, 0.7], [0.7, 0.0]])
    inst = cc.Instance.weighted(w)
    assert cc.clustering_cost(inst, cc.Clustering([0, 1])) == pytest.approx(0.7)
    assert cc.clustering_cost(inst, cc.Clustering([0, 0])) == pytest.approx(0.3)


@pytest.mark.parametrize("diag", [1e-12, 0.5, 1.0])
def test_weighted_refuses_a_nonzero_diagonal(diag):
    # as labeled classes refuse a non-neutral diagonal; a serialize/parse
    # round trip would otherwise zero it without a word
    w = np.full((3, 3), 0.5)
    with pytest.raises(ValueError, match="diagonal"):
        cc.Instance.weighted(w)
    np.fill_diagonal(w, 0.0)
    cc.Instance.weighted(w)
    w[1, 1] = diag
    with pytest.raises(ValueError, match="diagonal"):
        cc.Instance.weighted(w)


def test_cost_invariant_under_relabeling():
    inst = cc.gen_complete_random(7, 0.4, seed=5)
    rng = SplitMix64(17)
    for _ in range(20):
        a = np.array([rng.randint(4) for _ in range(7)])
        perm = {c: (c * 7 + 3) % 13 for c in set(a.tolist())}  # injective on ids
        b = np.array([perm[c] for c in a])
        assert cc.clustering_cost(inst, cc.Clustering(a)) == pytest.approx(
            cc.clustering_cost(inst, cc.Clustering(b))
        )


def test_cost_bounds():
    for seed in range(5):
        inst = cc.gen_complete_random(6, 0.5, seed)
        wp, wm = inst.pair_weights()
        total = float(np.triu(wp + wm, 1).sum())
        rng = SplitMix64(seed)
        for _ in range(10):
            a = np.array([rng.randint(3) for _ in range(6)])
            cost = cc.clustering_cost(inst, cc.Clustering(a))
            assert 0.0 <= cost <= total + 1e-12


def test_batched_cost_matches_single_rows_bit_for_bit():
    # pairs are summed in one fixed order, so a row's cost has the same bits
    # alone, in any batch, and through clustering_cost
    for n in (1, 2, 7, 9):
        inst = cc.gen_weighted_random(n, 40 + n)
        wp, wm = inst.pair_weights()
        for T in (1, 2, 257):
            words = SplitMix64(T * 100 + n).block(T * n).reshape(T, n)
            batch = (words % np.uint64(1 + n // 2)).astype(np.int64)
            got = assignment_cost(batch, wp, wm)
            assert got.shape == (T,)
            for row, cost in zip(batch, got.tolist()):
                assert cost == assignment_cost(row, wp, wm)
                assert cost == cc.clustering_cost(inst, cc.Clustering(row))


@pytest.mark.parametrize("n", range(7))
def test_pair_index_is_the_cached_upper_triangle(n):
    iu, ju = pair_index(n)
    want = np.triu_indices(n, 1)
    assert np.array_equal(iu, want[0]) and np.array_equal(ju, want[1])
    assert iu.dtype == want[0].dtype and ju.dtype == want[1].dtype
    assert list(zip(iu.tolist(), ju.tolist())) == list(pair_iter(n))
    for a in (iu, ju):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    again = pair_index(n)
    assert again[0] is iu and again[1] is ju


def test_cost_requires_full_coverage():
    inst = k3((1, 1, 1))
    with pytest.raises(ValueError):
        cc.clustering_cost(inst, cc.Clustering([0, 0]))


@pytest.mark.parametrize("p", [-0.5, 1.5, float("nan")])
def test_generators_refuse_probabilities_outside_unit_interval(p):
    with pytest.raises(ValueError):
        cc.gen_complete_random(4, p, seed=1)
    with pytest.raises(ValueError):
        cc.gen_kpartite_random([2, 2], p, seed=1)


def test_gen_complete_trivials():
    single = cc.gen_complete_random(1, 0.3, seed=1)
    assert single.n == 1 and np.triu(sum(single.pair_weights()), 1).sum() == 0.0
    allp = cc.gen_complete_random(5, 1.0, seed=2)
    assert np.sum(allp.labels == 1) == 2 * 10  # both halves of 10 pairs
    a = cc.gen_complete_random(20, 0.5, seed=7)
    b = cc.gen_complete_random(20, 0.5, seed=7)
    assert np.array_equal(a.labels, b.labels)
    c = cc.gen_complete_random(20, 0.5, seed=8)
    assert not np.array_equal(a.labels, c.labels)


def test_gen_kpartite_counts_and_determinism():
    inst = cc.gen_kpartite_random([2, 2], 1.0, seed=3)
    off = ~np.eye(4, dtype=bool)
    assert np.sum(inst.labels == 1) == 8  # 4 cross pairs, stored twice
    assert np.sum((inst.labels == 0) & off) == 4  # 2 intra pairs
    lone = cc.gen_kpartite_random([3], 0.5, seed=1)
    assert np.all(lone.labels == 0)
    x = cc.gen_kpartite_random([2, 3], 0.5, seed=9)
    y = cc.gen_kpartite_random([2, 3], 0.5, seed=9)
    assert np.array_equal(x.labels, y.labels)


def test_gen_planted():
    inst, truth = cc.gen_planted(10, 3, 0.0, seed=4)
    assert cc.clustering_cost(inst, truth) == 0.0
    inst1, truth1 = cc.gen_planted(6, 1, 1.0, seed=4)
    assert np.all(inst1.labels[~np.eye(6, dtype=bool)] == -1)
    assert cc.clustering_cost(inst1, truth1) == 15.0


def test_planted_opt_below_planted_cost():
    inst, truth = cc.gen_planted(12, 3, 0.1, seed=11)
    planted_cost = cc.clustering_cost(inst, truth)
    _c, opt = cc.brute_force_opt(inst)
    assert opt <= planted_cost + 1e-12


def test_gap_ti_instance():
    tiny = cc.gen_gap_triangle_ineq(1)
    assert tiny.n == 2 and tiny.ti
    assert tiny.lam_plus[0, 1] == pytest.approx(2.0 / 3.0)  # lam_minus = 1/3 across

    inst = cc.gen_gap_triangle_ineq(4)
    single = cc.Clustering.single_cluster(8)
    assert cc.clustering_cost(inst, single) == pytest.approx(40.0 / 3.0)
    # the fractional point: 1/2 across the split, 1 within sides
    xm = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            if u != v:
                xm[u, v] = 0.5 if (u < 4) != (v < 4) else 1.0
    x = cc.LpSolution.from_matrix(xm)
    assert cc.lp_objective(inst, x) == pytest.approx(12.0)
    assert cc.validate_solution(x).feasible(1e-9)


def test_gap_kpartite_lp_point():
    inst, x = cc.gap_kpartite_lp_point(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert cc.lp_objective(inst, x) == pytest.approx(4.0 / 3.0)
    assert cc.validate_solution(x).feasible(1e-9)

    single, xs = cc.gap_kpartite_lp_point(1, 1, [(0, 0)])
    assert cc.lp_objective(single, xs) == pytest.approx(1.0 / 3.0)

    c6 = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]
    inst6, x6 = cc.gap_kpartite_lp_point(3, 3, c6)
    assert cc.lp_objective(inst6, x6) == pytest.approx(2.0)
    _c, opt = cc.brute_force_opt(inst6)
    assert opt >= cc.lp_objective(inst6, x6) - 1e-9

    with pytest.raises(ValueError):
        cc.gap_kpartite_lp_point(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        cc.gap_kpartite_lp_point(2, 2, [(0, 5)])


def _gap_point_by_pairs(n1, n2, edges):
    """gap_kpartite_lp_point's labels, parts and x, written out one pair at a time."""
    n = n1 + n2
    parts = [0] * n1 + [1] * n2
    labels, x = np.zeros((n, n), dtype=np.int8), np.zeros((n, n))
    for u, v in pair_iter(n):
        if parts[u] == parts[v]:
            s, val = 0, 2.0 / 3.0
        elif (u, v - n1) in edges:
            s, val = 1, 1.0 / 3.0
        else:
            s, val = -1, 1.0
        labels[u, v] = labels[v, u] = s
        x[u, v] = x[v, u] = val
    return labels, parts, x


HEAWOOD = [(i, j) for i in range(7) for j in range(7) if (j - i) % 7 in (0, 1, 3)]


@pytest.mark.parametrize("n1, n2, edges", [(2, 3, [(0, 0), (0, 2), (1, 1)]), (7, 7, HEAWOOD)])
def test_gap_kpartite_lp_point_pins_every_pair(n1, n2, edges):
    inst, x = cc.gap_kpartite_lp_point(n1, n2, edges)
    labels, parts, xm = _gap_point_by_pairs(n1, n2, edges)
    assert inst.labels.dtype == np.int8
    assert inst.labels.tobytes() == labels.tobytes()
    assert inst.parts.tolist() == parts
    assert [v.hex() for v in x.matrix.ravel().tolist()] == [v.hex() for v in xm.ravel().tolist()]
    assert [v.hex() for v in x.vec.tolist()] == [v.hex() for v in xm[pair_index(x.n)].tolist()]
    assert cc.lp_objective(inst, x) == pytest.approx(len(edges) / 3.0, abs=1e-12)


def test_blowup_trivials():
    ones = 1.0 - np.eye(3)
    w = cc.Instance.weighted(ones)
    blown, vmap = cc.weighted_to_unweighted(w, N=2, seed=1)
    assert np.all(blown.labels[~np.eye(6, dtype=bool)] == 1)
    assert np.array_equal(vmap, [0, 0, 1, 1, 2, 2])

    lam = np.array([[0, 1.0, 0.0], [1.0, 0, 1.0], [0.0, 1.0, 0]])
    w01 = cc.Instance.weighted(lam)
    blown1, _ = cc.weighted_to_unweighted(w01, N=1, seed=5)
    assert blown1.labels[0, 1] == 1 and blown1.labels[0, 2] == -1


def test_blowup_opt_tracks_weighted_opt():
    w = cc.gen_weighted_random(3, seed=2)
    _cw, opt_w = cc.brute_force_opt(w)
    blown, _vmap = cc.weighted_to_unweighted(w, N=4, seed=3)
    _cb, opt_b = cc.brute_force_opt(blown)
    assert abs(opt_b / 16.0 - opt_w) <= 0.15


def test_lift_clustering():
    w = cc.gen_weighted_random(3, seed=2)
    blown, vmap = cc.weighted_to_unweighted(w, N=1, seed=3)
    c = cc.Clustering([0, 1, 1])
    assert cc.lift_clustering(c, vmap, seed=4) == c  # N=1 lift is the identity

    blown2, vmap2 = cc.weighted_to_unweighted(w, N=3, seed=3)
    whole = cc.Clustering.single_cluster(9)
    assert cc.lift_clustering(whole, vmap2, seed=4) == cc.Clustering.single_cluster(3)
    a = cc.lift_clustering(cc.Clustering(np.arange(9) % 2), vmap2, seed=9)
    b = cc.lift_clustering(cc.Clustering(np.arange(9) % 2), vmap2, seed=9)
    assert a == b


def test_roundtrip_both_formats():
    rng = SplitMix64(123)
    insts = []
    for i in range(100):
        kind = i % 3
        if kind == 0:
            insts.append(cc.gen_complete_random(2 + i % 6, 0.5, rng.next_u64()))
        elif kind == 1:
            insts.append(cc.gen_kpartite_random([1 + i % 3, 2, 1 + i % 2], 0.4, rng.next_u64()))
        else:
            insts.append(cc.gen_weighted_random(2 + i % 5, rng.next_u64()))
    for inst in insts:
        for fmt in ("edgelist", "json"):
            back = cc.parse_instance(cc.serialize_instance(inst, fmt=fmt))
            assert back.kind == inst.kind and back.n == inst.n
            if inst.kind == "weighted":
                assert np.allclose(back.lam_plus, inst.lam_plus)
                assert back.ti == inst.ti
            else:
                assert np.array_equal(back.labels, inst.labels)
                if inst.kind == "kpartite":
                    assert np.array_equal(back.parts, inst.parts)


def test_gap_ti_roundtrip_keeps_flag():
    inst = cc.gen_gap_triangle_ineq(2)
    for fmt in ("edgelist", "json"):
        assert cc.parse_instance(cc.serialize_instance(inst, fmt=fmt)).ti


def test_parse_single_edge_line():
    inst = cc.parse_instance("cc complete 2\n0 1 +\n")
    assert inst.labels[0, 1] == 1


def test_parse_rejects_bad_weight_pair():
    text = (
        '{"class": "weighted", "n": 2, '
        '"edges": [{"u": 0, "v": 1, "lplus": 0.5, "lminus": 0.6}]}'
    )
    with pytest.raises(FormatError):
        cc.parse_instance(text)


@pytest.mark.parametrize(
    "text",
    [
        "cc complete 3\n0 1 +\n0 2 -\n",  # missing pair
        "cc complete 2\n0 1 +\n0 1 -\n",  # duplicate pair
        "cc complete 2\n0 1 ?\n",  # bad label
        "cc mystery 2\n0 1 +\n",  # unknown class
        "cc complete 2\n0 1\n",  # short line
        "cc kpartite 2 0 0\n0 1 +\n",  # intra-part pair labeled
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(FormatError):
        cc.parse_instance(text)


def test_comments_and_blank_lines_ignored():
    inst = cc.parse_instance("# header comment\ncc complete 2\n\n0 1 + # trailing\n")
    assert inst.labels[0, 1] == 1


def test_gap_ti_metric_validator():
    inst = cc.gen_gap_triangle_ineq(3)
    lm = 1.0 - inst.lam_plus
    np.fill_diagonal(lm, 0.0)
    n = inst.n
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if len({u, v, w}) == 3:
                    assert lm[u, w] <= lm[u, v] + lm[v, w] + 1e-12


def test_clustering_canonical_form():
    assert cc.Clustering([5, 5, 2, 7]).assignment.tolist() == [0, 0, 1, 2]
    assert cc.Clustering([1, 0, 1]) == cc.Clustering([0, 1, 0])


@pytest.mark.parametrize(
    "text",
    [
        '{"class": "weighted", "n": 2, "edges": [{"u": 0, "v": 1, "lplus": "abc"}]}',
        '{"class": "weighted", "n": 2, "edges": [{"u": 0, "v": 1, "lplus": 0.5, "lminus": "x"}]}',
        '{"class": "weighted", "n": 2, "edges": [{"u": 0, "v": 1, "lplus": NaN}]}',
        '{"class": "complete", "n": 2, "flags": [], "edges": [{"u": 0, "v": 1, "label": "+"}]}',
        '{"class": "complete", "n": 2, "edges": 5}',
        '{"class": "complete", "n": 2, "edges": [{"u": 0, "v": 1, "label": ["+"]}]}',
        '{"class": "complete", "n": 1e999, "edges": []}',
        '{"class": "kpartite", "n": 2, "parts": 7, "edges": [{"u": 0, "v": 1, "label": "+"}]}',
        '{"class": "kpartite", "n": 2, "parts": [{}, 1], "edges": [{"u": 0, "v": 1, "label": "+"}]}',
    ],
)
def test_parse_json_wrong_types_are_format_errors(text):
    with pytest.raises(FormatError):
        cc.parse_instance(text)


@pytest.mark.parametrize("text", ["cc complete 3000\n0 1 +\n", '{"class": "complete", "n": 3000, "edges": []}'])
def test_parse_checks_pair_count_before_allocating(text):
    with pytest.raises(FormatError, match="pair entries"):
        cc.parse_instance(text)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_edge = st.fixed_dictionaries(
    {},
    optional={
        "u": st.integers(-1, 3) | _json_values,
        "v": st.integers(-1, 3) | _json_values,
        "label": st.sampled_from(["+", "-", "0", "?"]) | _json_values,
        "lplus": st.floats(-0.5, 1.5) | _json_values,
        "lminus": st.floats(-0.5, 1.5) | _json_values,
    },
)
_doc = st.fixed_dictionaries(
    {},
    optional={
        "class": st.sampled_from(["complete", "kpartite", "weighted"]) | _json_values,
        "n": st.integers(-1, 4) | _json_values,
        "edges": st.lists(_edge | _json_values, max_size=7) | _json_values,
        "flags": st.fixed_dictionaries({}, optional={"ti": _json_values}) | _json_values,
        "parts": st.lists(st.integers(0, 2) | _json_values, max_size=5) | _json_values,
    },
)
_edgelist = st.lists(
    st.sampled_from(["cc", "complete", "kpartite", "weighted", "ti", "0", "1", "2", "3",
                     "+", "-", "?", "0.5", "nan", "inf", "1e9", "-1", "#", "\n", " "])
    | st.text(max_size=3),
    max_size=30,
).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=80), _edgelist, _doc.map(json.dumps)))
def test_parse_instance_raises_only_format_error(text):
    try:
        inst = cc.parse_instance(text)
    except FormatError:
        return
    assert cc.parse_instance(cc.serialize_instance(inst)).n == inst.n


@pytest.mark.parametrize(
    "text",
    [
        "cc weighted 2\n0 1 nan\n",
        '{"class": "weighted", "n": 2, "edges": [{"u": 0, "v": 1, "lplus": NaN}]}',
    ],
)
def test_parse_refuses_non_finite_weights_by_name(text):
    with pytest.raises(FormatError, match="finite"):
        cc.parse_instance(text)


_W2 = '{{"class": "weighted", "n": 2, "edges": [{{"u": 0, "v": 1, {}}}]{}}}'
_C2 = '{{"class": "complete", "n": {}, "edges": [{{"u": {}, "v": {}, "label": "+"}}]}}'
_K2 = '{{"class": "kpartite", "n": 2, "parts": {}, "edges": [{{"u": 0, "v": 1, "label": "+"}}]}}'


@pytest.mark.parametrize(
    "text",
    [
        _W2.format('"lplus": 0.5', ', "flags": {"ti": "no"}'),
        _W2.format('"lplus": 0.5', ', "flags": {"ti": 1}'),
        _W2.format('"lplus": true', ""),
        _W2.format('"lplus": "0.5"', ""),
        _W2.format('"lplus": 0.5, "lminus": "0.5"', ""),
        _W2.format('"lplus": 0.5, "lminus": NaN', ""),
        _C2.format("2.7", "0", "1"),
        _C2.format("2", "0", "1.9"),
        _C2.format("2", "false", "1"),
        '{"class": "complete", "n": true, "edges": []}',
        _K2.format("[0, 1.0]"),
        _K2.format("[false, true]"),
    ],
)
def test_parse_json_takes_only_documented_types(text):
    with pytest.raises(FormatError):
        cc.parse_instance(text)


_C2_PLUS = '{"class": "complete", "n": 2, "edges": [{"u": 0, "v": 1, "label": "+"}]'


@pytest.mark.parametrize(
    "edgelist, text",
    [
        ("cc complete 2 ti\n0 1 +\n", _C2_PLUS + ', "flags": {"ti": true}}'),
        ("cc kpartite 2 0 1 ti\n0 1 +\n", _K2.format("[0, 1]")[:-1] + ', "flags": {"ti": true}}'),
        ("cc complete 2 0 1\n0 1 +\n", _C2_PLUS + ', "parts": [0, 1]}'),
        ("cc weighted 2 0 1\n0 1 0.5\n", _W2.format('"lplus": 0.5', ', "parts": [0, 1]')),
    ],
    ids=["complete-ti", "kpartite-ti", "complete-parts", "weighted-parts"],
)
def test_json_refuses_the_class_flags_the_edge_list_refuses(edgelist, text):
    for source in (edgelist, text):
        with pytest.raises(FormatError):
            cc.parse_instance(source)
    assert not cc.parse_instance(_C2_PLUS + ', "flags": {"ti": false}}').ti


def test_json_weight_key_is_lplus_only():
    assert cc.parse_instance(_W2.format('"lplus": 0.25', "")).lam_plus[0, 1] == 0.25
    with pytest.raises(FormatError):
        cc.parse_instance(_W2.format('"lp": 0.25', ""))


# SHA-256 of serialize_instance output, computed before the readers and
# writers shared one pair-table path; the text must not change.
_SERIALIZED_SHA256 = {
    ("edgelist", "complete"): "19e01aefe05766aa9c273e6994a025c0be3daf9cd677388c7badf11c1a3687e8",
    ("edgelist", "kpartite"): "7b8b5246e735dd99a777d78e007bb039aaecd965546f90b0b3e1e1e3366d9a7c",
    ("edgelist", "planted"): "c0f38960bd64114f173baced7169a64b3c546b3fb090a78485b6f22c29d158e5",
    ("edgelist", "weighted"): "48dd1e83049bae3a95689a6e381137e4484037aa6553dba2607c2c658f77d147",
    ("edgelist", "gap-ti"): "9ad3909371f50ecc7b70f66b38f3973b6b724feff277d22cfbd02c4f3c4c0feb",
    ("json", "complete"): "cfdfc8ab265283786e7ba348282aeb4212e0e8d19921997edef90799a65207d7",
    ("json", "kpartite"): "f68e7502bda7a6eec5439f47b867800e3b3c6e7a985c67bf50a6c12427cc9b92",
    ("json", "planted"): "706581eb477ffa1f5fb79dff7b4cdb1b27a7cce561bc39c80e17fb0eaec53dbe",
    ("json", "weighted"): "567862f9c93dc8efddf704d879035d588aeaa55ace4b55f7fff3a35d9c37ce3d",
    ("json", "gap-ti"): "a648238090f4be80a37b12f5f111036dff399537534521d0ecc0eec0a192ea07",
}
_FAMILIES = {
    "complete": lambda: cc.gen_complete_random(9, 0.4, 11),
    "kpartite": lambda: cc.gen_kpartite_random([3, 1, 4], 0.6, 12),
    "planted": lambda: cc.gen_planted(8, 3, 0.2, 13)[0],
    "weighted": lambda: cc.gen_weighted_random(7, 14),
    "gap-ti": lambda: cc.gen_gap_triangle_ineq(3),
}


@pytest.mark.parametrize("fmt, family", _SERIALIZED_SHA256)
def test_serialized_text_is_pinned(fmt, family):
    text = cc.serialize_instance(_FAMILIES[family](), fmt=fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == _SERIALIZED_SHA256[fmt, family]


@st.composite
def _pair_tables(draw):
    """(kind, n, rows, parts, ti): one row per pair, some ids bad or repeated.

    Part ids and the ti flag are drawn for every class, so both readers
    must refuse them where the class does not take them.
    """
    kind = draw(st.sampled_from(["complete", "kpartite", "weighted"]))
    n = draw(st.integers(1, 4))
    with_parts = kind == "kpartite" or draw(st.integers(0, 3)) == 0
    parts = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)) if with_parts else None
    rows = []
    for u, v in pair_iter(n):
        if kind == "weighted":
            value = draw(st.floats(-0.25, 1.25) | st.sampled_from([0.0, 1.0, math.nan, math.inf]))
        elif parts is not None and parts[u] == parts[v]:
            value = draw(st.sampled_from(["0", "0", "+"]))
        else:
            value = draw(st.sampled_from(["+", "-", "0"] if parts is not None else ["+", "-"]))
        if draw(st.booleans()):
            u, v = v, u
        rows.append([u, v, value])
    for row in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []:
        row[draw(st.integers(0, 1))] = draw(st.integers(-1, n))
    ti = draw(st.booleans()) if kind == "weighted" else draw(st.integers(0, 3)) == 0
    return kind, n, rows, parts, ti


def _as_edgelist(kind, n, rows, parts, ti):
    head = ["cc", kind, str(n)] + [str(p) for p in parts or []] + (["ti"] if ti else [])
    return "\n".join([" ".join(head)] + [f"{u} {v} {x}" for u, v, x in rows]) + "\n"


def _as_json(kind, n, rows, parts, ti):
    key = "lplus" if kind == "weighted" else "label"
    doc = {"class": kind, "n": n, "edges": [{"u": u, "v": v, key: x} for u, v, x in rows],
           "flags": {"ti": ti}}
    if parts is not None:
        doc["parts"] = parts
    return json.dumps(doc)


def _parsed(text):
    try:
        return cc.parse_instance(text)
    except FormatError:
        return None


@settings(max_examples=300, deadline=None)
@given(_pair_tables())
def test_edgelist_and_json_read_one_pair_table_alike(table):
    a, b = _parsed(_as_edgelist(*table)), _parsed(_as_json(*table))
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.kind, a.n, a.ti) == (b.kind, b.n, b.ti)
        for name in ("labels", "lam_plus", "parts"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or np.array_equal(x, y)


_BIG = "9" * 30
_HUGE = "9" * 400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "text",
    [
        f"cc complete 2\n0 {_BIG} +\n",
        f"cc kpartite 2 {_BIG} 0\n0 1 +\n",
        _C2.format("2", _BIG, "1"),
        _W2.format(f'"lplus": {_HUGE}', ""),
        _W2.format(f'"lplus": {_HUGE}, "lminus": 1', ""),
        _K2.format(f"[{_BIG}, 0]"),
    ],
)
def test_parse_refuses_numbers_past_machine_range(text):
    with pytest.raises(FormatError):
        cc.parse_instance(text)


READER_REFUSALS = {
    "complete 0 label": ("cc complete 3\n0 1 +\n0 2 0\n1 2 -\n",
                         "complete instance has a neutral pair"),
    "ti lam_minus not metric": ("cc weighted 3 ti\n0 1 1\n0 2 1\n1 2 0\n",
                                "lam_minus violates triangle inequality by 1"),
    "kpartite part count": ("cc kpartite 3 0 1\n0 1 +\n0 2 -\n1 2 +\n",
                            "k-partite instance needs 3 part ids, got 2"),
    "no vertices": ("cc complete 0\n", "vertex count must be >= 1"),
    "bad weight": ("cc weighted 2\n0 1 heavy\n", "bad weight 'heavy'"),
    "bad vertex id": ("cc complete 2\n0 x +\n", "bad vertex id in '0 x \\+'"),
    "malformed JSON": ('{"class": "complete", "n": 2,', "bad JSON"),
    "JSON edge without u": ('{"class": "complete", "n": 2, "edges": [{"v": 1, "label": "+"}]}',
                            "bad edge entry: KeyError\\('u'\\)"),
}


@pytest.mark.parametrize("text, message", READER_REFUSALS.values(), ids=READER_REFUSALS.keys())
def test_reader_refusals(text, message, tmp_path):
    with pytest.raises(FormatError, match=message):
        cc.parse_instance(text)
    path = tmp_path / "bad.cc"
    path.write_text(text)
    assert main(["lp", "--instance", str(path)]) == 65


# -- refusals of the constructors and generators ---------------------------------

_PAIR = np.array([[0, 1], [1, 0]], dtype=np.int8)
INSTANCE_REFUSALS = {
    "unknown class": (lambda: cc.Instance("sparse", 2, labels=_PAIR), "unknown graph class"),
    "labels not n x n": (lambda: cc.Instance.complete(np.zeros((2, 3))), "label matrix"),
    "labels of another n": (lambda: cc.Instance("complete", 3, labels=_PAIR), "label matrix"),
    "asymmetric labels": (lambda: cc.Instance.complete([[0, 1], [-1, 0]]), "must be symmetric"),
    "labeled diagonal": (lambda: cc.Instance.complete([[1, 1], [1, 0]]), "diagonal must be neutral"),
    "k-partite without parts": (lambda: cc.Instance("kpartite", 2, labels=_PAIR),
                                "needs a part assignment"),
    "weights not n x n": (lambda: cc.Instance.weighted(np.zeros((2, 3))), "weight matrix"),
    "asymmetric weights": (lambda: cc.Instance.weighted([[0, 0.2], [0.3, 0]]), "must be symmetric"),
}


@pytest.mark.parametrize("make, message", INSTANCE_REFUSALS.values(), ids=INSTANCE_REFUSALS.keys())
def test_instance_refuses_malformed_matrices(make, message):
    with pytest.raises(ValueError, match=message):
        make()


GENERATOR_REFUSALS = {
    "complete n = 0": lambda: cc.gen_complete_random(0, 0.5, 1),
    "kpartite no parts": lambda: cc.gen_kpartite_random([], 0.5, 1),
    "kpartite empty part": lambda: cc.gen_kpartite_random([2, 0], 0.5, 1),
    "planted k = 0": lambda: cc.gen_planted(4, 0, 0.1, 1),
    "planted k > n": lambda: cc.gen_planted(4, 5, 0.1, 1),
    "planted corruption > 1": lambda: cc.gen_planted(4, 2, 1.5, 1),
    "weighted n = 0": lambda: cc.gen_weighted_random(0, 1),
    "gap-ti n = 0": lambda: cc.gen_gap_triangle_ineq(0),
    "gap point empty left side": lambda: cc.gap_kpartite_lp_point(0, 2, []),
    "gap point empty right side": lambda: cc.gap_kpartite_lp_point(2, 0, []),
}


@pytest.mark.parametrize("call", GENERATOR_REFUSALS.values(), ids=GENERATOR_REFUSALS.keys())
def test_generators_refuse_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_blowup_refusals():
    with pytest.raises(ValueError, match="weighted instance"):
        cc.weighted_to_unweighted(k3((1, 1, 1)), 2, seed=1)
    w = cc.gen_weighted_random(2, seed=1)
    with pytest.raises(ValueError, match="N must be >= 1"):
        cc.weighted_to_unweighted(w, 0, seed=1)
    # one vertex past the cap, refused before the (total, total) label matrix exists
    N = cc.instance.MAX_BLOWUP_VERTICES // 2 + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertices"):
            cc.weighted_to_unweighted(w, N, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lift_serialize_and_clustering_refusals():
    w = cc.gen_weighted_random(3, seed=2)
    _blown, vmap = cc.weighted_to_unweighted(w, N=2, seed=3)
    with pytest.raises(ValueError, match="does not cover"):
        cc.lift_clustering(cc.Clustering.single_cluster(5), vmap, seed=4)
    # a bad vertex map is named, not dropped silently or left to numpy's errors
    pair = cc.Clustering([0, 0])
    for bad in ([0.0, 1.0], [[0, 1]], ["0", "1"]):
        with pytest.raises(ValueError, match="flat vector of integers"):
            cc.lift_clustering(pair, bad, seed=1)
    with pytest.raises(ValueError, match="negative id -1"):
        cc.lift_clustering(pair, [-1, 0], seed=1)
    with pytest.raises(ValueError, match="original vertex 1 has no copy"):
        cc.lift_clustering(pair, [0, 2], seed=1)
    with pytest.raises(ValueError, match="vertex map is empty"):
        cc.lift_clustering(cc.Clustering([]), np.zeros(0, dtype=np.int64), seed=1)
    with pytest.raises(ValueError, match="unknown format"):
        cc.serialize_instance(w, fmt="xml")
    with pytest.raises(ValueError, match="flat vector"):
        cc.Clustering([[0, 1], [1, 0]])
