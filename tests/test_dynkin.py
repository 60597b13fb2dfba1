"""Tests for Du Val type data and ADE diagram recognition."""

import random
from fractions import Fraction
from itertools import product

import pytest

from k3pi1.dynkin import (
    AdeConfig,
    DuValType,
    NotAdeError,
    _multisets,
    local_euler_contribution,
    recognize_ade,
)

from oracles import (
    ade_multisets,
    ade_types,
    binary_group_order,
    cartan_det,
    det_cofactor,
    det_exact,
    gf_total,
    neg_cartan_gram,
)


def test_du_val_data_examples():
    for t, data in [(DuValType("A", 1), (1, 2, 2)), (DuValType("D", 4), (4, 8, 4)),
                    (DuValType("E", 8), (8, 120, 1))]:
        assert (t.rank, t.delta, det_cofactor(_cartan(t))) == data


def test_invalid_labels_rejected():
    for kind, n in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2)]:
        with pytest.raises(ValueError):
            DuValType(kind, n)
    # labels are canonical: ASCII digits, no leading zeros
    for label in ["D3", "E9", "A0", "a1", "A", "A1x", "A_1", "A01", "D004", "A\u0663", "A1\n"]:
        with pytest.raises(ValueError):
            DuValType.parse(label)


def test_label_round_trip():
    for t in [DuValType("A", 12), DuValType("D", 4), DuValType("E", 7)]:
        assert DuValType.parse(t.label) == t


def test_delta_against_group_closure_oracle():
    # brute-force closure of the actual SU(2) subgroups, n <= 12
    for t in _all_types(12):
        assert t.delta == binary_group_order(t.kind, t.n), t.label


def test_local_euler_contribution_examples():
    assert local_euler_contribution(DuValType("A", 1)) == Fraction(3, 2)
    assert local_euler_contribution(DuValType("E", 8)) == Fraction(1079, 120)
    assert local_euler_contribution(DuValType("A", 2)) == Fraction(8, 3)


def test_contribution_bound_three_halves_rank():
    # n + 1 - 1/delta <= (3/2) n, equality only at A_1
    for t in _all_types(50):
        bound = Fraction(3, 2) * t.rank
        contrib = local_euler_contribution(t)
        assert contrib <= bound, t.label
        if t == DuValType("A", 1):
            assert contrib == bound
        else:
            assert contrib < bound, t.label


def test_cartan_matrices_positive_definite_with_expected_det():
    for t in _all_types(20):
        mat = _cartan(t)
        # leading principal minors all positive, full det matches table
        for k in range(1, t.n + 1):
            sub = [row[:k] for row in mat[:k]]
            assert det_exact(sub) > 0, t.label
        assert det_exact(mat) == cartan_det(t.kind, t.n), t.label


def test_recognize_single_vertex():
    assert recognize_ade(["v"], []) == [DuValType("A", 1)]


def test_recognize_path():
    assert recognize_ade([0, 1, 2], [(0, 1), (1, 2)]) == [DuValType("A", 3)]


def test_recognize_star_d4():
    types = recognize_ade(["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")])
    assert types == [DuValType("D", 4)]


def test_recognize_all_diagrams_round_trip():
    # diagrams from the test oracle, not from the package
    for t in _all_types(20):
        mat = _cartan(t)
        edges = [(i, j) for i in range(t.n) for j in range(i) if mat[i][j]]
        assert recognize_ade(range(t.n), edges) == [t]


def test_recognize_disjoint_union():
    nodes = ["a0", "a1", "b0"]
    edges = [("a0", "a1")]
    assert recognize_ade(nodes, edges) == [DuValType("A", 1), DuValType("A", 2)]


def test_recognize_refuses_an_edge_to_an_unknown_vertex():
    # a malformed graph, not a graph that is no ADE diagram
    with pytest.raises(ValueError, match="unknown vertex") as exc:
        recognize_ade(["a"], [("a", "b")])
    assert not isinstance(exc.value, NotAdeError)


def test_recognize_rejections():
    with pytest.raises(NotAdeError):
        recognize_ade([0, 1, 2], [(0, 1), (1, 2), (2, 0)])  # cycle
    with pytest.raises(NotAdeError):
        recognize_ade([0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])  # degree 4
    with pytest.raises(NotAdeError):
        # two branch vertices
        recognize_ade(
            range(8),
            [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (5, 6), (5, 7)],
        )
    with pytest.raises(NotAdeError):
        # affine E6: three arms of length 2
        recognize_ade(
            range(7),
            [(0, 1), (1, 6), (2, 3), (3, 6), (4, 5), (5, 6)],
        )
    with pytest.raises(NotAdeError):
        recognize_ade([0], [(0, 0)])  # self-loop
    with pytest.raises(NotAdeError):
        recognize_ade([0, 1], [(0, 1), (1, 0)])  # repeated edge


def test_recognize_matches_positive_definiteness_oracle():
    # a connected simple graph is an ADE diagram exactly when 2I - A is
    # positive definite; fuzz the recognizer against that criterion
    import random

    rng = random.Random(94550)
    for _ in range(300):
        n = rng.randint(1, 9)
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in possible if rng.random() < 2.5 / max(n, 1)]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        components = _components(range(n), adj)
        expect_ok = all(_is_positive_definite_cartan(comp, adj) for comp in components)
        try:
            types = recognize_ade(range(n), edges)
            assert expect_ok, (n, edges)
            assert sum(t.rank for t in types) == n
            assert len(types) == len(components)
        except NotAdeError:
            assert not expect_ok, (n, edges)


def _components(nodes, adj):
    remaining = set(nodes)
    out = []
    while remaining:
        comp = [remaining.pop()]
        frontier = list(comp)
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w in remaining:
                        remaining.remove(w)
                        comp.append(w)
                        nxt.append(w)
            frontier = nxt
        out.append(comp)
    return out


def _is_positive_definite_cartan(comp, adj):
    index = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    cartan = [[0] * k for _ in range(k)]
    for v in comp:
        cartan[index[v]][index[v]] = 2
        for w in adj[v]:
            cartan[index[v]][index[w]] = -1
    for size in range(1, k + 1):
        if det_exact([row[:size] for row in cartan[:size]]) <= 0:
            return False
    return True


def test_config_canonical_order_and_rank():
    c = AdeConfig.from_labels(["E8", "A1", "D4", "A1"])
    assert c.labels == ("A1", "A1", "D4", "E8")
    assert c.rank == 14


def test_config_sorts_reversed_and_shuffled_entries():
    types = _all_types(9) * 2
    canonical = tuple(sorted(types))  # DuValType's own order
    assert AdeConfig(canonical).entries == canonical
    assert AdeConfig(canonical[::-1]).entries == canonical
    for seed in range(5):
        shuffled = random.Random(seed).sample(types, len(types))
        assert AdeConfig(tuple(shuffled)).entries == canonical, seed
        assert AdeConfig(shuffled).entries == canonical, seed
        assert AdeConfig(t for t in shuffled).entries == canonical, seed
    labels = [t.label for t in canonical[::-1]]
    assert AdeConfig.from_labels(labels).entries == canonical


def test_enumerate_ade_configs_small():
    # the test oracle's multisets, read as configurations
    configs = list(ade_multisets(4))
    seen = {AdeConfig(DuValType(*p) for p in c).labels for c in configs}
    assert len(configs) == len(seen)  # no duplicates
    expected = {
        (),
        ("A1",),
        ("A2",),
        ("A3",),
        ("A4",),
        ("D4",),
        ("A1", "A1"),
        ("A1", "A2"),
        ("A1", "A3"),
        ("A2", "A2"),
        ("A1", "A1", "A1"),
        ("A1", "A1", "A2"),
        ("A1", "A1", "A1", "A1"),
    }
    assert seen == expected


def test_enumerate_ade_configs_counts_match_generating_function():
    ranks = [n for _, n in ade_types(15)]
    counts = []
    for max_rank in range(16):
        configs = list(ade_multisets(max_rank))
        assert len(set(configs)) == len(configs), max_rank
        assert all(sum(n for _, n in c) <= max_rank for c in configs), max_rank
        counts.append(len(configs))
        assert len(configs) == gf_total(ranks, max_rank), max_rank
    assert (counts[4], counts[15]) == (13, 1_816)


@pytest.mark.parametrize(
    "weights, budget",
    [
        ([], 0),
        ([], 3),
        ([1], 0),
        ([2, 3], 0),
        ([3, 3, 3], 2),
        ([2, 3], 7),
        ([1, 1, 2], 5),
        ([1, 2, 2, 3, 5], 8),
    ],
)
def test_multisets_match_brute_force_in_pre_order(weights, budget):
    items = "abcdefgh"[: len(weights)]
    walked = [(tuple(parts), left) for parts, left in _multisets(items, weights, budget)]
    # every count vector within the budget, as (item, count) pairs with
    # count >= 1; sorting these tuples lists them in depth-first pre-order
    expected = []
    for counts in product(*(range(budget // w + 1) for w in weights)):
        used = sum(c * w for c, w in zip(counts, weights))
        if used <= budget:
            parts = tuple((item, c) for item, c in zip(items, counts) if c)
            expected.append((parts, budget - used))
    assert walked == sorted(expected)


def _all_types(max_rank):
    return [DuValType(*p) for p in ade_types(max_rank)]


def _cartan(t):
    """The positive-definite Cartan matrix of t: the oracle's block, negated."""
    return [[-x for x in row] for row in neg_cartan_gram([(t.kind, t.n)])]
