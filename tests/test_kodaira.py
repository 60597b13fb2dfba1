"""Tests for the Kodaira fiber tables and decorations."""

import hashlib
import random
from collections import Counter
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3pi1.dynkin import AdeConfig, NotAdeError, recognize_ade
from k3pi1.kodaira import (
    Decoration,
    DecorationError,
    DecorationOutcome,
    EulerSumMismatch,
    FullSupportRemoved,
    KodairaType,
    UnknownComponent,
    _config,
    _validated,
    decoration_outcomes,
    fiber_data,
    validate_decoration,
    validate_k3_fibration,
)

from oracles import fiber_monodromy, mat2_power_order

I = KodairaType.parse


class NotAdeRemovedSet(DecorationError):
    """A removed set whose induced graph is no union of ADE diagrams;
    the graph search below would raise it, `validate_decoration` never
    needs to (every proper removed set of a fiber is ADE)."""


def _graph_decoration(d):
    """The decoration check as a graph search over the fiber's table:
    the oracle for `validate_decoration`, which reads the removed ids."""
    if not d.removed:
        return DecorationOutcome(d.fiber, 1, AdeConfig(), d.removed)
    data = fiber_data(d.fiber)
    ids = {cid for cid, _ in data.components}
    unknown = d.removed - ids
    if unknown:
        raise UnknownComponent(f"{d.fiber.label}: unknown component(s) {sorted(unknown)}")
    if d.removed == ids:
        raise FullSupportRemoved(
            f"{d.fiber.label}: the removed set must be a proper subset of the fiber"
        )
    m = 0
    for cid, mult in data.components:
        if cid not in d.removed:
            m = gcd(m, mult)
    induced = []
    for u, v, w in data.dual_graph:
        if u in d.removed and v in d.removed:
            if w > 1:
                raise NotAdeRemovedSet(f"{d.fiber.label}: components {u}, {v} meet {w} times")
            induced.append((u, v))
    try:
        types = recognize_ade(sorted(d.removed), induced)
    except NotAdeError as exc:
        raise NotAdeRemovedSet(f"{d.fiber.label}: {exc}") from exc
    return DecorationOutcome(d.fiber, m, AdeConfig(tuple(types)), d.removed)


def _outcome(check, d):
    """An outcome, or the class and message of the error raised."""
    try:
        return check(d)
    except Exception as exc:
        return type(exc), str(exc)


def _graph_keys(t):
    """Every outcome key of a fiber type, by the graph search over every
    proper subset of its components."""
    ids = [cid for cid, _ in fiber_data(t).components]
    keys = set()
    for mask in range(2 ** len(ids) - 1):
        o = _graph_decoration(Decoration(t, [c for k, c in enumerate(ids) if mask >> k & 1]))
        keys.add((o.m, tuple((e.kind, e.n) for e in o.config.entries)))
    return keys


def _euler_24_types():
    """Every fiber type with Euler number <= 24, in the pinned table order."""
    types = [KodairaType(base) for base in ("II", "III", "IV", "IV*", "III*", "II*")]
    types += [KodairaType("I", n) for n in range(1, 25)]
    return types + [KodairaType("I*", n) for n in range(0, 19)]


def _small_types(max_n=12):
    types = [I("I1"), I("II"), I("III"), I("IV"), I("IV*"), I("III*"), I("II*")]
    types += [KodairaType("I", n) for n in range(2, max_n + 1)]
    types += [KodairaType("I*", n) for n in range(0, max_n + 1)]
    return types


def test_labels_round_trip():
    for label in ["I1", "I3", "I24", "II", "III", "IV", "I*0", "I*4", "IV*", "III*", "II*"]:
        assert KodairaType.parse(label).label == label


def test_bad_labels():
    # labels are canonical: ASCII digits, no leading zeros
    bad = ["I0", "I", "I*", "V", "II2", "IV*1", "i3", "I-1", "I*x"]
    for label in bad + ["I05", "I*00", "I\u0663", "I3\n"]:
        with pytest.raises(ValueError):
            KodairaType.parse(label)
    with pytest.raises(ValueError):
        KodairaType("I", 0)
    with pytest.raises(ValueError):
        KodairaType("II", 2)


def test_euler_numbers():
    assert I("I1").euler == 1
    assert I("I7").euler == 7
    assert I("II").euler == 2
    assert I("III").euler == 3
    assert I("IV").euler == 4
    assert I("I*0").euler == 6
    assert I("I*4").euler == 10
    assert I("IV*").euler == 8
    assert I("III*").euler == 9
    assert I("II*").euler == 10


def test_istar0_table():
    t, data = I("I*0"), fiber_data(I("I*0"))
    assert t.euler == 6
    assert sorted(m for _, m in data.components) == [1, 1, 1, 1, 2]
    assert t.monodromy == ((-1, 0), (0, -1))
    assert mat2_power_order(t.monodromy) == 2


def test_i3_table():
    fiber = I("I3")
    data = fiber_data(fiber)
    assert fiber.euler == 3
    assert [m for _, m in data.components] == [1, 1, 1]
    assert len(data.dual_graph) == 3
    t = fiber.monodromy
    assert t == ((1, 3), (0, 1))
    assert t[0][0] + t[1][1] == 2
    assert mat2_power_order(t) is None  # infinite order
    # unipotency: (T - 1)^2 = 0
    u = ((t[0][0] - 1, t[0][1]), (t[1][0], t[1][1] - 1))
    sq = (
        (u[0][0] * u[0][0] + u[0][1] * u[1][0], u[0][0] * u[0][1] + u[0][1] * u[1][1]),
        (u[1][0] * u[0][0] + u[1][1] * u[1][0], u[1][0] * u[0][1] + u[1][1] * u[1][1]),
    )
    assert sq == ((0, 0), (0, 0))


def test_iistar_table():
    t, data = I("II*"), fiber_data(I("II*"))
    assert t.euler == 10
    assert sorted(m for _, m in data.components) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert t.monodromy[0][0] + t.monodromy[1][1] == 1
    assert mat2_power_order(t.monodromy) == 6


def test_monodromy_matches_the_oracle_without_building_a_table():
    fiber_data.cache_clear()
    huge = [KodairaType("I", 10**12), KodairaType("I*", 10**12)]
    for t in _euler_24_types() + huge:
        assert t.monodromy == fiber_monodromy(t.base, t.n), t.label
    assert fiber_data.cache_info().currsize == 0


def test_monodromy_determinants_and_orders():
    orders = {"II": 6, "III": 4, "IV": 3, "IV*": 3, "III*": 4, "II*": 6}
    for t in _small_types():
        m = t.monodromy
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == 1, t.label
        tr = m[0][0] + m[1][1]
        assert (tr == 2) == (t.base == "I"), t.label
        order = mat2_power_order(m)
        if t.base == "I":
            assert order is None
        elif t.base == "I*":
            assert order == (2 if t.n == 0 else None)
        else:
            assert order == orders[t.base], t.label


def test_multiplicity_vector_annihilates_intersection_matrix():
    # intersection matrix: -2 on the diagonal, edge weights off it
    for t in _small_types():
        if t.label in ("I1", "II"):
            continue
        data = fiber_data(t)
        ids = [cid for cid, _ in data.components]
        idx = {c: i for i, c in enumerate(ids)}
        n = len(ids)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = -2
        for u, v, w in data.dual_graph:
            mat[idx[u]][idx[v]] += w
            mat[idx[v]][idx[u]] += w
        mult = [m for _, m in data.components]
        for i in range(n):
            assert sum(mat[i][j] * mult[j] for j in range(n)) == 0, t.label


def test_validate_decoration_istar0_tails():
    s = validate_decoration(Decoration(I("I*0"), {"t1", "t2", "t3", "t4"}))
    assert s.m == 2
    assert s.config == AdeConfig.from_labels(["A1"] * 4)


def test_validate_decoration_iistar_keep_c6():
    data = fiber_data(I("II*"))
    removed = {cid for cid, _ in data.components} - {"c6"}
    s = validate_decoration(Decoration(I("II*"), removed))
    assert s.m == 6
    assert s.config == AdeConfig.from_labels(["A5", "A2", "A1"])


def test_validate_decoration_errors():
    with pytest.raises(FullSupportRemoved):
        validate_decoration(Decoration(I("I1"), {"c0"}))
    with pytest.raises(FullSupportRemoved):
        validate_decoration(Decoration(I("IV"), {"c0", "c1", "c2"}))
    with pytest.raises(ValueError):
        validate_decoration(Decoration(I("I*0"), {"bogus"}))


def test_unknown_ids_of_any_type_or_index_are_named_in_a_fixed_order():
    # ids that do not compare with each other: strings first, by value,
    # then the rest by type name and text; an integer id or index past
    # Python's int-to-str limit by its bit length
    for label in ("I3", "IV*", "I*0"):
        with pytest.raises(UnknownComponent) as exc:
            validate_decoration(Decoration(I(label), {0, "x", None, "a", 2**20000}))
        assert str(exc.value) == (
            f"{label}: unknown component(s) ['a', 'x', None, 0, <20001-bit integer>]"
        )
    with pytest.raises(UnknownComponent) as exc:
        validate_decoration(Decoration(KodairaType("I", 10**5000), {"x"}))
    assert str(exc.value) == "I<16610-bit integer>: unknown component(s) ['x']"
    # strings alone keep the order and text of the sorted list
    strings = {"z'", 'a"', "b", "C", "c\u0663"}
    with pytest.raises(UnknownComponent) as exc:
        validate_decoration(Decoration(I("III*"), strings))
    assert str(exc.value) == f"III*: unknown component(s) {sorted(strings)}"


def test_iv_any_two_removed_gives_a2():
    for pair in [{"c0", "c1"}, {"c0", "c2"}, {"c1", "c2"}]:
        s = validate_decoration(Decoration(I("IV"), pair))
        assert s.config == AdeConfig.from_labels(["A2"])


def test_empty_decoration_has_m_one_everywhere():
    for t in _small_types():
        # m = 1 with nothing removed rests on a multiplicity-1 component
        assert any(mult == 1 for _, mult in fiber_data(t).components), t.label
        s = validate_decoration(Decoration(t, frozenset()))
        assert s.m == 1, t.label
        assert s.config.rank == 0


def test_undecorated_huge_fiber_is_rejected_without_building_its_table():
    huge = Decoration(KodairaType("I", 3_000_000))
    fiber_data.cache_clear()
    with pytest.raises(EulerSumMismatch) as exc:
        validate_k3_fibration([huge])
    assert exc.value.actual == 3_000_000
    assert fiber_data.cache_info().currsize == 0
    # decoration errors still come before the Euler sum
    with pytest.raises(UnknownComponent, match="zz"):
        validate_k3_fibration([huge, Decoration(I("I*0"), {"zz"})])
    # so does a decorated one: its removed ids are read without the table
    cycle = Decoration(KodairaType("I", 10**12), {"c0", "c999999999999", "c5"})
    istar = Decoration(KodairaType("I*", 10**12), {"t1", "t2", "c0", "c1000000000000"})
    with pytest.raises(EulerSumMismatch):
        validate_k3_fibration([cycle, istar])
    assert [validate_decoration(d).config.labels for d in (cycle, istar)] == [
        ("A1", "A2"), ("A1", "A3")
    ]
    with pytest.raises(UnknownComponent, match="c1000000000000"):
        validate_decoration(cycle._replace(removed={"c1000000000000"}))
    assert fiber_data.cache_info().currsize == 0


def test_fiber_cache_keeps_at_most_its_bound():
    # `kodaira info` builds one table per label, of up to 10^5 components
    fiber_data.cache_clear()
    for n in range(1, 101):
        fiber_data(KodairaType("I", n))
    info = fiber_data.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 100


def test_config_cache_keeps_no_config_of_more_pieces_than_a_k3_fiber_has():
    # a fiber of Euler number <= 24 has at most 24 components, so only
    # input that the Euler sum rejects gives longer keys; caching those
    # kept 1.3 GB alive after 1,024 decorations of I_20000
    _config.cache_clear()
    short = Decoration(KodairaType("I", 48), {f"c{i}" for i in range(0, 46, 2)})
    long = Decoration(KodairaType("I", 52), {f"c{i}" for i in range(0, 50, 2)})
    assert validate_decoration(short).config.labels == ("A1",) * 23
    assert _config.cache_info().currsize == 1
    assert validate_decoration(long).config.labels == ("A1",) * 25
    assert _config.cache_info().currsize == 1


def test_fibration_outcomes_are_cached_per_decoration_and_errors_are_not():
    # each valid decoration is validated once; an invalid fibration
    # raises the same error at the same fiber on every call
    _validated.cache_clear()
    kummer = [Decoration(I("I*0"), {"t1", "t2", "t3", "t4"})] * 4
    outcomes = validate_k3_fibration(kummer)
    assert validate_k3_fibration(kummer) == outcomes
    assert _validated.cache_info()[:2] == (7, 1)  # hits, misses
    unknown = Decoration(I("I*0"), {"t1", "zz"})
    full = Decoration(I("I*0"), {"t1", "t2", "t3", "t4", "c0"})
    for fibers, error, message in [
        ([*kummer[:3], unknown, full], UnknownComponent, "I*0: unknown component(s) ['zz']"),
        ([*kummer[:3], full, unknown], FullSupportRemoved,
         "I*0: the removed set must be a proper subset of the fiber"),
        (kummer[:3], EulerSumMismatch, "fiber Euler numbers sum to 18, a K3 surface needs 24"),
    ]:
        for _ in range(3):
            with pytest.raises(error) as exc:
                validate_k3_fibration(fibers)
            assert type(exc.value) is error and str(exc.value) == message
    assert exc.value.actual == 18
    assert _validated.cache_info().currsize == 1
    # a removed set that is a plain set, not a frozenset, still validates
    plain = kummer[0]._replace(removed={"t1", "t2", "t3", "t4"})
    assert type(plain.removed) is set
    assert validate_k3_fibration([plain] * 4) == outcomes
    # a tuple in place of the fiber type equals the cached KodairaType, yet
    # is rejected as without the cache
    with pytest.raises(AttributeError):
        validate_k3_fibration([Decoration(("I*", 0), plain.removed)] * 4)


@pytest.mark.parametrize("label, removed", [
    ("I3", ["c0", "c0"]),  # was config A1 + A1 for the removed set {c0}
    ("I2", ["c0", "c0"]),  # was FullSupportRemoved
    ("IV*", ["a1"]),  # was AttributeError: a list has no `difference`
])
def test_a_removed_list_is_read_as_its_set(label, removed):
    # `_make` and `_replace` skip `Decoration.__new__`, so `removed` can
    # stay a list; both validators read it as the set of its ids
    t = I(label)
    d = Decoration._make((t, removed))
    assert type(d.removed) is list
    outcome = validate_decoration(d)
    assert (outcome.m, outcome.config.labels, outcome.removed) == (1, ("A1",), {removed[0]})
    assert type(outcome.removed) is frozenset
    filler = Decoration(KodairaType("I", 24 - t.euler))
    _validated.cache_clear()
    for _ in range(2):  # a miss, then a hit
        assert validate_k3_fibration([d, filler])[0] == outcome


def test_outcome_cache_keeps_no_decoration_of_more_ids_than_a_k3_fiber_has():
    # as for _config: only input that the Euler sum rejects removes more
    # than 24 ids, and 1,024 such outcomes of I_20000 would hold gigabytes
    _validated.cache_clear()
    t = KodairaType("I", 20000)
    ids = [f"c{i}" for i in range(t.n)]
    for start in range(1024):
        with pytest.raises(EulerSumMismatch):
            validate_k3_fibration([Decoration(t, ids[start : start + 25])])
    assert _validated.cache_info().currsize == 0
    with pytest.raises(EulerSumMismatch):
        validate_k3_fibration([Decoration(t, ids[:24])])
    assert _validated.cache_info().currsize == 1


def test_all_proper_removed_sets_classify(per_type_limit=10):
    # every proper nonempty subset of a fiber with <= 10 components is ADE
    for t in _small_types():
        data = fiber_data(t)
        ids = [cid for cid, _ in data.components]
        if len(ids) > per_type_limit:
            continue
        for mask in range(1, 2 ** len(ids) - 1):
            removed = frozenset(c for k, c in enumerate(ids) if mask >> k & 1)
            s = validate_decoration(Decoration(t, removed))
            assert s.config.rank == len(removed)


def test_validate_k3_fibration_accepts():
    kummer = [Decoration(I("I*0"), {"t1", "t2", "t3", "t4"})] * 4
    outcomes = validate_k3_fibration(kummer)
    assert outcomes == (validate_decoration(kummer[0]),) * 4
    assert [Decoration(o.fiber, o.removed) for o in outcomes] == kummer
    assert [o.m for o in outcomes] == [2, 2, 2, 2]
    assert [o.config for o in outcomes] == [AdeConfig.from_labels(["A1"] * 4)] * 4

    nodal = [Decoration(I("I1"))] * 24
    outcomes = validate_k3_fibration(nodal)
    assert outcomes == (DecorationOutcome(I("I1"), 1, AdeConfig(), frozenset()),) * 24


def test_validate_k3_fibration_rejects_bad_euler_sum():
    with pytest.raises(EulerSumMismatch) as exc:
        validate_k3_fibration([Decoration(I("II*"))] * 3)
    assert exc.value.actual == 30


def test_decoration_outcomes_match_brute_force_cycle():
    # II, III and IV are the 1-, 2- and 3-cycle, as `validate_decoration` reads them
    from k3pi1.kodaira import _cycle_keys

    cycles = [(KodairaType("I", n), n) for n in range(1, 14)]
    cycles += [(I("II"), 1), (I("III"), 2), (I("IV"), 3)]
    for t, n in cycles:
        assert sorted(_cycle_keys(n)) == sorted(_graph_keys(t)), t.label


def test_decoration_outcomes_match_brute_force_istar():
    from k3pi1.kodaira import _istar_keys

    for n in range(0, 9):
        assert sorted(_istar_keys(n)) == sorted(_graph_keys(KodairaType("I*", n))), n


def test_validate_decoration_matches_the_graph_search_on_every_subset():
    for t in _small_types(10):
        ids = [cid for cid, _ in fiber_data(t).components]
        if len(ids) > 10:
            continue
        for mask in range(2 ** len(ids)):
            d = Decoration(t, [c for k, c in enumerate(ids) if mask >> k & 1])
            assert _outcome(validate_decoration, d) == _outcome(_graph_decoration, d), d


def _fiber_automorphisms(t):
    """Maps of a fiber's component ids that keep its dual graph and its
    multiplicities (ids not named stay): the dihedral group of the cycle
    c0.. of I_n, II, III and IV; t1<->t2, t3<->t4 and the end reversal of
    I*_n; S3 on the arms of IV*; the swap of the long arms of III*."""
    if t.base in ("I", "II", "III", "IV"):
        n = len(fiber_data(t).components)
        return [
            {f"c{i}": f"c{(sign * i + shift) % n}" for i in range(n)}
            for shift in range(n)
            for sign in (1, -1)
        ]
    if t.base == "I*":
        n = t.n
        ends = {"t1": "t3", "t3": "t1", "t2": "t4", "t4": "t2"}
        return [
            {"t1": "t2", "t2": "t1"},
            {"t3": "t4", "t4": "t3"},
            {f"c{i}": f"c{n - i}" for i in range(n + 1)} | ends,
        ]
    if t.base == "IV*":
        return [
            {f"{x}{i}": f"{y}{i}" for x, y in zip("abd", arms) for i in (1, 2)}
            for arms in permutations("abd")
        ]
    if t.base == "III*":
        return [{f"c{i}": f"c{8 - i}" for i in range(1, 8)}]
    return []  # II*: its three arms differ in length


def test_validate_decoration_is_invariant_under_fiber_automorphisms():
    """A second check of the wrap-around and end-run joins of the removed
    ids, with no oracle: an automorphism of the dual graph that keeps the
    multiplicities keeps the outcome (m, config)."""
    rng = random.Random(8)
    for t in _small_types(11):
        data = fiber_data(t)
        ids, maps = [cid for cid, _ in data.components], _fiber_automorphisms(t)
        graph = {(frozenset((u, v)), w) for u, v, w in data.dual_graph}
        for f in maps:
            assert sorted((f.get(c, c), m) for c, m in data.components) == sorted(data.components)
            assert {(frozenset((f.get(u, u), f.get(v, v))), w) for (u, v), w in graph} == graph
        for _ in range(40):
            removed = rng.sample(ids, rng.randrange(len(ids)))
            o = validate_decoration(Decoration(t, removed))
            for f in maps:
                image = validate_decoration(Decoration(t, [f.get(c, c) for c in removed]))
                assert (image.m, image.config) == (o.m, o.config), (t.label, removed, f)


_NEAR_MISSES = ["c01", "c-1", "c\u0663", "C1", "t0", "t5", "c+1", "c 1", "c1_0", ""]


@st.composite
def _removed_sets(draw):
    base = draw(st.sampled_from(["I", "I*"]))
    t = KodairaType(base, draw(st.integers(1, 60) if base == "I" else st.integers(0, 40)))
    ids = [cid for cid, _ in fiber_data(t).components]
    pool = ids + _NEAR_MISSES + [f"c{t.n}", f"c{len(ids)}"]
    if draw(st.booleans()):  # long runs, and the whole fiber less a few
        start, size = draw(st.integers(0, len(ids) - 1)), draw(st.integers(1, len(ids)))
        removed = set((ids + ids)[start : start + size])
        removed -= set(draw(st.lists(st.sampled_from(ids), max_size=3)))
        removed |= set(draw(st.lists(st.sampled_from(pool), max_size=2)))
    else:
        removed = set(draw(st.lists(st.sampled_from(pool), max_size=12)))
    return Decoration(t, removed)


@settings(max_examples=400, deadline=None, database=None)
@given(_removed_sets())
def test_validate_decoration_matches_the_graph_search_on_drawn_sets(d):
    assert _outcome(validate_decoration, d) == _outcome(_graph_decoration, d)


def test_outcome_counts_match_the_outcome_keys():
    # the sweep's counts come from one arc table, never from keys; the
    # structural keys (checked against brute force above) are the oracle
    # for every cycle (I_n, II, III, IV) and I*_n of Euler number <= 30,
    # read past the cache
    from k3pi1.kodaira import _outcome_counts

    types = [I("II"), I("III"), I("IV")] + [KodairaType("I", n) for n in range(1, 31)]
    types += [KodairaType("I*", n) for n in range(0, 25)]
    for t in types:
        outcomes = decoration_outcomes.__wrapped__(t)
        assert _outcome_counts(t) == Counter(o.m for o in outcomes if o.config), t.label


def test_decoration_outcomes_representatives_are_valid():
    # one record for both: validating the representative removed set of
    # an outcome gives that outcome, for every fiber type up to Euler 24
    for t in _euler_24_types():
        for o in decoration_outcomes(t):
            assert validate_decoration(Decoration(t, o.removed)) == o, (t.label, o)


# SHA-256 over (label, m, config labels, sorted removed ids) of every
# outcome of every fiber type with Euler number <= 24, in table order:
# the enumerators may change, the tables and their representatives not
OUTCOME_TABLES_SHA256 = "b7e543b5b78042ec75a0982f105d5a60492f88a165d9b0b133e3b29e93df67d2"


def test_outcome_tables_and_representatives_are_pinned():
    digest = hashlib.sha256()
    for t in _euler_24_types():
        for o in decoration_outcomes(t):
            digest.update(repr((t.label, o.m, o.config.labels, sorted(o.removed))).encode())
    assert digest.hexdigest() == OUTCOME_TABLES_SHA256


def test_outcome_table_sizes_at_euler_24():
    sizes = {"plain": 0, "I": 0, "I*": 0}
    for base in ("II", "III", "IV", "IV*", "III*", "II*"):
        sizes["plain"] += len(decoration_outcomes(KodairaType(base)))
    for n in range(1, 25):
        sizes["I"] += len(decoration_outcomes(KodairaType("I", n)))
    for n in range(0, 19):
        sizes["I*"] += len(decoration_outcomes(KodairaType("I*", n)))
    assert sizes == {"plain": 135, "I": 7_337, "I*": 23_774}
