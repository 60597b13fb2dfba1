"""Tests for the end-to-end pipeline."""

import hashlib
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from k3pi1 import kodaira, surface
from k3pi1.dynkin import AdeConfig, DuValType
from k3pi1.kodaira import Decoration, KodairaType, decoration_outcomes, fiber_data
from k3pi1.orbifold import classify
from k3pi1.pi1 import MINUS_IDENTITY, MonodromyRep
from k3pi1.surface import (
    FINITE_FUNDAMENTAL_GROUP,
    TORUS_COVER,
    NormalK3Input,
    analyze,
    orbifold_euler_number,
    trichotomy_sweep,
)

from oracles import (
    ade_multisets,
    ade_types,
    bare_analysis,
    cone_signatures_by_cost,
    gf_total,
    sweep_counts_by_kind,
)

K = KodairaType.parse


def _keep_only(label, *kept):
    t = K(label)
    removed = frozenset(fiber_data(t).component_ids) - set(kept)
    return Decoration(t, removed)


KUMMER = [Decoration(K("I*0"), {"t1", "t2", "t3", "t4"})] * 4
FIXTURE_632 = [
    _keep_only("II*", "c6"),
    _keep_only("IV*", "z"),
    Decoration(K("I*0"), {"t1", "t2", "t3", "t4"}),
]
FIXTURE_532 = [
    _keep_only("II*", "c5"),
    _keep_only("IV*", "z"),
    Decoration(K("I*0"), {"t1", "t2", "t3", "t4"}),
]
FIXTURE_442 = [
    _keep_only("III*", "c4"),
    _keep_only("III*", "c4"),
    Decoration(K("I*0"), {"t1", "t2", "t3", "t4"}),
]


def test_orbifold_euler_number_examples():
    assert orbifold_euler_number(AdeConfig()) == 24
    assert orbifold_euler_number(AdeConfig.from_labels(["A1"] * 16)) == 0
    config = AdeConfig.from_labels(["A5"] + ["A2"] * 4 + ["A1"] * 5)
    assert orbifold_euler_number(config) == 0
    config = AdeConfig.from_labels(["A4"] * 2 + ["A2"] * 3 + ["A1"] * 4)
    assert orbifold_euler_number(config) == Fraction(2, 5)


def test_rank_gate():
    def gate(labels):
        report = analyze(NormalK3Input.bare(AdeConfig.from_labels(labels)))
        return report.r, report.rank_gate_passes

    assert gate(["A1"] * 15) == (15, True)
    assert orbifold_euler_number(AdeConfig.from_labels(["A1"] * 15)) == Fraction(3, 2)
    assert gate(["A1"] * 16) == (16, False)
    assert gate([]) == (0, True)


@pytest.mark.parametrize("input_", [
    NormalK3Input.bare(AdeConfig.from_labels(["A1"] * 15)),
    NormalK3Input.fibered(KUMMER),
    NormalK3Input.fibered([Decoration(K("I*0"))] * 4, MonodromyRep((MINUS_IDENTITY,) * 4)),
], ids=["bare", "fibered", "monodromy"])
def test_analyze_computes_the_euler_number_once(monkeypatch, input_):
    calls = []

    def counted(config):
        calls.append(config)
        return orbifold_euler_number(config)

    monkeypatch.setattr("k3pi1.surface.orbifold_euler_number", counted)
    report = analyze(input_)
    assert calls == [report.config]


def test_low_rank_sweep_minimum_three_halves():
    # every configuration with r <= 15 has positive orbifold Euler
    # number, minimum exactly 3/2 attained only at fifteen A_1 points
    best = None
    best_config = None
    count = 0
    for pieces in ade_multisets(15):
        config = AdeConfig(DuValType(*p) for p in pieces)
        count += 1
        e = orbifold_euler_number(config)
        assert e > 0, config
        if best is None or e < best:
            best = e
            best_config = config
    assert best == Fraction(3, 2)
    assert best_config == AdeConfig.from_labels(["A1"] * 15)
    assert count > 1000


def test_analyze_kummer():
    report = analyze(NormalK3Input.fibered(KUMMER))
    assert report.r == 16
    assert report.cone_orders == (2, 2, 2, 2)
    assert report.classification.kind == "euclidean"
    assert report.e_orb == 0
    assert report.verdict.kind == TORUS_COVER
    assert report.rank_gate_passes is False
    assert report.euclidean_euler_zero is True
    assert report.rank_gate_consistent is True


def test_analyze_632():
    report = analyze(NormalK3Input.fibered(FIXTURE_632))
    assert report.cone_orders == (2, 3, 6)
    assert report.r == 18
    assert report.e_orb == 0
    assert report.classification.kind == "euclidean"
    assert report.verdict.kind == TORUS_COVER


def test_analyze_532():
    report = analyze(NormalK3Input.fibered(FIXTURE_532))
    assert report.cone_orders == (2, 3, 5)
    assert report.r == 18
    assert report.e_orb == Fraction(2, 5)
    assert report.classification.order == 60
    assert report.verdict.kind == FINITE_FUNDAMENTAL_GROUP
    assert report.config == AdeConfig.from_labels(
        ["A4"] * 2 + ["A2"] * 3 + ["A1"] * 4
    )


def test_analyze_442():
    report = analyze(NormalK3Input.fibered(FIXTURE_442))
    assert report.cone_orders == (2, 4, 4)
    assert report.r == 18
    assert report.e_orb == 0
    assert report.verdict.kind == TORUS_COVER


def test_analyze_bare_inputs():
    report = analyze(NormalK3Input.bare(AdeConfig.from_labels(["A1"] * 10)))
    assert report.verdict.kind == FINITE_FUNDAMENTAL_GROUP
    assert report.kind == "bare"

    report = analyze(NormalK3Input.bare(AdeConfig.from_labels(["A1"] * 16)))
    assert report.e_orb == 0
    assert report.verdict.kind == TORUS_COVER

    # r >= 16 with positive orbifold Euler number: not decided
    report = analyze(NormalK3Input.bare(AdeConfig.from_labels(["A1"] * 8 + ["E8"])))
    assert report.verdict is None


def test_bare_analyze_matches_the_oracle():
    # drawn label multisets, checked end to end against a pipeline that
    # shares no code with the package; the draws must reach r >= 16 with
    # e_orb of each sign, and r <= 15
    seen = set()

    @seed(20_261_019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.sampled_from(ade_types(20)), max_size=20))
    @example([("A", 1)] * 16)
    @example([("A", 1)] * 8 + [("E", 8)])
    def check(pieces):
        report = analyze(NormalK3Input.bare(AdeConfig.from_labels(f"{k}{n}" for k, n in pieces)))
        r, e_orb, passes, verdict = bare_analysis(pieces)
        assert (report.r, report.e_orb, report.rank_gate_passes) == (r, e_orb, passes)
        assert (report.verdict and report.verdict.kind) == verdict
        seen.add((r >= 16, (e_orb > 0) - (e_orb < 0)))

    check()
    assert seen == {(False, 1), (True, 1), (True, 0), (True, -1)}


def test_analyze_attaches_quotient_on_trivial_orbifold():
    fibers = [Decoration(K("I*0"))] * 4  # undecorated, no cone points
    rep = MonodromyRep((MINUS_IDENTITY,) * 4)
    report = analyze(NormalK3Input.fibered(fibers, rep))
    assert report.cone_orders == ()
    assert report.classification.order == 1
    assert report.monodromy_quotient is not None
    assert report.monodromy_quotient.invariant_factors == (2, 2)
    assert report.monodromy_quotient_trivial is False


def test_analyze_monodromy_length_mismatch():
    rep = MonodromyRep((MINUS_IDENTITY,) * 3)
    with pytest.raises(ValueError):
        analyze(NormalK3Input.fibered([Decoration(K("I*0"))] * 4, rep))


def test_analyze_deterministic_json():
    a = analyze(NormalK3Input.fibered(FIXTURE_532)).to_json()
    b = analyze(NormalK3Input.fibered(FIXTURE_532)).to_json()
    assert a == b
    assert '"e_orb": "2/5"' in a
    assert '"verdict": "FiniteFundamentalGroup"' in a


def test_input_validation():
    with pytest.raises(ValueError):
        NormalK3Input()
    with pytest.raises(ValueError):
        NormalK3Input(
            singularities=AdeConfig(), fibers=(Decoration(K("I1")),)
        )


def test_trichotomy_sweep_small_budgets_match_direct_enumeration():
    # frozen counts from an independent single-recursion enumeration of
    # all nontrivial-outcome multisets (see _sweep_direct below)
    for budget in (6, 8, 10, 12):
        res = trichotomy_sweep(budget)
        assert res.total == _sweep_direct(budget), budget
        assert res.counts["hyperbolic"] == 0
        assert res.consistent


def test_trichotomy_sweep_finds_kummer_class_at_16_plus_6():
    # budget 24 is exercised in the acceptance suite; the (2,2,2,2)
    # euclidean class needs all four starred fibers, so no euclidean
    # class exists below budget 24
    res = trichotomy_sweep(18)
    assert res.counts["euclidean"] == 0
    assert res.counts["hyperbolic"] == 0


def test_trichotomy_sweep_at_25_finds_the_first_hyperbolic_class():
    # cones (2, 4, 5) need I*0, III* and II*, Euler 6 + 9 + 10 = 25: the
    # smallest budget with a hyperbolic class, so the bound 24 is sharp
    res = trichotomy_sweep(25)
    assert res.total == 19_580_603
    assert res.counts == {"spherical_or_bad": 19_580_583, "euclidean": 17, "hyperbolic": 3}
    assert len(res.violations) == 20
    assert res.hyperbolic[0].describe() == (
        "hyperbolic cones=[2, 4, 5] r=19 e_orb=2/5 via 1 x I*0[m=2; A1+A1+A1+A1], "
        "1 x III*[m=4; A1+A3+A3], 1 x II*[m=5; A4+A4]"
    )


def test_trichotomy_sweep_above_24_reports_budget_minus_contributions():
    # e_orb is B - sum(n + 1 - 1/delta), the K3 value only at B = 24, so
    # every euclidean class at B = 26 has e_orb != 0 and is a violation,
    # as is every hyperbolic one
    res = trichotomy_sweep(26)
    assert res.total == 36_446_820
    assert res.counts == {"spherical_or_bad": 36_446_718, "euclidean": 77, "hyperbolic": 25}
    assert len(res.violations) == 102
    assert res.euclidean[0].describe() == (
        "euclidean cones=[2, 3, 6] r=18 e_orb=2 via 1 x I*0[m=2; A1+A1+A1+A1], "
        "1 x IV*[m=3; A2+A2+A2], 1 x II*[m=6; A1+A2+A5]"
    )


def test_trichotomy_sweep_at_30():
    res = trichotomy_sweep(30)
    assert res.total == 420_903_936
    assert res.counts == {
        "spherical_or_bad": 420_896_062, "euclidean": 5_397, "hyperbolic": 2_477
    }
    assert len(res.violations) == 7_874
    assert res.violations[0] == (
        "euclidean instance with e_orb != 0: euclidean cones=[2, 2, 2, 2] r=17 "
        "e_orb=21/4 via 1 x I*0[m=2; A1+A1+A1+A1], 1 x I*1[m=2; A1+A1+A1+A1], "
        "1 x I*1[m=2; A1+A1+A3], 1 x I*2[m=2; A1+A1+A1+A1]"
    )


# sweeps shared by the report-order and certificate tests below
_sweep = cache(trichotomy_sweep)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# SHA-256 of the ordered violations and of the ordered describe() lines
# of the reported instances, euclidean then hyperbolic
REPORT_DIGESTS = {
    25: (
        "9c3df8ed2055fb962bbed585b7253894df8fa0cd79f3e13b83898a7d17cfaaf6",
        "5f3cf5d6326d56c06ba48379cecf99a881704478aafb62a441615bb344729fb0",
    ),
    26: (
        "c17a7943c3e4194e31d3a65f1e5442eea2425b3ac0b0bb95261b1f036f16b21e",
        "c94bd3040b8ff20e7442412cec2f734442772501571aac1a49bbb3dae43eef56",
    ),
    30: (
        "2b3302e39e5ab757e00128009955447a15f6e4685f6f91b62f6d8b63c33f5c67",
        "fb2e4e9fa6d6ee8f23ca67498e84a8c14073db268e5c56e460dc0858f4d7f85d",
    ),
}


@pytest.mark.parametrize("budget", sorted(REPORT_DIGESTS))
def test_trichotomy_sweep_report_order_is_pinned(budget):
    # the whole ordered report, not only its first line
    res = _sweep(budget)
    lines = [i.describe() for i in res.euclidean + res.hyperbolic]
    assert (_digest(res.violations), _digest(lines)) == REPORT_DIGESTS[budget]


def test_trichotomy_sweep_collect_limit_keeps_the_first_instances():
    full = _sweep(30)
    res = trichotomy_sweep(30, collect_limit=3)
    assert (res.total, res.counts, res.violations) == (full.total, full.counts, full.violations)
    assert res.euclidean == full.euclidean[:3]
    assert res.hyperbolic == full.hyperbolic[:3]


def test_cold_sweep_builds_few_outcome_tables(monkeypatch):
    # the sweep reads I_n and I*_n outcome counts from one arc table and
    # builds outcome tables only for the fiber types of the classes it
    # expands (I*0 at budget 24) and for II ... II*, of which only the
    # stars IV*, III*, II* build a component table; every cache is
    # cleared first, so nothing comes from an earlier test
    caches = (decoration_outcomes, fiber_data, kodaira._outcome_counts, kodaira._arc_counts)
    for cached in caches:
        cached.cache_clear()
    expanded = []

    def recorded(name):
        keys = getattr(kodaira, name)

        def call(n):
            expanded.append((name, n))
            return keys(n)

        return call

    for name in ("_cycle_keys", "_istar_keys"):
        monkeypatch.setattr(kodaira, name, recorded(name))
    res = trichotomy_sweep(24)
    assert expanded == [
        ("_cycle_keys", 1), ("_cycle_keys", 2), ("_cycle_keys", 3), ("_istar_keys", 0)
    ]
    assert kodaira._arc_counts.cache_info().currsize == 1
    assert decoration_outcomes.cache_info().currsize == 7
    assert fiber_data.cache_info().currsize == 3
    monkeypatch.undo()
    assert res.total == gf_total(_outcome_eulers(24), 24)
    assert decoration_outcomes.cache_info().currsize == 49
    trichotomy_sweep(30, collect_limit=0)
    assert fiber_data.cache_info().currsize == 3


def _min_euler_per_cone_order(budget):
    """The smallest Euler number of an outcome with each cone order m >= 2
    among the fiber types that fit the budget, read from the public
    decoration_outcomes tables by increasing Euler number."""
    types = sorted(_sweep_fiber_types(budget), key=lambda t: t.euler)
    # m divides the multiplicity of every kept component
    top = max(m for t in types for _, m in fiber_data(t).components)
    best = {}
    for m in range(2, top + 1):
        for t in types:
            if any(o.m == m for o in decoration_outcomes(t)):
                best[m] = t.euler
                break
    return best


def test_certificate_oracle_agrees_with_the_sweep():
    min_euler = _min_euler_per_cone_order(30)
    assert min_euler == {2: 6, 3: 8, 4: 9, 5: 10, 6: 10}
    first_hyperbolic = None
    for budget in range(24, 31):
        res = _sweep(budget)
        expected = {
            cones: kind
            for cones, (_, kind) in cone_signatures_by_cost(min_euler, budget).items()
            if kind != "spherical_or_bad"
        }
        found = {i.cone_orders: i.classification for i in res.euclidean + res.hyperbolic}
        assert found == expected, budget
        if first_hyperbolic is None and res.hyperbolic:
            first_hyperbolic = budget
    # the cheapest hyperbolic signatures cost 25, so the bound 24 is sharp
    certificate = cone_signatures_by_cost(min_euler, 30)
    assert first_hyperbolic == 25
    assert min(cost for cost, kind in certificate.values() if kind == "hyperbolic") == 25
    assert _sweep(25).hyperbolic[0].cone_orders == (2, 4, 5)
    assert certificate[2, 4, 5] == (25, "hyperbolic")
    # at 24 the four euclidean signatures cost exactly 24: no room for
    # completions, so there is one class each
    euclidean = {
        cones: cost
        for cones, (cost, kind) in cone_signatures_by_cost(min_euler, 24).items()
        if kind == "euclidean"
    }
    assert euclidean == {(2, 2, 2, 2): 24, (3, 3, 3): 24, (2, 4, 4): 24, (2, 3, 6): 24}
    res = _sweep(24)
    assert res.counts["euclidean"] == 4
    assert sorted(i.cone_orders for i in res.euclidean) == sorted(euclidean)
    assert all(i.r >= 16 and i.e_orb == 0 for i in res.euclidean)


def _sweep_fiber_types(budget):
    """Every fiber type whose Euler number fits the budget."""
    types = [K(b) for b in ("II", "III", "IV", "IV*", "III*", "II*")]
    types += [KodairaType("I", n) for n in range(1, budget + 1)]
    types += [KodairaType("I*", n) for n in range(0, budget - 5)]
    return [t for t in types if t.euler <= budget]


def _outcome_items(budget):
    """(Euler number, m) of every nontrivial outcome of every fiber type
    that fits the budget, read from the public decoration_outcomes tables."""
    return [
        (t.euler, o.m)
        for t in _sweep_fiber_types(budget)
        for o in decoration_outcomes(t)
        if o.config.entries
    ]


def _outcome_eulers(budget):
    return [e for e, _ in _outcome_items(budget)]


def test_trichotomy_sweep_counts_match_the_per_kind_oracle():
    # the oracle adds the outcomes one at a time, from the public tables
    for budget in (24, 25, 26):
        assert _sweep(budget).counts == sweep_counts_by_kind(_outcome_items(budget), budget)


def test_warm_sweep_classifies_each_cone_multiset_once(monkeypatch):
    trichotomy_sweep(24)
    seen = []

    def counted(signature):
        seen.append(signature.cone_orders)
        return classify(signature)

    monkeypatch.setattr(surface, "classify", counted)
    trichotomy_sweep(24)
    assert len(seen) == len(set(seen)) == 33
    # the cone multisets whose cheapest realization fits the budget
    assert set(seen) == set(cone_signatures_by_cost(_min_euler_per_cone_order(24), 24))


def test_trichotomy_sweep_totals_match_generating_function():
    # a sweep class is a multiset of nontrivial outcomes within the budget
    for budget in range(1, 25):
        assert trichotomy_sweep(budget).total == gf_total(_outcome_eulers(budget), budget), budget


def _sweep_direct(euler_sum):
    """Reference count: plain multiset recursion over all nontrivial
    outcomes, no knapsack shortcut."""
    eulers = _outcome_eulers(euler_sum)

    def rec(start, budget):
        count = 1  # take nothing more
        for idx in range(start, len(eulers)):
            e = eulers[idx]
            copies = 1
            while copies * e <= budget:
                count += rec(idx + 1, budget - copies * e)
                copies += 1
        return count

    return rec(0, euler_sum)
