"""Self-tests of the benchmark harness:

    python3 -m pytest -q perfbench
"""

import os
import random
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from tracer import NAME, OP, PARENT, RAISED, Tracer, covered, self_times  # noqa: E402


def test_highest_percentile_keeps_ten_samples_beyond():
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50
    assert stats.highest_percentile(99) == 50
    assert stats.highest_percentile(100) == 90
    assert stats.highest_percentile(999) == 90
    assert stats.highest_percentile(1000) == 99
    assert stats.highest_percentile(10_000) == 99.9
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert sum(v > stats.tail(values, 90) for v in values) == 10
    with pytest.raises(ValueError):
        stats.tail(values, 99)


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 100]; children overlap on [20, 30] and one runs past the end
    spans = [
        [0, "p", None, 0, 100, None, 1, 5, False],
        [1, "a", None, 10, 30, 0, 1, 0, False],
        [2, "b", None, 20, 40, 0, 1, 0, False],
        [3, "c", None, 90, 120, 0, 1, 0, False],
        [4, "d", None, 22, 25, 2, 1, 0, False],
    ]
    assert covered([(10, 30), (20, 40), (90, 120)], 0, 100) == 40
    selfs = self_times(spans)
    assert selfs[0] == 100 - 40 - 5  # 5 ns of aggregated leaf calls
    assert selfs[2] == 20 - 3
    assert selfs[4] == 3


def test_tracer_records_nesting_errors_and_aggregates():
    mod = types.ModuleType("fake")
    mod.leaf = lambda x: x + 1
    mod.inner = lambda x: mod.leaf(x) * 2
    mod.outer = lambda x: mod.inner(x) + mod.inner(x)

    def fail():
        raise ValueError("no")

    mod.fail = fail
    tracer = Tracer()
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "leaf", "leaf", aggregate=True)
    tracer.wrap(mod, "fail", "fail")
    with pytest.raises(AttributeError):
        tracer.wrap(mod, "renamed", "renamed")
    with tracer.operation("op"):
        assert mod.outer(1) == 8
        with pytest.raises(ValueError):
            mod.fail()
    tracer.unwrap_all()
    assert mod.outer(1) == 8 and len(tracer.spans) == 5
    op, outer, inner1, inner2, failed = tracer.spans
    assert [s[NAME] for s in tracer.spans] == ["op", "outer", "inner", "inner", "fail"]
    assert {s[OP] for s in tracer.spans} == {op[OP]}
    assert (outer[PARENT], inner1[PARENT], inner2[PARENT], failed[PARENT]) == (0, 1, 1, 0)
    assert failed[RAISED] and not outer[RAISED]
    assert tracer.aggregates[("leaf", op[OP])][0] == 2
    assert all(t >= 0 for t in self_times(tracer.spans).values())


def test_generating_function_matches_the_sweep_total():
    from worker import sweep_tables

    from k3pi1.surface import trichotomy_sweep

    for budget in range(1, 13):
        _, items = sweep_tables(budget)
        assert oracles.gf_total([e for e, _ in items], budget) == trichotomy_sweep(budget).total


def test_oracles_on_known_cases():
    assert oracles.ade_types(["x", "y", "z", "w"], [("x", "y", 1), ("x", "z", 1), ("x", "w", 1)]) == [("D", 4)]
    assert oracles.ade_types("abc", [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]) is None
    assert oracles.decoration_outcome("I*", 0, ["t1", "t2", "t3", "t4"]) == (2, [("A", 1)] * 4)
    assert oracles.decoration_outcome("II*", None, ["c1", "c2", "c3", "c4", "c5", "c7", "c8", "b1"]) == (
        6, [("A", 1), ("A", 2), ("A", 5)])
    assert oracles.e_orb([("A", 1)] * 16) == 0
    assert not oracles.diagonal_isotropic_over_q([1, 1, -3, -3])
    assert oracles.diagonal_isotropic_over_q([1, 1, 1, -3])
    assert not oracles.diagonal_isotropic_over_q([1, -3])
    assert oracles.grid_first_isotropic([[1, 0], [0, -1]], 2) == (1, 1)
    assert oracles.grid_first_isotropic([[1, 0], [0, -3]], 5) is None


def test_speed_level_caps_descheduled_probes():
    # a probe 100x the median counts as CAP x the median, not as 100x
    assert speed.level([10, 10, 10, 1000]) == (10 + 10 + 10 + 10 * speed.CAP) / 4
    assert speed.factor([speed.NOMINAL_NS] * 3) == 1.0
    with pytest.raises(ValueError):
        speed.level([])


def test_sampler_probes_and_leaves_their_time_out():
    from time import perf_counter_ns

    with speed.Sampler() as sampler:
        wall, start = perf_counter_ns(), sampler.clock()
        while perf_counter_ns() - wall < 0.2e9:
            pass
        work = sampler.clock() - start
    assert len(sampler.samples) >= 5
    assert 0 < sampler.stolen_ns < 0.2e9
    assert work <= perf_counter_ns() - wall - sampler.stolen_ns
    assert sampler.near(0, 0) > 0 and sampler.factor(0, 1) > 0


def test_meyer_batch_varies_only_signs_and_order():
    def forms(seed):
        return sorted((item["kind"], str(sorted(map(abs, sum(item["rows"], []))))) for item in
                      inputs.meyer_batch(random.Random(seed)))

    one, two = inputs.meyer_batch(random.Random(1)), inputs.meyer_batch(random.Random(2))
    assert forms(1) == forms(2)
    assert [item["rows"] for item in one] != [item["rows"] for item in two]
