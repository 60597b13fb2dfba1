"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every tolerance is exact (integer / rational arithmetic); the timed
criteria assert their stated runtime budgets.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from k3pi1.dynkin import AdeConfig, DuValType
from k3pi1.kodaira import Decoration, KodairaType, fiber_data
from k3pi1.lattice import (
    IntegerGram,
    k3_gram,
    meyer_gate,
    signature,
    smith_normal_form,
)
from k3pi1.orbifold import OrbifoldSignature, orbifold_euler_characteristic
from k3pi1.pi1 import MINUS_IDENTITY, MonodromyRep, coinvariant_quotient
from k3pi1.surface import NormalK3Input, analyze, orbifold_euler_number, trichotomy_sweep

from oracles import (
    ade_multisets,
    det_cofactor,
    det_exact,
    evaluate_form,
    group_order_oracle,
    mat2_mul,
    mat2_power_order,
    mat_mul,
    minors_gcd,
    neg_cartan_gram,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


class _criterion:
    """Prints `PASS criterion N: ...` or `FAIL criterion N: ...`."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.title} ({elapsed:.2f}s)")
        return False


def test_criterion_1_low_rank_euler_sweep():
    with _criterion(1, "all ADE multisets with r <= 15 have e_orb > 0, min 3/2"):
        start = time.monotonic()
        minimum = None
        minimum_configs = []
        count = 0
        for pieces in ade_multisets(15):
            config = AdeConfig(DuValType(*p) for p in pieces)
            count += 1
            e = orbifold_euler_number(config)
            assert e > 0, f"nonpositive orbifold Euler number at {config}"
            if minimum is None or e < minimum:
                minimum = e
                minimum_configs = [config]
            elif e == minimum:
                minimum_configs.append(config)
        elapsed = time.monotonic() - start
        assert count > 1000, count
        assert minimum == Fraction(3, 2)
        assert minimum_configs == [AdeConfig.from_labels(["A1"] * 15)]
        assert elapsed < 10.0, f"sweep of {count} configs took {elapsed:.1f}s"


def test_criterion_2_kummer_fixture():
    with _criterion(2, "Kummer fixture: r=16, m=(2,2,2,2), euclidean, TorusCover"):
        report = analyze(
            NormalK3Input.fibered(
                [Decoration(KodairaType("I*", 0), {"t1", "t2", "t3", "t4"})] * 4
            )
        )
        assert report.r == 16
        assert report.cone_orders == (2, 2, 2, 2)
        assert report.classification.kind == "euclidean"
        assert report.e_orb == 0
        assert report.verdict.kind == "TorusCover"
        assert report.to_json() + "\n" == (GOLDEN / "kummer_report.json").read_text()


def test_criterion_3_trichotomy_sweep():
    with _criterion(3, "trichotomy sweep at Euler sum 24: no hyperbolic class"):
        start = time.monotonic()
        result = trichotomy_sweep(24)
        elapsed = time.monotonic() - start
        assert result.counts["hyperbolic"] == 0, result.violations
        assert result.counts["euclidean"] == 4
        assert result.total == 10_487_956
        assert result.counts == {
            "spherical_or_bad": 10_487_952,
            "euclidean": 4,
            "hyperbolic": 0,
        }
        for inst in result.euclidean:
            assert inst.r >= 16, inst.describe()
            assert inst.e_orb == 0, inst.describe()
        assert result.consistent, result.violations
        signatures = sorted(inst.cone_orders for inst in result.euclidean)
        assert signatures == [(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)]
        assert elapsed < 300.0, f"{elapsed:.1f}s"
        print(
            f"  [criterion 3] classes: total {result.total}, "
            f"spherical_or_bad {result.counts['spherical_or_bad']}, "
            f"euclidean {result.counts['euclidean']}, "
            f"hyperbolic {result.counts['hyperbolic']}"
        )


def _keep_only(label, *kept):
    t = KodairaType.parse(label)
    removed = frozenset(fiber_data(t).component_ids) - set(kept)
    return Decoration(t, removed)


def test_criterion_4_cross_module_fixtures():
    with _criterion(4, "fixtures (6,3,2), (4,4,2) euclidean and (5,3,2) spherical"):
        istar0 = Decoration(KodairaType("I*", 0), {"t1", "t2", "t3", "t4"})

        report = analyze(
            NormalK3Input.fibered(
                [_keep_only("II*", "c6"), _keep_only("IV*", "z"), istar0]
            )
        )
        assert report.cone_orders == (2, 3, 6)
        assert report.classification.kind == "euclidean"
        assert report.e_orb == 0
        assert report.r == 18

        report = analyze(
            NormalK3Input.fibered(
                [_keep_only("III*", "c4"), _keep_only("III*", "c4"), istar0]
            )
        )
        assert report.cone_orders == (2, 4, 4)
        assert report.classification.kind == "euclidean"
        assert report.e_orb == 0
        assert report.r == 18

        report = analyze(
            NormalK3Input.fibered(
                [_keep_only("II*", "c5"), _keep_only("IV*", "z"), istar0]
            )
        )
        assert report.cone_orders == (2, 3, 5)
        assert report.classification.kind == "spherical_or_bad"
        assert report.classification.order == 60
        assert report.e_orb == Fraction(2, 5)
        assert report.r == 18
        assert report.verdict.kind == "FiniteFundamentalGroup"


def test_criterion_5_snf_property_suite():
    with _criterion(5, "SNF on 500 random matrices vs the minor-gcd oracle"):
        start = time.monotonic()
        rng = random.Random(900913)
        for trial in range(500):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            res = smith_normal_form(a)
            u = [list(r) for r in res.u]
            v = [list(r) for r in res.v]
            assert mat_mul(mat_mul(u, a), v) == [list(r) for r in res.d], a
            assert abs(det_cofactor(u)) == 1, a
            assert abs(det_cofactor(v)) == 1, a
            diag = res.diagonal
            for i in range(len(diag) - 1):
                if diag[i] == 0:
                    assert diag[i + 1] == 0, a
                elif diag[i + 1]:
                    assert diag[i + 1] % diag[i] == 0, a
            prod = 1
            for k, d in enumerate(diag, start=1):
                prod *= d
                assert prod == minors_gcd(a, k), (a, k)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_criterion_6_meyer_search():
    with _criterion(6, "Meyer search: 100 indefinite rank-5 forms found, definite exhausted"):
        start = time.monotonic()
        rng = random.Random(271828)
        for trial in range(100):
            entries = [rng.choice([2, 4, 6]) * rng.choice([1, -1]) for _ in range(5)]
            if all(e > 0 for e in entries) or all(e < 0 for e in entries):
                entries[rng.randrange(5)] *= -1
            g = IntegerGram.from_rows(
                [[entries[i] if i == j else 0 for j in range(5)] for i in range(5)]
            )
            report = meyer_gate(g, 50)
            assert report.hypotheses_hold, entries
            assert report.vector is not None, entries
            assert evaluate_form(g.rows, report.vector) == 0, entries
            assert max(abs(c) for c in report.vector) <= 50, entries

        report = meyer_gate(IntegerGram.from_rows([[1, 0], [0, -3]]), 100)
        assert report.exhausted

        for definite in [
            IntegerGram.from_rows([[2, 0], [0, 2]]),
            IntegerGram.from_rows(neg_cartan_gram([("E", 8)])),
            IntegerGram.from_rows(neg_cartan_gram([("D", 4), ("A", 2)])),
        ]:
            report = meyer_gate(definite, 50)
            assert report.exhausted
            assert not report.hypotheses_hold
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_criterion_7_k3_lattice():
    with _criterion(7, "K3 lattice: even, det -1, signature (3,19)"):
        g = k3_gram()
        assert g.dim == 22
        assert g.is_even
        assert det_exact(g.rows) == -1
        assert signature(g) == (3, 19, 0)


def test_criterion_8_monodromy_quotients():
    with _criterion(8, "monodromy quotients: trivial, (2,2) flagged, empty = Z^2"):
        a = ((1, 1), (0, 1))
        b = ((1, 0), (-1, 1))
        assert mat2_power_order(mat2_mul(a, b)) == 6
        rep24 = MonodromyRep((a, b) * 12)
        assert coinvariant_quotient(rep24).is_trivial

        rep4 = MonodromyRep((MINUS_IDENTITY,) * 4)
        assert coinvariant_quotient(rep4).invariant_factors == (2, 2)

        assert coinvariant_quotient(rep4, []).invariant_factors == (0, 0)

        # the (Z/2)^2 case is flagged in the full report
        report = analyze(
            NormalK3Input.fibered([Decoration(KodairaType("I*", 0))] * 4, rep4)
        )
        assert report.monodromy_quotient.invariant_factors == (2, 2)
        assert report.monodromy_quotient_trivial is False
        assert report.to_json_dict()["monodromy_quotient_trivial"] is False


def test_criterion_9_orbifold_order_oracle():
    with _criterion(9, "coset enumeration matches 2/chi and gcd; (2,3,6) stays open"):
        start = time.monotonic()
        for n in range(2, 9):
            s = OrbifoldSignature((2, 2, n))
            assert group_order_oracle(s.cone_orders, 10000) == 2 * n
            assert Fraction(2) / orbifold_euler_characteristic(s) == 2 * n
        for sig, expected in [((2, 3, 3), 12), ((2, 3, 4), 24), ((2, 3, 5), 60)]:
            s = OrbifoldSignature(sig)
            assert group_order_oracle(s.cone_orders, 10000) == expected
            assert Fraction(2) / orbifold_euler_characteristic(s) == expected
        for m1 in range(2, 9):
            for m2 in range(2, 9):
                assert group_order_oracle((m1, m2), 10000) == gcd(m1, m2)
        assert group_order_oracle((2, 3, 6), 10000) is None
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_10_cli_golden_files():
    with _criterion(10, "CLI golden JSON byte-identical across consecutive runs"):
        for fixture, golden in [
            ("kummer.json", "kummer_report.json"),
            ("fixture_532.json", "fixture_532_report.json"),
        ]:
            cmd = [
                sys.executable,
                "-m",
                "k3pi1",
                "analyze",
                str(FIXTURES / fixture),
                "--json",
            ]
            first = subprocess.run(cmd, capture_output=True, check=True)
            second = subprocess.run(cmd, capture_output=True, check=True)
            assert first.stdout == second.stdout
            assert first.stdout.decode() == (GOLDEN / golden).read_text()
            json.loads(first.stdout)  # well-formed
