"""End-to-end analysis of normal K3 surface data.

Input is either a bare ADE configuration (the Du Val singularities of
the normal surface) or a decorated elliptic fibration (Kodaira fibers
with removed component sets summing to Euler number 24).  The pipeline
computes

* the orbifold Euler number 24 - sum(n_k + 1 - 1/delta_k), exactly,
* the rank gate: r <= 15 forces a finite fundamental group of the
  smooth locus, and is sharp (a normal Kummer surface has r = 16),
* for fibered input, the base orbifold signature given by the gcds of
  the kept component multiplicities, its finite / euclidean /
  hyperbolic classification, and the resulting verdict: finite
  fundamental group, a torus cover ramified in finitely many points,
  or the hyperbolic contradiction case that no such surface realizes,
* optionally, the quotient of the fiber lattice Z^2 by the images of
  I - T_j when a monodromy representation is supplied and the base
  orbifold is simply connected.

`trichotomy_sweep` enumerates every decorated fiber configuration
class within the Euler budget and tallies the classifications; it is
expected to find no hyperbolic instance, and only euclidean instances
with r >= 16 and orbifold Euler number exactly zero.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import accumulate, product
from math import comb, lcm

from .dynkin import AdeConfig, _multisets, local_euler_contribution
from .kodaira import (
    Decoration,
    K3_EULER_NUMBER,
    KodairaType,
    _outcome_counts,
    decoration_outcomes,
    validate_k3_fibration,
)
from .orbifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL_OR_BAD,
    OrbifoldClass,
    OrbifoldSignature,
    classify,
)
from .pi1 import MonodromyRep, coinvariant_quotient, validate_representation

__all__ = [
    "RANK_GATE_BOUND",
    "NormalK3Input",
    "Verdict",
    "Report",
    "SweepInstance",
    "SweepResult",
    "orbifold_euler_number",
    "analyze",
    "trichotomy_sweep",
]

RANK_GATE_BOUND = 15

FINITE_FUNDAMENTAL_GROUP = "FiniteFundamentalGroup"
TORUS_COVER = "TorusCover"
UNREALIZABLE_HYPERBOLIC = "UnrealizableHyperbolic"


def orbifold_euler_number(c: AdeConfig) -> Fraction:
    """24 minus the sum of the local contributions n + 1 - 1/delta.

    May be negative for configurations no normal K3 surface realizes;
    the value is reported as is.  The contributions (cached per type)
    are summed in integers over their least common denominator, and one
    Fraction is built at the end.
    """
    parts = [local_euler_contribution(t) for t in c.entries]
    den = lcm(*(p.denominator for p in parts))
    lost = sum(p.numerator * (den // p.denominator) for p in parts)
    return Fraction(K3_EULER_NUMBER * den - lost, den)


class NormalK3Input(namedtuple("NormalK3Input", "singularities fibers monodromy")):
    """Either a bare singularity configuration or a decorated fibration."""

    __slots__ = ()

    def __new__(
        cls,
        singularities: AdeConfig | None = None,
        fibers: tuple[Decoration, ...] | None = None,
        monodromy: MonodromyRep | None = None,
    ) -> "NormalK3Input":
        if (singularities is None) == (fibers is None):
            raise ValueError(
                "exactly one of singularities/fibers must be provided"
            )
        if monodromy is not None and fibers is None:
            raise ValueError("a monodromy representation needs fibered input")
        return tuple.__new__(cls, (singularities, fibers, monodromy))

    @classmethod
    def bare(cls, config: AdeConfig) -> "NormalK3Input":
        return cls(singularities=config)

    @classmethod
    def fibered(
        cls,
        decorations: Sequence[Decoration],
        monodromy: MonodromyRep | None = None,
    ) -> "NormalK3Input":
        return cls(fibers=tuple(decorations), monodromy=monodromy)


class Verdict(namedtuple("Verdict", "kind")):
    __slots__ = ()


_VERDICT_OF_CLASS = {
    SPHERICAL_OR_BAD: FINITE_FUNDAMENTAL_GROUP,
    EUCLIDEAN: TORUS_COVER,
    HYPERBOLIC: UNREALIZABLE_HYPERBOLIC,
}


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class Report(
    namedtuple(
        "Report",
        "config e_orb fibers cone_orders classification verdict monodromy_quotient",
        defaults=(None,) * 5,
    )
):
    """Everything the pipeline derives from one input.  The fields after
    `e_orb` default to None, which marks what does not apply to the input
    (the fiber data of bare input) or was not computed (the monodromy
    quotient without a representation).  The input kind, the rank, the
    rank gate and the consistency checks are derived from the fields."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        """The input kind: "bare" for singularities, "fibered" for a fibration."""
        return "bare" if self.fibers is None else "fibered"

    @property
    def r(self) -> int:
        return self.config.rank

    @property
    def rank_gate_passes(self) -> bool:
        """r <= 15 guarantees a finite fundamental group of the smooth locus."""
        return self.r <= RANK_GATE_BOUND

    @property
    def rank_gate_consistent(self) -> bool | None:
        """For fibered input: a passed rank gate came with a finite verdict."""
        if self.classification is None:
            return None
        return not self.rank_gate_passes or self.verdict.kind == FINITE_FUNDAMENTAL_GROUP

    @property
    def euclidean_euler_zero(self) -> bool | None:
        """For a euclidean base orbifold: the orbifold Euler number is zero."""
        if self.classification is None or self.classification.kind != EUCLIDEAN:
            return None
        return self.e_orb == 0

    @property
    def monodromy_quotient_trivial(self) -> bool | None:
        if self.monodromy_quotient is None:
            return None
        return self.monodromy_quotient.is_trivial

    def to_json_dict(self) -> dict:
        fibers = None if self.fibers is None else [
            {
                "kodaira": f.fiber.label,
                "removed": sorted(f.removed),
                "m": f.m,
                "removed_config": list(f.config.labels),
            }
            for f in self.fibers
        ]
        return {
            "kind": self.kind,
            "r": self.r,
            "e_orb": _frac_str(self.e_orb),
            "singularities": list(self.config.labels),
            "fibers": fibers,
            "cone_orders": list(self.cone_orders) if self.cone_orders is not None else None,
            "classification": self.classification.kind if self.classification else None,
            "orbifold_order": self.classification.order if self.classification else None,
            "verdict": self.verdict.kind if self.verdict else None,
            "rank_gate": {"r": self.r, "passes": self.rank_gate_passes},
            "rank_gate_consistent": self.rank_gate_consistent,
            "euclidean_euler_zero": self.euclidean_euler_zero,
            "monodromy_quotient": (
                list(self.monodromy_quotient.invariant_factors)
                if self.monodromy_quotient is not None
                else None
            ),
            "monodromy_quotient_trivial": self.monodromy_quotient_trivial,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, rationals as "p/q", two-space indent."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def analyze(input_: NormalK3Input) -> Report:
    """Run the full pipeline on one input; deterministic.

    Fibered input is validated first, and its singularities are the
    removed configurations of the fibers.  When the rank gate passes,
    the orbifold Euler number must come out >= 3/2 (minimum at fifteen
    A_1 points), which is asserted as an internal consistency check.
    Bare input is decided by the rank gate or by e_orb = 0 (a torus
    cover), and may stay undecided.  Fibered input is decided by the
    classification of its base orbifold; a monodromy representation is
    validated, and its quotient computed when the base orbifold is
    simply connected.
    """
    fibers = cone_orders = cls = quotient = None
    if input_.fibers is None:
        config = input_.singularities
    else:
        fibers = validate_k3_fibration(input_.fibers)
        config = AdeConfig(p for f in fibers for p in f.config.entries)
    e_orb = orbifold_euler_number(config)
    passes = config.rank <= RANK_GATE_BOUND
    if passes and e_orb < Fraction(3, 2):
        raise AssertionError(
            f"rank {config.rank} <= {RANK_GATE_BOUND} but orbifold Euler number {e_orb} < 3/2"
        )

    if fibers is None:
        verdict = FINITE_FUNDAMENTAL_GROUP if passes else TORUS_COVER if e_orb == 0 else None
    else:
        signature = OrbifoldSignature(f.m for f in fibers)
        cone_orders, cls = signature.cone_orders, classify(signature)
        rep = input_.monodromy
        if rep is not None:
            if len(rep) != len(fibers):
                raise ValueError(f"monodromy has {len(rep)} matrices for {len(fibers)} fibers")
            validate_representation(rep)
            if cls.kind == SPHERICAL_OR_BAD and cls.order == 1:
                quotient = coinvariant_quotient(rep)
        verdict = _VERDICT_OF_CLASS[cls.kind]

    return Report(
        config=config,
        e_orb=e_orb,
        fibers=fibers,
        cone_orders=cone_orders,
        classification=cls,
        verdict=Verdict(verdict) if verdict else None,
        monodromy_quotient=quotient,
    )


# ----------------------------------------------------------------------
# exhaustive trichotomy sweep


class SweepInstance(
    namedtuple("SweepInstance", "outcomes cone_orders classification r e_orb")
):
    """One configuration class found by the sweep: the multiset of
    nontrivial decoration outcomes, as (fiber label, m, removed config
    labels, count) entries, with the derived invariants."""

    __slots__ = ()

    def describe(self) -> str:
        parts = [
            f"{count} x {label}[m={m}; {'+'.join(cfg) if cfg else '-'}]"
            for label, m, cfg, count in self.outcomes
        ]
        return (
            f"{self.classification} cones={list(self.cone_orders)} r={self.r} "
            f"e_orb={self.e_orb} via " + (", ".join(parts) if parts else "no decorations")
        )


class SweepResult(namedtuple("SweepResult", "counts euclidean hyperbolic violations")):
    """The count per classification (`total` is their sum), the euclidean
    and hyperbolic instances kept, and the violation lines."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def consistent(self) -> bool:
        return not self.violations


def _sweep_types(euler_sum: int) -> list[KodairaType]:
    """Every fiber type with Euler number <= euler_sum, by (Euler number,
    label): the order in which the sweep lists their outcomes."""
    types = [KodairaType(base) for base in ("II", "III", "IV", "IV*", "III*", "II*")]
    types += [KodairaType("I", n) for n in range(1, euler_sum + 1)]
    types += [KodairaType("I*", n) for n in range(0, euler_sum - 5)]
    return sorted((t for t in types if t.euler <= euler_sum), key=lambda t: (t.euler, t.label))


def trichotomy_sweep(
    euler_sum: int = K3_EULER_NUMBER, collect_limit: int | None = None
) -> SweepResult:
    """Enumerate every decorated-fibration class within the Euler budget.

    A class is a multiset of nontrivial decoration outcomes (m, removed
    configuration) with total Euler number at most `euler_sum`; fibers
    with nothing removed only fill the budget.  Only the cone orders
    m >= 2 decide a class, so the sweep counts from the outcome counts
    per fiber type (`kodaira._outcome_counts`), in integers.  The m = 1
    outcomes are counted per total Euler number by the logarithmic
    derivative of prod_e (1 - x^e)^(-flat[e]).  The m >= 2 outcomes fall
    into groups by (Euler number, m), and the walk goes over group
    multisets in pre-order: each extends its prefix's running weight by
    C(k + c - 1, c) for c picks from a group of k, and its sorted cone
    orders by c copies of m.  Each cone multiset is classified once.
    Euclidean and hyperbolic group multisets (4 at budget 24, 242 at 30)
    are expanded from the outcome tables into full instances, checked
    against r >= 16, orbifold Euler number zero and the rank gate;
    hyperbolic instances and failed checks are violations.  Instances
    come in the walker's pre-order over all nontrivial outcomes, listed
    by fiber Euler number, label and table position.

    The budget stands in for 24: e_orb is reported as euler_sum -
    sum(n + 1 - 1/delta), the K3 value only at 24, so above 24 every
    hyperbolic class and every euclidean class with e_orb != 0 is a violation.
    """
    types = _sweep_types(euler_sum)
    flat = [0] * (euler_sum + 1)  # flat[e]: m = 1 outcomes of Euler number e
    sizes: dict[tuple[int, int], int] = {}  # (Euler number, m >= 2) -> outcomes
    for t in types:
        for m, count in _outcome_counts(t).items():
            if m == 1:
                flat[t.euler] += count
            else:
                sizes[t.euler, m] = sizes.get((t.euler, m), 0) + count

    # ways[b]: multisets of m = 1 outcomes of total Euler number b, the
    # coefficients of prod_e (1 - x^e)^(-flat[e]); by its logarithmic
    # derivative b ways[b] = sum_k s[k] ways[b - k], s[k] = sum_{e | k} e flat[e]
    s = [sum(e * flat[e] for e in range(1, k + 1) if k % e == 0) for k in range(euler_sum + 1)]
    ways = [1]
    for b in range(1, euler_sum + 1):
        ways.append(sum(s[k] * ways[b - k] for k in range(1, b + 1)) // b)
    completions_within = list(accumulate(ways))

    counts = {SPHERICAL_OR_BAD: 0, EUCLIDEAN: 0, HYPERBOLIC: 0}

    @cache
    def classify_cones(cones: tuple[int, ...]) -> OrbifoldClass:
        return classify(OrbifoldSignature(cones))

    @cache
    def group_items(group: tuple[int, int]) -> list:
        """The outcomes of a group, each with its position in the sweep's
        outcome order, read from the tables of the types that have any."""
        e, m = group
        return [
            ((t.euler, t.label, index), o)
            for t in types
            if t.euler == e and _outcome_counts(t)[m]
            for index, o in enumerate(decoration_outcomes(t))
            if o.m == m
        ]

    expanded = []  # (positions, cone part, cones, kind, budget left)
    groups = sorted(sizes)
    # weight and sorted cone orders of the part walked to, by depth: the
    # walk is in pre-order, so a part's prefix is the last part one shorter
    weights, cone_parts = [1] * (len(groups) + 1), [()] * (len(groups) + 1)
    for part, left in _multisets(groups, [e for e, _ in groups], euler_sum):
        depth = len(part)
        if depth:
            (e, m), c = part[-1]
            prefix = cone_parts[depth - 1]
            at = bisect_right(prefix, m)
            weights[depth] = weights[depth - 1] * comb(sizes[e, m] + c - 1, c)
            cone_parts[depth] = prefix[:at] + (m,) * c + prefix[at:]
        cones = cone_parts[depth]
        kind = classify_cones(cones).kind
        counts[kind] += weights[depth] * completions_within[left]
        if kind == SPHERICAL_OR_BAD:
            continue
        picks = []  # per group, every choice of c of its outcomes
        for g, c in part:
            items = group_items(g)
            ones = [1] * len(items)
            picks.append([list(p) for p, rest in _multisets(items, ones, c) if not rest])
        for choice in product(*picks):
            chosen = sorted(pair for pairs in choice for pair in pairs)
            positions = [(pos, n) for (pos, _), n in chosen]
            expanded.append((positions, [(o, n) for (_, o), n in chosen], cones, kind, left))
    expanded.sort(key=lambda x: x[0])

    euclidean: list[SweepInstance] = []
    hyperbolic: list[SweepInstance] = []
    violations: list[str] = []
    most_left = max((left for *_, left in expanded), default=0)
    flat_items = [
        o
        for t in _sweep_types(most_left)
        for o in decoration_outcomes(t)
        if o.m == 1 and o.config.entries
    ]
    flat_eulers = [o.fiber.euler for o in flat_items]
    for _, cone_part, cones, kind, left in expanded:
        for flat_part, _ in _multisets(flat_items, flat_eulers, left):
            chosen = cone_part + flat_part
            config = AdeConfig(tuple(p for o, n in chosen for p in o.config.entries * n))
            r = config.rank
            e_orb = euler_sum - K3_EULER_NUMBER + orbifold_euler_number(config)
            instance = SweepInstance(
                outcomes=tuple((o.fiber.label, o.m, o.config.labels, n) for o, n in chosen),
                cone_orders=cones,
                classification=kind,
                r=r,
                e_orb=e_orb,
            )
            reported = hyperbolic if kind == HYPERBOLIC else euclidean
            if collect_limit is None or len(reported) < collect_limit:
                reported.append(instance)
            if kind == HYPERBOLIC:
                violations.append(f"hyperbolic instance: {instance.describe()}")
            else:
                if r < 16:
                    violations.append(f"euclidean instance with r < 16: {instance.describe()}")
                if e_orb != 0:
                    violations.append(
                        f"euclidean instance with e_orb != 0: {instance.describe()}"
                    )
            if r <= RANK_GATE_BOUND:
                violations.append(
                    f"rank gate passed on an infinite class: {instance.describe()}"
                )

    return SweepResult(
        counts=counts,
        euclidean=euclidean,
        hyperbolic=hyperbolic,
        violations=violations,
    )
