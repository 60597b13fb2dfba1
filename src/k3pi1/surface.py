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
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, combinations_with_replacement, product
from math import comb, lcm
from operator import mul

from .dynkin import AdeConfig, DuValType, _multisets, local_euler_contribution
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
    Fraction is built at the end.  `analyze` caches the value per
    configuration; the sweep calls this directly.
    """
    parts = [local_euler_contribution(t) for t in c.entries]
    den = lcm(*[p.denominator for p in parts])
    lost = sum([p.numerator * (den // p.denominator) for p in parts])
    return Fraction(K3_EULER_NUMBER * den - lost, den)


@lru_cache(maxsize=1024)  # configs recur: a stream of inputs has few distinct ones
def _checked_euler(config: AdeConfig) -> Fraction:
    """The orbifold Euler number, asserted >= 3/2 when r <= 15 (the minimum,
    at fifteen A_1 points), in integers: a Fraction's denominator is
    positive.  An error is never cached."""
    e_orb = orbifold_euler_number(config)
    if config.rank <= RANK_GATE_BOUND and 2 * e_orb.numerator < 3 * e_orb.denominator:
        raise AssertionError(
            f"rank {config.rank} <= {RANK_GATE_BOUND} but orbifold Euler number {e_orb} < 3/2"
        )
    return e_orb


@lru_cache(maxsize=256)  # a stream of fibrations has few distinct m tuples
def _classified(ms: tuple[int, ...]) -> OrbifoldClass:
    """The base orbifold class of cone orders `ms`, for `analyze` and the
    sweep, by the module global `classify`, which perfbench/worker.py traces."""
    return classify(OrbifoldSignature(ms))


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
        "config e_orb fibers classification monodromy_quotient",
        defaults=(None,) * 3,
    )
):
    """Everything the pipeline derives from one input.  The fields after
    `e_orb` default to None, which marks what does not apply to the input
    (the fiber data of bare input) or was not computed (the monodromy
    quotient without a representation).  The rest is derived from the
    fields: the input kind, the rank, the verdict and the checks."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        """The input kind: "bare" for singularities, "fibered" for a fibration."""
        return "bare" if self.fibers is None else "fibered"

    @property
    def r(self) -> int:
        return self.config.rank

    @property
    def cone_orders(self) -> tuple[int, ...] | None:
        if self.fibers is None:
            return None
        return OrbifoldSignature(f.m for f in self.fibers).cone_orders

    @property
    def verdict(self) -> Verdict | None:
        """By the base orbifold's class, or for bare input by r <= 15 or e_orb = 0."""
        if self.classification is not None:
            return Verdict(_VERDICT_OF_CLASS[self.classification.kind])
        if self.fibers is None and (self.rank_gate_passes or self.e_orb == 0):
            return Verdict(FINITE_FUNDAMENTAL_GROUP if self.rank_gate_passes else TORUS_COVER)
        return None

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
            "cone_orders": None if self.fibers is None else list(self.cone_orders),
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
    Both are cached per config in an LRU cache of 1,024 entries that
    the sweep does not fill: every fibered config, and a bare one only
    when it is an AdeConfig of at most 24 DuValType entries.  Fibered
    input gets the class of its base orbifold, cached per tuple of the
    fibers' m in 256 entries: one class cache, which the sweep fills too.
    A monodromy representation is validated, and its quotient computed
    when the base orbifold is simply connected.  `Report.verdict`
    follows from what is returned.
    """
    fibers = cls = quotient = None
    checked = _checked_euler
    if input_.fibers is None:
        config = input_.singularities
        if not (type(config) is AdeConfig and type(config.entries) is tuple
                and len(config) <= K3_EULER_NUMBER
                and all(type(t) is DuValType for t in config.entries)):
            checked = _checked_euler.__wrapped__
    else:
        fibers = validate_k3_fibration(input_.fibers)
        config = AdeConfig([p for f in fibers for p in f.config.entries])
    e_orb = checked(config)

    if fibers is not None:
        cls = _classified(tuple([f.m for f in fibers]))
        rep = input_.monodromy
        if rep is not None:
            if len(rep) != len(fibers):
                raise ValueError(f"monodromy has {len(rep)} matrices for {len(fibers)} fibers")
            validate_representation(rep)
            if cls.kind == SPHERICAL_OR_BAD and cls.order == 1:
                quotient = coinvariant_quotient(rep)
    return Report(config, e_orb, fibers, cls, quotient)


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


@cache
def _sweep_types(euler_sum: int) -> tuple[KodairaType, ...]:
    """Every fiber type with Euler number <= euler_sum, by (Euler number,
    label): the order in which the sweep lists their outcomes."""
    types = [KodairaType(base) for base in ("II", "III", "IV", "IV*", "III*", "II*")]
    types += [KodairaType("I", n) for n in range(1, euler_sum + 1)]
    types += [KodairaType("I*", n) for n in range(0, euler_sum - 5)]
    types = [t for t in types if t.euler <= euler_sum]
    return tuple(sorted(types, key=lambda t: (t.euler, t.label)))


def _multiset_counts(n: list[int]) -> list[int]:
    """ways[b]: multisets of total Euler number b from n[e] items of Euler number
    e, the coefficients of prod_e (1 - x^e)^(-n[e]); by their logarithmic
    derivative b ways[b] = sum_k s[k] ways[b - k], s[k] = sum_{e | k} e n[e]."""
    s = [0] * len(n)
    for e in range(1, len(n)):
        for k in range(e, len(n), e):
            s[k] += e * n[e]
    ways = [1]
    for b in range(1, len(n)):
        ways.append(sum(map(mul, s[1 : b + 1], reversed(ways))) // b)  # s[k] ways[b - k]
    return ways


def trichotomy_sweep(
    euler_sum: int = K3_EULER_NUMBER, collect_limit: int | None = None
) -> SweepResult:
    """Enumerate every decorated-fibration class within the Euler budget.

    A class is a multiset of nontrivial decoration outcomes (m, removed
    configuration) with total Euler number at most `euler_sum`; fibers
    with nothing removed only fill the budget.  The sweep counts from the
    outcome counts per fiber type (`kodaira._outcome_counts`), in
    integers: multisets by total Euler number come from the logarithmic
    derivative of prod_e (1 - x^e)^(-k[e]), k[e] outcomes of Euler number
    e, over all outcomes for the total and over the m = 1 outcomes for
    the completions of a cone part.  The m >= 2 outcomes fall into groups
    by (Euler number, m).  Only three cone points or more can make a
    euclidean or hyperbolic base, so the walk goes over the group
    multisets that can still reach three cones, each with its weight (the
    product of C(k + c - 1, c) for c picks from a group of k) and sorted
    cone orders, and classifies those with three cones through `analyze`'s
    cache, each cone multiset once; spherical_or_bad is the rest of the total.
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
    if euler_sum < 0:  # no multiset, not even the empty one, fits
        raise ValueError("euler_sum must be >= 0")
    types = _sweep_types(euler_sum)
    flat = [0] * (euler_sum + 1)  # flat[e]: m = 1 outcomes of Euler number e
    every = [0] * (euler_sum + 1)  # every[e]: nontrivial outcomes of Euler number e
    sizes: dict[tuple[int, int], int] = {}  # (Euler number, m >= 2) -> outcomes
    for t in types:
        e = t.euler
        for m, count in _outcome_counts(t).items():
            every[e] += count
            if m == 1:
                flat[e] += count
            else:
                sizes[e, m] = sizes.get((e, m), 0) + count
    completions_within = list(accumulate(_multiset_counts(flat)))

    @cache
    def group_items(group: tuple[int, int]) -> list:
        """The (position, outcome) pairs of a group, each outcome with its position
        in the sweep's outcome order, read from the tables of the types that have any."""
        e, m = group
        return [
            ((t.euler, t.label, index), o)
            for t in types
            if t.euler == e and _outcome_counts(t)[m]
            for index, o in enumerate(decoration_outcomes(t))
            if o.m == m
        ]

    counts = {SPHERICAL_OR_BAD: 0, EUCLIDEAN: 0, HYPERBOLIC: 0}
    expanded = []  # (sorted ((position, outcome), count) pairs, cones, kind, budget left)
    groups = sorted(sizes)

    def walk(start: int, left: int, weight: int, cones: tuple[int, ...], part: tuple) -> None:
        """Classify a group multiset `part` of three cones or more, then extend it."""
        if len(cones) >= 3:
            kind = _classified(cones).kind
            if kind != SPHERICAL_OR_BAD:
                counts[kind] += weight * completions_within[left]
                # per group, every choice of c of its outcomes; the sort below fixes the order
                picks = [combinations_with_replacement(group_items(g), c) for g, c in part]
                for choice in product(*picks):
                    chosen = sorted(Counter([pair for pick in choice for pair in pick]).items())
                    expanded.append((chosen, cones, kind, left))
        for i in range(start, len(groups)):
            e, m = group = groups[i]
            # later groups cost at least e, so past this no extension reaches three cones
            if e > left or len(cones) + left // e < 3:
                break
            at = bisect_right(cones, m)
            for c in range(1, left // e + 1):
                walk(i + 1, left - c * e, weight * comb(sizes[group] + c - 1, c),
                     cones[:at] + (m,) * c + cones[at:], part + ((group, c),))

    walk(0, euler_sum, 1, (), ())
    # every class with at most two cones, and every other spherical one, is the rest
    counts[SPHERICAL_OR_BAD] = sum(_multiset_counts(every)) - sum(counts.values())
    expanded.sort(key=lambda x: x[0])

    euclidean: list[SweepInstance] = []
    hyperbolic: list[SweepInstance] = []
    violations: list[str] = []
    most_left = max((left for *_, left in expanded), default=0)
    flat_items = [
        o
        for t in types
        if t.euler <= most_left
        for o in decoration_outcomes(t)
        if o.m == 1 and o.config.entries
    ]
    flat_eulers = [o.fiber.euler for o in flat_items]
    for pairs, cones, kind, left in expanded:
        cone_part = [(o, n) for (_, o), n in pairs]
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
