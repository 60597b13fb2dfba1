"""Kodaira singular fiber tables and decorations.

Each singular fiber type of an elliptic surface carries: an ordered
list of components with multiplicities, the dual graph of the
components (edge weights are intersection numbers), a canonical SL(2,Z)
monodromy representative, and its Euler number.  A decoration marks a
proper subset of the components as "removed": the removed curves are
the ones contracted to Du Val points, the kept components determine the
cone order of the base orbifold as the gcd of their multiplicities.

Component naming, fixed once and for all:

* I_1 and II: a single component c0 (no nonempty decorations),
* I_n (n >= 2): a cycle c0..c{n-1}, all multiplicity 1 (for n = 2 the
  two components meet twice, recorded as one edge of weight 2),
* III: c0, c1 meeting tangentially (one edge of weight 2),
* IV: c0, c1, c2 through one point, modelled as three simple edges,
* I*_n: tails t1..t4 of multiplicity 1 and a chain c0..cn of
  multiplicity 2, with t1, t2 on c0 and t3, t4 on cn,
* IV*: center z of multiplicity 3 with three arms a1-a2, b1-b2, d1-d2
  of multiplicities 1-2,
* III*: chain c1..c7 of multiplicities 1,2,3,4,3,2,1 with a branch b1
  of multiplicity 2 on c4,
* II*: chain c1..c8 of multiplicities 1,2,3,4,5,6,4,2 with a branch b1
  of multiplicity 3 on c6.

The monodromy representatives are the usual ones: conjugation freedom
is deliberately not resolved here; consumers match matrices to types
only through conjugation invariants (trace and multiplicative order).
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from math import gcd

from .dynkin import AdeConfig, DuValType, NotAdeError, _multisets, recognize_ade

__all__ = [
    "KodairaType",
    "FiberData",
    "Decoration",
    "DecorationSummary",
    "FibrationSummary",
    "DecorationOutcome",
    "DecorationError",
    "UnknownComponent",
    "FullSupportRemoved",
    "NotAdeRemovedSet",
    "EulerSumMismatch",
    "fiber_data",
    "validate_decoration",
    "validate_k3_fibration",
    "decoration_outcomes",
    "K3_EULER_NUMBER",
]

K3_EULER_NUMBER = 24

_PLAIN = ("II", "III", "IV", "IV*", "III*", "II*")
_PLAIN_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
_LABEL_RE = re.compile(r"(I\*|I|II\*|II|III\*|III|IV\*|IV)(0|[1-9][0-9]*)?")

Mat2 = tuple[tuple[int, int], tuple[int, int]]


class DecorationError(ValueError):
    """Base class for invalid decorations and fibrations."""


class UnknownComponent(DecorationError):
    pass


class FullSupportRemoved(DecorationError):
    pass


class NotAdeRemovedSet(DecorationError):
    pass


class EulerSumMismatch(DecorationError):
    def __init__(self, actual: int):
        super().__init__(
            f"fiber Euler numbers sum to {actual}, a K3 surface needs {K3_EULER_NUMBER}"
        )
        self.actual = actual


class KodairaType(namedtuple("KodairaType", "base n")):
    """A Kodaira fiber label: I_n (n >= 1), II, III, IV, I*_n (n >= 0),
    IV*, III*, II*.  Ordered as the pair (base, n)."""

    __slots__ = ()

    def __new__(cls, base: str, n: int | None = None) -> "KodairaType":
        if base == "I":
            if n is None or n < 1:
                raise ValueError(f"type I needs n >= 1, got {n}")
        elif base == "I*":
            if n is None or n < 0:
                raise ValueError(f"type I* needs n >= 0, got {n}")
        elif base in _PLAIN:
            if n is not None:
                raise ValueError(f"type {base} takes no index")
        else:
            raise ValueError(f"invalid Kodaira base {base!r}")
        return tuple.__new__(cls, (base, n))

    @property
    def label(self) -> str:
        if self.n is None:
            return self.base
        return f"{self.base}{self.n}"

    @property
    def euler(self) -> int:
        if self.base == "I":
            return self.n
        if self.base == "I*":
            return self.n + 6
        return _PLAIN_EULER[self.base]

    @classmethod
    def parse(cls, label: str) -> "KodairaType":
        """Parse "I3", "I*0", "IV*", ...: ASCII index digits, no leading zeros."""
        m = _LABEL_RE.fullmatch(label)
        if not m:
            raise ValueError(f"invalid Kodaira label {label!r}")
        base, digits = m.groups()
        if base in ("I", "I*"):
            if not digits:
                raise ValueError(f"label {label!r} needs an index")
            return cls(base, int(digits))
        if digits:
            raise ValueError(f"label {label!r} takes no index")
        return cls(base)

    def __str__(self) -> str:
        return self.label


class FiberData(namedtuple("FiberData", "fiber components dual_graph monodromy euler")):
    """Canonical table entry for one Kodaira fiber type: the components
    as (id, multiplicity) pairs, the dual graph as (id, id, weight)
    edges, the monodromy matrix and the Euler number."""

    __slots__ = ()

    @property
    def component_ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.components)

    def multiplicity(self, cid: str) -> int:
        for c, m in self.components:
            if c == cid:
                return m
        raise KeyError(cid)


def _monodromy(t: KodairaType) -> Mat2:
    if t.base == "I":
        return ((1, t.n), (0, 1))
    if t.base == "I*":
        return ((-1, -t.n), (0, -1))
    return {
        "II": ((1, 1), (-1, 0)),
        "III": ((0, 1), (-1, 0)),
        "IV": ((0, 1), (-1, -1)),
        "IV*": ((-1, -1), (1, 0)),
        "III*": ((0, -1), (1, 0)),
        "II*": ((0, -1), (1, 1)),
    }[t.base]


def _build_fiber(t: KodairaType) -> FiberData:
    comps: list[tuple[str, int]] = []
    edges: list[tuple[str, str, int]] = []
    if t.base == "I":
        n = t.n
        if n == 1:
            comps = [("c0", 1)]
        elif n == 2:
            comps = [("c0", 1), ("c1", 1)]
            edges = [("c0", "c1", 2)]
        else:
            comps = [(f"c{i}", 1) for i in range(n)]
            edges = [(f"c{i}", f"c{(i + 1) % n}", 1) for i in range(n)]
    elif t.base == "II":
        comps = [("c0", 1)]
    elif t.base == "III":
        comps = [("c0", 1), ("c1", 1)]
        edges = [("c0", "c1", 2)]
    elif t.base == "IV":
        comps = [("c0", 1), ("c1", 1), ("c2", 1)]
        edges = [("c0", "c1", 1), ("c0", "c2", 1), ("c1", "c2", 1)]
    elif t.base == "I*":
        n = t.n
        comps = [("t1", 1), ("t2", 1), ("t3", 1), ("t4", 1)]
        comps += [(f"c{i}", 2) for i in range(n + 1)]
        edges = [("t1", "c0", 1), ("t2", "c0", 1)]
        edges += [(f"c{i}", f"c{i + 1}", 1) for i in range(n)]
        edges += [("t3", f"c{n}", 1), ("t4", f"c{n}", 1)]
    elif t.base == "IV*":
        comps = [("z", 3)]
        for arm in ("a", "b", "d"):
            comps += [(f"{arm}1", 1), (f"{arm}2", 2)]
            edges += [(f"{arm}1", f"{arm}2", 1), (f"{arm}2", "z", 1)]
    elif t.base == "III*":
        mults = [1, 2, 3, 4, 3, 2, 1]
        comps = [(f"c{i + 1}", m) for i, m in enumerate(mults)]
        comps.append(("b1", 2))
        edges = [(f"c{i}", f"c{i + 1}", 1) for i in range(1, 7)]
        edges.append(("b1", "c4", 1))
    else:  # II*
        mults = [1, 2, 3, 4, 5, 6, 4, 2]
        comps = [(f"c{i + 1}", m) for i, m in enumerate(mults)]
        comps.append(("b1", 3))
        edges = [(f"c{i}", f"c{i + 1}", 1) for i in range(1, 8)]
        edges.append(("b1", "c6", 1))
    mono = _monodromy(t)
    det = mono[0][0] * mono[1][1] - mono[0][1] * mono[1][0]
    assert det == 1, t.label
    return FiberData(
        fiber=t,
        components=tuple(comps),
        dual_graph=tuple(edges),
        monodromy=mono,
        euler=t.euler,
    )


@lru_cache(maxsize=None)
def fiber_data(t: KodairaType) -> FiberData:
    """Canonical component/multiplicity/monodromy data for a fiber type."""
    return _build_fiber(t)


class Decoration(namedtuple("Decoration", "fiber removed")):
    """A fiber type plus the set of component ids marked as removed."""

    __slots__ = ()

    def __new__(cls, fiber: KodairaType, removed: frozenset[str] = frozenset()) -> "Decoration":
        return tuple.__new__(cls, (fiber, frozenset(removed)))

    @property
    def is_trivial(self) -> bool:
        return not self.removed


class DecorationSummary(namedtuple("DecorationSummary", "decoration m removed_config")):
    """A validated decoration with its kept gcd m and removed ADE config."""

    __slots__ = ()


def validate_decoration(d: Decoration) -> DecorationSummary:
    """Check a decoration and compute (kept gcd m, removed ADE config).

    The removed set must be a proper subset of the components and its
    induced subgraph must be a disjoint union of ADE diagrams with no
    repeated intersections.  m is the gcd of the multiplicities of the
    kept components.  With nothing removed the decoration is valid and
    m = 1, since every fiber type has a component of multiplicity 1
    (the tests check this against the tables), so no table is built:
    an undecorated fiber costs O(1) whatever its n.
    """
    if not d.removed:
        return DecorationSummary(decoration=d, m=1, removed_config=AdeConfig())
    data = fiber_data(d.fiber)
    ids = set(data.component_ids)
    unknown = d.removed - ids
    if unknown:
        raise UnknownComponent(
            f"{d.fiber.label}: unknown component(s) {sorted(unknown)}"
        )
    if d.removed == ids:
        raise FullSupportRemoved(
            f"{d.fiber.label}: the removed set must be a proper subset of the fiber"
        )
    kept = [m for cid, m in data.components if cid not in d.removed]
    m = 0
    for mult in kept:
        m = gcd(m, mult)
    induced = []
    for u, v, w in data.dual_graph:
        if u in d.removed and v in d.removed:
            if w > 1:
                raise NotAdeRemovedSet(
                    f"{d.fiber.label}: components {u}, {v} meet {w} times"
                )
            induced.append((u, v))
    try:
        types = recognize_ade(sorted(d.removed), induced)
    except NotAdeError as exc:
        raise NotAdeRemovedSet(f"{d.fiber.label}: {exc}") from exc
    return DecorationSummary(decoration=d, m=m, removed_config=AdeConfig(tuple(types)))


class FibrationSummary(namedtuple("FibrationSummary", "summaries config euler_total")):
    """Aggregate of a validated list of decorated fibers: their
    summaries, the sum of the removed configs, and the Euler total."""

    __slots__ = ()

    @property
    def r(self) -> int:
        return self.config.rank

    @property
    def cone_multiplicities(self) -> tuple[int, ...]:
        """m_j of the decorated (nonempty removed set) fibers, input order."""
        return tuple(s.m for s in self.summaries if not s.decoration.is_trivial)


def validate_k3_fibration(fibers: Sequence[Decoration]) -> FibrationSummary:
    """Validate decorations and require the fiber Euler numbers to sum to 24."""
    summaries = tuple(validate_decoration(d) for d in fibers)
    total = sum(s.decoration.fiber.euler for s in summaries)
    if total != K3_EULER_NUMBER:
        raise EulerSumMismatch(total)
    config = AdeConfig()
    for s in summaries:
        config = config + s.removed_config
    return FibrationSummary(summaries=summaries, config=config, euler_total=total)


# ----------------------------------------------------------------------
# decoration outcome classes (used by the exhaustive trichotomy sweep)


class DecorationOutcome(namedtuple("DecorationOutcome", "fiber m config removed")):
    """One class of decorations of a fiber type.

    Decorations are grouped by their observable result (m, removed
    config); `removed` holds one representative subset.
    """

    __slots__ = ()


# An outcome key is (m, pieces) with pieces the sorted (kind, n) pairs
# of the removed config: keys order exactly as (m, config entries) do.
# Each key enumerator maps its keys to a recipe for one representative
# removed set: the removed ids themselves for II ... II*, the arc
# lengths for I_n, and (a, p, b, s, arcs) for I*_n.
OutcomeKey = tuple[int, tuple[tuple[str, int], ...]]


def _removed_ids(base: str, ids: list[str], recipe) -> list[str]:
    """The removed ids a recipe stands for, given the fiber's component ids."""
    if base == "I":
        return _arc_ids(ids, recipe, 0)
    if base == "I*":
        a, p, b, s, arcs = recipe
        tails, chain = ids[:4], ids[4:]
        return (
            tails[:a] + tails[2 : 2 + b] + chain[:p] + chain[len(chain) - s :]
            + _arc_ids(chain, arcs, p + 1)
        )
    return recipe


def _build_outcomes(
    t: KodairaType, keys: dict[OutcomeKey, object]
) -> tuple[DecorationOutcome, ...]:
    """One outcome per key, in key order, with the removed set of the
    key's recipe as its representative."""
    ids = list(fiber_data(t).component_ids)
    types: dict[tuple[str, int], DuValType] = {}
    outcomes = []
    for key in sorted(keys):
        m, pieces = key
        for p in pieces:
            if p not in types:
                types[p] = DuValType(*p)
        config = AdeConfig(tuple(types[p] for p in pieces))
        removed = frozenset(_removed_ids(t.base, ids, keys[key]))
        outcomes.append(DecorationOutcome(t, m, config, removed))
    return tuple(outcomes)


def _subset_keys(t: KodairaType) -> dict[OutcomeKey, list[str]]:
    ids = fiber_data(t).component_ids
    keys: dict[OutcomeKey, list[str]] = {}
    for mask in range(2 ** len(ids) - 1):
        removed = [cid for k, cid in enumerate(ids) if mask >> k & 1]
        summary = validate_decoration(Decoration(t, removed))
        pieces = tuple((e.kind, e.n) for e in summary.removed_config.entries)
        keys.setdefault((summary.m, pieces), removed)
    return keys


def _arc_multisets(budget: int) -> Iterator[list[int]]:
    """Multisets of arc lengths l_i >= 1 with sum(l_i + 1) <= budget,
    each as a non-decreasing list."""
    for parts, _ in _multisets(range(1, budget), range(2, budget + 1), budget):
        yield [length for length, count in parts for _ in range(count)]


def _arc_ids(ids: list[str], arcs: Sequence[int], pos: int) -> list[str]:
    """The ids[pos:] covered by arcs laid out from pos, one kept between."""
    removed = []
    for length in arcs:
        removed += ids[pos : pos + length]
        pos += length + 1
    return removed


def _cycle_keys(n: int) -> dict[OutcomeKey, list[int]]:
    """Outcome keys of I_n, n >= 1, without subset enumeration.

    Removed sets are disjoint unions of arcs of the n-cycle with at
    least one kept component between consecutive arcs; the outcome is
    the multiset of arc lengths, always with m = 1, and each multiset
    is generated once.
    """
    return {(1, tuple(("A", length) for length in arcs)): arcs for arcs in _arc_multisets(n)}


def _istar_end(tails: int, run: int) -> tuple[tuple[str, int], ...]:
    """Pieces formed at one end of the I*_n chain by the removed tails
    there and the end run of `run` chain components."""
    if run == 0:
        return (("A", 1),) * tails
    if tails < 2:
        return (("A", run + tails),)
    return (("A", 3),) if run == 1 else (("D", run + 2),)


def _istar_keys(n: int) -> dict[OutcomeKey, tuple]:
    """Outcome keys of I*_n without subset enumeration.

    A removed set is either the whole chain with a + b tails, or (a
    tails at the c0 end, b tails at the cn end, a prefix run of p chain
    components from c0, a suffix run of s from cn, interior runs).  End
    runs absorb the removed tails at their end; interior runs give A
    pieces.  m = 2 exactly when all four tails are removed, since the
    kept chain components all have multiplicity 2.

    Many choices give the same outcome.  The pieces at the two ends and
    m form a head; of all (a, p, b, s) with the same head, among them
    the mirror images (b, s, a, p), only the one leaving the most room
    for interior runs is expanded, and the first recipe of each key is
    kept.
    """
    chain = n + 1
    heads: dict[OutcomeKey, tuple[int, int, int, int, int]] = {}
    keys: dict[OutcomeKey, tuple] = {}
    for a in range(3):
        for b in range(3):
            m = 2 if a == b == 2 else 1
            if m == 1:  # the whole chain: an end run taking in the other end's tails
                key = (1, _istar_end(max(a, b), chain + min(a, b)))
                keys.setdefault(key, (a, chain, b, 0, ()))
            for p in range(chain):
                for s in range(chain - p):
                    head = (m, tuple(sorted(_istar_end(a, p) + _istar_end(b, s))))
                    room = chain - p - s - 1
                    if heads.get(head, (-1,))[0] < room:
                        heads[head] = (room, a, p, b, s)

    interiors: dict[int, list] = {}
    for (m, head), (room, a, p, b, s) in heads.items():
        if room not in interiors:
            interiors[room] = [
                (arcs, tuple(("A", length) for length in arcs))
                for arcs in _arc_multisets(room)
            ]
        for arcs, pieces in interiors[room]:
            key = (m, tuple(sorted(head + pieces)))
            if key not in keys:
                keys[key] = (a, p, b, s, arcs)
    return keys


def _outcome_keys(t: KodairaType) -> dict[OutcomeKey, object]:
    """Every outcome key of a fiber type, each with one recipe."""
    if t.base == "I*":
        return _istar_keys(t.n)
    if t.base == "I":
        return _cycle_keys(t.n)
    return _subset_keys(t)


@lru_cache(maxsize=None)
def decoration_outcomes(t: KodairaType) -> tuple[DecorationOutcome, ...]:
    """All decoration classes of a fiber type, one representative each,
    sorted by (m, removed config).

    Every I_n and I*_n uses the structural enumerations above, which
    find each outcome once; the tests check them against brute force.
    Only II ... II*, with at most 9 components, are enumerated by brute
    force over subsets.
    """
    return _build_outcomes(t, _outcome_keys(t))


@lru_cache(maxsize=None)
def _outcome_counts(t: KodairaType) -> Counter[int]:
    """m -> number of nontrivial outcomes of a fiber type.

    I_n and I*_n are counted from their plain keys, so no outcome object
    is built; II ... II* count their small brute-force tables.
    """
    if t.base in ("I", "I*"):
        return Counter(m for m, pieces in _outcome_keys(t) if pieces)
    return Counter(o.m for o in decoration_outcomes(t) if o.config.entries)
