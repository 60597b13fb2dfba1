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
from collections.abc import Iterator, Sequence, Set as AbstractSet
from functools import lru_cache
from itertools import accumulate
from math import gcd

# recognize_ade is not used here, but perfbench/worker.py traces it as
# kodaira.recognize_ade, so the name stays importable from this module
from .dynkin import AdeConfig, DuValType, _multisets, recognize_ade  # noqa: F401

__all__ = [
    "KodairaType",
    "FiberData",
    "Decoration",
    "DecorationSummary",
    "DecorationOutcome",
    "DecorationError",
    "UnknownComponent",
    "FullSupportRemoved",
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
# An outcome key is (m, pieces) with pieces the sorted (kind, n) pairs of
# the removed config: keys order exactly as (m, config entries) do.
OutcomeKey = tuple[int, tuple[tuple[str, int], ...]]


class DecorationError(ValueError):
    """Base class for invalid decorations and fibrations."""


class UnknownComponent(DecorationError):
    pass


class FullSupportRemoved(DecorationError):
    pass


def _int_text(x: int) -> str:
    """str(x), or its bit length where str() passes Python's int-to-str limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{'negative ' if x < 0 else ''}{x.bit_length()}-bit integer>"


class EulerSumMismatch(DecorationError):
    def __init__(self, actual: int):
        super().__init__(
            f"fiber Euler numbers sum to {_int_text(actual)}, a K3 surface needs {K3_EULER_NUMBER}"
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


# IV*, III*, II*: paths of components meeting once, in fiber order,
# through a center of multiplicity k; along each of the three arms the
# multiplicity falls by k / (arm length + 1) per step.
_STARS = {
    "IV*": ("z", 3, ("z", "a1 a2 z", "b1 b2 z", "d1 d2 z")),
    "III*": ("c4", 4, ("c1 c2 c3 c4 c5 c6 c7", "b1 c4")),
    "II*": ("c6", 6, ("c1 c2 c3 c4 c5 c6 c7 c8", "b1 c6")),
}
_CYCLES = {"II": 1, "III": 2, "IV": 3}  # c0.. as a 1-, 2- and 3-cycle
_TAILS = ("t1", "t2", "t3", "t4")
_du_val = lru_cache(maxsize=1024)(DuValType)  # pieces recur: build each type once
_NO_CONFIG = AdeConfig()  # shared by every undecorated fiber


@lru_cache(maxsize=None)
def _star(base: str) -> tuple[str, list[list[str]], dict[str, int]]:
    """A star fiber's center, its arms as ids outward from the center,
    and the multiplicity of each id."""
    center, k, paths = _STARS[base]
    arms = []
    for path in paths:
        ids = path.split()
        at = ids.index(center)
        arms += [arm for arm in (ids[:at][::-1], ids[at + 1 :]) if arm]
    mult = {center: k}
    for arm in arms:
        for depth, cid in enumerate(arm):
            mult[cid] = k * (len(arm) - depth) // (len(arm) + 1)
    return center, arms, mult


def _build_fiber(t: KodairaType) -> FiberData:
    comps: list[tuple[str, int]] = []
    edges: list[tuple[str, str, int]] = []
    n = _CYCLES.get(t.base, t.n)
    if t.base == "IV":
        comps = [("c0", 1), ("c1", 1), ("c2", 1)]
        edges = [("c0", "c1", 1), ("c0", "c2", 1), ("c1", "c2", 1)]
    elif t.base in ("I", "II", "III"):
        comps = [(f"c{i}", 1) for i in range(n)]
        if n == 2:
            edges = [("c0", "c1", 2)]
        elif n > 2:
            edges = [(f"c{i}", f"c{(i + 1) % n}", 1) for i in range(n)]
    elif t.base == "I*":
        comps = [(tail, 1) for tail in _TAILS] + [(f"c{i}", 2) for i in range(n + 1)]
        edges = [("t1", "c0", 1), ("t2", "c0", 1)]
        edges += [(f"c{i}", f"c{i + 1}", 1) for i in range(n)]
        edges += [("t3", f"c{n}", 1), ("t4", f"c{n}", 1)]
    else:
        mult = _star(t.base)[2]
        paths = [path.split() for path in _STARS[t.base][2]]
        comps = [(cid, mult[cid]) for cid in dict.fromkeys(c for path in paths for c in path)]
        edges = [(u, v, 1) for path in paths for u, v in zip(path, path[1:])]
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


# a sweep reads the three star tables; `kodaira info` builds I_n and I*_n
# tables of up to 10^5 components, so only the most recent few are kept
@lru_cache(maxsize=32)
def fiber_data(t: KodairaType) -> FiberData:
    """Canonical component/multiplicity/monodromy data for a fiber type."""
    return _build_fiber(t)


class Decoration(namedtuple("Decoration", "fiber removed")):
    """A fiber type plus the set of component ids marked as removed."""

    __slots__ = ()

    def __new__(cls, fiber: KodairaType, removed: frozenset[str] = frozenset()) -> "Decoration":
        return tuple.__new__(cls, (fiber, frozenset(removed)))


class DecorationSummary(namedtuple("DecorationSummary", "decoration m removed_config")):
    """A validated decoration with its kept gcd m and removed ADE config."""

    __slots__ = ()


def _runs(indices: list[int]) -> list[list[int]]:
    """The maximal runs [start, length] of consecutive indices, in order."""
    runs: list[list[int]] = []
    for i in sorted(indices):
        if runs and sum(runs[-1]) == i:
            runs[-1][1] += 1
        else:
            runs.append([i, 1])
    return runs


def _removed_key(t: KodairaType, removed: AbstractSet[str]) -> OutcomeKey:
    """The outcome key (m, pieces) of a removed set, read from its ids
    by the fiber's shape without building the fiber's table.

    Raises UnknownComponent, naming every id that is not exactly one of
    the fiber's, and then FullSupportRemoved.  A cycle's removed
    indices form arcs, joined across the wrap; on I*_n the end runs of
    the chain take in the removed tails at their end (`_istar_end`); on
    a star, the center and the removed runs x <= y <= z next to it on
    its arms form one piece, A when x = 0, D when y = 1, E otherwise.
    """
    if t.base in _STARS:
        center, arms, mult = _star(t.base)
        unknown, size = removed.difference(mult), len(mult)
    else:
        length = t.n + 1 if t.base == "I*" else _CYCLES.get(t.base, t.n)
        indices, unknown = [], []
        for cid in removed:
            try:  # exactly c{i}: "c01", "c+1" and non-ASCII digits are no id
                i = int(cid[1:])
            except (TypeError, ValueError):
                i = -1
            if 0 <= i < length and cid == f"c{i}":
                indices.append(i)
            elif t.base != "I*" or cid not in _TAILS:
                unknown.append(cid)
        size = length + 4 * (t.base == "I*")
    if unknown:
        raise UnknownComponent(f"{t.label}: unknown component(s) {sorted(unknown)}")
    if len(removed) == size:
        raise FullSupportRemoved(
            f"{t.label}: the removed set must be a proper subset of the fiber"
        )

    if t.base in _STARS:
        m = gcd(*[k for cid, k in mult.items() if cid not in removed])
        pieces, attached = [], []
        for arm in arms:
            runs = _runs([depth for depth, cid in enumerate(arm, 1) if cid in removed])
            if center in removed:
                attached.append(runs.pop(0)[1] if runs and runs[0][0] == 1 else 0)
            pieces += [("A", run) for _, run in runs]
        if attached:
            x, y, _ = sorted(attached)
            pieces.append(("A" if x == 0 else "D" if y == 1 else "E", 1 + sum(attached)))
        return m, tuple(sorted(pieces))

    runs = _runs(indices)
    if t.base != "I*":
        if len(runs) > 1 and runs[0][0] == 0 and sum(runs[-1]) == length:
            runs[0][1] += runs.pop()[1]
        return 1, tuple(sorted(("A", run) for _, run in runs))
    a = ("t1" in removed) + ("t2" in removed)
    b = ("t3" in removed) + ("t4" in removed)
    if runs and runs[0][1] == length:  # the whole chain, with a + b < 4 tails
        return 1, _istar_end(max(a, b), length + min(a, b))
    p = runs.pop(0)[1] if runs and runs[0][0] == 0 else 0
    s = runs.pop()[1] if runs and sum(runs[-1]) == length else 0
    pieces = _istar_end(a, p) + _istar_end(b, s) + tuple(("A", run) for _, run in runs)
    return 2 if a == b == 2 else 1, tuple(sorted(pieces))


def validate_decoration(d: Decoration) -> DecorationSummary:
    """Check a decoration and compute (kept gcd m, removed ADE config).

    The removed set must be a proper subset of the components; m is the
    gcd of the multiplicities of the kept components.  Both are read
    from the removed ids by the fiber's shape, without its component
    table (`_removed_key`): a cycle (I_n, and II, III, IV as the 1-, 2-
    and 3-cycle c0..), the chain and four tails of I*_n, or the center
    and three arms of IV*, III*, II*.  A decoration of I_n or I*_n so
    costs O(r log r) for r removed ids, whatever n is; with nothing
    removed it is valid with m = 1, since every fiber type has a
    component of multiplicity 1 (the tests check this against the
    tables).  Every fiber's dual graph is an affine Dynkin diagram, and
    an affine Dynkin diagram less any vertex is a disjoint union of
    finite ADE diagrams, so every proper removed set is ADE.
    """
    if not d.removed:
        return DecorationSummary(decoration=d, m=1, removed_config=_NO_CONFIG)
    m, pieces = _removed_key(d.fiber, d.removed)
    return DecorationSummary(
        decoration=d, m=m, removed_config=AdeConfig(tuple([_du_val(*p) for p in pieces]))
    )


def validate_k3_fibration(fibers: Sequence[Decoration]) -> tuple[DecorationSummary, ...]:
    """Validate decorations and require the fiber Euler numbers to sum to 24."""
    summaries = tuple(validate_decoration(d) for d in fibers)
    total = sum(s.decoration.fiber.euler for s in summaries)
    if total != K3_EULER_NUMBER:
        raise EulerSumMismatch(total)
    return summaries


# ----------------------------------------------------------------------
# decoration outcome classes (used by the exhaustive trichotomy sweep)


class DecorationOutcome(namedtuple("DecorationOutcome", "fiber m config removed")):
    """One class of decorations of a fiber type.

    Decorations are grouped by their observable result (m, removed
    config); `removed` holds one representative subset.
    """

    __slots__ = ()


def _subset_keys(t: KodairaType) -> dict[OutcomeKey, list[str]]:
    """Outcome keys of a star fiber, by brute force over its proper subsets."""
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


def _cycle_keys(n: int) -> dict[OutcomeKey, list[str]]:
    """Outcome keys of the n-cycle c0..c{n-1}: I_n, and II, III, IV for
    n = 1, 2, 3, without subset enumeration.

    Removed sets are disjoint unions of arcs of the n-cycle with at
    least one kept component between consecutive arcs; the outcome is
    the multiset of arc lengths, always with m = 1, and each multiset
    is generated once, with its arcs laid out from c0.
    """
    ids = [f"c{i}" for i in range(n)]
    return {
        (1, tuple(("A", length) for length in arcs)): _arc_ids(ids, arcs, 0)
        for arcs in _arc_multisets(n)
    }


def _istar_end(tails: int, run: int) -> tuple[tuple[str, int], ...]:
    """Pieces formed at one end of the I*_n chain by the removed tails
    there and the end run of `run` chain components."""
    if run == 0:
        return (("A", 1),) * tails
    if tails < 2:
        return (("A", run + tails),)
    return (("A", 3),) if run == 1 else (("D", run + 2),)


def _istar_keys(n: int) -> dict[OutcomeKey, list[str]]:
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
    for interior runs is expanded, and the first removed set of each
    key is kept.
    """
    chain = n + 1
    ids = [f"c{i}" for i in range(chain)]
    heads: dict[OutcomeKey, tuple[int, int, int, int, int]] = {}
    keys: dict[OutcomeKey, list[str]] = {}
    for a in range(3):
        for b in range(3):
            m = 2 if a == b == 2 else 1
            if m == 1:  # the whole chain: an end run taking in the other end's tails
                key = (1, _istar_end(max(a, b), chain + min(a, b)))
                keys.setdefault(key, [*_TAILS[:a], *_TAILS[2 : 2 + b], *ids])
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
        removed = [*_TAILS[:a], *_TAILS[2 : 2 + b], *ids[:p], *ids[chain - s :]]
        for arcs, pieces in interiors[room]:
            key = (m, tuple(sorted(head + pieces)))
            if key not in keys:
                keys[key] = removed + _arc_ids(ids, arcs, p + 1)
    return keys


def _outcome_keys(t: KodairaType) -> dict[OutcomeKey, list[str]]:
    """Every outcome key of a fiber type, each with one removed set."""
    if t.base == "I*":
        return _istar_keys(t.n)
    if t.base in _STARS:
        return _subset_keys(t)
    return _cycle_keys(_CYCLES.get(t.base, t.n))


@lru_cache(maxsize=None)
def decoration_outcomes(t: KodairaType) -> tuple[DecorationOutcome, ...]:
    """All decoration classes of a fiber type, one representative each,
    sorted by (m, removed config).

    Cycles (I_n, and II, III, IV as in `validate_decoration`) and I*_n
    use the structural enumerations above, which find each outcome
    once; the tests check them against brute force.  Only IV*, III*
    and II*, with at most 9 components, are enumerated by brute force
    over subsets.
    """
    return tuple(
        DecorationOutcome(t, m, AdeConfig(tuple([_du_val(*p) for p in pieces])), frozenset(ids))
        for (m, pieces), ids in sorted(_outcome_keys(t).items())
    )


# Counting I_n and I*_n outcomes without their keys.  A removed set of
# I_n is a multiset of arcs A_l, each costing l + 1 cycle components (the
# arc and the kept component after it), of total cost at most n.  A
# removed set of I*_n short of the whole chain is laid out as in
# _istar_keys: a piece at each end, one kept chain component, and
# interior arcs A_l at cost l + 1, all within L - 1 of the L = n + 1
# chain components.  Against an interior arc, an end with at most one
# removed tail holds one A piece or nothing, and saves 2 (A_l from a tail
# and a run of l - 1); an end with both tails holds 2 A1 (run 0, saving
# 4), A3 (run 1, saving 3) or D_k (run k - 2), and m = 2 exactly when
# both ends do.  So an outcome is its 0 to 2 D pieces and a multiset X
# of A pieces, and it exists iff its cheapest layout costs at most L - 1.


def _most_saved(p: int, a1: int, a3: int) -> int:
    """The most that the ends of an m = 1 layout without D pieces save
    on a nonempty X of p pieces, a1 of them A1 and a3 of them A3 (p
    capped at 3): two ends of at most one tail each, or both tails at
    one end holding 2 A1 or A3."""
    return max(
        2 * min(p, 2),
        4 + 2 * (p >= 3) if a1 >= 2 else 0,
        3 + 2 * (p >= 2) if a3 else 0,
    )


@lru_cache(maxsize=None)
def _arc_counts(size: int) -> tuple[list[int], list[int], list[int]]:
    """For each n < size: the number of arc multisets of cost at most n
    (the empty one included), and the numbers of I*_n outcomes with
    m = 1 (whole-chain ones left out) and with m = 2.

    One table counts the multisets X of A pieces by interior cost and
    the capped state (pieces <= 3, A1s <= 4, A3s <= 2) that decides
    what the ends can save; A1 and A3 are added last, while few states
    are live.  The counts follow by cheapest layout cost, with each D_k
    costing k - 2 >= 2.
    """
    top = size + 7  # the largest interior cost that a saving of 8 brings below size
    rows = [Counter() for _ in range(top + 1)]
    rows[0][0, 0, 0] = 1
    for length in sorted(range(1, top), key=lambda l: l in (1, 3)):
        for cost in range(length + 1, top + 1):
            row = rows[cost]
            for (p, a1, a3), k in rows[cost - length - 1].items():
                row[min(p + 1, 3), min(a1 + (length == 1), 4), min(a3 + (length == 3), 2)] += k

    # by layout cost: all X; X at m = 1 and at m = 2 without D pieces;
    # X beside one D piece, at m = 1 and at m = 2
    arcs, one, two, one_d, two_d = ([0] * (top + 1) for _ in range(5))
    for cost, row in enumerate(rows):
        for (p, a1, a3), k in row.items():
            arcs[cost] += k
            one_d[cost - 2 * (p > 0)] += k
            if p:
                one[cost - _most_saved(p, a1, a3)] += k
            if a1 >= 4 or a3 >= 2 or (a1 >= 2 and a3):
                two[cost - (8 if a1 >= 4 else 7 if a1 >= 2 and a3 else 6)] += k
            if a1 >= 2 or a3:
                two_d[cost - (4 if a1 >= 2 else 3)] += k
    for budget in range(size):
        for d in range(2, budget + 1):  # one D piece of cost d, or two of total cost d
            one[budget] += one_d[budget - d]
            two[budget] += two_d[budget - d] + (d // 2 - 1) * arcs[budget - d]
    return tuple(list(accumulate(counts[:size])) for counts in (arcs, one, two))


@lru_cache(maxsize=None)
def _outcome_counts(t: KodairaType) -> Counter[int]:
    """m -> number of nontrivial outcomes of a fiber type.

    I_n and I*_n are read from the cumulative counts of `_arc_counts`,
    built once for every n below the next power of two (at least 32),
    without building any key; `_cycle_keys` and `_istar_keys` are their
    test oracle.  II ... II* count their small outcome tables.
    """
    if t.base in ("I", "I*"):
        arcs, one, two = _arc_counts(1 << max(5, t.n.bit_length()))
        if t.base == "I":
            return +Counter({1: arcs[t.n] - 1})  # less the empty multiset
        # the whole chain with a and b tails (not both 2) is one piece, new
        # unless a shorter layout gives it: a lone A_k costs k - 1 (1 for
        # A3 between two tails), a lone D_k k - 2
        tails = [(a, b) for a in range(3) for b in range(3) if (a, b) != (2, 2)]
        whole = {_istar_end(max(a, b), t.n + 1 + min(a, b)) for a, b in tails}
        costs = [k - 1 - (k == 3) if kind == "A" else k - 2 for ((kind, k),) in whole]
        return +Counter({1: one[t.n] + sum(cost > t.n for cost in costs), 2: two[t.n]})
    return Counter(o.m for o in decoration_outcomes(t) if o.config.entries)
