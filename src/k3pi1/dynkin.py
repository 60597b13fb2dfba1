"""Du Val (ADE) singularity data and recognition of ADE diagrams.

A Du Val singularity is a quotient C^2/G for a finite subgroup G of
SL(2,C).  Its minimal resolution replaces the point by a configuration
of (-2)-curves whose dual graph is a Dynkin diagram of type A_n,
D_n (n >= 4), E_6, E_7 or E_8.  Each type carries two integers used
throughout the pipeline:

* rank n: the number of exceptional curves,
* delta: the order of the local fundamental group G
  (A_n: cyclic of order n+1; D_n: binary dihedral of order 4(n-2);
  E_6/E_7/E_8: binary tetrahedral/octahedral/icosahedral of orders
  24/48/120).

The delta table is validated in the test suite by brute-force closure
enumeration of the corresponding subgroups of SU(2) with exact
cyclotomic matrix entries.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from collections.abc import Hashable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "DuValType",
    "AdeConfig",
    "NotAdeError",
    "local_euler_contribution",
    "recognize_ade",
]

_LABEL_RE = re.compile(r"([ADE])([1-9][0-9]*)")
_E_DELTA = {6: 24, 7: 48, 8: 120}


def _int_text(x: object) -> str:
    """str(x), or for an integer past Python's int-to-str limit its bit length."""
    try:
        return str(x)
    except ValueError:
        if not isinstance(x, int):  # a container of such integers, say
            raise
        return f"<{'negative ' if x < 0 else ''}{x.bit_length()}-bit integer>"


class NotAdeError(ValueError):
    """A graph (or graph component) is not a disjoint union of ADE diagrams."""


class DuValType(namedtuple("DuValType", "kind n")):
    """A Dynkin label: kind in {A, D, E} with the usual rank restrictions.

    The rank n is an integer.  Ordered as the pair (kind, n)."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int) -> "DuValType":
        n = operator.index(n)
        if kind == "A":
            ok = n >= 1
        elif kind == "D":
            ok = n >= 4
        elif kind == "E":
            ok = n in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid Du Val type {_int_text(kind)}{_int_text(n)}")
        return tuple.__new__(cls, (kind, n))

    @property
    def rank(self) -> int:
        return self.n

    @property
    def delta(self) -> int:
        """Order of the local fundamental group."""
        if self.kind == "A":
            return self.n + 1
        if self.kind == "D":
            return 4 * (self.n - 2)
        return _E_DELTA[self.n]

    @property
    def label(self) -> str:
        return f"{self.kind}{self.n}"

    @classmethod
    def parse(cls, label: str) -> "DuValType":
        """Parse labels of the form "A12", "D4", "E8" (case-sensitive,
        ASCII digits, no leading zeros)."""
        m = _LABEL_RE.fullmatch(label)
        if not m:
            raise ValueError(f"invalid Du Val label {label!r}")
        return cls(m[1], int(m[2]))


class AdeConfig(namedtuple("AdeConfig", "entries")):
    """A multiset of Du Val types, stored as a canonically sorted tuple."""

    __slots__ = ()

    def __new__(cls, entries: tuple[DuValType, ...] = ()) -> "AdeConfig":
        return tuple.__new__(cls, (tuple(sorted(entries)),))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "AdeConfig":
        return cls(tuple(DuValType.parse(lab) for lab in labels))

    @property
    def rank(self) -> int:
        """Total number of exceptional curves, r."""
        return sum(t.rank for t in self.entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@lru_cache(maxsize=1024, typed=True)
def local_euler_contribution(t: DuValType) -> Fraction:
    """Contribution n + 1 - 1/delta of one singular point to the Euler number.

    Summed over all singular points this equals 24 minus the orbifold
    Euler number of the normal surface.
    """
    return Fraction(t.n + 1) - Fraction(1, t.delta)


def recognize_ade(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[DuValType]:
    """Classify a simple undirected graph as a disjoint union of ADE diagrams.

    Returns the component types in canonical sorted order, or raises
    NotAdeError naming the obstruction (cycle, high-degree vertex, two
    branch vertices, bad arm lengths, self-loop, repeated edge).
    """
    adj: dict[Hashable, set[Hashable]] = {v: set() for v in nodes}
    for u, v in edges:
        if u == v:
            raise NotAdeError(f"self-loop at {u!r}")
        if u not in adj or v not in adj:
            raise ValueError(f"edge ({u!r}, {v!r}) uses unknown vertex")
        if v in adj[u]:
            raise NotAdeError(f"repeated edge between {u!r} and {v!r}")
        adj[u].add(v)
        adj[v].add(u)

    types = []
    seen: set[Hashable] = set()
    for root in adj:  # components in node order: the first bad one raises
        if root in seen:
            continue
        seen.add(root)
        comp, stack = [], [root]
        while stack:
            v = stack.pop()
            comp.append(v)
            stack += [w for w in adj[v] if w not in seen]
            seen.update(adj[v])
        size = len(comp)
        if sum(len(adj[v]) for v in comp) >= 2 * size:
            raise NotAdeError(f"component of size {size} contains a cycle")
        if any(len(adj[v]) >= 4 for v in comp):
            raise NotAdeError("vertex of degree >= 4")
        branch = [v for v in comp if len(adj[v]) == 3]
        if not branch:
            types.append(DuValType("A", size))
            continue
        if len(branch) > 1:
            raise NotAdeError("more than one branch vertex")
        arms = []
        for cur in adj[branch[0]]:
            prev, length = branch[0], 1
            while len(adj[cur]) == 2:
                (nxt,) = adj[cur] - {prev}
                prev, cur, length = cur, nxt, length + 1
            arms.append(length)
        a, b, c = sorted(arms)
        if a == 1 and b == 1:
            types.append(DuValType("D", c + 3))
        elif (a, b) == (1, 2) and c in (2, 3, 4):
            types.append(DuValType("E", c + 4))
        else:
            raise NotAdeError(f"branch vertex with arm lengths {(a, b, c)}")
    return sorted(types)


def _multisets(
    items: Sequence, weights: Sequence[int], budget: int
) -> Iterator[tuple[list[tuple], int]]:
    """Every multiset of `items` whose total weight is at most `budget`.

    `weights[i]` is the weight of `items[i]`; weights must be positive
    and non-decreasing, so the walk stops at the first item that no
    longer fits.  Yields the (item, count) pairs chosen, items in list
    order and counts >= 1, and the budget left.  The order is depth
    first pre-order from the empty multiset: after a multiset come all
    its extensions by later items, item by item and each item's count
    rising from 1.  The yielded list is reused; copy it to keep it.
    """
    chosen: list[tuple] = []

    def rec(start: int, budget: int):
        yield chosen, budget
        for idx in range(start, len(items)):
            weight = weights[idx]
            if weight > budget:
                break
            count, left = 1, budget - weight
            while left >= 0:
                chosen.append((items[idx], count))
                yield from rec(idx + 1, left)
                chosen.pop()
                count, left = count + 1, left - weight

    return rec(0, budget)

