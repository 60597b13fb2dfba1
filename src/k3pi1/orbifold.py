"""Genus-zero 2-orbifold classification.

A sphere with cone points of orders m_1 <= ... <= m_k is governed by
its orbifold Euler characteristic chi = 2 - sum(1 - 1/m_j):

* chi > 0 or k <= 2: the orbifold fundamental group is finite
  (trivial for k <= 1, cyclic of order gcd(m_1, m_2) for k = 2, a
  spherical von Dyck group of order 2/chi for k >= 3),
* chi = 0: euclidean, exactly the signatures (2,3,6), (2,4,4),
  (3,3,3) and (2,2,2,2),
* chi < 0: hyperbolic, the group is an infinite Fuchsian group.

The test suite double-checks the group orders by an independent
Todd-Coxeter coset enumeration (tests/oracles.py) on the presentation

    < g_1, ..., g_k | g_j^{m_j}, g_1 g_2 ... g_k >.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .dynkin import _int_text

__all__ = [
    "OrbifoldSignature",
    "OrbifoldClass",
    "SPHERICAL_OR_BAD",
    "EUCLIDEAN",
    "HYPERBOLIC",
    "EUCLIDEAN_SIGNATURES",
    "orbifold_euler_characteristic",
    "classify",
]

SPHERICAL_OR_BAD = "spherical_or_bad"
EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"

EUCLIDEAN_SIGNATURES = frozenset(
    {(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2)}
)


class OrbifoldSignature(namedtuple("OrbifoldSignature", "cone_orders")):
    """Multiset of cone point orders, stored sorted with 1s dropped."""

    __slots__ = ()

    def __new__(cls, cone_orders: tuple[int, ...] = ()) -> "OrbifoldSignature":
        orders = []
        for m in map(operator.index, cone_orders):
            if m < 1:
                raise ValueError(f"cone order must be >= 1, got {_int_text(m)}")
            if m > 1:
                orders.append(m)
        return tuple.__new__(cls, (tuple(sorted(orders)),))

    @classmethod
    def parse(cls, text: str) -> "OrbifoldSignature":
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(part) for part in text.split(",")))


def orbifold_euler_characteristic(s: OrbifoldSignature) -> Fraction:
    """chi = 2 - sum(1 - 1/m) over the cone orders, exactly."""
    chi = Fraction(2)
    for m in s.cone_orders:
        chi -= 1 - Fraction(1, m)
    return chi


class OrbifoldClass(namedtuple("OrbifoldClass", "kind order", defaults=(None,))):
    """Classification result; `order` is the group order in the
    spherical-or-bad case and None otherwise."""

    __slots__ = ()


def classify(s: OrbifoldSignature) -> OrbifoldClass:
    """Finite / euclidean / hyperbolic trichotomy of the signature.

    Few cone points make the group finite regardless of chi (trivial
    for k <= 1, cyclic of order gcd for k = 2, the "bad" orbifolds
    included); from three cone points on, the sign of chi decides, and
    2/chi is the (integer) order of the spherical von Dyck group.  Both
    are read in integers from chi times the lcm of the cone orders.
    """
    orders = s.cone_orders
    if len(orders) == 0 or len(orders) == 1:
        return OrbifoldClass(SPHERICAL_OR_BAD, 1)
    if len(orders) == 2:
        return OrbifoldClass(SPHERICAL_OR_BAD, gcd(orders[0], orders[1]))
    den = lcm(*orders)
    num = (2 - len(orders)) * den + sum(den // m for m in orders)  # chi * den
    if num > 0:
        g = gcd(2 * den, num)
        if g != num:
            raise AssertionError(
                f"positive chi with non-integer 2/chi at {orders}: {2 * den // g}/{num // g}"
            )
        return OrbifoldClass(SPHERICAL_OR_BAD, 2 * den // num)
    if num == 0:
        if orders not in EUCLIDEAN_SIGNATURES:
            raise AssertionError(f"chi = 0 outside the euclidean table: {orders}")
        return OrbifoldClass(EUCLIDEAN)
    return OrbifoldClass(HYPERBOLIC)
