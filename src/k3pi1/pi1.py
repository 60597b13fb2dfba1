"""SL(2,Z) monodromy representations and coinvariant quotients of Z^2.

When the base orbifold of an elliptic fibration is simply connected,
the fundamental group of the open surface is the quotient of the fiber
lattice Z^2 by the subgroup generated by the images of I - T_j, where
T_j runs over the local monodromy matrices.  This module validates
such representations (determinant one, identity product, and an
optional per-entry consistency check against a declared Kodaira type
via the conjugation invariants trace and multiplicative order) and
computes the quotient from a triangular basis of the relation lattice.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable
from math import gcd

from .dynkin import _int_text
from .kodaira import KodairaType, Mat2

__all__ = [
    "Mat2",
    "IDENTITY",
    "MINUS_IDENTITY",
    "MonodromyRep",
    "AbelianGroup",
    "RepresentationError",
    "DetNotOne",
    "ProductNotIdentity",
    "ClassMismatch",
    "validate_representation",
    "coinvariant_quotient",
]


def __getattr__(name: str):
    # perfbench/worker.py traces lattice's smith_normal_form as pi1.smith_normal_form;
    # it is imported on first access, so `analyze` (through this module) never loads lattice
    if name != "smith_normal_form":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .lattice import smith_normal_form

    return smith_normal_form


IDENTITY: Mat2 = ((1, 0), (0, 1))
MINUS_IDENTITY: Mat2 = ((-1, 0), (0, -1))


class RepresentationError(ValueError):
    pass


class DetNotOne(RepresentationError):
    def __init__(self, index: int, det: int):
        super().__init__(f"matrix {index} has determinant {_int_text(det)}, expected 1")
        self.index = index


class ProductNotIdentity(RepresentationError):
    def __init__(self, product: Mat2):
        (p, q), (r, s) = (map(_int_text, row) for row in product)
        super().__init__(f"ordered product is (({p}, {q}), ({r}, {s})), expected the identity")
        self.product = product


class ClassMismatch(RepresentationError):
    def __init__(self, index: int, declared: KodairaType, actual: str):
        super().__init__(
            f"matrix {index} declared {declared.label} but its trace/order class is {actual}"
        )
        self.index = index


def _class_of(t: Mat2) -> str:
    """Printed trace/order class of a normalised determinant-one matrix.

    The trace decides everything for |trace| <= 2: traces 1, 0 and -1
    give the elements of multiplicative order 6, 4 and 3; trace 2 is the
    identity or a nontrivial unipotent (I_n), trace -2 minus either (I*_0,
    I*_n).  A hyperbolic element (|trace| > 2) is never a local monodromy.
    """
    tr = t[0][0] + t[1][1]
    if tr > 2 or tr < -2:
        return "unrecognized"
    if tr == 2:
        return "identity" if t == IDENTITY else "I_n"
    if tr == -2:
        return "I*_0" if t == MINUS_IDENTITY else "I*_n"
    return {1: "II/II*", 0: "III/III*", -1: "IV/IV*"}[tr]


class MonodromyRep(namedtuple("MonodromyRep", "matrices declared")):
    """An ordered tuple of 2x2 integer matrices, optionally annotated
    with the Kodaira type each entry is supposed to represent."""

    __slots__ = ()

    def __new__(
        cls, matrices: tuple[Mat2, ...], declared: tuple[KodairaType | None, ...] = ()
    ) -> "MonodromyRep":
        mats: list[Mat2] = []
        for m in matrices:
            if len(m) != 2 or any(len(row) != 2 for row in m):
                raise ValueError("expected a 2x2 matrix")
            mats.append(tuple(tuple(map(operator.index, row)) for row in m))
        declared = tuple(declared)
        if not declared:
            declared = (None,) * len(mats)
        if len(declared) != len(mats):
            raise ValueError("declared labels do not match the matrix count")
        return tuple.__new__(cls, (tuple(mats), declared))

    def __len__(self) -> int:
        return len(self.matrices)


def validate_representation(rep: MonodromyRep) -> tuple[str, ...]:
    """Check determinants, the identity product, and declared classes.

    Returns the per-matrix class names on success and raises
    DetNotOne / ProductNotIdentity / ClassMismatch otherwise, in that
    order of precedence, each at its first offending index.  One pass
    over the matrices, which `MonodromyRep` has already normalised.
    """
    p, q, r, s = 1, 0, 0, 1
    classes = []
    mismatch = None
    for idx, (t, label) in enumerate(zip(rep.matrices, rep.declared)):
        (a, b), (c, d) = t
        if a * d - b * c != 1:
            raise DetNotOne(idx, a * d - b * c)
        p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        cls = _class_of(t)
        classes.append(cls)
        if mismatch is None and label is not None and cls != _class_of(label.monodromy):
            mismatch = (idx, label, cls)
    if (p, q, r, s) != (1, 0, 0, 1):
        raise ProductNotIdentity(((p, q), (r, s)))
    if mismatch is not None:
        raise ClassMismatch(*mismatch)
    return tuple(classes)


class AbelianGroup(namedtuple("AbelianGroup", "invariant_factors")):
    """Finitely generated abelian group as invariant factors d_1 | d_2 | ...

    0 encodes a free factor; factors equal to 1 are dropped, zeros come
    last, so the trivial group is the empty tuple.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...] = ()) -> "AbelianGroup":
        factors = tuple(d for d in map(operator.index, invariant_factors) if d != 1)
        for d in factors:
            if d < 0:
                raise ValueError("invariant factors must be nonnegative")
        nonzero = [d for d in factors if d]
        zeros = [d for d in factors if d == 0]
        if tuple(nonzero + zeros) != factors:
            raise ValueError("zeros must come after the nonzero factors")
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain {factors}")
        return tuple.__new__(cls, (factors,))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int | None:
        if self.rank:
            return None
        total = 1
        for d in self.invariant_factors:
            total *= d
        return total

    def describe(self) -> str:
        if self.is_trivial:
            return "1"
        parts = []
        free = self.rank
        for d in self.invariant_factors:
            if d:
                parts.append(f"Z/{d}")
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append(f"Z^{free}")
        return " x ".join(parts)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u a + v b."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def coinvariant_quotient(
    rep: MonodromyRep, subset: Iterable[int] | None = None
) -> AbelianGroup:
    """Z^2 modulo the columns of I - T_j for j in the chosen subset.

    `subset` holds 0-based indices into the representation; None means
    all entries.  The empty subset leaves Z^2 untouched, encoded as
    invariant factors (0, 0).

    The columns are folded one at a time into a basis (a, b), (0, c) of
    the lattice they span: the extended gcd of the first coordinates
    gives the new (a, b), and the combination with first coordinate 0
    joins c.  The quotient is then Z/d1 x Z/d2 with d1 = gcd(a, b, c)
    and d1 d2 = |a c|, one free factor for each zero among a, c when
    d1 > 0, and Z^2 when the lattice is 0.  The fold stops once
    a = c = 1, as the columns then span Z^2.
    """
    k = len(rep.matrices)
    if subset is None:
        indices = range(k)
    else:
        indices = sorted(set(map(operator.index, subset)))
        for j in indices:
            if not 0 <= j < k:
                raise ValueError(f"subset index {j} out of range 0..{k - 1}")
    a = b = c = 0
    for j in indices:
        (p, q), (r, s) = rep.matrices[j]
        for x, y in ((1 - p, -r), (-q, 1 - s)):
            g, u, v = _ext_gcd(a, x)
            if g:
                a, b, c = g, u * b + v * y, gcd(c, x // g * b - a // g * y)
            else:
                c = gcd(c, y)
        if a == c == 1:  # the columns span Z^2: the quotient is trivial
            break
    d1 = gcd(a, b, c)
    if a and c:
        return AbelianGroup((d1, abs(a * c) // d1))
    return AbelianGroup((d1, 0) if d1 else (0, 0))
