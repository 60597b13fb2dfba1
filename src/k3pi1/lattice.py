"""Exact integer lattice toolkit.

Smith normal form with unimodular transforms, the Gram matrix of the
rank-22 even unimodular lattice of signature (3,19), inertia signatures
by rational congruence, and bounded search for isotropic vectors (the
evidence side of Meyer's theorem on indefinite forms of rank >= 5).

No floating point is used anywhere: matrices are Python integers, and
one fraction-free congruence diagonaliser gives integer leading minors,
which yield the signature, the determinant (the last minor) and the
pivots of the search's anisotropy test.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import combinations
from math import gcd, isqrt, prod

__all__ = [
    "IntegerGram",
    "SnfResult",
    "MeyerReport",
    "smith_normal_form",
    "k3_gram",
    "signature",
    "isotropic_search",
    "meyer_gate",
]

Matrix = Sequence[Sequence[int]]


class IntegerGram(namedtuple("IntegerGram", "rows")):
    """A symmetric integer matrix viewed as the Gram matrix of a lattice."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> "IntegerGram":
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i}, {j})")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def from_rows(cls, rows: Matrix) -> "IntegerGram":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_even(self) -> bool:
        return all(self.rows[i][i] % 2 == 0 for i in range(self.dim))


class SnfResult(namedtuple("SnfResult", "u diagonal v")):
    """U A V = D with U, V unimodular and D the Smith normal form, stored
    as its diagonal; U, V and D are tuples of row tuples."""

    __slots__ = ()

    @property
    def d(self) -> tuple[tuple[int, ...], ...]:
        zero = (0,) * len(self.v)
        rows = [zero[:i] + (x,) + zero[i + 1 :] for i, x in enumerate(self.diagonal)]
        return tuple(rows) + (zero,) * (len(self.u) - len(rows))


def smith_normal_form(a: Matrix) -> SnfResult:
    """Smith normal form of an arbitrary rectangular integer matrix.

    Returns (U, diagonal of D, V) with U A V = D, |det U| = |det V| = 1,
    and D diagonal, nonnegative, with d1 | d2 | ... followed by zeros.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    # [A | U] over V: an operation on the first m rows moves A and U, one
    # on the first n columns moves A and V.  Rows of A above the pivot
    # are zero from its column on, so column operations start there.
    mat = [[*map(operator.index, row)] + [0] * m for row in a] + [[0] * n for _ in range(n)]
    for i in range(m):
        mat[i][n + i] = 1
    for i in range(n):
        mat[m + i][i] = 1

    def col_swap(t: int, j: int) -> None:
        for row in mat[t:]:
            row[t], row[j] = row[j], row[t]

    for t in range(min(m, n)):
        # smallest nonzero entry of the trailing block becomes the pivot,
        # the first in row-major order among equals
        best, size = None, 0
        for i in range(t, m):
            row = mat[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (x < size or not size):
                    best, size = (i, j), x
        if best is None:
            break
        i, j = best
        mat[t], mat[i] = mat[i], mat[t]
        if j != t:
            col_swap(t, j)

        while True:
            p = mat[t]
            for i in range(t + 1, m):
                if mat[i][t]:
                    q = mat[i][t] // p[t]
                    mat[i] = row = [x - q * y for x, y in zip(mat[i], p)]
                    if row[t]:  # a strictly smaller pivot: restart
                        mat[t], mat[i] = row, p
                        break
            else:
                for j in range(t + 1, n):
                    if p[j]:
                        q = p[j] // p[t]
                        for row in mat[t:]:
                            row[j] -= q * row[t]
                        if p[j]:
                            col_swap(t, j)
                            break
                else:
                    # pull the first row with an entry the pivot does not divide
                    # into row t, or the pivot is done
                    d = p[t]
                    bad = (i for i in range(t + 1, m) for x in mat[i][t + 1 : n] if x % d)
                    bad = next(bad, None)
                    if bad is None:
                        break
                    mat[t] = [x + y for x, y in zip(p, mat[bad])]

    for t in range(min(m, n)):
        if mat[t][t] < 0:
            mat[t] = [-x for x in mat[t]]

    return SnfResult(
        u=tuple(tuple(row[n:]) for row in mat[:m]),
        diagonal=tuple(mat[t][t] for t in range(min(m, n))),
        v=tuple(tuple(row) for row in mat[m:]),
    )


def k3_gram() -> IntegerGram:
    """Gram matrix of U + U + U + E8(-1) + E8(-1).

    The rank-22 even unimodular lattice of signature (3,19) carried by
    the second cohomology of a K3 surface.  E8(-1) is -2 on the diagonal
    and 1 per edge of the E8 diagram: the path 0..6 and vertex 7 on 2.
    """
    rows = [[0] * 22 for _ in range(22)]
    for at in (0, 2, 4):
        rows[at][at + 1] = rows[at + 1][at] = 1
    for at in (6, 14):
        for i in range(8):
            rows[at + i][at + i] = -2
        for i, j in [(i, i + 1) for i in range(6)] + [(2, 7)]:
            rows[at + i][at + j] = rows[at + j][at + i] = 1
    return IntegerGram.from_rows(rows)


def _pivots(rows: Matrix) -> tuple[list[int], int]:
    """Nonzero leading minors d_1..d_r of a Bareiss congruence diagonalisation
    (pivot k is d_k / d_(k-1), d_0 = 1), and the first step that met a zero
    diagonal entry, whose basis vector is then isotropic (n if none did).
    Until then no rows are swapped, so the first m pivots diagonalise the
    leading m x m block; past it, the rank-2 trick covers a zero diagonal."""
    n = len(rows)
    mat = [list(row) for row in rows]
    minors: list[int] = []
    prev = 1
    zero_at = n
    for k in range(n):
        if mat[k][k] == 0:
            zero_at = min(zero_at, k)
            swap = next((i for i in range(k + 1, n) if mat[i][i]), None)
            off = next((i for i in range(k + 1, n) if mat[k][i]), None)
            if swap is not None:
                mat[k], mat[swap] = mat[swap], mat[k]
                for row in mat:
                    row[k], row[swap] = row[swap], row[k]
            elif off is None:
                continue
            else:
                # both diagonals vanish: adding row/col `off` makes
                # the pivot 2 * mat[k][off] != 0
                for j in range(n):
                    mat[k][j] += mat[off][j]
                for i in range(n):
                    mat[i][k] += mat[i][off]
        pivot = mat[k][k]
        minors.append(pivot)
        # later steps read only the trailing block, prev times its Schur
        # complement: update it symmetrically (exact by Sylvester's identity)
        top = mat[k][k + 1 :]
        for row in mat[k + 1 :]:
            row[k + 1 :] = [(pivot * x - row[k] * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = pivot
    return minors, zero_at


def _inertia(minors: list[int], n: int) -> tuple[int, int, int]:
    pos = sum(1 for a, b in zip([1, *minors], minors) if (a > 0) == (b > 0))
    return (pos, len(minors) - pos, n - len(minors))


def signature(g: IntegerGram) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric integer matrix."""
    return _inertia(_pivots(g.rows)[0], g.dim)


def _odd_power_primes(m: int) -> list[int] | None:
    """Primes dividing m > 0 to an odd power; None past trial division to 2**16."""
    primes, d = [], 2
    while d * d <= m:
        if d >= 1 << 16:
            return None
        k, m = _split(m, d)
        if k % 2:
            primes.append(d)
        d += 1 if d == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def _split(a: int, p: int) -> tuple[int, int]:
    k = 0
    while a % p == 0:
        a, k = a // p, k + 1
    return k, a


def _hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p of nonzero integers (Serre III.1.2)."""
    (i, u), (j, v) = _split(a, p), _split(b, p)
    if p == 2:
        e = (u - 1) // 2 * ((v - 1) // 2) + i * (v * v - 1) // 8 + j * (u * u - 1) // 8
    else:
        e = i * j * (p - 1) // 2
        e += i * (pow(v, (p - 1) // 2, p) != 1) + j * (pow(u, (p - 1) // 2, p) != 1)
    return -1 if e % 2 else 1


def _anisotropic(minors: list[int]) -> bool:
    """True when the diagonal form with the pivots of these minors has no
    nonzero rational isotropic vector, by Hasse-Minkowski (Serre, A
    Course in Arithmetic, IV.2.2, IV.3.2): rank 2 iff -det is no square,
    rank 3 and 4 by local conditions at 2 and the primes of the pivots.
    A pivot out of trial-division reach leaves only the definiteness test.
    """
    # numerator times denominator of each pivot: its sign and square class
    classes = [a * b // gcd(a, b) ** 2 for a, b in zip([1, *minors], minors)]
    n = len(classes)
    pos = sum(1 for c in classes if c > 0)
    if pos in (0, n):
        return True
    if n == 2:
        q = -classes[0] * classes[1]
        return isqrt(q) ** 2 != q
    entries, primes = [], {2}
    for c in classes:
        odd = _odd_power_primes(abs(c)) if n < 5 else None
        if odd is None:  # rank >= 5 is isotropic (Meyer); else out of reach
            return False
        primes.update(odd)
        entries.append(prod(odd) if c > 0 else -prod(odd))
    d = prod(entries)
    for p in primes:
        eps = prod(_hilbert(a, b, p) for a, b in combinations(entries, 2))
        k, u = _split(d, p)
        square = k % 2 == 0 and (u % 8 == 1 if p == 2 else pow(u, (p - 1) // 2, p) == 1)
        # Serre IV.2.2, Theorem 6: the local conditions for rank 3 and 4
        if (n == 3 and _hilbert(-1, -d, p) != eps
                or n == 4 and square and eps != _hilbert(-1, -1, p)):
            return True
    return False


def _value_order(bound: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ..., bound, -bound, made one at a time, so a huge
    bound costs no memory where a cut answers first."""
    yield 0
    for v in range(1, bound + 1):
        yield v
        yield -v


def isotropic_search(g: IntegerGram, bound: int) -> tuple[int, ...] | None:
    """First nonzero x with |x_i| <= bound and x . G . x = 0, or None.

    Coordinates are explored in the order 0, 1, -1, 2, -2, ...; the
    first hit of the depth-first search is returned, which makes the
    result the minimum in the ordering that compares coordinates left
    to right by (absolute value, then positive before negative).

    Subtrees are cut when the exact reachable range of the remaining
    coordinates (per-coordinate quadratic extremes plus off-diagonal
    bounds) cannot cancel the value pinned down by the fixed prefix,
    and when the prefix is still zero but the trailing block of the
    form is anisotropic over Q (Hasse-Minkowski, Serre IV.2.2), so that
    no nonzero tail can vanish.  Neither cut removes a solution, so
    neither changes the returned vector.
    """
    return meyer_gate(g, bound).vector


class MeyerReport(namedtuple("MeyerReport", "signature bound vector")):
    """Outcome of the bounded isotropic search with the rank/indefiniteness
    hypotheses of Meyer's theorem spelled out: the signature (n_+, n_-,
    n_0), the search bound, and the isotropic vector found or None.

    An exhausted search under the hypotheses is only a bound warning,
    never a refutation: the theorem guarantees an isotropic vector
    exists, just not inside the box."""

    __slots__ = ()

    @property
    def hypotheses_hold(self) -> bool:
        pos, neg, _ = self.signature
        return pos > 0 and neg > 0 and pos + neg >= 5

    @property
    def hypotheses_hold_but_exhausted(self) -> bool:
        return self.hypotheses_hold and self.vector is None


def meyer_gate(g: IntegerGram, bound: int) -> MeyerReport:
    """Run the bounded search of `isotropic_search` and report it against
    the hypotheses of Meyer's theorem (indefinite, rank >= 5)."""
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    n = g.dim
    rows = g.rows
    # eliminating from the last coordinate, the first n - k pivots
    # diagonalise the trailing block rows[k:][k:]; all of them give the
    # inertia of the whole form (Sylvester's law)
    minors, zero_at = _pivots([row[::-1] for row in rows[::-1]])
    inertia = _inertia(minors, n)
    if n == 0:
        return MeyerReport(signature=inertia, bound=bound, vector=None)
    b2 = bound * bound
    # off_bound[k] = sum over k <= i < j of 2 |G_ij| B^2
    off_bound = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        off_bound[k] = off_bound[k + 1]
        for j in range(k + 1, n):
            off_bound[k] += 2 * abs(rows[k][j]) * b2
    tail_anisotropic = [n - k <= zero_at and _anisotropic(minors[: n - k]) for k in range(n)]

    # cross[i] = sum_{j < level} G[i][j] * x[j]; each level writes x[level]
    # and cross[level + 1:] before a deeper level reads them
    x = [0] * n
    cross = [0] * n

    def quad_range(c: int, a: int) -> tuple[int, int]:
        # extremes of a v^2 + 2 c v over integer v in [-B, B]: at +-B or beside -c/a
        lo = hi = 0
        near_vertex = ((-c) // a, (-c) // a + 1) if a else ()
        for v in (bound, -bound) + near_vertex:
            if -bound <= v <= bound:  # a clamped neighbour would be an end
                val = a * v * v + 2 * c * v
                lo = min(lo, val)
                hi = max(hi, val)
        return lo, hi

    def last_level(partial: int, nonzero: bool) -> int | None:
        # minimal root of a v^2 + 2 c v + partial = 0 in the value order
        a = rows[n - 1][n - 1]
        if a == 0:
            # G[n-1][n-1] = 0 sets zero_at to 0, which turns the anisotropy
            # cut off, and the range cut never drops partial 0; value 0 comes
            # first at every level, so this is the first leaf, with c = 0,
            # partial = 0 and no nonzero coordinate: (0, ..., 0, 1) is a root
            return 1
        c = cross[n - 1]
        disc = c * c - a * partial
        s = isqrt(max(disc, 0))
        if s * s != disc:  # no rational root
            return None
        roots = [num // a for num in {-c + s, -c - s} if num % a == 0]
        roots = [v for v in roots if abs(v) <= bound and (nonzero or v != 0)]
        return min(roots, key=lambda v: (abs(v), -v), default=None)

    def dfs(level: int, partial: int, nonzero: bool) -> tuple[int, ...] | None:
        if not nonzero and tail_anisotropic[level]:
            return None
        if level == n - 1:
            v = last_level(partial, nonzero)
            if v is None:
                return None
            x[level] = v
            return tuple(x)
        rmin = -off_bound[level]
        rmax = off_bound[level]
        for i in range(level, n):
            lo, hi = quad_range(cross[i], rows[i][i])
            rmin += lo
            rmax += hi
        if partial + rmin > 0 or partial + rmax < 0:
            return None
        saved = [cross[i] for i in range(level + 1, n)]
        for v in _value_order(bound):
            x[level] = v
            new_partial = partial + 2 * v * cross[level] + rows[level][level] * v * v
            for i in range(level + 1, n):
                cross[i] = saved[i - level - 1] + rows[i][level] * v
            hit = dfs(level + 1, new_partial, nonzero or v != 0)
            if hit is not None:
                return hit
        return None

    return MeyerReport(signature=inertia, bound=bound, vector=dfs(0, 0, False))
