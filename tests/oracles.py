"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and kept separate from the
library so the two sides of each check share no code:

* exact cyclotomic arithmetic and closure enumeration of finite
  subgroups of SU(2), used to validate the Du Val delta table,
* cofactor-expansion determinants, k x k minor gcds and the plain
  matrix product, used to validate Smith normal forms, and a
  determinant by Fraction elimination for the larger matrices,
* the congruence diagonalisation over Fraction (pivots and the first
  zero diagonal step), used to validate the integer leading minors,
* full-grid isotropic vector search without pruning, and the value
  x.G.x of a form,
* 2x2 integer matrix powering, and the monodromy representation check
  as three separate passes (determinants, product, declared classes),
* Todd-Coxeter coset enumeration, used to validate the orbifold group
  orders,
* the Du Val types of each rank with their Cartan determinants, the
  negated Cartan Gram matrix of a list of them, and every multiset of
  them within a rank budget,
* bare `analyze` (rank, orbifold Euler number from a delta table of
  its own, rank gate and verdict),
* fibered `analyze`: the Kodaira fibers drawn from their classical
  pictures, the removed ADE types read off positive definite Cartan
  matrices, the kept gcds, e_orb and the base orbifold's class, and for
  a monodromy representation the three-pass check and the quotient of
  Z^2 from the minor gcds of its relation matrix,
* the generating function counting sweep classes, and a count per
  kind by a table over (Euler number, cone multiset),
* the orbifold kind and group order of a cone-order signature by the
  sign of chi in Fraction, and the signatures within an Euler budget,
  from the smallest Euler number of an outcome with each cone order.

Nothing here imports k3pi1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd


# ----------------------------------------------------------------------
# integer polynomials (coefficient lists, low degree first)


def _poly_divmod_exact(a, b):
    """Divide integer polynomials; b must be monic and divide a exactly."""
    a = list(a)
    db = len(b) - 1
    assert b[-1] == 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        q[i - db] = c
        for j in range(db + 1):
            a[i - db + j] -= c * b[j]
    assert all(c == 0 for c in a), "non-exact polynomial division"
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CycField:
    """Q(zeta_n) with elements as coefficient tuples modulo Phi_n."""

    def __init__(self, n: int):
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.deg = len(self.phi) - 1

    def reduce(self, coeffs) -> tuple[Fraction, ...]:
        c = [Fraction(x) for x in coeffs]
        for i in range(len(c) - 1, self.deg - 1, -1):
            top = c[i]
            if top:
                for j in range(self.deg + 1):
                    c[i - self.deg + j] -= top * self.phi[j]
        c = c[: self.deg]
        c += [Fraction(0)] * (self.deg - len(c))
        return tuple(c)

    def zero(self):
        return self.reduce([])

    def one(self):
        return self.reduce([1])

    def rational(self, q):
        return self.reduce([Fraction(q)])

    def zeta(self, k: int = 1):
        """zeta_n^k in the power basis."""
        k %= self.n
        return self.reduce([0] * k + [1])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.deg)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self.reduce(prod)


def _mat2_mul(field, a, b):
    """2x2 matrices over a CycField stored as 4-tuples (row major)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    m, ad = field.mul, field.add
    return (
        ad(m(a00, b00), m(a01, b10)),
        ad(m(a00, b01), m(a01, b11)),
        ad(m(a10, b00), m(a11, b10)),
        ad(m(a10, b01), m(a11, b11)),
    )


def closure_order(field, generators, limit: int = 4096) -> int:
    """Order of the matrix group generated by closing under products."""
    identity = (field.one(), field.zero(), field.zero(), field.one())
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for h in generators:
                p = _mat2_mul(field, g, h)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        if len(seen) > limit:
            raise RuntimeError(f"closure exceeded {limit} elements")
        frontier = new
    return len(seen)


def _quaternion_matrix(field, i_unit, a, b, c, d):
    """The SU(2) image of a + bi + cj + dk; a,b,c,d are field elements."""
    top_left = field.add(a, field.mul(b, i_unit))
    top_right = field.add(c, field.mul(d, i_unit))
    bot_left = field.add(field.neg(c), field.mul(d, i_unit))
    bot_right = field.sub(a, field.mul(b, i_unit))
    return (top_left, top_right, bot_left, bot_right)


def binary_group_order(kind: str, n: int) -> int:
    """Order of the finite SL(2,C) subgroup attached to a Du Val type.

    Enumerated by closure from standard generators with exact
    cyclotomic entries; completely independent of the library's tables.
    """
    if kind == "A":
        field = CycField(n + 1)
        z = field.zeta(1)
        zinv = field.zeta(n)
        g = (z, field.zero(), field.zero(), zinv)
        return closure_order(field, [g])
    if kind == "D":
        m = n - 2
        field = CycField(2 * m)
        z = field.zeta(1)
        zinv = field.zeta(2 * m - 1)
        x = (z, field.zero(), field.zero(), zinv)
        j = (field.zero(), field.one(), field.rational(-1), field.zero())
        return closure_order(field, [x, j])
    if kind == "E" and n == 6:
        field = CycField(4)
        i_unit = field.zeta(1)
        half = Fraction(1, 2)
        omega = _quaternion_matrix(
            field,
            i_unit,
            field.rational(half),
            field.rational(half),
            field.rational(half),
            field.rational(half),
        )
        qi = _quaternion_matrix(
            field, i_unit, field.zero(), field.one(), field.zero(), field.zero()
        )
        return closure_order(field, [omega, qi])
    if kind == "E" and n == 7:
        field = CycField(8)
        i_unit = field.zeta(2)
        half = Fraction(1, 2)
        omega = _quaternion_matrix(
            field,
            i_unit,
            field.rational(half),
            field.rational(half),
            field.rational(half),
            field.rational(half),
        )
        # (1 + i)/sqrt(2) = zeta_8 acts diagonally
        s = (field.zeta(1), field.zero(), field.zero(), field.zeta(7))
        return closure_order(field, [omega, s])
    if kind == "E" and n == 8:
        field = CycField(20)
        i_unit = field.zeta(5)
        # sqrt(5) as the quadratic Gauss sum over the 5th roots of unity
        sqrt5 = field.reduce([0])
        for k, sign in ((1, 1), (2, -1), (3, -1), (4, 1)):
            term = field.zeta(4 * k)
            sqrt5 = field.add(sqrt5, term if sign > 0 else field.neg(term))
        assert field.mul(sqrt5, sqrt5) == field.rational(5)
        one = field.one()
        half = field.rational(Fraction(1, 2))
        phi = field.mul(field.add(one, sqrt5), half)  # golden ratio
        phi_inv = field.mul(field.sub(sqrt5, one), half)
        omega = _quaternion_matrix(field, i_unit, half, half, half, half)
        q = _quaternion_matrix(
            field,
            i_unit,
            field.mul(phi, half),
            field.mul(phi_inv, half),
            half,
            field.zero(),
        )
        return closure_order(field, [omega, q])
    raise ValueError(f"no generator data for {kind}{n}")


# ----------------------------------------------------------------------
# integer matrix oracles


def det_cofactor(rows) -> int:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        a = rows[0][j]
        if a == 0:
            continue
        minor = [
            [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
        ]
        total += (-1) ** j * a * det_cofactor(minor)
    return total


def det_exact(rows) -> int:
    """Determinant by Gaussian elimination over Fraction, swapping in the
    first row with a nonzero entry when a pivot vanishes."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for k in range(n):
        i = next((i for i in range(k, n) if mat[i][k]), None)
        if i is None:
            return 0
        if i != k:
            mat[k], mat[i] = mat[i], mat[k]
            det = -det
        det *= mat[k][k]
        for i in range(k + 1, n):
            f = mat[i][k] / mat[k][k]
            if f:
                for j in range(k, n):
                    mat[i][j] -= f * mat[k][j]
    assert det.denominator == 1
    return int(det)


def fraction_pivots(rows) -> tuple[list[Fraction], int]:
    """Nonzero pivots of a congruence diagonalisation over Fraction, and
    the first step that met a zero diagonal entry (the dimension if none
    did).  A zero diagonal entry takes the next nonzero diagonal entry's
    row and column in its place; with none, a nonzero entry in its row is
    added in (the rank-2 step), and a zero row is skipped."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[Fraction] = []
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
        pivots.append(pivot)
        # later steps read only the trailing block: update it symmetrically
        for i in range(k + 1, n):
            f = mat[i][k] / pivot
            if f:
                for j in range(k + 1, n):
                    mat[i][j] -= f * mat[k][j]
    return pivots, zero_at


def minors_gcd(rows, k: int) -> int:
    """gcd of all k x k minors (0 if every minor vanishes)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, det_cofactor(sub))
            if g == 1:
                return 1
    return g


def mat_mul(a, b) -> list[list[int]]:
    """Integer matrix product."""
    m = len(a)
    inner = len(b)
    if m and inner != len(a[0]):
        raise ValueError("dimension mismatch")
    n = len(b[0]) if inner else 0
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(n):
                    orow[j] += aik * brow[j]
    return out


def evaluate_form(rows, x) -> int:
    """The value x . G . x of the form with Gram rows G."""
    n = len(rows)
    if len(x) != n:
        raise ValueError("vector dimension mismatch")
    return sum(rows[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def brute_isotropic(rows, bound: int):
    """All nonzero vectors x with |x_i| <= bound and x.G.x = 0."""
    n = len(rows)
    # the nonzero entries on and above the diagonal, off-diagonal ones doubled
    terms = [
        (i, j, rows[i][j] * (1 if i == j else 2))
        for i in range(n)
        for j in range(i, n)
        if rows[i][j]
    ]
    found = []
    for x in itertools.product(range(-bound, bound + 1), repeat=n):
        if not any(x):
            continue
        if sum(c * x[i] * x[j] for i, j, c in terms) == 0:
            found.append(x)
    return found


def mat2_mul(a, b):
    """The product of two 2x2 integer matrices, as nested tuples."""
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat2_power_order(t, limit: int = 12):
    """Multiplicative order of a 2x2 integer matrix, or None if > limit."""
    ident = ((1, 0), (0, 1))
    cur = t
    for k in range(1, limit + 1):
        if cur == ident:
            return k
        cur = mat2_mul(cur, t)
    return None


_PLAIN_MONODROMY = {
    "II": ((1, 1), (-1, 0)),
    "III": ((0, 1), (-1, 0)),
    "IV": ((0, 1), (-1, -1)),
    "IV*": ((-1, -1), (1, 0)),
    "III*": ((0, -1), (1, 0)),
    "II*": ((0, -1), (1, 1)),
}


def fiber_monodromy(base: str, n=None):
    """Kodaira's canonical monodromy of the fiber type (base, n)."""
    if base == "I":
        return ((1, n), (0, 1))
    if base == "I*":
        return ((-1, -n), (0, -1))
    return _PLAIN_MONODROMY[base]


def monodromy_class(t) -> str:
    """The trace/order class name of a determinant-one 2x2 matrix."""
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    if det != 1:
        raise ValueError(f"matrix has determinant {det}, expected 1")
    tr = t[0][0] + t[1][1]
    if tr == 2:
        return "identity" if t == ((1, 0), (0, 1)) else "I_n"
    if tr == -2:
        return "I*_0" if t == ((-1, 0), (0, -1)) else "I*_n"
    return {1: "II/II*", 0: "III/III*", -1: "IV/IV*"}.get(tr, "unrecognized")


class RepresentationRejected(ValueError):
    """A rejected representation: the error class name, the offending
    index (None for the product) and the message."""

    def __init__(self, kind: str, index, message: str):
        super().__init__(message)
        self.kind, self.index = kind, index


def three_pass_validate(matrices, declared) -> tuple[str, ...]:
    """The class names of a monodromy representation, checked in three
    passes: every determinant, then the ordered product, then each
    declared (base, n) fiber type (None: undeclared) against its
    matrix's class.  Raises RepresentationRejected otherwise."""
    for idx, t in enumerate(matrices):
        det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
        if det != 1:
            raise RepresentationRejected(
                "DetNotOne", idx, f"matrix {idx} has determinant {det}, expected 1"
            )
    product = ((1, 0), (0, 1))
    for t in matrices:
        product = tuple(
            tuple(sum(product[i][k] * t[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    if product != ((1, 0), (0, 1)):
        raise RepresentationRejected(
            "ProductNotIdentity", None, f"ordered product is {product}, expected the identity"
        )
    classes = tuple(monodromy_class(t) for t in matrices)
    for idx, (cls, fiber) in enumerate(zip(classes, declared)):
        if fiber is not None and cls != monodromy_class(fiber_monodromy(*fiber)):
            label = fiber[0] if fiber[1] is None else f"{fiber[0]}{fiber[1]}"
            raise RepresentationRejected(
                "ClassMismatch",
                idx,
                f"matrix {idx} declared {label} but its trace/order class is {cls}",
            )
    return classes


# ----------------------------------------------------------------------
# Todd-Coxeter coset enumeration

_SENT = -1


class _CosetLimit(Exception):
    pass


def coset_enumeration_order(
    ngens: int, relators: list[list[int]], limit: int
) -> int | None:
    """Order of <g_0..g_{ngens-1} | relators>, or None if the
    enumeration does not close within `limit` defined cosets.

    Relator words use symbol 2*g for generator g and 2*g + 1 for its
    inverse.  The coset table keeps inverse edges consistent on
    creation and handles coincidences with a union-find merge, so a
    closed table is a genuine permutation representation and the count
    of live cosets is the group order.
    """
    width = 2 * ngens
    for rel in relators:
        for sym in rel:
            if not 0 <= sym < width:
                raise ValueError(f"relator symbol {sym} out of range")
    parent: list[int] = []
    table: list[list[int]] = []

    def new_coset() -> int:
        if len(parent) >= limit:
            raise _CosetLimit
        parent.append(len(parent))
        table.append([_SENT] * width)
        return len(parent) - 1

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def step(c: int, sym: int) -> int:
        c = find(c)
        d = table[c][sym]
        if d == _SENT:
            d = new_coset()
            table[c][sym] = d
            table[d][sym ^ 1] = c
        return find(d)

    def unify(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            row_a, row_b = table[a], table[b]
            for sym in range(width):
                nb = row_b[sym]
                if nb == _SENT:
                    continue
                na = row_a[sym]
                if na == _SENT:
                    row_a[sym] = nb
                else:
                    stack.append((na, nb))

    try:
        new_coset()
        visit = 0
        while visit < len(parent):
            if find(visit) == visit:
                for rel in relators:
                    c = find(visit)
                    d = c
                    for sym in rel:
                        d = step(d, sym)
                    unify(d, c)
            visit += 1
    except _CosetLimit:
        return None
    return sum(1 for c in range(len(parent)) if find(c) == c)


def group_order_oracle(orders: tuple[int, ...], limit: int) -> int | None:
    """Coset enumeration on <g_1..g_k | g_j^{m_j}, g_1...g_k> for the
    cone orders m_j.

    Returns the exact group order when the enumeration closes within
    `limit` cosets, None (inconclusive) otherwise.  Only desk-scale
    signatures are accepted: at most 4 cone points of order at most 8.
    """
    k = len(orders)
    if k > 4:
        raise ValueError(f"oracle accepts at most 4 cone points, got {k}")
    if any(m > 8 for m in orders):
        raise ValueError(f"oracle accepts cone orders up to 8, got {orders}")
    if limit < 1:
        raise ValueError("limit must be positive")
    relators = [[2 * j] * m for j, m in enumerate(orders)]
    relators.append([2 * j for j in range(k)])
    return coset_enumeration_order(k, relators, limit)


def gf_coefficients(eulers, budget: int) -> list[int]:
    """The coefficients of degree 0..budget of prod 1/(1 - x^e) over the
    given Euler numbers, taken one item at a time: the number of
    multisets of the items with each total Euler number."""
    ways = [1] + [0] * budget
    for e in eulers:
        for b in range(e, budget + 1):
            ways[b] += ways[b - e]
    return ways


def gf_total(eulers, budget: int) -> int:
    """The number of multisets of the items with total Euler number at
    most the budget."""
    return sum(gf_coefficients(eulers, budget))


def orbifold_chi(orders) -> Fraction:
    """The orbifold Euler characteristic 2 - sum(1 - 1/m) of the sphere
    with these cone points."""
    return 2 - sum(1 - Fraction(1, m) for m in orders)


def cone_kind(orders) -> str:
    """The sign of `orbifold_chi`: "spherical_or_bad" when positive,
    "euclidean" when zero, "hyperbolic" when negative."""
    chi = orbifold_chi(orders)
    return "spherical_or_bad" if chi > 0 else "euclidean" if chi == 0 else "hyperbolic"


def orbifold_class(orders) -> tuple[str, int | None]:
    """(kind, group order) of the sphere with these cone points, orders 1
    dropped: trivial for at most one cone point, cyclic of order gcd for
    two, else the kind by the sign of chi and, when chi > 0, the order
    2/chi; the order is None for an infinite group."""
    cones = [m for m in orders if m > 1]
    if len(cones) <= 2:
        return "spherical_or_bad", gcd(*cones) if len(cones) == 2 else 1
    kind = cone_kind(cones)
    if kind != "spherical_or_bad":
        return kind, None
    order = 2 / orbifold_chi(cones)
    assert order.denominator == 1, cones
    return kind, order.numerator


def sweep_counts_by_kind(items, budget: int) -> dict:
    """The number of multisets of outcomes with total Euler number at most
    the budget, per kind of their cone orders.

    `items` holds the (Euler number, cone order m) of every nontrivial
    outcome.  The cone items (m >= 2) go one at a time through a table
    over (Euler number used, sorted cone multiset); the m = 1 items only
    fill what is left of the budget and are counted one at a time by
    `gf_coefficients`.
    """
    flat = list(itertools.accumulate(gf_coefficients([e for e, m in items if m == 1], budget)))
    table = [{} for _ in range(budget + 1)]  # table[used]: cone multiset -> count
    table[0][()] = 1
    for e, m in items:
        if m == 1:
            continue
        for used in range(budget - e + 1):  # rising, so an item can repeat
            grown = table[used + e]
            for cones, n in table[used].items():
                key = tuple(sorted(cones + (m,)))
                grown[key] = grown.get(key, 0) + n
    counts = dict.fromkeys(("spherical_or_bad", "euclidean", "hyperbolic"), 0)
    for used, by_cones in enumerate(table):
        for cones, n in by_cones.items():
            counts[cone_kind(cones)] += n * flat[budget - used]
    return counts


def cone_signatures_by_cost(min_euler, budget: int) -> dict:
    """Every cone-order multiset whose cheapest realization fits the
    budget, as sorted orders -> (cost, kind).

    `min_euler[m]` is the smallest Euler number of a fiber outcome with
    cone order m; a signature costs the sum of these over its cone
    points, every other fiber being left undecorated.  The kind is
    `cone_kind` of the cone orders.
    """
    orders = sorted(min_euler)
    found = {}

    def rec(start, chosen, cost):
        found[tuple(chosen)] = (cost, cone_kind(chosen))
        for idx in range(start, len(orders)):
            m = orders[idx]
            if cost + min_euler[m] <= budget:
                rec(idx, chosen + [m], cost + min_euler[m])

    rec(0, [], 0)
    return found


# ----------------------------------------------------------------------
# Du Val types and bare input


def ade_types(max_rank: int) -> list[tuple[str, int]]:
    """The Du Val types (kind, n) of rank 1..max_rank, by rank, then A, D, E."""
    return [
        (kind, n)
        for n in range(1, max_rank + 1)
        for kind in "ADE"
        if kind == "A" or kind == "D" and n >= 4 or kind == "E" and 6 <= n <= 8
    ]


def cartan_det(kind: str, n: int) -> int:
    """Determinant of the Cartan matrix of a Du Val type, from the
    classical table: A_n n + 1, D_n 4, E_6 3, E_7 2, E_8 1."""
    return {"A": n + 1, "D": 4, "E": 9 - n}[kind]


def neg_cartan_gram(types) -> list[list[int]]:
    """Block-diagonal negated Cartan matrix of Du Val types (kind, n):
    -2 on the diagonal and 1 per edge of each Dynkin diagram, which is
    the path 0..n-2 with vertex n-1 hung off vertex n-2 (A_n), n-3 (D_n)
    or 2 (E_n)."""
    size = sum(n for _, n in types)
    out = [[0] * size for _ in range(size)]
    start = 0
    for kind, n in types:
        branch = {"A": n - 2, "D": n - 3, "E": 2}[kind]
        edges = [(i, i + 1) for i in range(n - 2)] + ([(branch, n - 1)] if n > 1 else [])
        for i in range(n):
            out[start + i][start + i] = -2
        for i, j in edges:
            out[start + i][start + j] = out[start + j][start + i] = 1
        start += n
    return out


def ade_multisets(max_rank: int):
    """Every multiset of Du Val types with total rank <= max_rank, once
    each, as a sorted tuple of (kind, n) pairs; the empty one first."""
    types = ade_types(max_rank)

    def rec(start, budget, chosen):
        yield tuple(sorted(chosen))
        for idx in range(start, len(types)):
            if types[idx][1] <= budget:
                yield from rec(idx, budget - types[idx][1], chosen + [types[idx]])

    yield from rec(0, max_rank, [])


def du_val_delta(kind: str, n: int) -> int:
    """Order of the local fundamental group: cyclic n + 1, binary
    dihedral 4(n - 2), binary tetrahedral, octahedral, icosahedral."""
    return {"A": n + 1, "D": 4 * (n - 2), "E": {6: 24, 7: 48, 8: 120}.get(n)}[kind]


def bare_analysis(types) -> tuple[int, Fraction, bool, str | None]:
    """(r, e_orb, rank gate passes, verdict) of bare ADE input.

    e_orb = 24 - sum(n + 1 - 1/delta); r <= 15 forces a finite group,
    otherwise e_orb = 0 means a torus cover and anything else is left
    undecided (None)."""
    r = sum(n for _, n in types)
    e_orb = 24 - sum(n + 1 - Fraction(1, du_val_delta(kind, n)) for kind, n in types)
    passes = r <= 15
    verdict = "FiniteFundamentalGroup" if passes else "TorusCover" if e_orb == 0 else None
    return r, e_orb, passes, verdict


# ----------------------------------------------------------------------
# fibered input


# the star fibers as paths meeting once, in the package's naming: the
# components along each path with their multiplicities
_STAR_PATHS = {
    "IV*": [["a1", "a2", "z"], ["b1", "b2", "z"], ["d1", "d2", "z"]],
    "III*": [[f"c{i}" for i in range(1, 8)], ["b1", "c4"]],
    "II*": [[f"c{i}" for i in range(1, 9)], ["b1", "c6"]],
}
_STAR_MULTIPLICITY = {
    "IV*": {"z": 3, "a2": 2, "b2": 2, "d2": 2, "a1": 1, "b1": 1, "d1": 1},
    "III*": dict(zip([f"c{i}" for i in range(1, 8)] + ["b1"], [1, 2, 3, 4, 3, 2, 1, 2])),
    "II*": dict(zip([f"c{i}" for i in range(1, 9)] + ["b1"], [1, 2, 3, 4, 5, 6, 4, 2, 3])),
}
_STAR_EULER = {"IV*": 8, "III*": 9, "II*": 10}


def kodaira_fiber(base: str, n: int | None = None) -> tuple[dict, list, int]:
    """(multiplicity of each component id, dual graph, Euler number) of a
    Kodaira fiber, drawn from its classical picture.  The dual graph lists
    one (id, id) pair per intersection point, so two components meeting
    twice (I_2) or tangentially (III) appear twice, and the nodal I_1 has
    a loop.  IV's three lines through one point are drawn as a triangle."""
    if base in _STAR_PATHS:
        edges = [(u, v) for path in _STAR_PATHS[base] for u, v in zip(path, path[1:])]
        return dict(_STAR_MULTIPLICITY[base]), edges, _STAR_EULER[base]
    if base == "I*":
        chain = [f"c{i}" for i in range(n + 1)]
        mult = {"t1": 1, "t2": 1, "t3": 1, "t4": 1, **{c: 2 for c in chain}}
        edges = [("t1", "c0"), ("t2", "c0"), ("t3", chain[-1]), ("t4", chain[-1])]
        return mult, edges + list(zip(chain, chain[1:])), n + 6
    size, euler = {"II": (1, 2), "III": (2, 3), "IV": (3, 4)}.get(base, (n, n))
    ids = [f"c{i}" for i in range(size)]
    if base == "II":
        edges = []  # a cuspidal curve
    elif base == "III":
        edges = [("c0", "c1")] * 2
    else:  # the cycle of I_n, the loop of I_1, the triangle of IV
        edges = [(ids[i], ids[(i + 1) % size]) for i in range(size)]
    return dict.fromkeys(ids, 1), edges, euler


def ade_components(nodes, edges) -> list[tuple[str, int]] | None:
    """The Du Val types (kind, n) of a graph, sorted, or None when some
    connected component is no ADE diagram.  A connected graph is ADE
    exactly when its Cartan matrix 2I - A is positive definite (all
    pivots of `fraction_pivots` positive); its type is then read from its
    size n and determinant: A_n n + 1, D_n 4, E_n 9 - n."""
    nodes = sorted(nodes)
    seen, types = set(), []
    for start in nodes:
        if start in seen:
            continue
        component, frontier = [start], [start]
        seen.add(start)
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in seen:
                        seen.add(y)
                        component.append(y)
                        frontier.append(y)
        index = {v: i for i, v in enumerate(component)}
        size = len(component)
        cartan = [[2 * (i == j) for j in range(size)] for i in range(size)]
        for a, b in edges:
            if a in index and b in index:
                cartan[index[a]][index[b]] -= 1  # a loop counts twice
                cartan[index[b]][index[a]] -= 1
        pivots, _ = fraction_pivots(cartan)
        if len(pivots) < size or min(pivots) <= 0:
            return None
        det = 1
        for p in pivots:
            det *= p
        types.append(("A" if det == size + 1 else "D" if det == 4 else "E", size))
    return sorted(types)


VERDICT_OF_KIND = {
    "spherical_or_bad": "FiniteFundamentalGroup",
    "euclidean": "TorusCover",
    "hyperbolic": "UnrealizableHyperbolic",
}


def coinvariant_factors(matrices) -> tuple[int, ...]:
    """The invariant factors (1s dropped, 0 for a free factor) of Z^2
    modulo the columns of I - T over the matrices T: d1 is the gcd of the
    entries of the 2 x 2k relation matrix and d1 d2 that of its 2 x 2
    minors."""
    rows = [[], []]
    for (p, q), (r, s) in matrices:
        rows[0] += [1 - p, -q]
        rows[1] += [-r, 1 - s]
    d1, d12 = minors_gcd(rows, 1), minors_gcd(rows, 2)
    factors = (d1, d12 // d1) if d12 else (d1, 0) if d1 else (0, 0)
    return tuple(d for d in factors if d != 1)


def _rejected(kind: str, message: str, actual=None) -> dict:
    return {"error": kind, "actual": actual, "message": message}


def fibered_analysis(fibers, monodromy=None) -> dict:
    """`analyze` of a decorated fibration, given as (base, n, removed ids)
    triples, with an optional monodromy representation given as
    (matrices, declared (base, n) pairs or None).

    Each fiber's removed ids must all be its components ("UnknownComponent")
    and must not be all of them ("FullSupportRemoved"), checked fiber by
    fiber; then the Euler numbers must sum to 24 ("EulerSumMismatch", with
    the sum).  A representation must have one matrix per fiber (a
    "ValueError") and pass `three_pass_validate`.  Such input gives
    {"error": class name, "actual": sum or None, "message": its text}.
    Otherwise: each fiber's m, the gcd of its kept multiplicities; the
    removed components' ADE types as labels; e_orb = 24 - sum(n + 1 -
    1/delta) from `du_val_delta`; the cone orders m > 1; the class and
    verdict of `orbifold_class`; and the `coinvariant_factors` of the
    representation when the class is ("spherical_or_bad", 1), else None.
    """
    ms, types, total = [], [], 0
    for base, n, removed in fibers:
        mult, edges, euler = kodaira_fiber(base, n)
        label = base if n is None else f"{base}{n}"
        removed = set(removed)
        total += euler
        if removed - set(mult):
            return _rejected(
                "UnknownComponent", f"{label}: unknown component(s) {sorted(removed - set(mult))}"
            )
        if removed == set(mult):
            message = f"{label}: the removed set must be a proper subset of the fiber"
            return _rejected("FullSupportRemoved", message)
        ms.append(gcd(*[k for cid, k in mult.items() if cid not in removed]))
        induced = [(u, v) for u, v in edges if u in removed and v in removed]
        pieces = ade_components(removed, induced)
        assert pieces is not None, (base, n, removed)  # a proper subset is ADE
        types += pieces
    if total != 24:
        message = f"fiber Euler numbers sum to {total}, a K3 surface needs 24"
        return _rejected("EulerSumMismatch", message, total)
    kind, order = orbifold_class(ms)
    quotient = None
    if monodromy is not None:
        matrices, declared = monodromy
        if len(matrices) != len(fibers):
            return _rejected(
                "ValueError", f"monodromy has {len(matrices)} matrices for {len(fibers)} fibers"
            )
        try:
            three_pass_validate(matrices, declared)
        except RepresentationRejected as exc:
            return _rejected(exc.kind, str(exc))
        if (kind, order) == ("spherical_or_bad", 1):
            quotient = list(coinvariant_factors(matrices))
    return {
        "m": ms,
        "labels": [f"{kind}{rank}" for kind, rank in sorted(types)],
        "e_orb": 24 - sum(r + 1 - Fraction(1, du_val_delta(k, r)) for k, r in types),
        "cone_orders": sorted(m for m in ms if m > 1),
        "classification": (kind, order),
        "verdict": VERDICT_OF_KIND[kind],
        "quotient": quotient,
    }
