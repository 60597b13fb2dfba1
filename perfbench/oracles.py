"""Independent reference computations the benchmark checks answers with.

Nothing here imports `k3pi1`: every expected value is derived from
first principles (Kodaira's fiber tables as documented in the package,
the Du Val local group orders, Hilbert symbols, brute-force grids).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

K3_EULER = 24
RANK_GATE = 15

PLAIN_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


# ----------------------------------------------------------------------
# Du Val types as (kind, n) pairs


def delta(kind: str, n: int) -> int:
    """Order of the local fundamental group of a Du Val point."""
    if kind == "A":
        return n + 1
    if kind == "D":
        return 4 * (n - 2)
    return {6: 24, 7: 48, 8: 120}[n]


def labels(types) -> list[str]:
    return [f"{k}{n}" for k, n in sorted(types)]


def euler_contribution(types) -> Fraction:
    """Sum of n + 1 - 1/delta over the points."""
    return sum((Fraction(n + 1) - Fraction(1, delta(k, n)) for k, n in types), Fraction(0))


def e_orb(types) -> Fraction:
    return K3_EULER - euler_contribution(types)


def bare_verdict(types) -> str | None:
    """Rank gate first, then the torus criterion e_orb = 0."""
    if sum(n for _, n in types) <= RANK_GATE:
        return "FiniteFundamentalGroup"
    if e_orb(types) == 0:
        return "TorusCover"
    return None


# ----------------------------------------------------------------------
# Kodaira fibers (component naming as documented in k3pi1.kodaira)


def fiber_euler(base: str, n: int | None) -> int:
    if base == "I":
        return n
    if base == "I*":
        return n + 6
    return PLAIN_EULER[base]


def fiber_graph(base: str, n: int | None):
    """(components {id: multiplicity}, edges [(u, v, weight)])."""
    if base == "II" or (base == "I" and n == 1):
        return {"c0": 1}, []
    if base == "III" or (base == "I" and n == 2):
        return {"c0": 1, "c1": 1}, [("c0", "c1", 2)]
    if base == "I":
        return {f"c{i}": 1 for i in range(n)}, [(f"c{i}", f"c{(i + 1) % n}", 1) for i in range(n)]
    if base == "IV":
        return {"c0": 1, "c1": 1, "c2": 1}, [("c0", "c1", 1), ("c0", "c2", 1), ("c1", "c2", 1)]
    if base == "I*":
        comps = {"t1": 1, "t2": 1, "t3": 1, "t4": 1}
        comps.update({f"c{i}": 2 for i in range(n + 1)})
        edges = [("t1", "c0", 1), ("t2", "c0", 1)]
        edges += [(f"c{i}", f"c{i + 1}", 1) for i in range(n)]
        edges += [("t3", f"c{n}", 1), ("t4", f"c{n}", 1)]
        return comps, edges
    if base == "IV*":
        comps, edges = {"z": 3}, []
        for arm in "abd":
            comps.update({f"{arm}1": 1, f"{arm}2": 2})
            edges += [(f"{arm}1", f"{arm}2", 1), (f"{arm}2", "z", 1)]
        return comps, edges
    mults, branch, at = ([1, 2, 3, 4, 3, 2, 1], 2, 4) if base == "III*" else ([1, 2, 3, 4, 5, 6, 4, 2], 3, 6)
    comps = {f"c{i + 1}": m for i, m in enumerate(mults)}
    comps["b1"] = branch
    edges = [(f"c{i}", f"c{i + 1}", 1) for i in range(1, len(mults))]
    edges.append(("b1", f"c{at}", 1))
    return comps, edges


def ade_types(nodes, edges):
    """Types of a graph that is a disjoint union of ADE diagrams, else None.

    `edges` carry weights; a weight above one is a repeated
    intersection and is never ADE.
    """
    nodes = list(nodes)
    adj = {v: [] for v in nodes}
    for u, v, w in edges:
        if w > 1:
            return None
        adj[u].append(v)
        adj[v].append(u)
    seen, types = set(), []
    for root in nodes:
        if root in seen:
            continue
        comp, todo = [], [root]
        seen.add(root)
        while todo:
            v = todo.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        n_edges = sum(len(adj[v]) for v in comp) // 2
        if n_edges >= len(comp) or any(len(adj[v]) > 3 for v in comp):
            return None
        branch = [v for v in comp if len(adj[v]) == 3]
        if not branch:
            types.append(("A", len(comp)))
            continue
        if len(branch) > 1:
            return None
        arms = []
        for start in adj[branch[0]]:
            prev, cur, length = branch[0], start, 1
            while True:
                nxt = [w for w in adj[cur] if w != prev]
                if not nxt:
                    break
                prev, cur, length = cur, nxt[0], length + 1
            arms.append(length)
        a, b, c = sorted(arms)
        if (a, b) == (1, 1):
            types.append(("D", c + 3))
        elif (a, b) == (1, 2) and c in (2, 3, 4):
            types.append(("E", c + 4))
        else:
            return None
    return sorted(types)


def decoration_outcome(base: str, n: int | None, removed):
    """(m, removed ADE types) of a valid decoration, or the name of the
    error class the package must raise."""
    comps, edges = fiber_graph(base, n)
    removed = set(removed)
    if removed - set(comps):
        return "UnknownComponent"
    if removed == set(comps):
        return "FullSupportRemoved"
    m = 0
    for cid, mult in comps.items():
        if cid not in removed:
            m = gcd(m, mult)
    induced = [(u, v, w) for u, v, w in edges if u in removed and v in removed]
    types = ade_types(sorted(removed), induced)
    if types is None:
        return "NotAdeRemovedSet"
    return m, types


def classify_cones(cones) -> tuple[str, int | None]:
    """Spherical-or-bad (with group order), euclidean or hyperbolic."""
    cones = sorted(m for m in cones if m > 1)
    if len(cones) <= 1:
        return "spherical_or_bad", 1
    if len(cones) == 2:
        return "spherical_or_bad", gcd(*cones)
    chi = 2 - sum(1 - Fraction(1, m) for m in cones)
    if chi > 0:
        return "spherical_or_bad", int(2 / chi)
    return ("euclidean", None) if chi == 0 else ("hyperbolic", None)


VERDICT_OF_CLASS = {
    "spherical_or_bad": "FiniteFundamentalGroup",
    "euclidean": "TorusCover",
    "hyperbolic": "UnrealizableHyperbolic",
}


# ----------------------------------------------------------------------
# sweep totals


def gf_total(eulers, budget: int) -> int:
    """Sum of the coefficients of degree <= budget of prod 1/(1 - x^e):
    the number of multisets of the given items with total Euler number
    at most the budget."""
    ways = [1] + [0] * budget
    for e in eulers:
        for b in range(e, budget + 1):
            ways[b] += ways[b - e]
    return sum(ways)


def sweep_fiber_types(budget: int):
    """(base, n) of every fiber type with Euler number <= budget."""
    types = [(b, None) for b, e in PLAIN_EULER.items() if e <= budget]
    types += [("I", n) for n in range(1, budget + 1)]
    types += [("I*", n) for n in range(0, budget - 5)]
    return types


def family(base: str) -> str:
    return {"I": "I", "I*": "Istar"}.get(base, "plain")


# ----------------------------------------------------------------------
# quadratic forms


def evaluate(g, x) -> int:
    n = len(x)
    return sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def grid_first_isotropic(g, bound: int):
    """First nonzero x in the order that compares coordinates left to
    right by (|x_i|, positive first), with |x_i| <= bound and x.G.x = 0."""
    values = [0]
    for v in range(1, bound + 1):
        values += [v, -v]
    for x in product(values, repeat=len(g)):
        if any(x) and evaluate(g, x) == 0:
            return x
    return None


def _split(a: int, p: int) -> tuple[int, int]:
    k = 0
    while a % p == 0:
        a //= p
        k += 1
    return k, a


def _legendre(u: int, p: int) -> int:
    return -1 if pow(u % p, (p - 1) // 2, p) == p - 1 else 1


def _hilbert(a: int, b: int, p: int) -> int:
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    al, u = _split(a, p)
    be, v = _split(b, p)
    if p == 2:
        eps = lambda t: ((t - 1) // 2) % 2  # noqa: E731
        omega = lambda t: ((t * t - 1) // 8) % 2  # noqa: E731
        return -1 if (eps(u) * eps(v) + al * omega(v) + be * omega(u)) % 2 else 1
    sign = -1 if (al * be * (p - 1) // 2) % 2 else 1
    return sign * _legendre(u, p) ** be * _legendre(v, p) ** al


def _is_local_square(a: int, p: int) -> bool:
    if p == 0:
        return a > 0
    k, u = _split(a, p)
    if k % 2:
        return False
    return u % 8 == 1 if p == 2 else _legendre(u, p) == 1


def _prime_factors(n: int) -> set[int]:
    n, out, d = abs(n), {2}, 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def diagonal_isotropic_over_q(entries) -> bool:
    """Hasse-Minkowski for a nondegenerate diagonal form: isotropic over
    Q iff isotropic at the real place and at every prime dividing 2 and
    the entries (Serre, A Course in Arithmetic, IV.2.2)."""
    n = len(entries)
    if n < 2:
        return False
    d = 1
    for e in entries:
        d *= e
    for p in [0] + sorted(_prime_factors(d)):
        eps = 1
        for i in range(n):
            for j in range(i + 1, n):
                eps *= _hilbert(entries[i], entries[j], p)
        if n == 2:
            ok = _is_local_square(-d, p)
        elif n == 3:
            ok = _hilbert(-1, -d, p) == eps
        elif n == 4:
            ok = not _is_local_square(d, p) or eps == _hilbert(-1, -1, p)
        else:
            ok = True
        if not ok:
            return False
    return True
