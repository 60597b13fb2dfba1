"""Seeded input generation.  Inputs are plain data; the worker turns
them into package objects.  Expected answers are not stored here: the
checks derive them again from `oracles`."""

from __future__ import annotations

import random
from functools import cache

from oracles import PLAIN_EULER, diagonal_isotropic_over_q, fiber_euler, fiber_graph, grid_first_isotropic

# ----------------------------------------------------------------------
# meyer: one batch of meyer_gate calls

C6_BOUND = 50
C6_LIGHT = 96
# Two of the four criterion-6 forms of the acceptance test's seed 271828
# whose 4-dimensional tail diag(e1..e4) is indefinite and anisotropic
# over Q (the two cheapest, to fit the time budget).  The search must
# walk the whole x0 = 0 subtree of such a form, so each costs 0.5-1 s
# against under 30 ms for every other form of the family.  They are kept
# fixed and only their overall sign is drawn: negating G leaves the
# search tree unchanged, so the batch cost does not swing with how many
# heavy forms a batch happens to hold.  The light forms exclude heavy
# ones by the same test.
C6_HEAVY = ([-2, 2, -6, 2, -6], [4, -4, -6, -6, 2])
OFFDIAG = 16
OFFDIAG_BOUND = 3
DEFINITE = 8
ANISO_U = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1))


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _unimodular(rng: random.Random, n: int, steps: int):
    """Product of `steps` elementary matrices I +- E_ij."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in u:
            row[j] += c * row[i]
    return u


def _congruent(g, u):
    """U^T G U."""
    n = len(g)
    gu = [[sum(g[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _heavy(entries) -> bool:
    tail = entries[1:]
    indefinite = min(tail) < 0 < max(tail)
    return indefinite and not diagonal_isotropic_over_q(tail)


def _c6_entries(rng: random.Random):
    entries = [rng.choice([2, 4, 6]) * rng.choice([1, -1]) for _ in range(5)]
    if all(e > 0 for e in entries) or all(e < 0 for e in entries):
        entries[rng.randrange(5)] *= -1
    return entries


def _diag_sig(entries):
    return [sum(e > 0 for e in entries), sum(e < 0 for e in entries)]


@cache
def batch_forms():
    """The batch's forms up to sign, one fixed draw: (kind, rows, bound,
    signature, expected outcome), the outcome being "found", "exhausted",
    or the vector a full-grid search finds first.

    Their search costs are bimodal (0.2-0.5 ms, and 8-17 ms for about a
    quarter of the light criterion-6 forms), and the off-diagonal and
    definite forms lie around the median call.  Forms drawn afresh for
    each seed moved search_ms_p50 and search_ms_p90 by 10-20% between
    seeds, so the seed draws only their signs and their order."""
    rng = random.Random("meyer-forms")
    forms = []
    while len(forms) < C6_LIGHT:
        entries = _c6_entries(rng)
        if not _heavy(entries):
            forms.append(("c6", _diag(entries), C6_BOUND, _diag_sig(entries), "found"))
    for entries in C6_HEAVY:
        forms.append(("c6", _diag(entries), C6_BOUND, _diag_sig(entries), "found"))

    # forms with no isotropic vector in the small box are redrawn
    offdiag = 0
    while offdiag < OFFDIAG:
        n = rng.choice((4, 5))
        entries = [rng.randint(1, 5) * rng.choice((1, -1)) for _ in range(n)]
        entries[0], entries[1] = abs(entries[0]), -abs(entries[1])
        rng.shuffle(entries)
        rows = _congruent(_diag(entries), _unimodular(rng, n, n + 1))
        want = grid_first_isotropic(rows, OFFDIAG_BOUND)
        if want is not None:
            forms.append(("offdiag", rows, OFFDIAG_BOUND, _diag_sig(entries), list(want)))
            offdiag += 1

    for _ in range(DEFINITE):
        n = rng.randint(2, 6)
        entries = [rng.randint(1, 6) for _ in range(n)]
        rows = _congruent(_diag(entries), _unimodular(rng, n, n))
        forms.append(("definite", rows, C6_BOUND, _diag_sig(entries), "exhausted"))

    # x^2 + y^2 = 3(z^2 + w^2) has only the zero solution (3 divides a
    # sum of two squares only through both), so these never vanish.
    # Coordinate sign changes keep the search tree's size.
    for entries, bound, u in (([1, 1, -3, -3], 20, None), ([1, 1, -3, -3], 20, ANISO_U),
                              ([1, 1, -3], 50, None), ([1, -3], 100, None)):
        assert not diagonal_isotropic_over_q(entries)
        rows = _diag(entries)
        if u is not None:
            rows = _congruent(rows, [list(r) for r in u])
            flips = [rng.choice((1, -1)) for _ in entries]
            rows = [[flips[i] * flips[j] * x for j, x in enumerate(r)] for i, r in enumerate(rows)]
        forms.append(("aniso", rows, bound, _diag_sig(entries), "exhausted"))
    return forms


def meyer_batch(rng: random.Random):
    """The batch's forms, each negated or not as the seed draws, in the
    seed's order.  Negating G keeps its isotropic vectors and the search
    tree, and swaps the signature."""
    batch = []
    for kind, rows, bound, sig, expect in batch_forms():
        if rng.random() < 0.5:
            rows, sig = [[-x for x in row] for row in rows], sig[::-1]
        batch.append({"kind": kind, "rows": rows, "bound": bound, "sig": sig, "expect": expect})
    rng.shuffle(batch)
    return batch


# ----------------------------------------------------------------------
# analyze: one stream of single inputs

# accepted inputs are mostly fibered, so that their median lies inside
# the fibered latencies rather than in the gap between the bare (about
# 30 us) and the fibered (about 120 us) ones, where it swung with the seed
BARE = 600
FIBERED = 1400
INVALID = 1000
OVERSIZED = 20
OVERSIZED_LO, OVERSIZED_STRIDE, OVERSIZED_SLOTS = 2000, 64, 281  # n < 20,000

A = ((1, 1), (0, 1))
B = ((1, 0), (-1, 1))
S = ((0, -1), (1, 0))


def _random_bare(rng: random.Random):
    left = rng.randint(0, 19)
    out = []
    while left:
        kinds = ["A"] + (["D"] if left >= 4 else []) + (["E"] if left >= 6 else [])
        kind = rng.choice(kinds)
        if kind == "A":
            n = rng.randint(1, min(left, 6) if rng.random() < 0.8 else left)
        elif kind == "D":
            n = rng.randint(4, left)
        else:
            n = rng.randint(6, min(8, left))
        out.append(f"{kind}{n}")
        left -= n
    return out


def _random_fiber_types(rng: random.Random, total: int):
    fibers, left = [], total
    while left:
        r = rng.random()
        if r < 0.45:
            fibers.append(["I", rng.randint(1, min(left, 12))])
        elif r < 0.75 and left >= 6:
            fibers.append(["I*", rng.randint(0, min(left - 6, 8))])
        else:
            plain = [b for b, e in PLAIN_EULER.items() if e <= left]
            if not plain:
                continue
            fibers.append([rng.choice(plain), None])
        left -= fiber_euler(*fibers[-1])
    return fibers


def _decorate(rng: random.Random, base, n):
    comps, _ = fiber_graph(base, n)
    ids = sorted(comps)
    if len(ids) == 1 or rng.random() < 0.4:
        return []
    while True:
        q = rng.uniform(0.15, 0.7)
        removed = [c for c in ids if rng.random() < q]
        if 0 < len(removed) < len(ids):
            return removed


def _fibration(rng: random.Random, total: int):
    return [[b, n, _decorate(rng, b, n)] for b, n in _random_fiber_types(rng, total)]


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _inverse(p):
    (a, b), (c, d) = p
    return ((d, -b), (-c, a))


def _conjugator(rng: random.Random):
    p = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        p = _mat_mul(p, rng.choice((A, _inverse(A), S)))
    return p


def analyze_stream(rng: random.Random, unit: int):
    """Bare, fibered and invalid inputs, shuffled, with the oversized
    I_n at evenly spaced places.  Oversized I_n use n congruent to the
    unit index mod 64, so no n repeats within a run."""
    items = []
    for i in range(BARE):
        labels = ["A1"] * 16 if i % 100 == 0 else _random_bare(rng)
        items.append({"kind": "bare", "labels": labels})

    for i in range(FIBERED):
        mono = None
        if i % 20 == 0:
            fibers = [["I*", 0, rng.sample(["t1", "t2", "t3", "t4"], rng.choice((0, 1, 2, 3, 4)))]
                      for _ in range(4)]
            mono = [[[-1, 0], [0, -1]]] * 4
        elif i % 20 == 1:
            fibers = [["I", 1, []] for _ in range(24)]
            p = _conjugator(rng)
            pair = (A, B) if rng.random() < 0.5 else (B, A)
            mono = [_mat_mul(_mat_mul(_inverse(p), pair[k % 2]), p) for k in range(24)]
        elif i % 20 == 2:
            fibers = [["I*", 0, ["t1", "t2", "t3", "t4"]] for _ in range(4)]
        else:
            fibers = _fibration(rng, 24)
        items.append({"kind": "fibered", "fibers": fibers, "monodromy": mono})

    # the middle n of each of 20 strata of [2000, 20000): reject_us_p99
    # falls among these inputs, whose cost grows with n, so n is not drawn
    # from the seed (a drawn n moved it by 10% between seeds)
    oversized = []
    for k in range(OVERSIZED):
        j = (2 * k + 1) * OVERSIZED_SLOTS // (2 * OVERSIZED)
        n = OVERSIZED_LO + OVERSIZED_STRIDE * j + unit
        oversized.append({"kind": "invalid", "fibers": [["I", n, []]], "monodromy": None})
    for i in range(INVALID - OVERSIZED):
        case = i % 3
        if case == 0:
            fibers = _fibration(rng, rng.choice((22, 23, 25, 26)))
        else:
            fibers = _fibration(rng, 24)
            f = rng.choice(fibers)
            comps, _ = fiber_graph(f[0], f[1])
            if case == 1:
                f[2] = sorted(comps)
            else:
                bogus = [c for c in ("x0", "t5", "b2", f"c{len(comps)}") if c not in comps]
                f[2] = sorted(set(f[2]) | {rng.choice(bogus)})
        items.append({"kind": "invalid", "fibers": fibers, "monodromy": None})

    rng.shuffle(items)
    # fixed places, too: which of these calls a garbage collection lands
    # in depends on where they fall in the stream
    step = len(items) // OVERSIZED
    for k, item in enumerate(oversized):
        items.insert(k * (step + 1) + step // 2, item)
    return items
