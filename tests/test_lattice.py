"""Tests for the integer lattice toolkit."""

import hashlib
import random
import time
from math import prod

import pytest

from k3pi1.lattice import (
    IntegerGram,
    _pivots,
    isotropic_search,
    k3_gram,
    meyer_gate,
    signature,
    smith_normal_form,
)

from oracles import (
    brute_isotropic,
    cartan_det,
    det_cofactor,
    det_exact,
    evaluate_form,
    mat_mul,
    minors_gcd,
    neg_cartan_gram,
)


def _check_snf(a):
    res = smith_normal_form(a)
    m = len(a)
    n = len(a[0]) if m else 0
    # U A V = D
    if m and n:
        assert mat_mul(mat_mul([list(r) for r in res.u], a), [list(r) for r in res.v]) == [
            list(r) for r in res.d
        ]
    assert abs(det_cofactor(res.u)) == 1
    assert abs(det_cofactor(res.v)) == 1
    diag = res.diagonal
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.d[i][j] == 0
    for x in diag:
        assert x >= 0
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # zeros only at the end
        if diag[i] == 0:
            assert diag[i + 1] == 0
    # d1...dk equals the gcd of all k x k minors
    prod = 1
    for k, x in enumerate(diag, start=1):
        prod *= x
        assert abs(prod) == minors_gcd(a, k), (a, k)
    return res


def test_snf_diag_2_3():
    res = _check_snf([[2, 0], [0, 3]])
    assert res.diagonal == (1, 6)


def test_snf_zero_matrix():
    res = _check_snf([[0, 0], [0, 0]])
    assert res.diagonal == (0, 0)


def test_snf_rectangular_and_empty():
    _check_snf([[2, 4, 6]])
    _check_snf([[2], [3], [5]])
    res = smith_normal_form([])
    assert res.diagonal == ()


def test_snf_random_matrices_against_minor_gcd_oracle():
    rng = random.Random(20240811)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        _check_snf(a)


def _snf_cases():
    """Seeded matrices of every shape 0..7 x 0..7 (a 0-row matrix is []),
    entries up to 3, 1000 and 10**12, each with its own share of zeros."""
    rng = random.Random(4242)
    for m in range(8):
        for n in range(8):
            for scale in (3, 1000, 10**12):
                for _ in range(3):
                    zeros = rng.random()
                    yield [
                        [0 if rng.random() < zeros else rng.randint(-scale, scale) for _ in range(n)]
                        for _ in range(m)
                    ]


# SHA-256 over (A, U, D, V) of every matrix of _snf_cases(), in order:
# the elimination may change, the transforms it returns not
SNF_SHA256 = "eb28649298d39b0257edf050bc2fa55f76c5f7a654efe0b45614be8bc51de6d9"


def test_smith_forms_are_pinned():
    digest = hashlib.sha256()
    for a in _snf_cases():
        res = smith_normal_form(a)
        digest.update(repr((a, res.u, res.d, res.v)).encode())
    assert digest.hexdigest() == SNF_SHA256


def test_snf_rejects_ragged_matrices():
    for a in ([[1, 2], [3]], [[1], []], [[], [1]]):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            smith_normal_form(a)


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(0, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(a) == det_cofactor(a)


def _pivot_det(rows):
    # the congruence moves have determinant +-1: the pivots multiply to
    # the determinant, which is 0 when one of the n pivots is missing
    pivots, _ = _pivots(rows)
    return prod(pivots) if len(pivots) == len(rows) else 0


def test_pivot_product_is_the_determinant():
    rng = random.Random(2718281)
    forms = []
    for t in range(600):
        n = rng.randint(2, 6)
        rows = _random_symmetric(rng, n)
        if t % 4 == 1:  # a zero first pivot with a nonzero one to swap in
            rows[0][0], rows[1][1] = 0, rng.choice((1, -1)) * rng.randint(1, 5)
        elif t % 4 == 2:  # an all-zero diagonal with a nonzero coupling: rank-2 step
            for i in range(n):
                rows[i][i] = 0
            rows[0][1] = rows[1][0] = rng.choice((1, -1)) * rng.randint(1, 5)
        elif t % 4 == 3:  # repeat coordinate 0 as a last one: singular
            rows = [row + [row[0]] for row in rows]
            rows.append(list(rows[0]))
        forms.append(rows)
    forms += [[], [[0]], [[0, 0], [0, 0]], _diag([0, 3, 0])]
    singular = 0
    for rows in forms:
        det = det_exact(rows)
        assert _pivot_det(rows) == det, rows
        singular += det == 0
    assert singular >= 150, singular
    assert _pivot_det(k3_gram().rows) == -1


def test_signature_of_negated_cartan_blocks():
    types = [("A", 3), ("D", 5), ("E", 6), ("A", 1)]
    g = IntegerGram.from_rows(neg_cartan_gram(types))
    assert g.dim == 15
    assert signature(g) == (0, 15, 0)
    assert abs(det_exact(g.rows)) == prod(cartan_det(kind, n) for kind, n in types)


def test_k3_gram():
    g = k3_gram()
    assert g.dim == 22
    assert g.is_even
    assert det_exact(g.rows) == -1
    assert signature(g) == (3, 19, 0)


def test_signature_examples():
    assert signature(IntegerGram.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    e8_neg = IntegerGram.from_rows(neg_cartan_gram([("E", 8)]))
    assert signature(e8_neg) == (0, 8, 0)
    assert signature(IntegerGram.from_rows([[0]])) == (0, 0, 1)
    assert signature(IntegerGram.from_rows([])) == (0, 0, 0)


def test_signature_block_sum_is_componentwise():
    rng = random.Random(99)
    for _ in range(25):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        a = _random_symmetric(rng, n1)
        b = _random_symmetric(rng, n2)
        block = [[0] * (n1 + n2) for _ in range(n1 + n2)]
        for i in range(n1):
            for j in range(n1):
                block[i][j] = a[i][j]
        for i in range(n2):
            for j in range(n2):
                block[n1 + i][n1 + j] = b[i][j]
        sa = signature(IntegerGram.from_rows(a))
        sb = signature(IntegerGram.from_rows(b))
        sc = signature(IntegerGram.from_rows(block))
        assert sc == tuple(x + y for x, y in zip(sa, sb))
        assert sum(sc) == n1 + n2


def test_isotropic_search_examples():
    u = IntegerGram.from_rows([[0, 1], [1, 0]])
    assert isotropic_search(u, 3) == (0, 1)
    d = IntegerGram.from_rows([[2, 0], [0, -2]])
    assert isotropic_search(d, 1) == (1, 1)
    d13 = IntegerGram.from_rows([[1, 0], [0, -3]])
    assert isotropic_search(d13, 100) is None


def test_isotropic_search_agrees_with_brute_force():
    rng = random.Random(31337)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = IntegerGram.from_rows(_random_symmetric(rng, n))
        bound = rng.randint(1, 5)
        hit = isotropic_search(g, bound)
        brute = brute_isotropic([list(r) for r in g.rows], bound)
        if hit is None:
            assert brute == []
        else:
            assert evaluate_form(g.rows, hit) == 0
            assert max(abs(c) for c in hit) <= bound
            assert hit in brute


def test_isotropic_search_canonical_order():
    # among all solutions, the returned one minimizes the left-to-right
    # (abs value, negative-after-positive) coordinate order
    def key(vec):
        return tuple((abs(c), -c) for c in vec)

    rng = random.Random(2718)
    cases = [(_random_symmetric(rng, rng.randint(1, 3)), 4) for _ in range(25)]
    # rank 5 at bound 2: random symmetric forms, and diagonal forms with
    # entries from +-{1, 2, 3, 5, 6}, many of whose indefinite tails are
    # anisotropic over Q, a third of them after a unimodular change
    rng = random.Random(1618)
    for t in range(200):
        if t % 2:
            cases.append((_random_symmetric(rng, 5), 2))
            continue
        rows = _diag([rng.choice((1, 2, 3, 5, 6)) * rng.choice((1, -1)) for _ in range(5)])
        if t % 3 == 0:
            u = _diag([1] * 5)
            for _ in range(5):
                i, j = rng.sample(range(5), 2)
                c = rng.choice((1, -1))
                for row in u:
                    row[j] += c * row[i]
            rows = mat_mul(mat_mul([list(col) for col in zip(*u)], rows), u)
        cases.append((rows, 2))
    for rows, bound in cases:
        hit = isotropic_search(IntegerGram.from_rows(rows), bound)
        brute = brute_isotropic(rows, bound)
        if brute:
            assert hit == min(brute, key=key), rows
        else:
            assert hit is None, rows


def test_isotropic_search_first_vectors_pinned():
    # vectors returned before subtrees under trailing blocks anisotropic
    # over Q were cut: the heavy criterion-6 forms, whose 4-dimensional
    # tail is indefinite and anisotropic, so the x0 = 0 subtree holds none
    assert isotropic_search(IntegerGram.from_rows(_diag([-2, 2, -6, 2, -6])), 50) == (
        1, 0, 0, 1, 0,
    )
    assert isotropic_search(IntegerGram.from_rows(_diag([4, -4, -6, -6, 2])), 50) == (
        1, 0, 0, 1, 1,
    )
    # x^2 + y^2 = 3(z^2 + w^2) has only the zero solution, in any basis
    aniso = _diag([1, 1, -3, -3])
    u = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    changed = mat_mul(mat_mul([list(col) for col in zip(*u)], aniso), u)
    for rows, bound in ((aniso, 20), (changed, 20), (_diag([1, 1, -3]), 50)):
        assert isotropic_search(IntegerGram.from_rows(rows), bound) is None


def test_isotropic_search_bounded_on_pivots_beyond_trial_division():
    # 2**61 - 1 is prime and beyond trial division, so the rank-3 and
    # rank-4 tails fall back to the definiteness test
    p = 2**61 - 1
    for entries in ([1, -p], [1, 1, -p], [1, 1, -p, -3 * p]):
        start = time.perf_counter()
        assert isotropic_search(IntegerGram.from_rows(_diag(entries)), 5) is None
        assert time.perf_counter() - start < 1.0


def test_meyer_gate():
    g = IntegerGram.from_rows(
        [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    )
    g = IntegerGram.from_rows(
        [[(1 if i == 0 else -1) if i == j else 0 for j in range(5)] for i in range(5)]
    )
    rep = meyer_gate(g, 10)
    assert rep.hypotheses_hold
    assert rep.vector is not None
    assert evaluate_form(g.rows, rep.vector) == 0

    definite = IntegerGram.from_rows([[2, 0], [0, 2]])
    rep = meyer_gate(definite, 20)
    assert not rep.hypotheses_hold
    assert rep.exhausted
    assert not rep.hypotheses_hold_but_exhausted

    # the gate reads the signature from the search's diagonalisation of
    # the reversed form: degenerate forms, and forms whose zero diagonal
    # entry sits mid-way, must give what signature() gives
    forms = [_diag([1, 0, -1]), _diag([0, 0, 0]), [[0, 1, 0], [1, 0, 0], [0, 0, 0]]]
    rng = random.Random(8128)
    for t in range(150):
        n = rng.randint(3, 5)
        rows = _random_symmetric(rng, n)
        k = rng.randrange(1, n - 1)
        rows[k][k] = 0
        if t % 2:
            # repeat coordinate 0 as a last one: rank at most n
            rows = [row + [row[0]] for row in rows]
            rows.append(list(rows[0]))
        forms.append(rows)
    degenerate = 0
    for rows in forms:
        g = IntegerGram.from_rows(rows)
        rep = meyer_gate(g, 2)
        assert rep.signature == signature(g), rows
        assert rep.vector == isotropic_search(g, 2), rows
        degenerate += rep.signature[2] > 0
    assert signature(IntegerGram.from_rows(forms[0])) == (1, 1, 1)
    assert degenerate >= 75, degenerate


def test_meyer_gate_random_even_indefinite_diagonals():
    rng = random.Random(515)
    for _ in range(20):
        entries = [rng.choice([2, 4, 6]) * rng.choice([1, -1]) for _ in range(5)]
        if all(e > 0 for e in entries) or all(e < 0 for e in entries):
            entries[0] = -entries[0]
        g = IntegerGram.from_rows(
            [[entries[i] if i == j else 0 for j in range(5)] for i in range(5)]
        )
        rep = meyer_gate(g, 50)
        assert rep.hypotheses_hold
        assert rep.vector is not None, entries
        assert evaluate_form(g.rows, rep.vector) == 0


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _random_symmetric(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-5, 5)
    return a
