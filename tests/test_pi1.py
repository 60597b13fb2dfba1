"""Tests for monodromy representation validation and Z^2 quotients."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3pi1.kodaira import KodairaType
from k3pi1.lattice import smith_normal_form
from k3pi1.pi1 import (
    IDENTITY,
    MINUS_IDENTITY,
    AbelianGroup,
    ClassMismatch,
    DetNotOne,
    MonodromyRep,
    ProductNotIdentity,
    RepresentationError,
    coinvariant_quotient,
    validate_representation,
)

from oracles import (
    RepresentationRejected,
    coinvariant_factors,
    mat2_mul,
    mat2_power_order,
    monodromy_class,
    three_pass_validate,
)

A = ((1, 1), (0, 1))
B = ((1, 0), (-1, 1))


def test_validate_rejects_non_identity_product():
    with pytest.raises(ProductNotIdentity):
        validate_representation(MonodromyRep((A,)))


def test_validate_accepts_inverse_pair():
    rep = MonodromyRep((A, ((1, -1), (0, 1))))
    classes = validate_representation(rep)
    assert classes == ("I_n", "I_n")


def test_validate_rejects_bad_determinant():
    with pytest.raises(DetNotOne) as exc:
        validate_representation(MonodromyRep((((1, 0), (0, 2)),)))
    assert exc.value.index == 0


def test_validate_declared_classes(monkeypatch):
    rep = MonodromyRep(
        (MINUS_IDENTITY, MINUS_IDENTITY),
        (KodairaType.parse("I*0"), KodairaType.parse("I*0")),
    )
    validate_representation(rep)
    bad = MonodromyRep(
        (MINUS_IDENTITY, MINUS_IDENTITY),
        (KodairaType.parse("I2"), KodairaType.parse("I*0")),
    )
    with pytest.raises(ClassMismatch) as exc:
        validate_representation(bad)
    assert exc.value.index == 0

    # a huge declared index is checked without building its fiber table
    def no_table(t):
        raise AssertionError(f"built the fiber table of {t.label}")

    monkeypatch.setattr("k3pi1.kodaira.fiber_data", no_table)
    huge_i, huge_istar = KodairaType("I", 10**12), KodairaType("I*", 10**12)
    validate_representation(MonodromyRep((A, ((1, -1), (0, 1))), (huge_i, huge_i)))
    minus = (((-1, -1), (0, -1)), ((-1, 1), (0, -1)))
    validate_representation(MonodromyRep(minus, (huge_istar, huge_istar)))
    with pytest.raises(ClassMismatch) as exc:
        validate_representation(MonodromyRep(minus, (None, huge_i)))
    assert str(exc.value) == (
        "matrix 1 declared I1000000000000 but its trace/order class is I*_n"
    )


def test_order_four_matrix_squares_to_minus_identity():
    t = ((0, -1), (1, 0))
    assert mat2_mul(t, t) == MINUS_IDENTITY
    assert mat2_power_order(t) == 4


def test_canonical_fiber_matrices_hit_their_buckets():
    # the trace/order bucket of each Kodaira type, from Kodaira's table
    buckets = {
        "I1": "I_n",
        "I5": "I_n",
        "II": "II/II*",
        "III": "III/III*",
        "IV": "IV/IV*",
        "I*0": "I*_0",
        "I*3": "I*_n",
        "IV*": "IV/IV*",
        "III*": "III/III*",
        "II*": "II/II*",
    }
    for label, bucket in buckets.items():
        (a, b), (c, d) = t = KodairaType.parse(label).monodromy
        inverse = ((d, -b), (-c, a))
        assert validate_representation(MonodromyRep((t, inverse)))[0] == bucket, label
    assert validate_representation(MonodromyRep((IDENTITY, IDENTITY))) == ("identity", "identity")
    hyperbolic = MonodromyRep((((2, 1), (1, 1)), ((1, -1), (-1, 2))))
    assert validate_representation(hyperbolic) == ("unrecognized",) * 2


def test_quotient_identity_matrix_kills_nothing():
    rep = MonodromyRep((IDENTITY, IDENTITY))
    q = coinvariant_quotient(rep, [0])
    assert q.invariant_factors == (0, 0)
    assert q.describe() == "Z^2"


def test_quotient_four_minus_identity():
    rep = MonodromyRep((MINUS_IDENTITY,) * 4)
    q = coinvariant_quotient(rep)
    assert q.invariant_factors == (2, 2)
    assert q.order == 4
    assert q.describe() == "Z/2 x Z/2"


def test_quotient_24_alternating_nodal_monodromies():
    word = (A, B) * 12
    assert mat2_power_order(mat2_mul(A, B)) == 6
    rep = MonodromyRep(word)
    validate_representation(rep)
    q = coinvariant_quotient(rep)
    assert q.is_trivial
    assert q.describe() == "1"


def test_quotient_empty_subset_is_z2():
    rep = MonodromyRep((A, ((1, -1), (0, 1))))
    q = coinvariant_quotient(rep, [])
    assert q.invariant_factors == (0, 0)


def test_quotient_subset_order_independent():
    rep = MonodromyRep((MINUS_IDENTITY, A, ((1, -1), (0, 1)), MINUS_IDENTITY))
    assert coinvariant_quotient(rep, [2, 0]) == coinvariant_quotient(rep, [0, 2])
    with pytest.raises(ValueError):
        coinvariant_quotient(rep, [4])


def test_quotient_invariant_under_global_conjugation():
    rng = random.Random(1234)
    s = ((0, -1), (1, 0))
    t = ((1, 1), (0, 1))
    for _ in range(25):
        rep_mats = _random_rep(rng, 4)
        p = IDENTITY
        for _ in range(rng.randint(1, 6)):
            p = mat2_mul(p, rng.choice([s, t]))
        conj = tuple(_conjugate(p, m) for m in rep_mats)
        q1 = coinvariant_quotient(MonodromyRep(rep_mats))
        q2 = coinvariant_quotient(MonodromyRep(conj))
        assert q1 == q2


def _hurwitz_move(mats, i, inverse):
    """The braid generator sigma_i, or its inverse, on a tuple of matrices:
    (T_i, T_i+1) -> (T_i+1, T_i+1^-1 T_i T_i+1), or -> (T_i T_i+1 T_i^-1, T_i)."""
    a, b = mats[i], mats[i + 1]
    pair = (_conjugate(a, b), a) if inverse else (b, _conjugate(_adjugate(b), a))
    return mats[:i] + pair + mats[i + 2 :]


def test_quotient_and_classes_are_invariant_under_hurwitz_moves():
    """A Hurwitz move keeps the ordered product, the multiset of conjugacy
    classes and, for any tuple, the full quotient Z^2 / sum Im(I - T_j):
    Im(I - h^-1 T h) = h^-1 Im(I - T), and h^-1 moves each vector only by
    an element of Im(I - h).  Half the tuples drop their last matrix, so
    their product is not the identity and only the quotient is compared."""
    rng = random.Random(2108)
    checked = 0
    while checked < 150:
        k = rng.randint(3, 7)
        mats = _random_rep(rng, k)[: k - rng.randint(0, 1)]
        quotient = coinvariant_quotient(MonodromyRep(mats))
        if quotient.is_trivial:
            continue
        closed = len(mats) == k
        if closed:
            classes = sorted(validate_representation(MonodromyRep(mats)))
        for _ in range(rng.randint(1, 12)):
            mats = _hurwitz_move(mats, rng.randrange(len(mats) - 1), rng.random() < 0.5)
        rep = MonodromyRep(mats)
        assert coinvariant_quotient(rep) == quotient, mats
        if closed:
            assert sorted(validate_representation(rep)) == classes, mats
        checked += 1


def test_quotient_shrinks_as_subset_grows():
    rng = random.Random(77)
    for _ in range(25):
        rep = MonodromyRep(_random_rep(rng, 4))
        sizes = []
        for upto in range(5):
            q = coinvariant_quotient(rep, range(upto))
            sizes.append(q.order)
        # None is "infinite"; the order divides as generators accumulate
        for small, large in zip(sizes[1:], sizes):
            if large is None:
                continue
            assert small is not None and large % small == 0


def test_abelian_group_canonical_form():
    assert AbelianGroup((1, 1)).is_trivial
    assert AbelianGroup((1, 2)).invariant_factors == (2,)
    assert AbelianGroup((2, 0)).describe() == "Z/2 x Z"
    with pytest.raises(ValueError):
        AbelianGroup((0, 2))
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))


def _conjugate(p, m):
    # p m p^-1 for det-one p
    inv = ((p[1][1], -p[0][1]), (-p[1][0], p[0][0]))
    return mat2_mul(mat2_mul(p, m), inv)


def _random_rep(rng, k):
    mats = []
    prod = IDENTITY
    for _ in range(k - 1):
        a = rng.choice(
            [
                ((1, rng.randint(-2, 2)), (0, 1)),
                ((1, 0), (rng.randint(-2, 2), 1)),
                ((0, -1), (1, 0)),
                MINUS_IDENTITY,
            ]
        )
        mats.append(a)
        prod = mat2_mul(prod, a)
    inv = ((prod[1][1], -prod[0][1]), (-prod[1][0], prod[0][0]))
    mats.append(inv)
    return tuple(mats)


def _minor_gcd_quotient(mats):
    """Z^2 modulo the columns of I - T from the minor gcds of the 2 x 2k matrix."""
    return AbelianGroup(coinvariant_factors(mats))


def test_quotient_matches_smith_form_and_minor_gcds():
    # the triangular fold against the Smith normal form of the 2 x 2k
    # relation matrix and against its minor gcds: d1 is the gcd of the
    # entries and d1 d2 the gcd of the 2 x 2 minors
    rng = random.Random(1313)
    for trial in range(600):
        k, bound = rng.randint(0, 12), rng.choice([1, 3, 100, 10**6])
        rank = trial % 3
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        mats = []
        for _ in range(k):
            if rank == 0:
                mats.append(IDENTITY)
            elif rank == 1:  # every column of I - T on the line through (x, y)
                s, t = rng.randint(-bound, bound), rng.randint(-bound, bound)
                mats.append(((1 - x * s, -x * t), (-y * s, 1 - y * t)))
            else:
                mats.append(tuple(tuple(rng.randint(-bound, bound) for _ in "ab") for _ in "ab"))
        rows = [[], []]
        for (p, q), (r, s) in mats:
            rows[0] += [1 - p, -q]
            rows[1] += [-r, 1 - s]
        group = coinvariant_quotient(MonodromyRep(mats))
        diag = smith_normal_form(rows).diagonal if k else ()
        assert group == AbelianGroup(tuple(sorted(diag, key=lambda d: d == 0)) + (0,) * (2 - len(diag)))
        assert group == _minor_gcd_quotient(mats), mats


# ----------------------------------------------------------------------
# the one-pass validation against the three-pass oracle

S = ((0, -1), (1, 0))
_LABELS = [
    ("I", 1), ("I", 7), ("I", 10**12), ("I*", 0), ("I*", 3), ("I*", 10**12),
    ("II", None), ("III", None), ("IV", None), ("IV*", None), ("III*", None), ("II*", None),
]
# a fiber type of each class, for declarations that match their matrix
_LABEL_OF_CLASS = {
    "I_n": ("I", 10**12), "I*_0": ("I*", 0), "I*_n": ("I*", 10**12),
    "II/II*": ("II*", None), "III/III*": ("III", None), "IV/IV*": ("IV*", None),
}


def _adjugate(m):
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


@st.composite
def _matrices(draw):
    """A 2x2 integer matrix: a word in S, T, T^-1 (determinant one), a
    conjugated fiber monodromy, or free entries (often determinant != 1)."""
    kind = draw(st.sampled_from(["word", "word", "fiber", "fiber", "fiber", "entries"]))
    if kind == "entries":
        return tuple(tuple(draw(st.integers(-3, 3)) for _ in "ab") for _ in "ab")
    word = IDENTITY
    for g in draw(st.lists(st.sampled_from([S, A, _adjugate(A)]), max_size=5)):
        word = mat2_mul(word, g)
    if kind == "word":
        return word
    base, n = draw(st.sampled_from(_LABELS))
    fiber = KodairaType(base, None if n is None else min(n, 9))
    return _conjugate(word, fiber.monodromy)


@st.composite
def _representations(draw):
    """(matrices, declared (base, n) pairs or None); the last matrix is
    usually the adjugate of the product before it, so most products are
    the identity when every determinant is one."""
    mats = draw(st.lists(_matrices(), min_size=0, max_size=7))
    product = IDENTITY
    for m in mats:
        product = mat2_mul(product, m)
    mats.append(draw(st.sampled_from([_adjugate(product), _adjugate(product), A, S])))
    declared = []
    for m in mats:
        choice = draw(st.sampled_from(["none", "none", "match", "any"]))
        det_one = m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        if choice == "match" and det_one:
            declared.append(_LABEL_OF_CLASS.get(monodromy_class(m)))
        elif choice == "any":
            declared.append(draw(st.sampled_from(_LABELS)))
        else:
            declared.append(None)
    return tuple(mats), tuple(declared)


@settings(max_examples=500, deadline=None, database=None)
@given(_representations())
def test_validate_representation_matches_the_three_pass_oracle(drawn):
    mats, labels = drawn
    rep = MonodromyRep(mats, tuple(None if lab is None else KodairaType(*lab) for lab in labels))
    try:
        expected = three_pass_validate(mats, labels)
    except RepresentationRejected as exc:
        with pytest.raises(RepresentationError) as got:
            validate_representation(rep)
        assert (type(got.value).__name__, getattr(got.value, "index", None), str(got.value)) == (
            exc.kind, exc.index, str(exc),
        )
    else:
        assert validate_representation(rep) == expected


# ----------------------------------------------------------------------
# the quotient fold stops once the columns span Z^2


class _Reads(tuple):
    """A matrix tuple that records which entries are read."""

    def __getitem__(self, j):
        self.indices = getattr(self, "indices", []) + [j]
        return super().__getitem__(j)


def _reading_rep(mats):
    mats = _Reads(mats)
    return mats, tuple.__new__(MonodromyRep, (mats, (None,) * len(mats)))


def test_quotient_stops_once_the_columns_span_z2():
    # A and B alone span Z^2; the later matrices have 3000-digit entries
    huge = 10**3000
    mats = (
        A, B, ((1, -1), (1, 0)),
        ((1, huge), (0, 1)), ((1, -huge), (0, 1)), ((1, 0), (huge, 1)), ((1, 0), (-huge, 1)),
    )
    validate_representation(MonodromyRep(mats))
    reads, rep = _reading_rep(mats)
    assert coinvariant_quotient(rep).is_trivial
    assert reads.indices == [0, 1]
    assert _minor_gcd_quotient(mats) == AbelianGroup()
    # a subset without A or B never spans Z^2, so every chosen entry is read
    reads, rep = _reading_rep(mats)
    assert coinvariant_quotient(rep, [4, 3]) == AbelianGroup((huge, 0))
    assert reads.indices == [3, 4]
    assert _minor_gcd_quotient(mats[3:5]) == AbelianGroup((huge, 0))


def test_quotient_of_a_subset_that_never_spans_z2():
    mats = (MINUS_IDENTITY,) * 4
    reads, rep = _reading_rep(mats)
    assert coinvariant_quotient(rep, [3, 2, 1, 0]) == AbelianGroup((2, 2))
    assert reads.indices == [0, 1, 2, 3]
    assert _minor_gcd_quotient(mats) == AbelianGroup((2, 2))
