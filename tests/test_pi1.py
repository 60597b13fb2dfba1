"""Tests for monodromy representation validation and Z^2 quotients."""

import random

import pytest

from k3pi1.kodaira import KodairaType, fiber_data
from k3pi1.pi1 import (
    IDENTITY,
    MINUS_IDENTITY,
    AbelianGroup,
    ClassMismatch,
    DetNotOne,
    MonodromyClass,
    MonodromyRep,
    ProductNotIdentity,
    coinvariant_quotient,
    kodaira_class_of,
    mat_mul2,
    validate_representation,
)

from oracles import mat2_power_order

A = ((1, 1), (0, 1))
B = ((1, 0), (-1, 1))


def test_validate_rejects_non_identity_product():
    with pytest.raises(ProductNotIdentity):
        validate_representation(MonodromyRep((A,)))


def test_validate_accepts_inverse_pair():
    rep = MonodromyRep((A, ((1, -1), (0, 1))))
    classes = validate_representation(rep)
    assert classes == (MonodromyClass.UNIPOTENT, MonodromyClass.UNIPOTENT)


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

    monkeypatch.setattr("k3pi1.kodaira._build_fiber", no_table)
    huge_i, huge_istar = KodairaType("I", 10**12), KodairaType("I*", 10**12)
    validate_representation(MonodromyRep((A, ((1, -1), (0, 1))), (huge_i, huge_i)))
    minus = (((-1, -1), (0, -1)), ((-1, 1), (0, -1)))
    validate_representation(MonodromyRep(minus, (huge_istar, huge_istar)))
    with pytest.raises(ClassMismatch) as exc:
        validate_representation(MonodromyRep(minus, (None, huge_i)))
    assert str(exc.value) == (
        "matrix 1 declared I1000000000000 but its trace/order class is I*_n"
    )


def test_kodaira_class_of_examples():
    assert kodaira_class_of(((1, 5), (0, 1))) is MonodromyClass.UNIPOTENT
    assert kodaira_class_of(((0, -1), (1, 0))) is MonodromyClass.ORDER_FOUR
    assert kodaira_class_of(((2, 1), (1, 1))) is MonodromyClass.UNRECOGNIZED
    assert kodaira_class_of(IDENTITY) is MonodromyClass.IDENTITY
    assert kodaira_class_of(MINUS_IDENTITY) is MonodromyClass.MINUS_IDENTITY
    with pytest.raises(ValueError):
        kodaira_class_of(((1, 0), (0, 2)))


def test_order_four_matrix_squares_to_minus_identity():
    t = ((0, -1), (1, 0))
    assert mat_mul2(t, t) == MINUS_IDENTITY
    assert mat2_power_order(t) == 4


def test_canonical_fiber_matrices_hit_their_buckets():
    # the trace/order bucket of each Kodaira type, from Kodaira's table
    buckets = {
        "I1": MonodromyClass.UNIPOTENT,
        "I5": MonodromyClass.UNIPOTENT,
        "II": MonodromyClass.ORDER_SIX,
        "III": MonodromyClass.ORDER_FOUR,
        "IV": MonodromyClass.ORDER_THREE,
        "I*0": MonodromyClass.MINUS_IDENTITY,
        "I*3": MonodromyClass.MINUS_UNIPOTENT,
        "IV*": MonodromyClass.ORDER_THREE,
        "III*": MonodromyClass.ORDER_FOUR,
        "II*": MonodromyClass.ORDER_SIX,
    }
    for label, bucket in buckets.items():
        t = KodairaType.parse(label)
        assert kodaira_class_of(fiber_data(t).monodromy) is bucket, label


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
    assert mat2_power_order(mat_mul2(A, B)) == 6
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
            p = mat_mul2(p, rng.choice([s, t]))
        conj = tuple(_conjugate(p, m) for m in rep_mats)
        q1 = coinvariant_quotient(MonodromyRep(rep_mats))
        q2 = coinvariant_quotient(MonodromyRep(conj))
        assert q1 == q2


def test_quotient_shrinks_as_subset_grows():
    rng = random.Random(77)
    for _ in range(25):
        rep = MonodromyRep(_random_rep(rng, 4))
        sizes = []
        for upto in range(5):
            q = coinvariant_quotient(rep, range(upto))
            sizes.append(q.order if q.is_finite else None)
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
    return mat_mul2(mat_mul2(p, m), inv)


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
        prod = mat_mul2(prod, a)
    inv = ((prod[1][1], -prod[0][1]), (-prod[1][0], prod[0][0]))
    mats.append(inv)
    return tuple(mats)
