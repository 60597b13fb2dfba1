"""Tests for the orbifold classification and the coset enumeration."""

from fractions import Fraction
from math import gcd

import pytest

from k3pi1.orbifold import (
    EUCLIDEAN,
    EUCLIDEAN_SIGNATURES,
    HYPERBOLIC,
    SPHERICAL_OR_BAD,
    OrbifoldSignature,
    classify,
    orbifold_euler_characteristic,
)

from oracles import coset_enumeration_order, group_order_oracle, orbifold_class

S = OrbifoldSignature


def test_signature_normalization():
    assert S((5, 2, 3)).cone_orders == (2, 3, 5)
    assert S((1, 2, 1, 3)).cone_orders == (2, 3)
    assert S().cone_orders == ()
    with pytest.raises(ValueError):
        S((0, 2))
    with pytest.raises(ValueError):
        S((-3,))


def test_signature_parse():
    assert S.parse("2,3,5") == S((2, 3, 5))
    assert S.parse("") == S()
    with pytest.raises(ValueError):
        S.parse("2,x")


def test_euler_characteristic_examples():
    assert orbifold_euler_characteristic(S()) == 2
    assert orbifold_euler_characteristic(S((2, 3, 5))) == Fraction(1, 30)
    assert orbifold_euler_characteristic(S((2, 2, 2, 2))) == 0
    assert orbifold_euler_characteristic(S((2, 3, 7))) == Fraction(-1, 42)


def test_classify_examples():
    assert classify(S((2, 3, 5))) == _sob(60)
    assert classify(S((2, 2, 2, 2))).kind == EUCLIDEAN
    assert classify(S((2, 3, 7))).kind == HYPERBOLIC
    assert classify(S((4, 6))) == _sob(2)
    assert classify(S()) == _sob(1)
    assert classify(S((7,))) == _sob(1)


def test_classify_spherical_triples():
    assert classify(S((2, 2, 5))) == _sob(10)
    assert classify(S((2, 3, 3))) == _sob(12)
    assert classify(S((2, 3, 4))) == _sob(24)


def test_classify_euclidean_table_is_exactly_chi_zero():
    for sig in EUCLIDEAN_SIGNATURES:
        assert orbifold_euler_characteristic(S(sig)) == 0
        assert classify(S(sig)).kind == EUCLIDEAN
    # no other signature with small entries has chi = 0
    import itertools

    for k in range(3, 6):
        for orders in itertools.combinations_with_replacement(range(2, 13), k):
            chi = orbifold_euler_characteristic(S(orders))
            if chi == 0:
                assert tuple(sorted(orders)) in EUCLIDEAN_SIGNATURES


def test_classify_matches_the_sign_of_chi_in_fraction():
    # every signature of at most 5 cone points with orders 1..12
    import itertools

    checked = 0
    for k in range(6):
        for orders in itertools.combinations_with_replacement(range(1, 13), k):
            got = classify(S(orders))
            assert (got.kind, got.order) == orbifold_class(orders), orders
            checked += 1
    assert checked == 6_188


def test_classify_invariant_under_permutation_and_ones():
    assert classify(S((5, 3, 2))) == classify(S((2, 3, 5)))
    assert classify(S((2, 1, 3, 1, 5))) == classify(S((2, 3, 5)))


def test_chi_strictly_decreases_in_each_order():
    for base in [(2, 2), (2, 3, 5), (2, 2, 2, 2), (3, 4)]:
        for i in range(len(base)):
            bumped = list(base)
            bumped[i] += 1
            assert orbifold_euler_characteristic(S(tuple(bumped))) < (
                orbifold_euler_characteristic(S(base))
            )


def test_oracle_spherical_triples():
    assert group_order_oracle((2, 3, 3), 10000) == 12
    assert group_order_oracle((2, 3, 4), 10000) == 24
    assert group_order_oracle((2, 3, 5), 10000) == 60


def test_oracle_dihedral_family():
    for n in range(2, 9):
        assert group_order_oracle((2, 2, n), 10000) == 2 * n


def test_oracle_two_cone_points_gcd():
    for m1 in range(2, 9):
        for m2 in range(2, 9):
            assert group_order_oracle((m1, m2), 10000) == gcd(m1, m2)


def test_oracle_trivial_cases():
    assert group_order_oracle((), 10) == 1
    assert group_order_oracle((5,), 100) == 1


def test_oracle_euclidean_does_not_close():
    assert group_order_oracle((2, 3, 6), 10000) is None


def test_oracle_matches_2_over_chi_on_spherical():
    for sig in [(2, 2, 2), (2, 2, 4), (2, 2, 7), (2, 3, 3), (2, 3, 4), (2, 3, 5)]:
        s = S(sig)
        chi = orbifold_euler_characteristic(s)
        assert group_order_oracle(s.cone_orders, 10000) == Fraction(2) / chi


def test_oracle_rejects_out_of_scale():
    with pytest.raises(ValueError):
        group_order_oracle((2, 2, 2, 2, 2), 100)
    with pytest.raises(ValueError):
        group_order_oracle((2, 9), 100)


def test_coset_enumeration_on_classic_presentations():
    # symmetric group S3 = <a, b | a^2, b^2, (ab)^3>
    a, b = 0, 2
    order = coset_enumeration_order(
        2, [[a, a], [b, b], [a, b] * 3], 1000
    )
    assert order == 6
    # quaternion presentation <a, b | a^4, a^2 b^-2, b^-1 a b a>
    a, ai, b, bi = 0, 1, 2, 3
    order = coset_enumeration_order(
        2, [[a] * 4, [a, a, bi, bi], [bi, a, b, a]], 1000
    )
    assert order == 8


def _sob(order):
    from k3pi1.orbifold import OrbifoldClass

    return OrbifoldClass(SPHERICAL_OR_BAD, order)
