"""The value types: construction by position and by keyword, defaults,
validation and normalisation of input, immutability, equality and
hashing, ordering, length, pickling and repr."""

import pickle
from fractions import Fraction

import pytest

from k3pi1.dynkin import AdeConfig, DuValType, local_euler_contribution
from k3pi1.kodaira import (
    Decoration,
    DecorationOutcome,
    FiberData,
    KodairaType,
    decoration_outcomes,
    fiber_data,
)
from k3pi1.lattice import IntegerGram, MeyerReport, SnfResult, smith_normal_form
from k3pi1.orbifold import OrbifoldClass, OrbifoldSignature
from k3pi1.pi1 import AbelianGroup, MonodromyRep, coinvariant_quotient
from k3pi1.surface import (
    NormalK3Input,
    Report,
    SweepInstance,
    SweepResult,
    Verdict,
)

A1, D4 = DuValType("A", 1), DuValType("D", 4)
I2, I0S = KodairaType("I", 2), KodairaType("I*", 0)
CONFIG = AdeConfig((A1, D4))
DEC = Decoration(I0S, frozenset({"t1"}))
OUTCOME = DecorationOutcome(I0S, 1, AdeConfig((A1,)), frozenset({"t1"}))
# I*0 without its four tails: four A1 points under a fiber of multiplicity 2
TAILS = DecorationOutcome(I0S, 2, AdeConfig((A1,) * 4), frozenset({"t1", "t2", "t3", "t4"}))
T, T_INV = ((1, 1), (0, 1)), ((1, -1), (0, 1))
QUOTIENT = AbelianGroup((2,))

# every field of each type, in order, with values that are already in
# normal form, so the stored values equal the given ones
FIELDS = [
    (DuValType, {"kind": "A", "n": 1}),
    (AdeConfig, {"entries": (A1, D4)}),
    (KodairaType, {"base": "I*", "n": 0}),
    (FiberData, {"components": (("c0", 1), ("c1", 1)), "dual_graph": (("c0", "c1", 2),)}),
    (Decoration, {"fiber": I0S, "removed": frozenset({"t1"})}),
    (DecorationOutcome, {"fiber": I0S, "m": 1, "config": AdeConfig((A1,)),
                         "removed": frozenset({"t1"})}),
    (IntegerGram, {"rows": ((2, -1), (-1, 2))}),
    (SnfResult, {"u": ((1, 0), (0, 1)), "diagonal": (2, 0), "v": ((1, 0), (0, 1))}),
    (MeyerReport, {"signature": (3, 2, 0), "bound": 2, "vector": (1, 0, 0, 1, 0)}),
    (OrbifoldSignature, {"cone_orders": (2, 3, 6)}),
    (OrbifoldClass, {"kind": "spherical_or_bad", "order": 12}),
    (MonodromyRep, {"matrices": (T, T_INV), "declared": (I2, None)}),
    (AbelianGroup, {"invariant_factors": (2, 4, 0)}),
    (NormalK3Input, {"singularities": None, "fibers": (DEC,), "monodromy": None}),
    (Verdict, {"kind": "FiniteFundamentalGroup"}),
    (Report, {"config": CONFIG, "e_orb": Fraction(35, 8),
              "fibers": (OUTCOME,), "classification": OrbifoldClass("spherical_or_bad", 2),
              "monodromy_quotient": QUOTIENT}),
    (SweepInstance, {"outcomes": (("I*0", 2, ("D4",), 4),), "cone_orders": (2, 2, 2, 2),
                     "classification": "euclidean", "r": 16, "e_orb": Fraction(0)}),
    (SweepResult, {"counts": {"euclidean": 1, "hyperbolic": 2}, "euclidean": [],
                   "hyperbolic": [], "violations": []}),
]
IDS = [cls.__name__ for cls, _ in FIELDS]

# the fields that may be left out, with the value they then take
DEFAULTS = [
    (AdeConfig(), {"entries": ()}),
    (KodairaType("II"), {"base": "II", "n": None}),
    (Decoration(I2), {"fiber": I2, "removed": frozenset()}),
    (OrbifoldSignature(), {"cone_orders": ()}),
    (OrbifoldClass("euclidean"), {"kind": "euclidean", "order": None}),
    (AbelianGroup(), {"invariant_factors": ()}),
    (NormalK3Input(singularities=CONFIG),
     {"singularities": CONFIG, "fibers": None, "monodromy": None}),
    (Report(CONFIG, Fraction(35, 8)),
     {"config": CONFIG, "e_orb": Fraction(35, 8), "fibers": None,
      "classification": None, "monodromy_quotient": None}),
]


def _assert_fields(obj, fields):
    for name, value in fields.items():
        assert getattr(obj, name) == value, name


@pytest.mark.parametrize("cls, fields", FIELDS, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert type(by_position) is cls and type(by_keyword) is cls
    _assert_fields(by_position, fields)
    _assert_fields(by_keyword, fields)
    assert by_position == by_keyword == pickle.loads(pickle.dumps(by_position))
    if cls is not SweepResult:  # holds lists, so it has no hash
        assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("cls, fields", FIELDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(*fields.values())) == f"{cls.__name__}({shown})"


def test_repr_text():
    assert repr(A1) == "DuValType(kind='A', n=1)"
    assert repr(KodairaType("IV*")) == "KodairaType(base='IV*', n=None)"
    assert repr(AdeConfig((D4, A1))) == (
        "AdeConfig(entries=(DuValType(kind='A', n=1), DuValType(kind='D', n=4)))"
    )
    assert repr(Decoration(I2)) == "Decoration(fiber=KodairaType(base='I', n=2), removed=frozenset())"
    assert repr(Verdict("TorusCover")) == "Verdict(kind='TorusCover')"


@pytest.mark.parametrize("obj, fields", DEFAULTS, ids=[type(o).__name__ for o, _ in DEFAULTS])
def test_defaults(obj, fields):
    _assert_fields(obj, fields)
    assert obj == type(obj)(**fields)


@pytest.mark.parametrize("cls, fields", [c for c in FIELDS if c[0] is not SweepResult],
                         ids=[i for i in IDS if i != "SweepResult"])
def test_fields_cannot_be_assigned(cls, fields):
    obj = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.extra = 1
    _assert_fields(obj, fields)


def test_report_derives_the_rank_gate_and_the_checks():
    derived = ("kind", "r", "rank_gate_passes", "rank_gate_consistent", "euclidean_euler_zero",
               "monodromy_quotient_trivial", "cone_orders", "verdict")
    finite, torus = Verdict("FiniteFundamentalGroup"), Verdict("TorusCover")
    kummer = Report(AdeConfig((A1,) * 16), Fraction(0), (TAILS,) * 4,
                    classification=OrbifoldClass("euclidean"))
    for report, values in [
        (Report(**dict(FIELDS)[Report]), ("fibered", 5, True, True, None, False, (), finite)),
        (Report(CONFIG, Fraction(35, 8)), ("bare", 5, True, None, None, None, None, finite)),
        (kummer, ("fibered", 16, False, True, True, None, (2, 2, 2, 2), torus)),
        (kummer._replace(config=CONFIG, e_orb=Fraction(35, 8)),
         ("fibered", 5, True, False, False, None, (2, 2, 2, 2), torus)),
        # not classified: no verdict, and no check that needs one
        (kummer._replace(classification=None),
         ("fibered", 16, False, None, None, None, (2, 2, 2, 2), None)),
        # bare input past the rank gate: a torus cover exactly when e_orb = 0
        (Report(AdeConfig((A1,) * 16), Fraction(0)),
         ("bare", 16, False, None, None, None, None, torus)),
        (Report(AdeConfig((A1,) * 16), Fraction(1, 2)),
         ("bare", 16, False, None, None, None, None, None)),
    ]:
        assert tuple(getattr(report, name) for name in derived) == values, report
        for name in derived:
            with pytest.raises(AttributeError):
                setattr(report, name, None)


def test_snf_result_derives_d_from_its_diagonal():
    # U and V fix the shape: D is len(u) x len(v), the diagonal on its
    # diagonal and zeros elsewhere
    wide = SnfResult(((1, 0), (0, 1)), (1, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    tall = SnfResult(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (3, 0), ((1, 0), (0, 1)))
    for result, d in [(wide, ((1, 0, 0), (0, 2, 0))), (tall, ((3, 0), (0, 0), (0, 0)))]:
        assert result.d == d
        with pytest.raises(AttributeError):
            result.d = d
    assert SnfResult((), (), ()).d == () and SnfResult(((1,),), (), ()).d == ((),)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12]]).d == ((2, 0, 0), (0, 6, 0))


def test_sweep_result_derives_its_total():
    result = SweepResult(**dict(FIELDS)[SweepResult])
    assert result.total == 3
    with pytest.raises(AttributeError):
        result.total = 4


@pytest.mark.parametrize("make, message", [
    (lambda: DuValType("D", 3), "invalid Du Val type D3"),
    (lambda: DuValType("A", 0), "invalid Du Val type A0"),
    (lambda: DuValType("E", 9), "invalid Du Val type E9"),
    (lambda: DuValType("B", 2), "invalid Du Val type B2"),
    # a value past the int-to-str limit is named by its bit length
    (lambda: DuValType("A", -10**5000), "invalid Du Val type A<negative 16610-bit integer>"),
    (lambda: DuValType("E", 10**5000), "invalid Du Val type E<16610-bit integer>"),
    (lambda: KodairaType("I", 0), "type I needs n >= 1, got 0"),
    (lambda: KodairaType("I"), "type I needs n >= 1, got None"),
    (lambda: KodairaType("I*", -1), "type I* needs n >= 0, got -1"),
    (lambda: KodairaType("I", -10**5000), "type I needs n >= 1, got <negative 16610-bit integer>"),
    (lambda: KodairaType("I*", -10**5000),
     "type I* needs n >= 0, got <negative 16610-bit integer>"),
    (lambda: KodairaType("IV", 2), "type IV takes no index"),
    (lambda: KodairaType("V"), "invalid Kodaira base 'V'"),
    (lambda: KodairaType(10**5000), "invalid Kodaira base <16610-bit integer>"),
    (lambda: DuValType(10**5000, 1), "invalid Du Val type <16610-bit integer>1"),
    (lambda: AbelianGroup((2, 3)), "broken divisibility chain (2, 3)"),
    (lambda: AbelianGroup((0, 2)), "zeros must come after the nonzero factors"),
    (lambda: AbelianGroup((-2,)), "invariant factors must be nonnegative"),
    (lambda: NormalK3Input(), "exactly one of singularities/fibers must be provided"),
    (lambda: NormalK3Input(CONFIG, (DEC,)), "exactly one of singularities/fibers must be provided"),
    (lambda: NormalK3Input(CONFIG, monodromy=MonodromyRep((T,))),
     "a monodromy representation needs fibered input"),
    (lambda: IntegerGram(((1, 2),)), "Gram matrix must be square"),
    (lambda: IntegerGram(((0, 1), (2, 0))), "Gram matrix not symmetric at (1, 0)"),
    (lambda: OrbifoldSignature((2, 0)), "cone order must be >= 1, got 0"),
    (lambda: OrbifoldSignature((-10**5000,)),
     "cone order must be >= 1, got <negative 16610-bit integer>"),
    (lambda: MonodromyRep((T,), (None, None)), "declared labels do not match the matrix count"),
    (lambda: MonodromyRep(([1, 1, 0],)), "expected a 2x2 matrix"),
])
def test_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_a_rejected_container_of_huge_integers_keeps_the_conversion_error():
    # only an integer is named by its bit length; a container of one
    # still raises str()'s own ValueError, not a TypeError
    for make in (lambda: KodairaType((10**5000,)), lambda: DuValType([10**5000], 1)):
        with pytest.raises(ValueError, match="integer string conversion"):
            make()


def test_normalisation():
    assert AdeConfig((D4, A1, DuValType("A", 10), A1)).entries == (
        A1, A1, DuValType("A", 10), D4,
    )
    assert AdeConfig([D4, A1]) == CONFIG

    for removed in (["t1", "t2"], {"t1", "t2"}, ("t2", "t1", "t2")):
        d = Decoration(I0S, removed)
        assert type(d.removed) is frozenset and d.removed == {"t1", "t2"}
        assert d == Decoration(I0S, frozenset({"t1", "t2"}))

    assert OrbifoldSignature((6, 1, 2, 1, 3)).cone_orders == (2, 3, 6)
    assert OrbifoldSignature((1, 1)) == OrbifoldSignature()
    with pytest.raises(TypeError):  # orders are integers, never text
        OrbifoldSignature(["3", 2])

    assert AbelianGroup((1, 2, 1, 4, 0)).invariant_factors == (2, 4, 0)
    assert AbelianGroup((1,)) == AbelianGroup()

    assert MonodromyRep((T, T_INV)).declared == (None, None)
    assert MonodromyRep([[[1, 1], [0, 1]]]).matrices == (T,)
    assert MonodromyRep((T,), [I2]).declared == (I2,)

    assert IntegerGram([[2, -1], [-1, 2]]).rows == ((2, -1), (-1, 2))


def test_an_index_must_be_an_integer():
    # read through operator.index: a float is refused rather than stored,
    # where it would reach exact arithmetic or a removed-set check
    cases = [(DuValType, "A", 1.5), (DuValType, "E", 8.0), (KodairaType, "I", 2.5),
             (KodairaType, "I*", 1.0), (KodairaType, "II", 1.0)]
    for cls, base, n in cases:
        with pytest.raises(TypeError):
            cls(base, n)
    # a bool is an integer, stored as a plain int
    assert DuValType("A", True) == A1 and type(DuValType("A", True).n) is int
    assert KodairaType("I", True).label == "I1" and type(KodairaType("I", True).n) is int
    assert KodairaType("I*", False).label == "I*0"


def test_an_integer_entry_must_be_an_integer():
    # int() would truncate these floats: 2.7 to 2, 1.9 to 1, 0.7 to 0,
    # and a factor 1.0 would pass the filter of trivial factors
    rep = MonodromyRep((T, T_INV))
    for make in [lambda: IntegerGram([[2.7, 0], [0, 1]]),
                 lambda: MonodromyRep((((1.9, 0), (0, 1)),)),
                 lambda: AbelianGroup((2.9,)),
                 lambda: AbelianGroup((1.0,)),
                 lambda: coinvariant_quotient(rep, subset=[0.7]),
                 lambda: smith_normal_form([[2.5, 0], [0, 1]]),
                 # 2.9 would be read as 2, and (2.9, 3.5, 6.1) as the euclidean (2, 3, 6)
                 lambda: OrbifoldSignature((2.9, 3.5, 6.1)),
                 lambda: OrbifoldSignature((2.0,)),
                 lambda: OrbifoldSignature((Fraction(5, 2), 3)),
                 # int() would read "1_0" as 10 and "\u0663" as 3
                 lambda: OrbifoldSignature(("3",)),
                 lambda: OrbifoldSignature(("1_0",)),
                 lambda: OrbifoldSignature(("\u0663", " 2 "))]:
        with pytest.raises(TypeError):
            make()
    # a bool is an integer, stored as a plain int
    identity = ((True, False), (False, True))
    for value in (IntegerGram(identity).rows, MonodromyRep((identity,)).matrices[0]):
        assert value == ((1, 0), (0, 1)) and {type(x) for row in value for x in row} == {int}
    diagonal = smith_normal_form(identity).diagonal
    assert diagonal == (1, 1) and {type(x) for x in diagonal} == {int}
    group = AbelianGroup((True, 2, False))
    assert group.invariant_factors == (2, 0) and type(group.invariant_factors[1]) is int
    assert coinvariant_quotient(rep, subset=[False]) == coinvariant_quotient(rep, subset=[0])
    assert OrbifoldSignature((True, 2)).cone_orders == (2,)


def test_equal_fields_give_equal_objects_and_hashes():
    pairs = [
        (DuValType("A", 1), DuValType(kind="A", n=1)),
        (AdeConfig((D4, A1)), AdeConfig.from_labels(["A1", "D4"])),
        (KodairaType("I*", 0), KodairaType.parse("I*0")),
        (Decoration(I0S, {"t1"}), DEC),
        (OrbifoldSignature((3, 2)), OrbifoldSignature.parse("2,3")),
        (AbelianGroup((1, 2)), AbelianGroup((2,))),
        (IntegerGram.from_rows([[2]]), IntegerGram(((2,),))),
        (NormalK3Input.bare(CONFIG), NormalK3Input(singularities=CONFIG)),
        (NormalK3Input.fibered([DEC]), NormalK3Input(fibers=(DEC,))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and type(a) is type(b), a
        assert len({a, b}) == 1
    assert DuValType("A", 1) != DuValType("A", 2)
    assert KodairaType("I", 2) != KodairaType("I", 3)
    assert Decoration(I0S) != DEC
    assert AdeConfig((A1,)) != AdeConfig((A1, A1))


def test_cached_lookups_do_not_answer_a_plain_tuple_for_its_twin():
    # a value type equals and hashes like the plain tuple of its fields,
    # so a cache keyed by equality alone would answer the tuple once the
    # value type was cached
    for lookup, twin in [(local_euler_contribution, A1), (fiber_data, I2),
                         (decoration_outcomes, I2)]:
        lookup(twin)
        with pytest.raises(AttributeError):
            lookup(tuple(twin))


def test_du_val_and_kodaira_types_order_by_their_fields():
    types = [DuValType("E", 6), DuValType("A", 10), D4, DuValType("A", 2), A1, DuValType("D", 5)]
    assert sorted(types) == [A1, DuValType("A", 2), DuValType("A", 10), D4,
                             DuValType("D", 5), DuValType("E", 6)]
    assert DuValType("A", 2) < DuValType("A", 10) <= DuValType("A", 10) < D4
    assert sorted(types) == sorted(types, key=lambda t: (t.kind, t.n))

    fibers = [KodairaType("II*"), KodairaType("I", 10), KodairaType("III"), I0S,
              KodairaType("I", 2), KodairaType("II"), KodairaType("I*", 3)]
    assert sorted(fibers) == sorted(fibers, key=lambda t: (t.base, t.n or 0))
    assert sorted(fibers)[:4] == [I2, KodairaType("I", 10), I0S, KodairaType("I*", 3)]
    assert KodairaType("II") <= KodairaType("II") < KodairaType("II*") < KodairaType("III")


def test_len_and_truth_of_configs_and_representations():
    assert len(AdeConfig()) == 0 and not AdeConfig()
    assert len(CONFIG) == 2 and CONFIG
    assert len(AdeConfig((A1,) * 16)) == 16
    assert len(MonodromyRep(())) == 0 and not MonodromyRep(())
    rep = MonodromyRep((T, T_INV, T))
    assert len(rep) == 3 and rep


def test_classmethods_return_their_class():
    assert type(DuValType.parse("E8")) is DuValType
    assert type(AdeConfig.from_labels(["A1"])) is AdeConfig
    assert type(KodairaType.parse("IV*")) is KodairaType
    assert type(OrbifoldSignature.parse("2,2")) is OrbifoldSignature
    assert type(IntegerGram.from_rows([[2]])) is IntegerGram
    assert type(NormalK3Input.bare(CONFIG)) is NormalK3Input
    assert type(NormalK3Input.fibered([DEC], MonodromyRep((T,)))) is NormalK3Input
