"""The value types: construction by position and by keyword, defaults,
validation and normalisation of input, immutability, equality and
hashing, ordering, length, pickling and repr."""

import pickle
from fractions import Fraction

import pytest

from k3pi1.dynkin import AdeConfig, DuValType
from k3pi1.kodaira import (
    Decoration,
    DecorationOutcome,
    DecorationSummary,
    FiberData,
    KodairaType,
)
from k3pi1.lattice import IntegerGram, MeyerReport, SnfResult
from k3pi1.orbifold import OrbifoldClass, OrbifoldSignature
from k3pi1.pi1 import AbelianGroup, MonodromyRep
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
SUMMARY = DecorationSummary(DEC, 1, AdeConfig((A1,)))
T, T_INV = ((1, 1), (0, 1)), ((1, -1), (0, 1))
QUOTIENT = AbelianGroup((2,))

# every field of each type, in order, with values that are already in
# normal form, so the stored values equal the given ones
FIELDS = [
    (DuValType, {"kind": "A", "n": 1}),
    (AdeConfig, {"entries": (A1, D4)}),
    (KodairaType, {"base": "I*", "n": 0}),
    (FiberData, {"fiber": I2, "components": (("c0", 1), ("c1", 1)),
                 "dual_graph": (("c0", "c1", 2),), "monodromy": ((1, 2), (0, 1)), "euler": 2}),
    (Decoration, {"fiber": I0S, "removed": frozenset({"t1"})}),
    (DecorationSummary, {"decoration": DEC, "m": 1, "removed_config": AdeConfig((A1,))}),
    (DecorationOutcome, {"fiber": I0S, "m": 1, "config": AdeConfig((A1,)),
                         "removed": frozenset({"t1"})}),
    (IntegerGram, {"rows": ((2, -1), (-1, 2))}),
    (SnfResult, {"u": ((1, 0), (0, 1)), "d": ((2, 0), (0, 0)), "v": ((1, 0), (0, 1))}),
    (MeyerReport, {"signature": (3, 2, 0), "bound": 2, "vector": (1, 0, 0, 1, 0)}),
    (OrbifoldSignature, {"cone_orders": (2, 3, 6)}),
    (OrbifoldClass, {"kind": "spherical_or_bad", "order": 12}),
    (MonodromyRep, {"matrices": (T, T_INV), "declared": (I2, None)}),
    (AbelianGroup, {"invariant_factors": (2, 4, 0)}),
    (NormalK3Input, {"singularities": None, "fibers": (DEC,), "monodromy": None}),
    (Verdict, {"kind": "FiniteFundamentalGroup"}),
    (Report, {"kind": "fibered", "config": CONFIG, "e_orb": Fraction(35, 8),
              "fibers": (SUMMARY,), "cone_orders": (2,),
              "classification": OrbifoldClass("spherical_or_bad", 2),
              "verdict": Verdict("FiniteFundamentalGroup"), "monodromy_quotient": QUOTIENT}),
    (SweepInstance, {"outcomes": (("I*0", 2, ("D4",), 4),), "cone_orders": (2, 2, 2, 2),
                     "classification": "euclidean", "r": 16, "e_orb": Fraction(0)}),
    (SweepResult, {"total": 3, "counts": {"euclidean": 1}, "euclidean": [], "hyperbolic": [],
                   "violations": []}),
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
    (Report("bare", CONFIG, Fraction(35, 8)),
     {"kind": "bare", "config": CONFIG, "e_orb": Fraction(35, 8), "fibers": None,
      "cone_orders": None, "classification": None, "verdict": None, "monodromy_quotient": None}),
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
    derived = ("r", "rank_gate_passes", "rank_gate_consistent", "euclidean_euler_zero",
               "monodromy_quotient_trivial")
    torus = Report("fibered", AdeConfig((A1,) * 16), Fraction(0),
                   classification=OrbifoldClass("euclidean"), verdict=Verdict("TorusCover"))
    for report, values in [
        (Report(**dict(FIELDS)[Report]), (5, True, True, None, False)),
        (Report("bare", CONFIG, Fraction(35, 8)), (5, True, None, None, None)),
        (torus, (16, False, True, True, None)),
        (torus._replace(config=CONFIG, e_orb=Fraction(35, 8)), (5, True, False, False, None)),
    ]:
        assert tuple(getattr(report, name) for name in derived) == values, report
        for name in derived:
            with pytest.raises(AttributeError):
                setattr(report, name, None)


@pytest.mark.parametrize("make, message", [
    (lambda: DuValType("D", 3), "invalid Du Val type D3"),
    (lambda: DuValType("A", 0), "invalid Du Val type A0"),
    (lambda: DuValType("E", 9), "invalid Du Val type E9"),
    (lambda: DuValType("B", 2), "invalid Du Val type B2"),
    (lambda: KodairaType("I", 0), "type I needs n >= 1, got 0"),
    (lambda: KodairaType("I"), "type I needs n >= 1, got None"),
    (lambda: KodairaType("I*", -1), "type I* needs n >= 0, got -1"),
    (lambda: KodairaType("IV", 2), "type IV takes no index"),
    (lambda: KodairaType("V"), "invalid Kodaira base 'V'"),
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
    (lambda: MonodromyRep((T,), (None, None)), "declared labels do not match the matrix count"),
    (lambda: MonodromyRep(([1, 1, 0],)), "expected a 2x2 matrix"),
])
def test_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    assert str(info.value) == message


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
    assert OrbifoldSignature(["3", 2]).cone_orders == (2, 3)

    assert AbelianGroup((1, 2, 1, 4, 0)).invariant_factors == (2, 4, 0)
    assert AbelianGroup((1,)) == AbelianGroup()

    assert MonodromyRep((T, T_INV)).declared == (None, None)
    assert MonodromyRep([[[1, 1], [0, 1]]]).matrices == (T,)
    assert MonodromyRep((T,), [I2]).declared == (I2,)

    assert IntegerGram([[2, -1], [-1, 2]]).rows == ((2, -1), (-1, 2))


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
