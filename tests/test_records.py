"""The value records of every module: their repr, equality, hashing,
immutability, validation, `replace`, pickling and copying.  The repr texts
are those the records have always printed, field by field in declaration
order."""

import copy
import pickle
from fractions import Fraction

import pytest

from apolar.apolarity import EssentialSpace, HilbertFn
from apolar.ideals import IdealSlice, MembershipCertificate
from apolar.poly import DUAL, Poly, TableMismatchError, VarTable
from apolar.ranks import Deduction, EvidenceRecord, RankReport, SylvesterResult
from apolar.wildcert import (
    PowerSumDecomposition,
    ProductLocus,
    WildPresentation,
    WildReport,
    theorem2_report,
    wild_cubic,
    wild_table,
)
from apolar.witness import DoublePointCertificate, TangentDatum, TangentFamily

MUTABLE = (RankReport, WildReport)  # reports the pipeline fills in, compared by identity


def examples() -> dict:
    """One record of each class, built afresh on every call, so two calls
    give records with equal but distinct fields."""
    t = VarTable.make(("x", "y"))
    x, y = Poly.variable(t, 0), Poly.variable(t, 1)
    dx, dy = Poly.variable(t, 0, DUAL), Poly.variable(t, 1, DUAL)
    ded = Deduction("rank", "upper", 3, rule="power-sum", detail="3 exact cubes")
    records = [
        VarTable(("x", "y"), ("d_x", "d_y")),
        HilbertFn((1, 2, 1)),
        EssentialSpace(dim=1, basis=(x + y,), reduced=x ** 3, table=VarTable.make(("x",))),
        IdealSlice(degree=1, basis=(dx - dy,), table=t),
        MembershipCertificate(target=dx * dy, pairs=((dx, dy), (dy, Poly.zero(t, DUAL)))),
        ded,
        EvidenceRecord("power-sum-decomposition", True, ("3 cubes re-expand to the target",),
                       bounds=(ded,), witness=(1, 2)),
        RankReport(lows={"rank": 2}, ups={"rank": None}, provenance=(ded,)),
        SylvesterResult(d1=2, d2=3, rank=3, evidence=(ded,)),
        WildPresentation(poly=x ** 2 * y, square_pairs=((x, y),)),
        ProductLocus(quadric=(1, 0, -1), samples=(((1, 1), (0, 1)),), smooth=True),
        PowerSumDecomposition(target=x ** 3, terms=((Fraction(1), x),)),
        WildReport(poly=x ** 2 * y, facts=None, notes=("a note",)),
        TangentDatum(Fraction(1, 2), x, y),
        TangentFamily(data=(TangentDatum(Fraction(1), x, Poly.zero(t)),), limit=Poly.zero(t)),
        DoublePointCertificate(target=x ** 3, pairs=((x, y),), point_coeffs=(Fraction(1),),
                               jet_coeffs=(Fraction(0),)),
    ]
    return {type(r).__name__: r for r in records}


DED = ("Deduction(notion='rank', side='upper', value=3, rule='power-sum',"
       " detail='3 exact cubes', basis='computed')")
REPRS = {
    "VarTable": "VarTable(primal=('x', 'y'), dual=('d_x', 'd_y'))",
    "HilbertFn": "HilbertFn(values=(1, 2, 1))",
    "EssentialSpace": "EssentialSpace(dim=1, basis=(Poly(primal: x + y),), reduced=Poly(primal:"
                      " x^3), table=VarTable(primal=('x',), dual=('d_x',)))",
    "IdealSlice": "IdealSlice(degree=1, basis=(Poly(dual: d_x - d_y),), table=VarTable(primal="
                  "('x', 'y'), dual=('d_x', 'd_y')), ring='dual')",
    "MembershipCertificate": "MembershipCertificate(target=Poly(dual: d_x*d_y), pairs=((Poly(dual:"
                             " d_x), Poly(dual: d_y)), (Poly(dual: d_y), Poly(dual: 0))))",
    "Deduction": DED,
    "EvidenceRecord": "EvidenceRecord(kind='power-sum-decomposition', verified=True, stage_log="
                      "('3 cubes re-expand to the target',), basis='computed', bounds=("
                      + DED + ",), stages=())",
    "RankReport": "RankReport(lows={'rank': 2}, ups={'rank': None}, provenance=(" + DED + ",))",
    "SylvesterResult": "SylvesterResult(d1=2, d2=3, rank=3, evidence=(" + DED + ",))",
    "WildPresentation": "WildPresentation(poly=Poly(primal: x^2*y), square_pairs=((Poly(primal:"
                        " x), Poly(primal: y)),))",
    "ProductLocus": "ProductLocus(quadric=(1, 0, -1), samples=(((1, 1), (0, 1)),), smooth=True)",
    "PowerSumDecomposition": "PowerSumDecomposition(target=Poly(primal: x^3), terms=((Fraction(1,"
                             " 1), Poly(primal: x)),))",
    "WildReport": "WildReport(poly=Poly(primal: x^2*y), facts=None, pairs=None, direct_sum=False,"
                  " evidence=(), certificates=(), notes=('a note',), report=None)",
    "TangentDatum": "TangentDatum(coefficient=Fraction(1, 2), base=Poly(primal: x),"
                    " direction=Poly(primal: y))",
    "TangentFamily": "TangentFamily(data=(TangentDatum(coefficient=Fraction(1, 1), base=Poly("
                     "primal: x), direction=Poly(primal: 0)),), limit=Poly(primal: 0))",
    "DoublePointCertificate": "DoublePointCertificate(target=Poly(primal: x^3), pairs=((Poly("
                              "primal: x), Poly(primal: y)),), point_coeffs=(Fraction(1, 1),),"
                              " jet_coeffs=(Fraction(0, 1),))",
}

_T = VarTable.make(("x", "y"))
_X, _Y = Poly.variable(_T, 0), Poly.variable(_T, 1)

# per frozen class: a field and another valid value for it
CHANGE = {
    "VarTable": ("dual", ("e_x", "e_y")),
    "HilbertFn": ("values", (1, 1)),
    "EssentialSpace": ("dim", 2),
    "IdealSlice": ("basis", ()),
    "MembershipCertificate": ("pairs", ()),
    "Deduction": ("value", 4),
    "EvidenceRecord": ("verified", False),
    "SylvesterResult": ("rank", 2),
    "WildPresentation": ("square_pairs", ((_X, _Y), (_Y, Poly.zero(_T)))),
    "ProductLocus": ("smooth", False),
    "PowerSumDecomposition": ("terms", ()),
    "TangentDatum": ("coefficient", Fraction(1, 3)),
    "TangentFamily": ("data", ()),
    "DoublePointCertificate": ("jet_coeffs", (Fraction(1),)),
}

# per class with checks: (field changes, the error they raise, its message)
INVALID = {
    "VarTable": [({"dual": ("d_x",)}, ValueError, "differ in length"),
                 ({"dual": ("y", "d_y")}, ValueError, "unique across both rings")],
    "Deduction": [({"notion": "width"}, ValueError, "unknown notion 'width'"),
                  ({"side": "middle"}, ValueError, "unknown side 'middle'")],
    "IdealSlice": [({"degree": 2}, ValueError, "slice basis element of wrong degree"),
                   ({"table": VarTable.make(("x", "z"))}, TableMismatchError, "another table")],
    "TangentDatum": [({"base": Poly.zero(_T)}, ValueError, "base must be a nonzero linear form"),
                     ({"base": _X * _Y}, ValueError, "base must be a nonzero linear form"),
                     ({"direction": _X * _Y}, ValueError, "direction must be linear or zero")],
    "WildPresentation": [({"square_pairs": ((_Y, _X),)}, ValueError,
                          "square pairs do not re-expand to the polynomial")],
}


def _slot_values(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


@pytest.mark.parametrize("name", list(REPRS))
def test_a_record_keeps_its_value_semantics(name):
    record, twin = examples()[name], examples()[name]
    cls = type(record)
    assert repr(record) == REPRS[name]
    others = [r for n, r in examples().items() if n != name]
    assert all(record != r and not record == r for r in others)
    assert record != tuple(_slot_values(record).values())
    if cls in MUTABLE:  # they stay writable
        assert record == record and record != twin
        setattr(record, cls.__slots__[0], None)
        return
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record.replace() == record
    field, value = CHANGE[name]
    changed = record.replace(**{field: value})
    assert getattr(changed, field) == value and changed != record and record != changed
    for attribute in cls.__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, attribute)
    with pytest.raises(AttributeError, match="immutable"):
        record.extra = 1
    for changes, error, message in INVALID.get(name, ()):
        with pytest.raises(error, match=message):
            cls(**(_slot_values(record) | changes))
        with pytest.raises(error, match=message):
            record.replace(**changes)


def test_every_record_class_is_covered():
    assert len(REPRS) == len(examples()) == 16
    assert set(CHANGE) == set(REPRS) - {cls.__name__ for cls in MUTABLE}


ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_records_and_polys_survive_pickle_and_copy(trip):
    round_trip = ROUND_TRIPS[trip]
    for name, record in examples().items():
        twin = round_trip(record)
        assert type(twin) is type(record) and repr(twin) == REPRS[name]
        assert _slot_values(twin) == _slot_values(record)  # the witness too
        if type(record) not in MUTABLE:
            assert twin == record and hash(twin) == hash(record)
    x = Poly.variable(_T, 0)
    assert round_trip(x * _Y - x) == x * _Y - x
    assert round_trip(x).homogeneous_degree() == 1


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_a_copied_or_unpickled_value_is_checked_again(trip):
    # a copy is rebuilt through the public constructor, so a value built
    # unchecked comes back canonical, or not at all when it is invalid
    round_trip = ROUND_TRIPS[trip]
    with pytest.raises(ValueError, match="unique across both rings"):
        round_trip(VarTable._of(("x",), ("x",)))
    loose = Poly._of(_T, "primal", {(1, 0): 2, (0, 1): Fraction(0)})
    twin = round_trip(loose)
    assert twin.terms == {(1, 0): Fraction(2)} and type(twin.terms[(1, 0)]) is Fraction


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_a_wild_theorem2_report_survives_pickle_and_copy(trip):
    rep = theorem2_report(wild_cubic(wild_table()))
    twin = ROUND_TRIPS[trip](rep)
    assert twin.final() == rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
    assert twin.certificates == rep.certificates and twin.evidence == rep.evidence
    assert [repr(c) for c in twin.certificates] == [repr(c) for c in rep.certificates]
    assert [c.witness for c in twin.certificates] == [c.witness for c in rep.certificates]
    assert any(c.witness is not None for c in twin.certificates)
    assert twin.report.as_dict() == rep.report.as_dict() and twin.notes == rep.notes
