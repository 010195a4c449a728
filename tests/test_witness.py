import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import linalg
from apolar.apolarity import concise_dim
from apolar.parsing import parse_poly
from apolar.poly import PRIMAL, Poly, TableMismatchError, VarTable, linear_form
from apolar.witness import (
    TangentDatum,
    direct_sum_extend,
    direct_summands,
    double_point_span,
    slice_intersection_certificate,
    tangent_limit_family,
)
from apolar.wildcert import (
    tangent_data_for_pairs,
    transform_presentation,
    wild_cubic,
    wild_presentation,
    wild_table,
)

from _oracle import (
    naive_add_laurent,
    naive_contract,
    naive_perturbed_power,
    naive_rank,
    random_poly,
)

T5 = wild_table()
F = wild_cubic(T5)


def hand_picked_family():
    """A five-term limit family for the wild cubic, chosen by hand:
    coefficients (1/3, -1/3, -1/12, -1/9, 1/9) on the bases x0, x0+x1,
    2*x1, x0-x1, x0+2*x1 with directions y0, y1, -y2, 0, 0."""
    x0, x1, y0, y1, y2 = (Poly.variable(T5, i) for i in range(5))
    zero = Poly.zero(T5)
    return (
        TangentDatum(Fraction(1, 3), x0, y0),
        TangentDatum(Fraction(-1, 3), x0 + x1, y1),
        TangentDatum(Fraction(-1, 12), 2 * x1, -y2),
        TangentDatum(Fraction(-1, 9), x0 - x1, zero),
        TangentDatum(Fraction(1, 9), x0 + 2 * x1, zero),
    )


def test_reference_family_certifies_the_limit():
    data = hand_picked_family()
    fam = tangent_limit_family(data, 3)
    assert fam.r == 5
    assert fam.limit == F


def test_quadratic_tangent_example():
    t = VarTable.make(("x", "y"))
    x, y = Poly.variable(t, 0), Poly.variable(t, 1)
    zero = Poly.zero(t)
    data = (
        TangentDatum(Fraction(-2), x, y),
        TangentDatum(Fraction(-2), y, zero),
        TangentDatum(Fraction(1), x + y, zero),
        TangentDatum(Fraction(1), x - y, zero),
    )
    fam = tangent_limit_family(data, 2)
    assert fam.limit == parse_poly("-4*x*y", table=t)


def test_all_zero_directions_give_zero_family():
    t = VarTable.make(("x", "y"))
    x, y = Poly.variable(t, 0), Poly.variable(t, 1)
    zero = Poly.zero(t)
    data = (
        TangentDatum(Fraction(1), x, zero),
        TangentDatum(Fraction(-1), x, zero),
    )
    fam = tangent_limit_family(data, 3)
    assert fam.r == 2
    assert fam.limit.is_zero()


def test_dependency_precondition_enforced():
    t = VarTable.make(("x", "y"))
    x, y = Poly.variable(t, 0), Poly.variable(t, 1)
    with pytest.raises(ValueError):
        tangent_limit_family((TangentDatum(Fraction(1), x, y),), 3)


def test_double_point_span_wild_pairs():
    x0, x1, y0, y1, y2 = (Poly.variable(T5, i) for i in range(5))
    pairs = [(x0, y0), (x0 + x1, -y1), (x1, y2)]
    record = double_point_span(F, pairs)
    cert = record.witness
    assert cert is not None and record.verified
    assert cert.cactus_upper == 6
    assert [b.value for b in record.certified()] == [6, 6]
    assert cert.point_coeffs == (Fraction(0),) * 3
    assert cert.jet_coeffs == (Fraction(1),) * 3
    assert [(b.rule, b.basis) for b in record.certified()] == [
        ("double-point-span", "computed"), ("curvilinear-smoothable", "cited")]


def test_double_point_certificate_with_one_perturbed_coefficient_is_rejected():
    # in GL5 coordinates, so the re-expansion runs over Fraction forms
    images = [linear_form(T5, row) for row in
              ((1, 2, 0, -1, 0), (0, 1, 3, 0, 1), (1, 0, 1, 1, 0), (0, -1, 0, 2, 1), (2, 0, 0, 0, 1))]
    pres = transform_presentation(wild_presentation(T5), images)
    pairs = [(z * Fraction(1, 2), w * Fraction(-3, 5)) for z, w in pres.square_pairs]
    cert = double_point_span(pres.poly, pairs).witness
    assert cert is not None and cert.verify()
    for field in ("point_coeffs", "jet_coeffs"):
        for i in range(3):
            coeffs = list(getattr(cert, field))
            coeffs[i] += Fraction(1, 1009)
            assert not cert.replace(**{field: tuple(coeffs)}).verify()
    (l, m), *rest = cert.pairs
    assert not cert.replace(pairs=((l, m * Fraction(1010, 1009)), *rest)).verify()


def test_double_point_span_pure_cube():
    t = VarTable.make(("x",))
    x = Poly.variable(t, 0)
    cert = double_point_span(x ** 3, [(x, Poly.zero(t))]).witness
    assert cert is not None
    assert cert.point_coeffs == (Fraction(1),)


@pytest.mark.parametrize("pair", [("x", "x^2"), ("x^2", "y"), ("0", "y"), ("x", "1")])
def test_double_point_span_rejects_pairs_that_are_not_linear(pair):
    t = VarTable.make(("x", "y"))
    f = parse_poly("x^2*y+y^3", table=t)
    l, m = (parse_poly(side, table=t) for side in pair)
    with pytest.raises(ValueError, match="linear"):
        double_point_span(f, [(parse_poly("x", table=t), parse_poly("y", table=t)), (l, m)])


def test_double_point_span_fails_for_generic_cubic():
    rng = random.Random(1009)
    t = VarTable.make(("a", "b", "c"))
    f = random_poly(rng, t, PRIMAL, 3, max_terms=10)
    assert concise_dim(f).dim == 3
    a, b = Poly.variable(t, 0), Poly.variable(t, 1)
    assert double_point_span(f, [(a, b)]).witness is None


def test_direct_summands():
    assert len(direct_summands(F)) == 1
    assert len(direct_summands(parse_poly("x0^3 + x1^3 + x2^3"))) == 3


def _slice_check(f, g):
    return slice_intersection_certificate((f, g), f + g).verified


def test_direct_sum_extension_wild_plus_cube():
    t6 = VarTable.make(("x0", "x1", "y0", "y1", "y2", "y3"))
    f = parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2", table=t6)
    g = parse_poly("y3^3", table=t6)
    F6, G6 = direct_sum_extend(f, g)
    assert _slice_check(F6, G6)
    assert [concise_dim(p).dim for p in (F6, G6, F6 + G6)] == [5, 1, 6]


def test_direct_sum_disjoint_cubes():
    t = VarTable.make(("x0", "x1"))
    f = parse_poly("x0^3", table=t)
    g = parse_poly("x1^3", table=t)
    summands = direct_sum_extend(f, g)
    assert _slice_check(*summands)
    assert concise_dim(summands[0] + summands[1]).dim == 2


def test_direct_sum_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        direct_sum_extend(F, Poly.zero(T5))
    with pytest.raises(ValueError):
        direct_sum_extend(F, F)


def test_direct_sum_rejects_summands_below_degree_two():
    with pytest.raises(ValueError, match="degree at least 2"):
        direct_sum_extend(parse_poly("x"), parse_poly("y"))
    with pytest.raises(ValueError, match="degree at least 2"):
        direct_sum_extend(parse_poly("x+z", vars=["x", "z"]), parse_poly("y"))


def test_direct_sum_merges_tables_by_name():
    # f's names first, then g's new ones; the shared name y keeps f's dual name
    f = parse_poly("x^3", table=VarTable.make(("x", "y"), dual=("a", "b")))
    g = parse_poly("z^3", table=VarTable.make(("y", "z"), dual=("c", "e")))
    fx, gz = direct_sum_extend(f, g)
    total = fx + gz
    assert total.table == VarTable.make(("x", "y", "z"), dual=("a", "b", "e"))
    assert total == parse_poly("x^3 + z^3", table=total.table)
    assert [concise_dim(p).dim for p in (fx, gz, total)] == [1, 1, 2]
    with pytest.raises(ValueError, match="summands share variables"):
        direct_sum_extend(parse_poly("x^3 + y^3", table=f.table), parse_poly("y^3", table=g.table))


def test_direct_sum_across_tables():
    ta = VarTable.make(("u",))
    tb = VarTable.make(("v",))
    summands = direct_sum_extend(parse_poly("u^3", table=ta), parse_poly("v^3", table=tb))
    assert summands[0].table.primal == summands[1].table.primal == ("u", "v")
    assert _slice_check(*summands)


# -- the slice check against stacked contraction ranks


def _exponents(n, k):
    return [m for m in itertools.product(range(k + 1), repeat=n) if sum(m) == k]


def _contraction_rows(p, d):
    """The degree-2 contraction matrix of p, from the definition: a row per
    degree-(d - 2) monomial, a column per degree-2 dual monomial."""
    n = p.table.n
    cols = [naive_contract({c: 1}, p.terms) for c in _exponents(n, 2)]
    return [[col.get(m, 0) for col in cols] for m in _exponents(n, d - 2)]


def _slice_check_reference(summands, total, d):
    """A degree-2 dual form kills every summand exactly when it kills the
    rows of their stacked matrices, and the common kernel lies in the
    total's, so the two are equal exactly when the ranks are."""
    stacked = [row for s in summands for row in _contraction_rows(s, d)]
    return naive_rank(stacked) == naive_rank(_contraction_rows(total, d))


def _nonzero_form(rng, table, d):
    while True:
        f = random_poly(rng, table, PRIMAL, d)
        if not f.is_zero():
            return f


def _seeded_summand_lists(rng, count):
    """(summands, total, degree): nonzero variable-disjoint pairs and splits
    (q, f - q) of a nonzero form, in 2-6 variables and degree 2-4."""
    for i in range(count):
        n, d = rng.randint(2, 6), rng.randint(2, 4)
        table = VarTable.make([f"v{j}" for j in range(n)])
        if i % 2:
            f = _nonzero_form(rng, table, d)
            q = random_poly(rng, table, PRIMAL, d, allow_zero=True)
            summands = (q, f - q)
        else:
            split = rng.randint(1, n - 1)
            summands = tuple(
                _nonzero_form(rng, VarTable.make([f"w{j}" for j in group]), d)
                .substitute([Poly.variable(table, j) for j in group])
                for group in (range(split), range(split, n)))
        yield summands, summands[0] + summands[1], d


def test_slice_check_matches_stacked_contraction_ranks():
    verdicts = set()
    for summands, total, d in _seeded_summand_lists(random.Random(27), 240):
        verdict = slice_intersection_certificate(summands, total).verified
        assert verdict == _slice_check_reference(summands, total, d), (summands, total)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_slice_check_rejects_summands_that_do_not_add_up():
    f, g = direct_sum_extend(parse_poly("x^3"), parse_poly("u^3"))
    with pytest.raises(ValueError, match="do not add up"):
        slice_intersection_certificate((f, g), f)
    with pytest.raises(ValueError, match="do not add up"):
        slice_intersection_certificate((f,), f + g)


# -- the two coefficients of a limit family against the binomial reference

COEFFS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))
TABLES = [VarTable.make([f"v{i}" for i in range(n)]) for n in range(1, 6)]


def coefficient_lists(n):
    return st.lists(st.one_of(st.just(0), COEFFS), min_size=n, max_size=n)


@st.composite
def tangent_data(draw):
    """1-4 random data over one table (bases nonzero, directions possibly
    zero), and, half the time, each datum mirrored by (-c / s^d, s * base,
    another direction) so that the constant term cancels."""
    table = draw(st.sampled_from(TABLES))
    d = draw(st.integers(0, 4))
    data = []
    for _ in range(draw(st.integers(1, 4))):
        base = linear_form(table, draw(coefficient_lists(table.n).filter(any)))
        direction = linear_form(table, draw(coefficient_lists(table.n)))
        c = draw(COEFFS)
        data.append(TangentDatum(c, base, direction))
        if draw(st.booleans()):
            s = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
            other = linear_form(table, draw(coefficient_lists(table.n)))
            data.append(TangentDatum(-Fraction(c) / s ** d, base * s, other))
    return data, d


def reference_family(data, d):
    """The per-j binomial reference for sum(c * (base + t*direction)^d)."""
    total = {}
    for td in data:
        total = naive_add_laurent(total, naive_perturbed_power(
            td.coefficient, td.base.terms, td.direction.terms, td.base.table.n, d))
    return total


def reference_limit(data, d):
    """The t^1 coefficient of the reference family."""
    return {m: l[1] for m, l in reference_family(data, d).items() if 1 in l}


@settings(max_examples=150, deadline=None)
@given(tangent_data())
def test_tangent_limit_family_equals_the_binomial_reference(case):
    data, d = case
    expected = reference_family(data, d)
    if any(0 in laurent for laurent in expected.values()):
        with pytest.raises(ValueError):
            tangent_limit_family(data, d)
        return
    fam = tangent_limit_family(data, d)
    assert fam.r == len(data)
    assert fam.limit.terms == reference_limit(data, d)


def test_tangent_families_of_transformed_pairs_equal_the_binomial_reference():
    rng = random.Random(7)
    pres = wild_presentation(T5)
    cases = [(hand_picked_family(), F)]
    while len(cases) < 4:
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if linalg.rank(m) == 5:
            moved = transform_presentation(pres, [linear_form(T5, row) for row in m])
            cases.append((tangent_data_for_pairs(moved.square_pairs), moved.poly))
    for data, target in cases:
        fam = tangent_limit_family(data, 3)
        assert fam.limit.terms == reference_limit(data, 3)
        assert fam.limit == target


def test_perturbed_power_rejects_mixed_tables():
    t = VarTable.make(("x", "y"))
    x, y = Poly.variable(t, 0), Poly.variable(t, 1)
    with pytest.raises(TableMismatchError):
        tangent_limit_family((TangentDatum(1, x, y), TangentDatum(-1, Poly.variable(T5, 0), y)), 3)
