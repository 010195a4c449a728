import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar.apolarity import contract
from apolar.poly import (
    DUAL,
    PRIMAL,
    Poly,
    TableMismatchError,
    VarTable,
    linear_form,
    monomial_count,
    monomials,
)
from apolar.parsing import parse_poly

from _oracle import naive_power_terms, naive_substitute, poly_from_vector, random_poly


T2 = VarTable.make(("x", "y"))
T5 = VarTable.make(("x0", "x1", "y0", "y1", "y2"))


def v(table, i):
    return Poly.variable(table, i)


def test_additive_inverse():
    x = v(T2, 0)
    assert ((x ** 3) + (-(x ** 3))).is_zero()


def test_disjoint_supports_add():
    p = parse_poly("x0^2*y0 + x1^2*y2", table=T5)
    assert len(p.terms) == 2


def test_wild_expansion_has_cross_term():
    x0, x1, y0, y1, y2 = (v(T5, i) for i in range(5))
    f = (x0 ** 2) * y0 - ((x0 + x1) ** 2) * y1 + (x1 ** 2) * y2
    assert len(f.terms) == 5
    assert f.coeff((1, 1, 0, 1, 0)) == Fraction(-2)


def test_difference_of_squares():
    x, y = v(T2, 0), v(T2, 1)
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_multiply_identity():
    p = parse_poly("x^2 + 3*y^2", table=T2)
    one = Poly.constant(T2, 1)
    assert one * p == p


def test_middle_summand_expansion():
    x0, x1, y1 = v(T5, 0), v(T5, 1), v(T5, 3)
    p = ((x0 + x1) ** 2) * y1
    assert p == parse_poly("x0^2*y1 + 2*x0*x1*y1 + x1^2*y1", table=T5)


def test_table_mismatch_rejected():
    with pytest.raises(TableMismatchError):
        v(T2, 0) + v(T5, 0)


def test_a_table_built_from_lists_is_the_table_built_from_tuples():
    listed = VarTable(["x", "y"], ["d_x", "d_y"])
    made = VarTable.make(["x", "y"])
    assert (listed.primal, listed.dual) == (("x", "y"), ("d_x", "d_y"))
    assert listed == made and hash(listed) == hash(made)
    f = parse_poly("x^2 + y", table=listed)
    g = parse_poly("x*y", table=made)
    assert hash(f) == hash(parse_poly("y + x^2", table=made))
    assert f + g == parse_poly("x^2 + x*y + y", table=made)


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    table = VarTable.make(tuple(f"v{i}" for i in range(4)))
    for _ in range(1000):
        deg = rng.randint(0, 4)
        a = random_poly(rng, table, PRIMAL, deg, allow_zero=True)
        b = random_poly(rng, table, PRIMAL, rng.randint(0, 4), allow_zero=True)
        c = random_poly(rng, table, PRIMAL, rng.randint(0, 4), allow_zero=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_substitution_is_multiplicative():
    rng = random.Random(99)
    table = VarTable.make(("u", "v", "w"))
    target = VarTable.make(("s", "t", "r"))
    for _ in range(60):
        images = [
            linear_form(target, [rng.randint(-2, 2) for _ in range(3)])
            for _ in range(3)
        ]
        if any(img.is_zero() for img in images):
            continue
        p = random_poly(rng, table, PRIMAL, rng.randint(1, 3))
        q = random_poly(rng, table, PRIMAL, rng.randint(1, 3))
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_identity_substitution():
    p = parse_poly("x0^2*y0 - x1^2*y1", table=T5)
    images = [v(T5, i) for i in range(5)]
    assert p.substitute(images) == p


def test_substitution_killing_variables():
    p = parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2", table=T5)
    zero = Poly.zero(T5)
    images = [v(T5, 0), v(T5, 1), zero, zero, zero]
    assert p.substitute(images).is_zero()


def test_binomial_theorem_substitution():
    x, y = v(T2, 0), v(T2, 1)
    p = (x ** 3).substitute([x + y, y])
    assert p == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", table=T2)


def test_nonlinear_image_rejected():
    p = v(T2, 0) ** 2
    with pytest.raises(ValueError):
        p.substitute([v(T2, 0) ** 2, v(T2, 1)])


def test_homogeneous_degree_query():
    assert parse_poly("x^2 + y^2", table=T2).homogeneous_degree() == 2
    assert parse_poly("x^2 + y", table=T2).homogeneous_degree() is None
    assert not parse_poly("x^2 + y", table=T2).is_homogeneous()


def test_monomial_count_matches_binomial():
    for n in range(1, 6):
        for d in range(0, 5):
            got = list(monomials(n, d))
            assert len(got) == comb(n + d - 1, d) == monomial_count(n, d)
            assert len(set(got)) == len(got)
            assert all(sum(m) == d for m in got)


def test_power_of_variable_sum_has_full_support():
    for n in range(1, 5):
        table = VarTable.make(tuple(f"t{i}" for i in range(n)))
        s = Poly.zero(table)
        for i in range(n):
            s = s + v(table, i)
        for d in range(1, 5):
            assert len((s ** d).terms) == comb(n + d - 1, d)


def test_canonical_order_is_descending_graded_lex():
    order = list(monomials(3, 2))
    assert order[0] == (2, 0, 0)
    assert order == sorted(order, reverse=True)


def test_monomials_is_one_shared_tuple_in_grlex_order():
    for n in range(1, 6):
        for d in range(0, 5):
            got = monomials(n, d)
            assert type(got) is tuple
            assert monomials(n, d) is got
            everything = (m for m in product(range(d + 1), repeat=n) if sum(m) == d)
            assert got == tuple(sorted(everything, reverse=True))


def test_coefficient_vector_roundtrip():
    rng = random.Random(5)
    table = VarTable.make(("a", "b", "c"))
    for _ in range(30):
        p = random_poly(rng, table, PRIMAL, 3)
        vec = p.coefficient_vector(3)
        assert poly_from_vector(table, PRIMAL, 3, vec) == p


# -- results of arithmetic skip re-validation, so they must already be canonical

T3 = VarTable.make(("x", "y", "z"))
COEFFS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)))
EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def polys(ring):
    return st.dictionaries(EXPONENTS, COEFFS, max_size=5).map(lambda t: Poly(T3, ring, t))


def assert_canonical(p):
    assert p == Poly(p.table, p.ring, p.terms)
    for mono, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(mono) is tuple and len(mono) == p.table.n


@settings(max_examples=200, deadline=None)
@given(polys(PRIMAL), polys(PRIMAL), polys(DUAL), COEFFS, st.integers(0, 3), EXPONENTS)
def test_arithmetic_results_are_canonical(p, q, alpha, c, k, mono):
    shifted = p.times_monomial(mono)
    for r in (p + q, p - q, p - p, -p, p * q, p * c, c * p, p.scale(c), p ** k,
              contract(alpha, p), shifted, alpha.times_monomial(mono)):
        assert_canonical(r)
    assert shifted == Poly(T3, PRIMAL, {mono: 1}) * p


def test_times_monomial_rejects_bad_exponents():
    p = parse_poly("x^2 + y", table=T3)
    for bad in ((1, 0), (1, 0, 0, 0), (1, -1, 0)):
        with pytest.raises(ValueError):
            p.times_monomial(bad)


# -- powers of linear forms go through the multinomial formula

TABLES = [VarTable.make([f"v{i}" for i in range(n)]) for n in range(1, 7)]


@st.composite
def linear_forms(draw):
    """A linear form in 1-6 variables with int or Fraction coefficients,
    some of them zero, in either ring; the zero form included."""
    table = draw(st.sampled_from(TABLES))
    coeffs = draw(st.lists(st.one_of(st.just(0), COEFFS), min_size=table.n, max_size=table.n))
    return linear_form(table, coeffs, draw(st.sampled_from((PRIMAL, DUAL))))


@settings(max_examples=300, deadline=None)
@given(linear_forms(), st.integers(0, 5))
def test_linear_power_equals_repeated_multiplication(l, k):
    power = l ** k
    assert_canonical(power)
    assert power.ring == l.ring and power.table == l.table
    assert power.terms == naive_power_terms(l.terms, l.table.n, k)


# -- a single term is raised directly: exponents times k, coefficient to the k

def repeated_product(p, k):
    out = Poly.constant(p.table, 1, p.ring)
    for _ in range(k):
        out = out * p
    return out


@settings(max_examples=300, deadline=None)
@given(EXPONENTS, COEFFS.filter(bool), st.sampled_from((PRIMAL, DUAL)), st.integers(0, 6))
def test_single_term_power_equals_repeated_multiplication(mono, c, ring, k):
    # constants (mono all zero), Fraction coefficients and negative signs included
    p = Poly(T3, ring, {mono: c})
    power = p ** k
    assert_canonical(power)
    assert power == repeated_product(p, k)


@pytest.mark.parametrize("text, expected, base, k", [
    ("x^0", "1", "x", 0),
    ("(2/3)^3", "8/27", "2/3", 3),
    ("(-2*x*y^2)^3", "-8*x^3*y^6", "-2*x*y^2", 3),
])
def test_parsed_single_term_powers(text, expected, base, k):
    power = parse_poly(text, table=T3)
    assert power == parse_poly(expected, table=T3)
    assert power == repeated_product(parse_poly(base, table=T3), k)


# -- substitution is one integer expansion over a common denominator

@settings(max_examples=300, deadline=None)
@given(polys(PRIMAL), st.data())
def test_substitute_matches_the_naive_expansion(p, data):
    # images on another table (1-6 variables), Fraction coefficients, some zero
    target = data.draw(st.sampled_from(TABLES))
    zero_or_coeff = st.one_of(st.just(0), COEFFS)
    images = [linear_form(target, data.draw(st.lists(zero_or_coeff, min_size=target.n,
                                                     max_size=target.n)))
              for _ in range(3)]
    if data.draw(st.booleans()):
        images[data.draw(st.integers(0, 2))] = Poly.zero(target)
    out = p.substitute(images)
    assert_canonical(out)
    if all(img.is_zero() for img in images):
        # nothing to land in but our own table: only the constant term is left
        assert out.table == T3
        assert out.terms == {m: c for m, c in p.terms.items() if not any(m)}
    else:
        assert out.table == target and out.ring == PRIMAL
        assert out.terms == naive_substitute(p.terms, [img.terms for img in images], target.n)


def test_substitute_rejects_an_image_on_a_third_table():
    p = parse_poly("x*y + z^2", table=T3)
    images = [linear_form(T2, [1, 2]), Poly.zero(T5), linear_form(T2, [0, 1])]
    with pytest.raises(TableMismatchError):
        p.substitute(images)


# -- homogeneous_degree is remembered per polynomial

def fresh_degree(p):
    degs = {sum(m) for m in p.terms}
    return degs.pop() if len(degs) == 1 else None


@settings(max_examples=200, deadline=None)
@given(polys(PRIMAL), polys(PRIMAL), COEFFS, st.integers(0, 3), EXPONENTS,
       st.lists(COEFFS, min_size=3, max_size=3), st.lists(COEFFS, min_size=10, max_size=10))
def test_degree_memo_matches_a_fresh_computation(p, q, c, k, mono, lin, vec):
    for operand in (p, q):
        assert operand.homogeneous_degree() == fresh_degree(operand)
    images = [linear_form(T3, [a if i == j else 0 for j in range(3)]) for i, a in enumerate(lin)]
    results = (p + q, p - q, p - p, -p, p * q, p * c, p.scale(c), p ** k,
               p.times_monomial(mono), p.substitute(images),
               poly_from_vector(T3, PRIMAL, 2, vec[:6]), poly_from_vector(T3, PRIMAL, 3, vec))
    for r in results:
        assert r.homogeneous_degree() == fresh_degree(r)
        assert r.homogeneous_degree() == fresh_degree(r)  # the remembered value


def test_degree_memo_leaves_poly_immutable_and_equality_alone():
    p = parse_poly("x^2*y - 3*z^3", table=T3)
    twin = parse_poly("-3*z^3 + x^2*y", table=T3)
    before = hash(p)
    assert p.homogeneous_degree() == 3
    assert hash(p) == before == hash(twin)
    assert p == twin and twin == p
    for name, value in (("terms", {}), ("_degree", 5), ("ring", DUAL)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert p.homogeneous_degree() == 3
    mixed = parse_poly("x^2 + y", table=T3)
    assert mixed.homogeneous_degree() is None and mixed.homogeneous_degree() is None
    assert Poly.zero(T3).homogeneous_degree() is None
