import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from apolar.parsing import ParseError, parse_poly
from apolar.poly import DUAL, PRIMAL, Poly, VarTable

from _oracle import random_poly


def test_wild_cubic_parses_to_five_terms():
    p = parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2")
    assert len(p.terms) == 5
    # variables are collected in first-appearance order
    assert p.table.primal == ("x0", "y0", "x1", "y1", "y2")
    assert p.coeff((1, 0, 1, 1, 0)) == Fraction(-2)
    # with a declared order the term map matches the canonical table
    q = parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2",
                   vars=["x0", "x1", "y0", "y1", "y2"])
    assert q.coeff((1, 1, 0, 1, 0)) == Fraction(-2)


def test_rational_coefficient():
    p = parse_poly("3/2*x^2")
    assert list(p.terms.values()) == [Fraction(3, 2)]


def test_inhomogeneous_detected_not_rejected_by_parser():
    p = parse_poly("x^2 + y")
    assert not p.is_homogeneous()


def test_variables_collected_in_first_appearance_order():
    assert parse_poly("b*a + c*b").table.primal == ("b", "a", "c")
    assert parse_poly("y*x + z").table.primal == ("y", "x", "z")
    assert parse_poly("y*x + z", ring=DUAL).table.dual == ("y", "x", "z")


def test_declared_variable_order_and_unknowns():
    p = parse_poly("y*x", vars=["x", "y"])
    assert p.table.primal == ("x", "y")
    with pytest.raises(ParseError):
        parse_poly("z", vars=["x", "y"])


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")
    with pytest.raises(ParseError):
        parse_poly("x y")


def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_poly("x +\n* y")
    assert err.value.line == 2
    assert err.value.col == 1


@pytest.mark.parametrize("text, kwargs, line, col", [
    ("x + y\n  $", {}, 2, 3),
    ("2x", {}, 1, 2),
    ("(x + y", {}, 1, 7),
    ("x +\n  z", {"vars": ["x", "y"]}, 2, 3),
    ("x +\t\t$", {}, 1, 6),  # a tab is one column
    ("x +\r\n  $", {}, 2, 3),
    ("x\r\n+\r\ny +\n\n\t*", {}, 5, 2),
    ("(x +\n y", {}, 2, 3),  # end of input
    ("(x\n\t", {}, 2, 2),  # end of input after trailing whitespace
    ("x^2 +\n\t3/0", {}, 2, 4),
    ("x\n\n\t*y^z", {}, 3, 5),
    ("a +\r\n  b\r\n\tc", {"vars": ["a", "b"]}, 3, 2),
])
def test_error_positions_with_and_without_a_variable_list(text, kwargs, line, col):
    with pytest.raises(ParseError) as err:
        parse_poly(text, **kwargs)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("kwargs, message", [
    ({"vars": ["x", "x"]}, "unique"),
    ({"vars": ["x", "", "y"]}, "empty"),
    ({"vars": ["x", "y"], "dual_names": ["a"]}, "1 dual names for 2 variables"),
    ({"dual_names": ["x"]}, "unique"),
    ({"vars": ["x", "y"], "dual_names": ["a", "a"]}, "unique"),
    ({"vars": ["x", "y"], "dual_names": ["a", ""]}, "empty"),
    ({"vars": ["x", "d_x"]}, "unique"),  # d_x is also x's default dual name
    ({"vars": ["x", " y"]}, "variable name ' y' is not an identifier"),
    ({"vars": ["x", "y²"]}, "variable name 'y²' is not an identifier"),
    ({"vars": ["2x"]}, "variable name '2x' is not an identifier"),
    ({"vars": ["x", "y"], "dual_names": ["a", "b c"]}, "variable name 'b c' is not an identifier"),
])
def test_bad_variable_lists_are_parse_errors(kwargs, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_poly("x^2", **kwargs)
    # a variable list has no position in the text
    assert err.value.line is None and err.value.col is None
    assert "line" not in str(err.value)


@pytest.mark.parametrize("text, char, line, col", [
    ("x^²", "²", 1, 3),  # a superscript digit is not an exponent
    ("x*y²", "²", 1, 4),  # nor part of a name
    ("３*x", "３", 1, 1),  # a full-width digit is not a number
    ("x +\n  é", "é", 2, 3),  # a non-ASCII letter starts no name
])
def test_non_ascii_digits_and_letters_are_parse_errors(text, char, line, col):
    with pytest.raises(ParseError, match=f"unexpected character {char!r}") as err:
        parse_poly(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_unicode_whitespace_separates_tokens():
    assert parse_poly("x\u00a0+\u2003y") == parse_poly("x + y")


def test_leading_sign_and_parentheses():
    p = parse_poly("-y1", vars=["y1"])
    assert p.coeff((1,)) == Fraction(-1)
    q = parse_poly("-(x - y) + x", vars=["x", "y"])
    assert q == parse_poly("y", vars=["x", "y"])


def test_exponent_rules():
    p = parse_poly("(x + y)^2", vars=["x", "y"])
    assert p.coeff((1, 1)) == Fraction(2)
    with pytest.raises(ParseError):
        parse_poly("x^y")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_poly("1/0*x")


def _random_polynomials() -> list:
    """The nonzero ones of 500 seeded random polynomials in 4 variables."""
    rng = random.Random(2718)
    table = VarTable.make(("x0", "x1", "x2", "x3"))
    polys = [random_poly(rng, table, PRIMAL, rng.randint(0, 4), max_terms=6) for _ in range(500)]
    return [p for p in polys if not p.is_zero()]


def test_roundtrip_500_random_polynomials():
    for p in _random_polynomials():
        assert parse_poly(str(p), table=p.table) == p


def _assert_canonical(p):
    """p equals itself rebuilt through the checked constructor, and its
    terms are as that constructor leaves them."""
    assert p == Poly(p.table, p.ring, p.terms)
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(m) is tuple and len(m) == p.table.n for m in p.terms)


def test_the_parsed_poly_is_what_the_checked_constructor_builds():
    for p in _random_polynomials():
        _assert_canonical(parse_poly(str(p), table=p.table))
    rng = random.Random(1616)
    table = VarTable.make(NAMES)
    for _ in range(300):
        _assert_canonical(parse_poly(_text(rng, _random_tree(rng, rng.randint(1, 5))), table=table))
    for text in ("0", "3", "x - x", "2*x^0", "(x+y)^2 - 2*x*y", "1/2*x + 1/2*x"):
        _assert_canonical(parse_poly(text, table=table))


@st.composite
def small_polys(draw):
    table = VarTable.make(("x", "y", "z"))
    nterms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(nterms):
        mono = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        if num:
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(num, den)
    return Poly(table, PRIMAL, {m: c for m, c in terms.items() if c})


@settings(max_examples=200, deadline=None)
@given(small_polys())
def test_roundtrip_property(p):
    if p.is_zero():
        return
    assert parse_poly(str(p), table=p.table) == p


NAMES = ("x", "y", "z")
LEVEL = {"add": 0, "sub": 0, "neg": 0, "mul": 1, "pow": 2, "num": 3, "var": 3}


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ("var", rng.choice(NAMES))
        return ("num", rng.randint(0, 5), rng.choice((1, 1, 2, 3)))
    kind = rng.choice(("add", "sub", "mul", "mul", "pow", "neg"))
    if kind == "neg":
        return (kind, _random_tree(rng, depth - 1))
    if kind == "pow":
        return (kind, _random_tree(rng, depth - 1), rng.randint(0, 3))
    return (kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _text(rng, node, level=0):
    """node as text that parses back to node, wrapped in parentheses when
    it binds looser than `level` (0 expr, 1 term, 2 factor, 3 atom)."""
    kind = node[0]
    if kind == "num":
        out = str(node[1]) if node[2] == 1 else f"{node[1]}/{node[2]}"
    elif kind == "var":
        out = node[1]
    elif kind == "neg":
        out = "-" + _text(rng, node[1], 1)
    elif kind == "pow":
        out = _text(rng, node[1], 3) + "^" + str(node[2])
    else:
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        space = rng.choice(("", " ", "\t", "\n", " \r\n "))
        right = 2 if kind == "mul" else 1
        out = _text(rng, node[1], LEVEL[kind]) + space + op + space + _text(rng, node[2], right)
    return out if LEVEL[kind] >= level else "(" + out + ")"


def _evaluate(node, table):
    """node computed with Poly arithmetic; a power is repeated multiplication."""
    kind = node[0]
    if kind == "num":
        return Poly.constant(table, Fraction(node[1], node[2]))
    if kind == "var":
        return Poly.variable(table, NAMES.index(node[1]))
    if kind == "neg":
        return -_evaluate(node[1], table)
    if kind == "pow":
        base, out = _evaluate(node[1], table), Poly.constant(table, 1)
        for _ in range(node[2]):
            out = out * base
        return out
    a, b = _evaluate(node[1], table), _evaluate(node[2], table)
    return {"add": a + b, "sub": a - b, "mul": a * b}[kind]


def test_parse_equals_poly_arithmetic_on_random_nested_expressions():
    rng = random.Random(1616)
    table = VarTable.make(NAMES)
    # powers of sums, unary minus, a/b constants, zero factors and ^0 all occur
    shapes = {")^2", "(-", "/", "*0", "^0"}
    seen = set()
    for _ in range(600):
        tree = _random_tree(rng, rng.randint(1, 5))
        text = _text(rng, tree)
        seen.update(k for k in shapes if k in "".join(text.split()))
        assert parse_poly(text, table=table) == _evaluate(tree, table), text
    assert seen == shapes


XY = VarTable.make(["x", "y"])
X, Y = Poly.variable(XY, 0), Poly.variable(XY, 1)
D = (X + Y) * (X - Y) - X * X + Y * Y  # zero, after products whose x*y terms cancel


@pytest.mark.parametrize("text, expected, printed", [
    ("(x+y)*(x-y) - x^2 + y^2", D, "0"),
    ("((x+y)*(x-y) - x^2 + y^2)^2", D * D, "0"),
    ("((x+y)*(x-y) - x^2 + y^2 + x*y)^3", (D + X * Y) ** 3, "x^3*y^3"),
    ("x^2 + (x+y)*(x-y)", X * X + (X + Y) * (X - Y), "2*x^2 - y^2"),
    ("x^4 + ((x+y)*(x-y) - x^2 + y^2)^2", X ** 4 + D * D, "x^4"),
])
def test_cancelling_products_parse_as_poly_arithmetic(text, expected, printed):
    p = parse_poly(text, table=XY)
    assert p == expected
    assert str(p) == printed
