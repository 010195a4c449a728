import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import linalg
from apolar.apolarity import (
    FormFacts,
    _dense_terms,
    _int_catalecticant,
    _scanned_terms,
    ann_slice,
    catalecticant,
    concise_dim,
    contract,
    hilbert_function,
    second_derivatives,
)
from apolar.cli import _labels
from apolar.parsing import parse_poly
from apolar.poly import DUAL, PRIMAL, Poly, TableMismatchError, VarTable, linear_form, monomials
from apolar.wildcert import theorem2_report, wild_cubic, wild_table

from _oracle import (
    naive_contract,
    naive_rank,
    poly_from_vector,
    random_poly,
    reexpanded_concise_dim,
)

T5 = wild_table()
F = wild_cubic(T5)


def dual(text, table=T5):
    return parse_poly(text, table=table, ring=DUAL)


def test_contract_single_derivative():
    t = VarTable.make(("x",))
    assert contract(dual("d_x", t), parse_poly("x^2", table=t)) == parse_poly("2*x", table=t)


def test_contract_wild_partial():
    got = contract(dual("d_y1"), F)
    assert got == parse_poly("-1*(x0+x1)^2", table=T5)


def test_annihilating_generators():
    for text in ("d_x1*d_y0", "d_x0*d_y2",
                 "-1*d_x0*d_y1 + d_x1*d_y1",
                 "d_x0*d_y0 + d_x0*d_y1 + d_x1*d_y2"):
        assert contract(dual(text), F).is_zero()


def test_contract_composition_property():
    rng = random.Random(314)
    table = VarTable.make(("u", "v", "w"))
    for _ in range(100):
        f = random_poly(rng, table, PRIMAL, rng.randint(2, 4))
        a = random_poly(rng, table, DUAL, rng.randint(0, 2), allow_zero=True)
        b = random_poly(rng, table, DUAL, rng.randint(0, 2), allow_zero=True)
        assert contract(a * b, f) == contract(a, contract(b, f))


def test_catalecticant_ranks():
    assert linalg.rank(catalecticant(F, 1)) == 5
    assert linalg.rank(catalecticant(F, 2)) == 5
    t1 = VarTable.make(("x",))
    cube = parse_poly("x^3", table=t1)
    for i in range(4):
        assert linalg.rank(catalecticant(cube, i)) == 1
    diag = parse_poly("x0^3 + x1^3 + x2^3")
    assert linalg.rank(catalecticant(diag, 1)) == 3


def test_catalecticant_shape_and_labels():
    rows = catalecticant(F, 2)
    assert len(rows) == 5
    assert len(rows[0]) == 15
    assert _labels(T5, DUAL, 2)[0] == "d_x0^2"
    ker = linalg.kernel_basis(rows, len(rows[0]))
    assert linalg.rank(rows) == 5 and len(ker) == 10


def test_hilbert_function_values():
    assert hilbert_function(F).values == (1, 5, 5, 1)
    four = parse_poly("x0^3 + x1^3 + x2^3 + x3^3")
    assert hilbert_function(four).values == (1, 4, 4, 1)
    t1 = VarTable.make(("x",))
    assert hilbert_function(parse_poly("x^3", table=t1)).values == (1, 1, 1, 1)


def test_hilbert_symmetry_randomized():
    rng = random.Random(161803)
    table = VarTable.make(("a", "b", "c", "d"))
    checked = 0
    while checked < 100:
        d = rng.randint(1, 4)
        f = random_poly(rng, table, PRIMAL, d)
        if f.is_zero():
            continue
        h = hilbert_function(f)
        assert all(h(i) == h(d - i) for i in range(d + 1))
        checked += 1


def test_hilbert_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_function(Poly.zero(T5))
    with pytest.raises(ValueError):
        hilbert_function(parse_poly("x^2 + x^3", table=VarTable.make(("x",))))


def test_ann_slice_dimensions_complement_hilbert():
    from apolar.poly import monomial_count

    for i in range(4):
        sl = ann_slice(F, i)
        assert sl.dim + hilbert_function(F)(i) == monomial_count(5, i)


def test_ann_slice_linear_of_concise_is_zero():
    assert ann_slice(F, 1).dim == 0


def test_ann_slice_of_cube():
    sl = ann_slice(parse_poly("x0^3", table=T5), 1)
    assert [str(b) for b in sl.basis] == ["d_x1", "d_y0", "d_y1", "d_y2"]


def test_ann_slice_degree_two_contains_generators():
    sl = ann_slice(F, 2)
    assert sl.dim == 10
    for text in ("d_y0^2", "d_y0*d_y1", "d_y0*d_y2", "d_y1^2", "d_y1*d_y2", "d_y2^2",
                 "d_x1*d_y0", "d_x0*d_y2",
                 "-1*d_x0*d_y1 + d_x1*d_y1",
                 "d_x0*d_y0 + d_x0*d_y1 + d_x1*d_y2"):
        assert sl.contains(dual(text))


def test_concise_dim_cases():
    assert concise_dim(F).dim == 5
    assert concise_dim(parse_poly("x0^3", table=T5)).dim == 1
    p = parse_poly("x0^2*y0 + x1^2*y1", table=T5)
    assert concise_dim(p).dim == 4


def test_concise_reduction_roundtrip():
    p = parse_poly("x0^2*y0 + x1^2*y1", table=T5)
    es = concise_dim(p)
    assert es.reduced.table.n == 4
    assert es.reduced.substitute(list(es.basis)) == p


def test_concise_reduction_after_mixing():
    # hide the essential 2-space behind a change of variables
    t = VarTable.make(("a", "b", "c"))
    a, b, c = (Poly.variable(t, i) for i in range(3))
    p = ((a + b) ** 3) + ((a - c) ** 3)
    es = concise_dim(p)
    assert es.dim == 2
    assert es.reduced.substitute(list(es.basis)) == p


def _essential_corpus(seed, count):
    """Forms with Fraction coefficients of degree 1-4 over tables of 1-5
    variables, in equal shares: concise ones, forms in the first k variables
    of the table (the others unused), and forms in k < n variables carried
    into the table by a random integer map (GL-mixed)."""
    rng = random.Random(seed)
    names = ("a", "b", "c", "d", "e")
    forms = []
    while len(forms) < count:
        table = VarTable.make(names[: rng.randint(1, 5)])
        n, d = table.n, rng.randint(1, 4)
        kind = ("concise", "unused", "mixed")[len(forms) % 3]
        k = n if kind == "concise" else rng.randint(1, max(1, n - 1))
        small = VarTable.make(names[:k])
        monos = list(monomials(k, d))
        g = Poly(small, PRIMAL, {m: Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 9))
                                 for m in rng.sample(monos, rng.randint(1, min(len(monos), 6)))})
        if kind == "mixed":
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        else:  # the coordinate embedding of the first k variables
            rows = [[int(i == j) for i in range(n)] for j in range(k)]
        f = g.substitute([linear_form(table, row) for row in rows])
        if not f.is_zero():
            forms.append(f)
    return forms


def _substitute_counter(monkeypatch) -> list:
    """Count the calls of Poly.substitute from here on: one entry per call."""
    calls, real = [], Poly.substitute

    def counted(self, images):
        calls.append(self)
        return real(self, images)

    monkeypatch.setattr(Poly, "substitute", counted)
    return calls


def test_concise_dim_equals_the_reexpanded_reduction_on_every_route(monkeypatch):
    forms = _essential_corpus(3535, 330)
    expected = [reexpanded_concise_dim(f) for f in forms]
    calls = _substitute_counter(monkeypatch)
    routes = {"concise": 0, "coordinate": 0, "mixed": 0}
    for f, want in zip(forms, expected):
        before = len(calls)
        es = concise_dim(f)
        assert es == want and repr(es) == repr(want), f
        if es.dim == f.table.n:
            route = "concise"
        elif all(len(b.terms) == 1 for b in es.basis):
            route = "coordinate"
        else:
            route = "mixed"
        assert len(calls) - before == (route == "mixed"), (f, route)
        routes[route] += 1
    assert min(routes.values()) >= 50, routes


def test_a_concise_form_is_its_own_reduction_without_a_substitution(monkeypatch):
    forms = [F, parse_poly("x^2 + y^2 + z^2"), parse_poly("1/2*x^3 - 3/4*x*y^2 + y^3")]
    forms += [f for f in _essential_corpus(36, 60) if concise_dim(f).dim == f.table.n]
    calls = _substitute_counter(monkeypatch)
    for f in forms:
        es = concise_dim(f)
        assert es.reduced is f and es.table is f.table and es.dim == f.table.n
    assert calls == []


@pytest.mark.parametrize("text, vars, substitutions", [
    ("x^3 + y^3 + z^3", "x,y,z", 0),  # concise: the dropped row leaves a coordinate basis
    ("x^3 + y^3", "x,y,z", 0),  # coordinate route
    ("(x+2*y)^3 + z^3", "x,y,z,w", 1),  # mixed route
    ("(x+2*y)^3 + (z-w)^3", "x,y,z,w", 1),  # mixed route
])
def test_a_lost_pivot_row_fails_the_reduction_check(monkeypatch, text, vars, substitutions):
    f = parse_poly(text, vars=vars.split(","))
    real = linalg.rref

    def drop_last_row(rows):
        pivots, red = real(rows)
        return pivots[:-1], red[:-1]

    monkeypatch.setattr(linalg, "rref", drop_last_row)
    calls = _substitute_counter(monkeypatch)
    with pytest.raises(ValueError, match="essential-variable reduction failed to reproduce the input"):
        concise_dim(f)
    assert len(calls) == substitutions


def test_catalecticant_entries_are_contractions_by_dual_monomials():
    # column j is the contraction of f by the j-th degree-i dual monomial,
    # read off at the row's primal monomial
    rng = random.Random(2718)
    table = VarTable.make(("u", "v", "w"))
    for _ in range(30):
        d = rng.randint(1, 4)
        f = random_poly(rng, table, PRIMAL, d, max_terms=6)
        if f.is_zero():
            continue
        for i in range(d + 1):
            entries = catalecticant(f, i)
            for j, col_mono in enumerate(monomials(3, i)):
                g = contract(Poly(table, DUAL, {col_mono: 1}), f)
                for k, row_mono in enumerate(monomials(3, d - i)):
                    assert entries[k][j] == g.coeff(row_mono)


def test_hilbert_function_equals_all_catalecticant_ranks():
    # hilbert_function ranks catalecticants up to d//2 only and mirrors them
    rng = random.Random(1414)
    for _ in range(40):
        table = VarTable.make(("a", "b", "c", "d")[: rng.randint(2, 4)])
        d = rng.randint(2, 5)
        f = random_poly(rng, table, PRIMAL, d, max_terms=rng.randint(1, 8))
        if f.is_zero():
            continue
        ranks = tuple(naive_rank(catalecticant(f, i)) for i in range(d + 1))
        assert hilbert_function(f).values == ranks


def test_hilbert_function_starts_at_one_for_constants_and_linear_forms():
    t3 = VarTable.make(("a", "b", "c"))
    assert hilbert_function(Poly(t3, PRIMAL, {(0, 0, 0): Fraction(-2, 3)})).values == (1,)
    linear = Poly(t3, PRIMAL, {(1, 0, 0): 2, (0, 1, 0): Fraction(-1, 5)})
    assert hilbert_function(linear).values == (1, 1)
    assert hilbert_function(parse_poly("x0", table=T5)).values == (1, 1)


def test_hilbert_function_equals_the_oracle_catalecticant_ranks():
    # every degree, 0 included: the rank of the matrix whose column for the
    # dual monomial y^c is the naive contraction of f by y^c
    rng = random.Random(4141)
    for _ in range(40):
        table = VarTable.make(("a", "b", "c", "d")[: rng.randint(1, 4)])
        n, d = table.n, rng.randint(0, 5)
        monos = list(monomials(n, d))
        picked = rng.sample(monos, rng.randint(1, min(len(monos), 8)))
        f = Poly(table, PRIMAL, {m: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
                                 for m in picked})
        ranks = []
        for i in range(d + 1):
            cols = [naive_contract({c: 1}, f.terms) for c in monomials(n, i)]
            ranks.append(naive_rank([[g.get(r, 0) for g in cols]
                                     for r in monomials(n, d - i)]))
        assert hilbert_function(f).values == tuple(ranks)


def test_hilbert_function_builds_the_catalecticants_of_degrees_one_to_half(monkeypatch):
    from apolar import apolarity

    degrees = []
    original = apolarity._int_catalecticant

    def counted(f, i):
        degrees.append(i)
        return original(f, i)

    monkeypatch.setattr(apolarity, "_int_catalecticant", counted)
    table = VarTable.make(("a", "b", "c"))
    for d in range(7):
        degrees.clear()
        hilbert_function(parse_poly(f"a^{d} + b^{d} + c^{d}" if d else "7", table=table))
        assert degrees == list(range(1, d // 2 + 1))


def test_hilbert_function_of_a_sparse_form_builds_no_contraction_table():
    # three terms against hundreds of degree-(12 - i) monomials: every column
    # is a scan of f, so no (d, c) table is built or kept
    from apolar import apolarity

    f = parse_poly("v0^12 + v1^12 - 3*v2^5*v3^7", table=VarTable.make([f"v{i}" for i in range(6)]))
    before = dict(apolarity._CONTRACTIONS)
    values = hilbert_function(f).values
    assert apolarity._CONTRACTIONS == before
    assert values == (1,) + tuple(linalg.rank(catalecticant(f, i)) for i in range(1, 12)) + (1,)


def _sweep_forms(seed, count):
    """Homogeneous forms with Fraction coefficients in 1-4 variables: sparse,
    dense, and sums of powers of forms in fewer variables (not concise)."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        table = VarTable.make(("a", "b", "c", "d")[: rng.randint(1, 4)])
        n, d = table.n, rng.randint(1, 5)
        def coeff():
            return Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 9))
        kind = rng.choice(("sparse", "dense", "fewer"))
        if kind == "fewer":
            k = rng.randint(1, n)
            basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            f = Poly.zero(table)
            for _ in range(rng.randint(1, 3)):
                a = [rng.randint(-2, 2) for _ in range(k)]
                form = linear_form(table, [sum(a[j] * basis[j][v] for j in range(k)) for v in range(n)])
                f = f + (form ** d).scale(coeff())
        else:
            monos = list(monomials(n, d))
            picked = monos if kind == "dense" else rng.sample(monos, rng.randint(1, min(len(monos), 5)))
            f = Poly(table, PRIMAL, {m: coeff() for m in picked})
        if not f.is_zero():
            forms.append(f)
    return forms


def test_hilbert_function_and_concise_dim_equal_the_exact_catalecticants():
    # the integer rows give the ranks and the reduced row space of the
    # Fraction catalecticants, read through `linalg`
    not_concise = 0
    for f in _sweep_forms(2020, 150):
        d, table = f.homogeneous_degree(), f.table
        half = [1] + [linalg.rank(catalecticant(f, i)) for i in range(1, d // 2 + 1)]
        assert hilbert_function(f).values == tuple(half + half[: (d + 1) // 2][::-1])
        pivots, red = linalg.rref(catalecticant(f, 1))
        es = concise_dim(f)
        assert es.dim == len(pivots)
        assert es.basis == tuple(linear_form(table, row) for row in red)
        assert es.table.primal == tuple(table.primal[p] for p in pivots)
        assert es.reduced == Poly(es.table, PRIMAL, {
            tuple(m[p] for p in pivots): c for m, c in f.terms.items()
            if not any(m[j] for j in range(table.n) if j not in pivots)})
        not_concise += es.dim < table.n
    assert not_concise >= 20


# -- contraction against its definition, on both the dense and the scanning path

TABLES = [VarTable.make([f"v{i}" for i in range(n)]) for n in range(1, 7)]
COEFFS = st.one_of(st.integers(-4, 4).filter(bool),
                   st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 6)))


@st.composite
def operands(draw):
    """(f, alpha) over 1-6 variables: f dense (most monomials of its degree),
    sparse or of mixed degree; alpha a constant, a monomial or several terms,
    of any degree up to deg f + 1 so that some contractions vanish."""
    table = draw(st.sampled_from(TABLES))
    n = table.n
    d = draw(st.integers(0, 4 if n <= 4 else 3))
    monos = list(monomials(n, d))
    shape = draw(st.sampled_from(("dense", "sparse", "mixed")))
    if shape == "dense":
        chosen = [m for m in monos if draw(st.integers(0, 5))]
    else:
        chosen = draw(st.lists(st.sampled_from(monos), max_size=4))
    if shape == "mixed":
        lower = list(monomials(n, draw(st.integers(0, max(d - 1, 0)))))
        chosen += draw(st.lists(st.sampled_from(lower), min_size=1, max_size=3))
    f = Poly(table, PRIMAL, {m: draw(COEFFS) for m in chosen})
    kind = draw(st.sampled_from(("constant", "monomial", "terms")))
    if kind == "constant":
        alpha_monos = [(0,) * n]
    else:
        count = 1 if kind == "monomial" else draw(st.integers(2, 4))
        alpha_monos = [draw(st.sampled_from(monomials(n, draw(st.integers(0, d + 1)))))
                       for _ in range(count)]
    alpha = Poly(table, DUAL, {m: draw(COEFFS) for m in alpha_monos})
    return f, alpha


@settings(max_examples=400, deadline=None)
@given(operands())
def test_contract_equals_the_definition(pair):
    f, alpha = pair
    got = contract(alpha, f)
    assert got.table == f.table and got.ring == PRIMAL
    assert got.terms == naive_contract(alpha.terms, f.terms)
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    # each operator term gives the same terms on either path
    d = f.homogeneous_degree()
    for c, ca in alpha.terms.items():
        scanned = _scanned_terms(c, ca, f)
        assert scanned == naive_contract({c: ca}, f.terms)
        if d is not None and sum(c) <= d:
            assert _dense_terms(c, ca, f, d) == scanned


@st.composite
def homogeneous_forms(draw):
    """Nonzero forms of degree 0-6 in 1-5 variables with int and Fraction
    coefficients: dense ones (most monomials present) read the (d, c)
    tables, sparse ones scan their terms."""
    table = draw(st.sampled_from(TABLES[:5]))
    n = table.n
    d = draw(st.integers(0, 6))
    monos = list(monomials(n, d))
    if draw(st.booleans()):
        chosen = [m for m in monos if draw(st.integers(0, 5))] or monos[:1]
    else:
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4))
    return Poly(table, PRIMAL, {m: draw(COEFFS) for m in chosen})


@settings(max_examples=200, deadline=None)
@given(homogeneous_forms())
def test_int_catalecticant_is_the_cleared_catalecticant(f):
    den = math.lcm(*[c.denominator for c in f.terms.values()])
    for i in range(f.homogeneous_degree() + 1):
        rows = _int_catalecticant(f, i)
        assert all(type(x) is int for row in rows for x in row)
        assert [list(row) for row in rows] == [[den * x for x in row]
                                               for row in catalecticant(f, i)]


def test_unit_operators_on_a_dense_cubic_equal_the_definition():
    # every cubic monomial present, so every contraction reads the table:
    # some entries have weight 1 (f's own coefficient), and some weights
    # cancel a denominator (d_x on 1/3*x^3 gives x^2)
    f = parse_poly("1/3*x^3 + 1/2*x^2*y + 1/3*x*y^2 + 1/6*y^3 + 2/3*x^2*z + 1/2*x*y*z"
                   " + 3/4*y^2*z + 1/2*x*z^2 + 5/2*y*z^2 + 1/6*z^3", table=VarTable.make("xyz"))
    assert len(f.terms) == len(monomials(3, 3))
    for i in range(4):
        for c in monomials(3, i):
            got = contract(Poly(f.table, DUAL, {c: 1}), f)
            assert got.terms == naive_contract({c: 1}, f.terms)
            assert all(type(v) is Fraction and v != 0 for v in got.terms.values())
    assert contract(dual("d_x", f.table), f).terms[(2, 0, 0)] == 1


def test_ann_slice_wraps_the_catalecticant_kernel():
    rng = random.Random(2718)
    for _ in range(30):
        table = VarTable.make(("a", "b", "c", "d")[: rng.randint(1, 4)])
        n = table.n
        d = rng.randint(1, 4)
        monos = list(monomials(n, d))
        picked = rng.sample(monos, rng.randint(1, len(monos)))
        f = Poly(table, PRIMAL, {m: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
                                 for m in picked})
        for i in range(d + 1):
            basis = ann_slice(f, i).basis
            rows = catalecticant(f, i)
            assert basis == tuple(poly_from_vector(table, DUAL, i, v)
                                  for v in linalg.kernel_basis(rows, len(rows[0])))
            assert all(type(c) is Fraction and c != 0 for b in basis for c in b.terms.values())


def test_catalecticant_entries_equal_the_naive_contraction():
    # entry (row r, column c) is the coefficient of x^r in y^c applied to f,
    # computed from the definition; Fraction coefficients included
    rng = random.Random(1618)
    for _ in range(40):
        table = VarTable.make(("a", "b", "c", "d")[: rng.randint(1, 4)])
        n = table.n
        d = rng.randint(1, 4)
        monos = list(monomials(n, d))
        picked = rng.sample(monos, rng.randint(1, len(monos)))
        f = Poly(table, PRIMAL, {m: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
                                 for m in picked})
        for i in range(d + 1):
            entries = catalecticant(f, i)
            assert type(entries) is tuple and all(type(row) is tuple for row in entries)
            for j, col_mono in enumerate(monomials(n, i)):
                g = naive_contract({col_mono: 1}, f.terms)
                for k, row_mono in enumerate(monomials(n, d - i)):
                    assert entries[k][j] == g.get(row_mono, 0)


def test_second_derivatives_are_the_contractions_by_dual_quadratic_monomials():
    # H[i][j] is contract(d_i * d_j, f) up to one common positive scale, on
    # dense forms (the integer catalecticant reads its (d, 2) tables) and
    # sparse ones (it scans the terms of f)
    rng = random.Random(4242)
    branches = set()
    for _ in range(120):
        table = VarTable.make(("a", "b", "c", "d", "e")[: rng.randint(1, 5)])
        n = table.n
        d = rng.randint(2, 4)
        monos = list(monomials(n, d))
        size = rng.choice((1, 2, len(monos) // 2 + 1, len(monos)))
        picked = rng.sample(monos, min(size, len(monos)))
        f = Poly(table, PRIMAL, {m: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
                                 for m in picked})
        branches.add(len(monomials(n, d - 2)) <= len(f.terms))
        H = second_derivatives(f)
        assert len(H) == n and all(len(row) == n for row in H)
        scale = None
        for i in range(n):
            for j in range(n):
                assert H[i][j] == H[j][i]
                mono = tuple((k == i) + (k == j) for k in range(n))
                want = contract(Poly(table, DUAL, {mono: 1}), f).coefficient_vector(d - 2)
                if scale is None and any(want):
                    k = next(k for k, x in enumerate(want) if x)
                    scale = Fraction(H[i][j][k]) / want[k]
                    assert scale > 0
                if scale is not None:
                    assert list(H[i][j]) == [scale * x for x in want]
        assert scale is not None
    assert branches == {True, False}


def test_second_derivatives_reject_degrees_below_two():
    for text in ("x + y", "7", "0", "x^2 + y"):
        with pytest.raises(ValueError):
            second_derivatives(parse_poly(text, table=VarTable.make(("x", "y"))))


def test_form_facts_read_the_second_derivatives_without_contracting(monkeypatch):
    from apolar import apolarity

    calls = []
    original = apolarity.contract

    def counted(alpha, f):
        calls.append(alpha)
        return original(alpha, f)

    facts = FormFacts(F)
    monkeypatch.setattr(apolarity, "contract", counted)
    assert facts.second_derivatives == second_derivatives(F)
    assert calls == []



@pytest.mark.parametrize("read", [hilbert_function, concise_dim, second_derivatives, FormFacts,
                                  theorem2_report],
                         ids=["hilbert_function", "concise_dim", "second_derivatives", "FormFacts",
                              "theorem2_report"])
def test_a_form_in_the_dual_ring_is_refused_as_contract_refuses_it(read):
    # the integer catalecticant read a dual form as if it were primal: the
    # Hilbert function came out as (1, 3, 3, 1), and the essential-variable
    # reduction failed to reproduce the input
    f = parse_poly("x^2*y+z^3", ring=DUAL)
    with pytest.raises(TableMismatchError, match="a DUAL operator and a PRIMAL operand"):
        contract(Poly.variable(f.table, 0, DUAL), f)
    with pytest.raises(TableMismatchError, match="a DUAL operator and a PRIMAL operand"):
        read(f)


@pytest.mark.parametrize("text, vars_", [("3", ["x"]), ("x+y", None), ("x^2*y+z^3", None)],
                         ids=["degree-0", "degree-1", "degree-3"])
def test_hilbert_function_refuses_a_dual_form_of_every_degree(text, vars_):
    # below degree 2 no catalecticant is built, and the dual form of degree
    # 0 or 1 came out as (1,) or (1, 1)
    with pytest.raises(TableMismatchError, match="a DUAL operator and a PRIMAL operand"):
        hilbert_function(parse_poly(text, vars=vars_, ring=DUAL))
