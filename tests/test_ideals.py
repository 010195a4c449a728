import random
from fractions import Fraction
from math import comb

import pytest

from apolar import linalg
from apolar.apolarity import ann_slice, contract
from apolar.ideals import (
    IdealSlice,
    generated_slice,
    macaulay_bound,
    membership,
    quotient_hilbert,
    saturation_witness,
    slice_from_forms,
)
from apolar.parsing import parse_poly
from apolar.poly import DUAL, PRIMAL, Poly, TableMismatchError, VarTable, linear_form, monomials
from apolar.wildcert import wild_cubic, wild_table

from _oracle import naive_rref, poly_from_vector, random_poly

T5 = wild_table()
F = wild_cubic(T5)
SLICE2 = ann_slice(F, 2)


def dual(text, table=T5):
    return parse_poly(text, table=table, ring=DUAL)


PHI1 = dual("d_x1*d_y0")
PHI2 = dual("d_x0*d_y2")
PHI3 = dual("-1*d_x0*d_y1 + d_x1*d_y1")
PHI4 = dual("d_x0*d_y0 + d_x0*d_y1 + d_x1*d_y2")


def test_generated_slice_single_linear_form():
    sl = generated_slice([dual("d_y0")], 2)
    assert sl.dim == 5


def test_generated_slice_empty():
    sl = generated_slice([], 3, table=T5)
    assert sl.dim == 0


def test_generated_slice_of_annihilator_degree_three():
    # oracle-frozen: the 10 quadrics times 5 variables span a 30-dimensional
    # subspace of the 35-dimensional cubic piece
    sl = generated_slice(list(SLICE2.basis), 3)
    assert sl.dim == 30


def test_generated_slice_monotone_in_generators():
    rng = random.Random(8)
    for _ in range(30):
        gens = [random_poly(rng, T5, DUAL, 2) for _ in range(3)]
        small = generated_slice(gens[:2], 3)
        big = generated_slice(gens, 3)
        assert big.dim >= small.dim
        for b in small.basis:
            assert big.contains(b)


def dense_route_slice(gens, degree):
    """The slice as the dense route builds it: a full coefficient vector per
    monomial multiple, Bareiss reduced echelon form, poly_from_vector."""
    vecs = [g.times_monomial(m).coefficient_vector(degree)
            for g in gens for m in monomials(T5.n, degree - g.homogeneous_degree())]
    return [poly_from_vector(T5, DUAL, degree, v) for v in linalg.rref(vecs)[1]]


def gl5_cubics(count, seed=7):
    """The wild cubic under the seed's invertible integer 5x5 matrices
    (entries in -3..3), drawn as the GL5 benchmark stream draws them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if linalg.rank(m) == 5:
            out.append(F.substitute([linear_form(T5, row) for row in m]))
    return out


def test_generated_slice_equals_the_dense_route():
    for f in [F] + gl5_cubics(12):
        gens = list(ann_slice(f, 2).basis)
        for degree in (3, 4):
            basis = generated_slice(gens, degree).basis
            expected = dense_route_slice(gens, degree)
            assert list(basis) == expected
            # term for term, in the same order and with Fraction coefficients
            for b, e in zip(basis, expected):
                assert list(b.terms.items()) == list(e.terms.items())
                assert all(type(c) is Fraction for c in b.terms.values())


def naive_generated_slice(gens, degree):
    """Every monomial multiple of every generator, none skipped, reduced by
    the oracle's Fraction Gauss-Jordan."""
    vecs = [g.times_monomial(m).coefficient_vector(degree)
            for g in gens if not g.is_zero()
            for m in monomials(T5.n, degree - g.homogeneous_degree())]
    return [poly_from_vector(T5, DUAL, degree, v) for v in naive_rref(vecs)[1]]


def test_generated_slice_equals_the_naive_span_of_every_multiple():
    # the wild cubic's 8 monomial generators share most of their multiples,
    # and its degree-4 slice keeps its 65 dimensions; in the seeded sets,
    # monomials of degrees 1 to 3 share many multiples and binomials (and
    # the odd trinomial) tie the monomial lines to the rest
    wild = list(SLICE2.basis)
    assert sum(len(g.terms) == 1 for g in wild) == 8
    assert generated_slice(wild, 4).dim == 65
    cases = [wild]
    rng = random.Random(2024)
    monos = {e: list(monomials(T5.n, e)) for e in (1, 2, 3)}
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(1, 7)):
            e = rng.choice((1, 2, 2, 3))
            terms = rng.choice((1, 1, 2, 2, 3))
            gens.append(Poly(T5, DUAL, {m: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))
                                        for m in rng.sample(monos[e], terms)}))
        cases.append(gens)
    for gens in cases:
        for degree in (3, 4):
            assert list(generated_slice(gens, degree).basis) == naive_generated_slice(gens, degree)


def test_the_slices_built_unchecked_are_what_the_checked_constructors_build():
    # slice_from_forms, generated_slice and ann_slice skip IdealSlice's
    # checks; rebuilt through IdealSlice(...) and Poly(...), each slice and
    # each basis form is equal, with Fraction coefficients and no zero term
    rng = random.Random(3503)
    slices = []
    for _ in range(40):
        table = VarTable.make(("a", "b", "c", "d")[: rng.randint(1, 4)])
        degree = rng.randint(1, 3)
        forms = [random_poly(rng, table, DUAL, degree, max_terms=4, allow_zero=True)
                 for _ in range(rng.randint(0, 5))]
        slices.append(slice_from_forms(forms, degree, table))
        gens = [g for g in forms if g] or [Poly.variable(table, 0, DUAL)]
        slices.append(generated_slice(gens, degree + rng.randint(0, 2), table=table))
        f = random_poly(rng, table, PRIMAL, rng.randint(1, 4), max_terms=5)
        if f:  # the random terms may cancel
            slices += [ann_slice(f, i) for i in range(f.homogeneous_degree() + 1)]
    slices.append(SLICE2)
    assert sum(sl.dim > 0 for sl in slices) >= 100
    for sl in slices:
        assert sl == IdealSlice(sl.degree, sl.basis, sl.table, sl.ring)
        for b in sl.basis:
            assert b == Poly(b.table, b.ring, b.terms) and b.table == sl.table
            assert all(type(c) is Fraction and c for c in b.terms.values())
            assert b.homogeneous_degree() == sl.degree


def test_slice_from_forms_rejects_forms_of_another_degree():
    t = VarTable.make(("x", "y"))
    with pytest.raises(ValueError):
        slice_from_forms([parse_poly("d_x^2 + d_y^3", table=t, ring=DUAL)], 2, t)
    with pytest.raises(ValueError):
        slice_from_forms([parse_poly("d_x^2", table=t, ring=DUAL),
                          parse_poly("d_y", table=t, ring=DUAL)], 2, t)
    assert slice_from_forms([parse_poly("d_x^2 - d_y^2", table=t, ring=DUAL)], 2, t).dim == 1


def test_a_slice_refuses_a_form_over_another_table_or_ring():
    # read by position, each of these forms lines up with d_x*d_y, which
    # annihilates the Fermat cubic, so contains answered True for all three;
    # a slice built directly from one of them answered by position too
    t4 = VarTable.make(("x", "y", "z", "w"))
    sl = ann_slice(parse_poly("x^3 + y^3 + z^3 + w^3", table=t4), 2)
    renamed = VarTable.make(("x", "y", "z", "w"), dual=("e0", "e1", "e2", "e3"))
    for form in (dual("d_a*d_b", VarTable.make(("a", "b"))),
                 dual("e0*e1", renamed),
                 parse_poly("x*y", table=t4)):
        with pytest.raises(TableMismatchError):
            sl.contains(form)
        with pytest.raises(TableMismatchError):
            IdealSlice(2, (form,), table=t4)
    assert sl.contains(dual("d_x*d_y", t4)) and not sl.contains(dual("d_x^2", t4))


def test_slices_refuse_generators_over_another_table_or_ring(monkeypatch):
    # membership used to solve by position, so that only the certificate's
    # re-expansion raised; it must refuse before solving
    def no_solve(*args):
        raise AssertionError("solved over a generator of another table or ring")

    monkeypatch.setattr(linalg, "solve_columns", no_solve)
    t4 = VarTable.make(("x", "y", "z", "w"))
    renamed = VarTable.make(("x", "y", "z", "w"), dual=("e0", "e1", "e2", "e3"))
    own = dual("d_x*d_y", t4)
    others = (dual("d_a*d_b", VarTable.make(("a", "b"))),
              dual("e0*e1", renamed),
              parse_poly("x*y", table=t4))
    for other in others:
        with pytest.raises(TableMismatchError):
            generated_slice([own, other], 3)
        with pytest.raises(TableMismatchError):
            slice_from_forms([own, other], 2, t4)
        with pytest.raises(TableMismatchError):
            membership(own, [other])
    with pytest.raises(TableMismatchError):
        generated_slice([dual("e0*e1", renamed)], 3, table=t4)
    assert generated_slice([own], 3, table=t4).dim == 4
    monkeypatch.undo()
    cert = membership(own, [dual("d_x", t4)])
    assert cert is not None and cert.verify()


def test_membership_explicit_recombination():
    target = dual("d_x0^3*d_y0")
    cert = membership(target, [PHI1, PHI2, PHI3, PHI4])
    assert cert is not None and cert.verify()
    # the known recombination, term by term
    combo = (
        dual("d_x0^2 - d_x0*d_x1") * PHI4
        - dual("d_x0*d_x1 - d_x1^2") * PHI2
        + dual("d_x0^2") * PHI3
        + dual("d_x0^2") * PHI1
    )
    assert combo == target


def test_membership_in_full_slice():
    target = dual("d_x0^3*d_y0")
    cert = membership(target, list(SLICE2.basis))
    assert cert is not None and cert.verify()


def test_non_membership_in_degree_two():
    probe = dual("d_x0*d_y0")
    assert contract(probe, F) == parse_poly("2*x0", table=T5)
    assert membership(probe, list(SLICE2.basis)) is None
    assert not SLICE2.contains(probe)


def test_self_membership():
    g = dual("d_y0^2 + d_x0*d_y2")
    cert = membership(g, [g])
    assert cert is not None
    assert cert.pairs[0][1] == Poly.constant(T5, 1, DUAL)


def test_membership_certificates_always_reexpand():
    rng = random.Random(404)
    for _ in range(40):
        gens = [random_poly(rng, T5, DUAL, rng.randint(1, 2)) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        target = generated_slice(gens, 3)
        if target.dim == 0:
            continue
        pick = target.basis[rng.randrange(target.dim)]
        cert = membership(pick, gens)
        assert cert is not None and cert.verify()


def test_saturation_witnesses_for_wild_cubic():
    for name in ("d_y0", "d_y1", "d_y2"):
        assert saturation_witness(list(SLICE2.basis), dual(name), 3)
    assert not saturation_witness(list(SLICE2.basis), dual("d_x0"), 3)


def test_saturation_witness_quantifies_over_all_variables():
    b0 = dual("d_y0")
    assert not saturation_witness([b0 * b0], b0, 1)
    # against the full dual square the witness succeeds
    gens = [b0 * dual(n) for n in T5.dual]
    assert saturation_witness(gens, b0, 1)


def test_quotient_hilbert_three_linear_forms():
    gens = [dual("d_y0"), dual("d_y1"), dual("d_y2")]
    vals = quotient_hilbert(gens, 3)
    assert vals[1] == 2
    assert vals == (1, 2, 3, 4)


def test_quotient_hilbert_empty_generators():
    vals = quotient_hilbert([], 4, table=T5)
    assert vals == tuple(comb(5 + i - 1, i) for i in range(5))


def test_quotient_hilbert_of_annihilator():
    vals = quotient_hilbert(list(SLICE2.basis), 3)
    assert vals == (1, 5, 5, 5)


def test_macaulay_bound_grid():
    for d in range(1, 7):
        assert macaulay_bound(d + 1, d) == d + 2
        assert macaulay_bound(1, d) == 1
    assert macaulay_bound(5, 3) == 6
    assert macaulay_bound(0, 2) == 0
    with pytest.raises(ValueError):
        macaulay_bound(3, 0)


def _macaulay_linear_search(h, d):
    """The bound with each a_k raised one step at a time, the reference for
    the doubling and bisection of macaulay_bound."""
    rem, bound, k = h, 0, d
    while rem > 0 and k >= 1:
        a = k
        while comb(a + 1, k) <= rem:
            a += 1
        rem -= comb(a, k)
        bound += comb(a + 1, k + 1)
        k -= 1
    return bound


def test_macaulay_bound_equals_the_linear_search():
    for d in range(1, 9):
        for h in range(2001):
            assert macaulay_bound(h, d) == _macaulay_linear_search(h, d), (h, d)


def test_macaulay_bound_at_degree_one_takes_logarithmic_steps():
    # the linear search would take 10^12 steps here
    assert macaulay_bound(10**12, 1) == comb(10**12 + 1, 2)


def test_quotient_growth_obeys_macaulay_bound():
    rng = random.Random(2025)
    table = VarTable.make(("a", "b", "c", "d"))
    checked = 0
    while checked < 100:
        gens = [random_poly(rng, table, DUAL, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        vals = quotient_hilbert(gens, 4)
        for d in range(1, 4):
            assert vals[d + 1] <= macaulay_bound(vals[d], d)
        checked += 1
