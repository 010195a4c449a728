"""Degreewise homogeneous-ideal computations by linear algebra.

An ideal is never stored globally: every question (membership, saturation
witnessing, quotient dimensions) is answered inside one fixed degree, where
it reduces to exact row reduction over the monomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from typing import Optional, Sequence

from . import linalg
from .poly import DUAL, Poly, VarTable, _monomial_index, monomial_count, monomials


@dataclass(frozen=True)
class IdealSlice:
    """Echelonized basis of the degree-d piece of a homogeneous ideal."""

    degree: int
    basis: tuple  # homogeneous Polys of that degree, reduced echelon basis
    table: VarTable
    ring: str = DUAL

    def __post_init__(self):
        for b in self.basis:
            if b.homogeneous_degree() != self.degree:
                raise ValueError("slice basis element of wrong degree")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> list:
        return [b.coefficient_vector(self.degree) for b in self.basis]

    def contains(self, form: Poly) -> bool:
        if form.is_zero():
            return True
        if form.homogeneous_degree() != self.degree:
            return False
        return linalg.solve_columns(self.vectors(), form.coefficient_vector(self.degree)) is not None

    def same_span(self, other: "IdealSlice") -> bool:
        if self.degree != other.degree or self.table != other.table:
            return False
        return self.vectors() == other.vectors()  # reduced bases are canonical


def slice_from_forms(forms: Sequence[Poly], degree: int, table: VarTable, ring: str = DUAL) -> IdealSlice:
    """Echelonize degree-d forms into a canonical IdealSlice.

    Each form becomes one sparse row over monomials(n, degree), its terms
    placed by monomial position, and `linalg.sparse_rref` echelons the rows in
    integers; Fractions are built only for the returned basis.  Raises
    ValueError on a form with a term of another degree.
    """
    index = _monomial_index(table.n, degree)
    rows = []
    for g in forms:
        try:
            rows.append({index[m]: c for m, c in g.terms.items()})
        except KeyError:
            raise ValueError(f"{g} is not homogeneous of degree {degree}") from None
    pivots, red = linalg.sparse_rref(rows)
    monos = monomials(table.n, degree)
    basis = tuple(
        Poly._of(table, ring, {monos[c]: Fraction(row[c], row[p]) for c in sorted(row)})
        for p, row in zip(pivots, red)
    )
    return IdealSlice(degree=degree, basis=basis, table=table, ring=ring)


def _require_table(gens: Sequence[Poly], table: Optional[VarTable]) -> VarTable:
    if gens:
        return gens[0].table
    if table is None:
        raise ValueError("empty generator list needs an explicit table")
    return table


def generated_slice(
    gens: Sequence[Poly], degree: int, table: Optional[VarTable] = None
) -> IdealSlice:
    """Degree-d piece of the ideal generated by gens, as span of monomial
    multiples (each built by shifting the generator's exponents, its
    coefficients reused as they are).

    A single-term multiple whose monomial an earlier single-term multiple
    already produced spans the same line, so it is skipped: the monomial
    generators of an annihilator share most of their multiples.
    """
    table = _require_table(gens, table)
    ring = gens[0].ring if gens else DUAL
    products = []
    seen = set()  # monomials of the single-term multiples kept so far
    for g in gens:
        if g.is_zero():
            continue
        e = g.homogeneous_degree()
        if e is None:
            raise ValueError("generators must be homogeneous")
        if e > degree:
            continue
        # the multipliers come from monomials(), so no shifted exponent needs checking
        if len(g.terms) == 1:
            ((m, c),) = g.terms.items()
            for mono in monomials(table.n, degree - e):
                shifted = tuple(map(add, m, mono))
                if shifted not in seen:
                    seen.add(shifted)
                    products.append(Poly._of(table, ring, {shifted: c}))
            continue
        for mono in monomials(table.n, degree - e):
            products.append(Poly._of(table, ring, {tuple(map(add, m, mono)): c
                                                   for m, c in g.terms.items()}))
    return slice_from_forms(products, degree, table, ring)


@dataclass(frozen=True)
class MembershipCertificate:
    """Exact recombination target = sum(generator * cofactor)."""

    target: Poly
    pairs: tuple  # (generator, cofactor) with cofactor possibly zero

    def verify(self) -> bool:
        acc = Poly.zero(self.target.table, self.target.ring)
        for g, cof in self.pairs:
            acc = acc + g * cof
        return acc == self.target


def membership(target: Poly, gens: Sequence[Poly]) -> Optional[MembershipCertificate]:
    """Express target in the ideal generated by gens, with an exact
    certificate, or return None."""
    d = target.homogeneous_degree()
    if d is None:
        raise ValueError("membership target must be homogeneous and nonzero")
    table = target.table
    cols = []
    col_meta = []  # (generator index, multiplier monomial)
    for gi, g in enumerate(gens):
        if g.is_zero():
            continue
        e = g.homogeneous_degree()
        if e is None:
            raise ValueError("generators must be homogeneous")
        if e > d:
            continue
        for mono in monomials(table.n, d - e):
            prod = g.times_monomial(mono)
            cols.append(prod.coefficient_vector(d))
            col_meta.append((gi, mono))
    sol = linalg.solve_columns(cols, target.coefficient_vector(d))
    if sol is None:
        return None
    cof_terms = [dict() for _ in gens]
    for coeff, (gi, mono) in zip(sol, col_meta):
        if coeff != 0:
            cof_terms[gi][mono] = coeff
    pairs = tuple(
        (g, Poly(table, target.ring, cof_terms[gi])) for gi, g in enumerate(gens)
    )
    cert = MembershipCertificate(target=target, pairs=pairs)
    if not cert.verify():
        raise AssertionError("membership certificate failed to re-expand")
    return cert


def saturation_witness(gens: Sequence[Poly], gamma: Poly, k: int, table: Optional[VarTable] = None) -> bool:
    """True iff gamma times every degree-k monomial lies in the generated
    ideal — a finite certificate that gamma is in the saturation."""
    e = gamma.homogeneous_degree()
    if e is None:
        raise ValueError("gamma must be homogeneous and nonzero")
    table = _require_table(list(gens), table if table is not None else gamma.table)
    target = generated_slice(gens, e + k, table)
    for mono in monomials(table.n, k):
        prod = gamma.times_monomial(mono)
        if not target.contains(prod):
            return False
    return True


def quotient_hilbert(gens: Sequence[Poly], up_to: int, table: Optional[VarTable] = None) -> tuple:
    """Hilbert function of the quotient by the generated ideal, degreewise."""
    table = _require_table(list(gens), table)
    vals = []
    for i in range(up_to + 1):
        vals.append(monomial_count(table.n, i) - generated_slice(gens, i, table).dim)
    return tuple(vals)


def macaulay_bound(h: int, d: int) -> int:
    """Largest possible next value of a standard graded Hilbert function.

    Writes h in its d-th Macaulay binomial representation
    h = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_j, j) with a_d > a_{d-1} > ...
    and shifts both indices up by one.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if h < 0:
        raise ValueError("dimension must be non-negative")
    if h == 0:
        return 0
    rem = h
    bound = 0
    k = d
    while rem > 0 and k >= 1:
        a = k
        while comb(a + 1, k) <= rem:
            a += 1
        rem -= comb(a, k)
        bound += comb(a + 1, k + 1)
        k -= 1
    return bound
