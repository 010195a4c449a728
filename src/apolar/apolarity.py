"""Contraction of dual polynomials on polynomials, and what it measures.

Dual variables act as partial derivatives (honest differentiation, not
divided powers; in characteristic zero the two conventions give the same
kernels and ranks, which is all downstream code consumes — only the scalar
factorials differ).  The catalecticant matrices are the degree-i slices of
this action; their ranks form the Hilbert function, their kernels the
annihilator slices, and the row space of the degree-1 one spans the
essential variables.

A catalecticant is its rows, a tuple of row tuples handed to `linalg`, like
every matrix in the package.  Ranks, the essential basis and the
second-derivative table are read off integer rows (`_int_catalecticant`: the
catalecticant times the least common denominator of f's coefficients), since
one positive scale changes no rank, reduced row space or kernel.  The exact
rows of `catalecticant`, filled from `contract`, serve `ann_slice` and the
`catalecticant` command; `ann_slice` stays on them while the benchmark's
`powers` workload requires `catalecticant` and `contract` to be reached,
which in that workload only `ann_slice` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import perm

from . import linalg
from .ideals import IdealSlice
from .poly import (
    _ZERO,
    DUAL,
    PRIMAL,
    Poly,
    TableMismatchError,
    VarTable,
    _cleared,
    _monomial_index,
    linear_form,
    monomials,
)


_ONE = Fraction(1)


_CONTRACTIONS: dict = {}  # (degree, operator exponent tuple) -> ((r, r + c, weight), ...)


def _contraction_table(d: int, c: tuple) -> tuple:
    """(r, r + c, prod_k perm(r_k + c_k, c_k)) for every r in
    monomials(n, d - |c|), in that order: the derivative y^c sends the degree-d
    monomial x^(r+c) to weight * x^r.  Built once per (d, c), like the
    multinomial tables of `poly`."""
    table = _CONTRACTIONS.get((d, c))
    if table is None:
        n = len(c)
        top, index = monomials(n, d), _monomial_index(n, d)
        used = [(k, a) for k, a in enumerate(c) if a]
        rows = []
        for r in monomials(n, d - sum(c)):
            w = 1
            for k, a in used:
                w *= perm(r[k] + a, a)
            # the shared tuple from monomials(n, d), not a copy per table
            rows.append((r, top[index[tuple(x + y for x, y in zip(r, c))]], w))
        table = _CONTRACTIONS[(d, c)] = tuple(rows)
    return table


def _dense_terms(c: tuple, ca: Fraction, f: Poly, d: int) -> dict:
    """contract(ca * y^c, f) for f homogeneous of degree d >= |c|: one lookup
    in f per output monomial.  When ca is 1, an output term of weight 1 is
    f's own coefficient, shared rather than copied (Fractions are
    immutable); every other nonzero output term is one new Fraction."""
    num, den = ca.numerator, ca.denominator
    unit = num == 1 and den == 1
    get = f.terms.get
    out = {}
    for r, m, w in _contraction_table(d, c):
        cf = get(m)
        if cf is not None:
            if unit and w == 1:
                out[r] = cf
                continue
            q = den * cf.denominator
            v = num * w * cf.numerator
            out[r] = Fraction(v) if q == 1 else Fraction(v, q)
    return out


def _scan(c: tuple, terms: dict):
    """(m, cf, w) for every term cf * x^(m+c) of `terms` that y^c divides:
    the derivative y^c sends it to w * cf * x^m, where w = prod_k
    perm(m_k + c_k, c_k), and kills every other term."""
    used = [(k, a) for k, a in enumerate(c) if a]
    for mf, cf in terms.items():
        w = 1
        mono = list(mf)
        for k, a in used:
            b = mf[k]
            if a > b:
                break
            w *= perm(b, a)
            mono[k] = b - a
        else:
            yield tuple(mono), cf, w


def _scanned_terms(c: tuple, ca: Fraction, f: Poly) -> dict:
    """contract(ca * y^c, f) by one pass over the terms of f."""
    return {m: ca * cf * w for m, cf, w in _scan(c, f.terms)}


def contract(alpha: Poly, f: Poly) -> Poly:
    """Apply the dual polynomial alpha to f as a differential operator.

    A term ca * y^c of degree i reads its output off the table for (d, c)
    when f is homogeneous of degree d >= i and has at least as many terms as
    there are degree-(d - i) monomials; otherwise it scans the terms of f.
    """
    if alpha.table != f.table:
        raise TableMismatchError("contraction requires paired variable tables")
    if alpha.ring != DUAL or f.ring != PRIMAL:
        raise TableMismatchError("contract expects a DUAL operator and a PRIMAL operand")
    d = f.homogeneous_degree()
    n, size = f.table.n, len(f.terms)
    terms = {}
    for c, ca in alpha.terms.items():
        i = sum(c)
        if d is not None and i <= d and len(_monomial_index(n, d - i)) <= size:
            part = _dense_terms(c, ca, f, d)
        else:
            part = _scanned_terms(c, ca, f)
        if not terms:
            terms = part
            continue
        for mono, v in part.items():
            s = terms.get(mono, _ZERO) + v
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
    return Poly._of(f.table, PRIMAL, terms)


def catalecticant(f: Poly, i: int) -> tuple:
    """Matrix of contraction by degree-i dual monomials against f, as a
    tuple of row tuples of Fractions, each entry filled from `contract`.

    Columns are indexed by the degree-i dual monomials, rows by the
    degree-(d-i) primal monomials, both in canonical order.
    """
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("catalecticant requires a homogeneous nonzero polynomial")
    if not 0 <= i <= d:
        raise ValueError(f"slice degree {i} outside 0..{d}")
    n = f.table.n
    row_index = _monomial_index(n, d - i)
    col_monos = monomials(n, i)
    rows = [[_ZERO] * len(col_monos) for _ in row_index]
    for j, mono in enumerate(col_monos):
        for m, c in contract(Poly._of(f.table, DUAL, {mono: _ONE}), f).terms.items():
            rows[row_index[m]][j] = c
    return tuple(map(tuple, rows))


def _int_catalecticant(f: Poly, i: int) -> list:
    """The rows of catalecticant(f, i) times the least positive integer that
    clears f's coefficients, as ints; f homogeneous of degree d >= i.

    One common positive scale changes no rank and no reduced row space, so
    the callers that need only those read these rows and no Fraction is
    built.  Each column is read off the (d, c) table under `contract`'s
    density rule, and otherwise by one pass over the terms of f.
    """
    d = f.homogeneous_degree()
    n = f.table.n
    num = dict(zip(f.terms, _cleared(f.terms.values())[0]))
    index = _monomial_index(n, d - i)
    cols = []
    if len(index) <= len(num):
        get = num.get
        for c in monomials(n, i):
            cols.append([w * get(m, 0) for _, m, w in _contraction_table(d, c)])
    else:
        for c in monomials(n, i):
            col = [0] * len(index)
            for m, v, w in _scan(c, num):
                col[index[m]] = w * v
            cols.append(col)
    return list(zip(*cols))


def ann_slice(f: Poly, i: int) -> IdealSlice:
    """Degree-i slice of the annihilator of f, as an echelonized basis."""
    rows = catalecticant(f, i)
    ker = linalg.kernel_basis(rows, len(rows[0]))
    monos = monomials(f.table.n, i)
    # kernel entries are already canonical Fractions
    basis = tuple(Poly._of(f.table, DUAL, {m: c for m, c in zip(monos, v) if c})
                  for v in ker)
    return IdealSlice(degree=i, basis=basis, table=f.table, ring=DUAL)


@dataclass(frozen=True)
class HilbertFn:
    """Hilbert function of the quotient by the annihilator of f."""

    values: tuple  # indexed by degree 0..d

    def __call__(self, i: int) -> int:
        return self.values[i] if 0 <= i < len(self.values) else 0

    @property
    def top_degree(self) -> int:
        return len(self.values) - 1

    def max(self) -> int:
        return max(self.values)


def hilbert_function(f: Poly) -> HilbertFn:
    """The ranks of f's catalecticants, degree 0 to d, each read off the
    integer rows of `_int_catalecticant`."""
    if f.is_zero():
        raise ValueError("Hilbert function of the zero polynomial is undefined")
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("hilbert_function requires a homogeneous polynomial")
    # H(0) = 1: contracting a nonzero f by the constant 1 gives f itself.
    # H(i) = H(d - i): catalecticant d - i is the transpose of catalecticant
    # i up to invertible diagonal scalings (factorials, characteristic 0), so
    # only degrees 1..d//2 are ranked
    half = [1] + [linalg.rank(_int_catalecticant(f, i)) for i in range(1, d // 2 + 1)]
    return HilbertFn(tuple(half + half[: (d + 1) // 2][::-1]))


@dataclass(frozen=True)
class EssentialSpace:
    """Minimal linear space of variables carrying f."""

    dim: int
    basis: tuple  # linear forms over the original table
    reduced: Poly  # f rewritten over the reduced table
    table: VarTable  # the reduced table


def concise_dim(f: Poly) -> EssentialSpace:
    """The number of essential variables of f, a basis for them, and f
    rewritten in those variables.  The basis is the reduced row space of the
    degree-1 catalecticant, taken from its integer rows; substituting the
    basis forms for the reduced variables reproduces f exactly (verified)."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no essential variables")
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("concise_dim requires a homogeneous polynomial")
    if d == 0:
        raise ValueError("a constant has no essential variables")
    pivots, red = linalg.rref(_int_catalecticant(f, 1))
    basis = tuple(linear_form(f.table, row) for row in red)
    n = len(pivots)
    names = [f.table.primal[p] for p in pivots]
    duals = [f.table.dual[p] for p in pivots]
    sub_table = VarTable.make(names, dual=duals)
    # project: pivot variable j -> reduced variable, all others -> 0; a
    # renaming, so the terms of f on the pivot variables are kept as they are
    others = [j for j in range(f.table.n) if j not in pivots]
    reduced = Poly._of(sub_table, PRIMAL, {tuple(m[p] for p in pivots): c
                                           for m, c in f.terms.items()
                                           if not any(m[j] for j in others)})
    # embed back along the basis and confirm nothing was lost
    if reduced.substitute(list(basis)) != f:
        raise ValueError("essential-variable reduction failed to reproduce the input")
    return EssentialSpace(dim=n, basis=basis, reduced=reduced, table=sub_table)


def essential_form(f: Poly) -> tuple:
    """(concise_dim(f), f in its essential variables); f itself, on its own
    table, when it is already concise."""
    es = concise_dim(f)
    return es, (es.reduced if es.dim != f.table.n else f)


def second_derivatives(f: Poly) -> tuple:
    """The table H with H[i][j] = contract(d_i * d_j, f) for every pair of
    dual variables, each entry a coefficient vector over monomials(n, d - 2):
    the column of `_int_catalecticant(f, 2)` for the dual monomial d_i * d_j.

    Contraction is bilinear, so contract(a * b, f) for dual linear forms a and
    b is sum(a_i * b_j * H[i][j]): the table answers every quadratic
    contraction against f without building a product.  All vectors carry the
    integer catalecticant's one common positive scale, the least that clears
    f's coefficients; it changes no kernel, rank, vanishing or
    proportionality.
    """
    d = f.homogeneous_degree()
    if d is None or d < 2:
        raise ValueError("second derivatives need a homogeneous polynomial of degree >= 2")
    n = f.table.n
    table = [[None] * n for _ in range(n)]
    for mono, col in zip(monomials(n, 2), zip(*_int_catalecticant(f, 2))):
        i, j = [k for k, e in enumerate(mono) for _ in range(e)]
        table[i][j] = table[j][i] = col
    return tuple(map(tuple, table))


class FormFacts:
    """What the stages of one rank report read about a form: its
    essential-variable reduction and, for the form in its essential
    variables, the Hilbert function, the degree-2 annihilator slice and the
    second-derivative table.

    Each value is computed on first use and kept only as long as this
    object, so the stages that share one FormFacts compute each value once.
    """

    def __init__(self, f: Poly):
        self.essential, self.form = essential_form(f)

    @cached_property
    def hilbert(self) -> HilbertFn:
        return hilbert_function(self.form)

    @cached_property
    def slice2(self) -> IdealSlice:
        return ann_slice(self.form, 2)

    @cached_property
    def second_derivatives(self) -> tuple:
        return second_derivatives(self.form)
