"""Contraction of dual polynomials on polynomials, and what it measures.

Dual variables act as partial derivatives (honest differentiation, not
divided powers; in characteristic zero the two conventions give the same
kernels and ranks, which is all downstream code consumes — only the scalar
factorials differ).  Catalecticant matrices are the degree-i slices of this
action; their ranks form the Hilbert function, their kernels the annihilator
slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm

from . import linalg
from .ideals import IdealSlice
from .linalg import QMatrix
from .poly import DUAL, PRIMAL, Poly, TableMismatchError, VarTable, monomials


def _mono_str(table: VarTable, ring: str, mono) -> str:
    names = table.names(ring)
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def contract(alpha: Poly, f: Poly) -> Poly:
    """Apply the dual polynomial alpha to f as a differential operator."""
    if alpha.table != f.table:
        raise TableMismatchError("contraction requires paired variable tables")
    if alpha.ring != DUAL or f.ring != PRIMAL:
        raise TableMismatchError("contract expects a DUAL operator and a PRIMAL operand")
    terms = {}
    for ma, ca in alpha.terms.items():
        for mf, cf in f.terms.items():
            if any(a > b for a, b in zip(ma, mf)):
                continue
            scale = 1
            for a, b in zip(ma, mf):
                if a:
                    scale *= perm(b, a)
            mono = tuple(b - a for a, b in zip(ma, mf))
            s = terms.get(mono, Fraction(0)) + ca * cf * scale
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
    return Poly(f.table, PRIMAL, terms)


@dataclass(frozen=True)
class Catalecticant:
    """Matrix of contraction by degree-i dual monomials against f.

    Columns are indexed by the degree-i dual monomials, rows by the
    degree-(d-i) primal monomials, both in canonical order.
    """

    source_degree: int
    matrix: QMatrix

    def rank(self) -> int:
        return self.matrix.rank()


def catalecticant(f: Poly, i: int) -> Catalecticant:
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("catalecticant requires a homogeneous nonzero polynomial")
    if not 0 <= i <= d:
        raise ValueError(f"slice degree {i} outside 0..{d}")
    n = f.table.n
    row_monos = list(monomials(n, d - i))
    col_monos = list(monomials(n, i))
    row_index = {m: k for k, m in enumerate(row_monos)}
    cols = []
    for mono in col_monos:
        g = contract(Poly(f.table, DUAL, {mono: 1}), f)
        col = [Fraction(0)] * len(row_monos)
        for m, c in g.terms.items():
            col[row_index[m]] = c
        cols.append(col)
    rows = [[cols[j][k] for j in range(len(cols))] for k in range(len(row_monos))]
    mat = QMatrix.from_rows(
        rows,
        row_labels=[_mono_str(f.table, PRIMAL, m) for m in row_monos],
        col_labels=[_mono_str(f.table, DUAL, m) for m in col_monos],
    )
    return Catalecticant(i, mat)


def ann_slice(f: Poly, i: int) -> IdealSlice:
    """Degree-i slice of the annihilator of f, as an echelonized basis."""
    cat = catalecticant(f, i)
    _, ker = cat.matrix.kernel()
    basis = tuple(Poly.from_vector(f.table, DUAL, i, v) for v in ker)
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
    if f.is_zero():
        raise ValueError("Hilbert function of the zero polynomial is undefined")
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("hilbert_function requires a homogeneous polynomial")
    return HilbertFn(tuple(catalecticant(f, i).rank() for i in range(d + 1)))


@dataclass(frozen=True)
class EssentialSpace:
    """Minimal linear space of variables carrying f."""

    dim: int
    basis: tuple  # linear forms over the original table
    reduced: Poly  # f rewritten over the reduced table
    table: VarTable  # the reduced table


def concise_dim(f: Poly) -> EssentialSpace:
    """The number of essential variables of f, a basis for them, and f
    rewritten in those variables.  Substituting the basis forms for the
    reduced variables reproduces f exactly (verified)."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no essential variables")
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("concise_dim requires a homogeneous polynomial")
    cat = catalecticant(f, 1)
    pivots, red = linalg.rref(cat.matrix.entries)
    basis = tuple(
        Poly(f.table, PRIMAL, {tuple(1 if j == k else 0 for k in range(f.table.n)): row[j]
                               for j in range(f.table.n) if row[j] != 0})
        for row in red
    )
    n = len(pivots)
    names = [f.table.primal[p] for p in pivots]
    duals = [f.table.dual[p] for p in pivots]
    sub_table = VarTable.make(names, dual=duals)
    # project: pivot variable j -> reduced variable, all others -> 0
    images = []
    pivot_pos = {p: k for k, p in enumerate(pivots)}
    zero = Poly.zero(sub_table, PRIMAL)
    for j in range(f.table.n):
        images.append(Poly.variable(sub_table, pivot_pos[j]) if j in pivot_pos else zero)
    reduced = f.substitute(images)
    # embed back along the basis and confirm nothing was lost
    if reduced.substitute(list(basis)) != f:
        raise ValueError("essential-variable reduction failed to reproduce the input")
    return EssentialSpace(dim=n, basis=basis, reduced=reduced, table=sub_table)


def essential_form(f: Poly) -> tuple:
    """(concise_dim(f), f in its essential variables); f itself, on its own
    table, when it is already concise."""
    es = concise_dim(f)
    return es, (es.reduced if es.dim != f.table.n else f)
