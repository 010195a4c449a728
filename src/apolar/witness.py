"""Border-rank witness families and cactus-rank witness schemes.

A ParamPoly is a polynomial whose coefficients are Laurent polynomials in one
parameter t; tangent-limit families live here, and limits are read off as
exact t-power coefficients, so no topology is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from . import linalg
from .apolarity import ann_slice, concise_dim
from .poly import PRIMAL, Poly, TableMismatchError, VarTable
from .ranks import CertificateRecord


class ParamPoly:
    """Polynomial with Laurent-polynomial-in-t coefficients."""

    __slots__ = ("table", "ring", "terms")

    def __init__(self, table: VarTable, ring: str, terms):
        clean = {}
        for mono, laurent in terms.items():
            lt = {int(e): Fraction(c) for e, c in laurent.items() if c != 0}
            if lt:
                clean[tuple(mono)] = lt
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @staticmethod
    def zero(table: VarTable, ring: str = PRIMAL) -> "ParamPoly":
        return ParamPoly(table, ring, {})

    @staticmethod
    def from_poly(p: Poly, t_power: int = 0) -> "ParamPoly":
        return ParamPoly(p.table, p.ring, {m: {t_power: c} for m, c in p.terms.items()})

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        if self.table != other.table or self.ring != other.ring:
            raise TableMismatchError("mismatched tables")
        terms = {m: dict(l) for m, l in self.terms.items()}
        for m, l in other.terms.items():
            dst = terms.setdefault(m, {})
            for e, c in l.items():
                s = dst.get(e, Fraction(0)) + c
                if s == 0:
                    dst.pop(e, None)
                else:
                    dst[e] = s
        return ParamPoly(self.table, self.ring, terms)

    def scale(self, c) -> "ParamPoly":
        return ParamPoly(
            self.table, self.ring,
            {m: {e: Fraction(c) * v for e, v in l.items()} for m, l in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def min_t_exponent(self) -> Optional[int]:
        exps = [e for l in self.terms.values() for e in l]
        return min(exps) if exps else None

    def coefficient_poly(self, k: int) -> Poly:
        return Poly(
            self.table, self.ring,
            {m: l[k] for m, l in self.terms.items() if k in l},
        )

    def evaluate(self, t) -> Poly:
        """Substitute a nonzero rational for t."""
        t = Fraction(t)
        if t == 0:
            raise ValueError("evaluation point must be nonzero (negative powers)")
        return Poly(
            self.table, self.ring,
            {m: sum((c * t ** e for e, c in l.items()), Fraction(0))
             for m, l in self.terms.items()},
        )


@dataclass(frozen=True)
class TangentDatum:
    """One summand c * (base + t * direction)^d of a limit family."""

    coefficient: Fraction
    base: Poly
    direction: Poly  # linear or zero

    def __post_init__(self):
        if self.base.is_zero() or self.base.homogeneous_degree() != 1:
            raise ValueError("base must be a nonzero linear form")
        if not self.direction.is_zero() and self.direction.homogeneous_degree() != 1:
            raise ValueError("direction must be linear or zero")


def perturbed_power(c, base: Poly, direction: Poly, d: int) -> ParamPoly:
    """c * (base + t*direction)^d expanded by the binomial theorem."""
    out = ParamPoly.zero(base.table, base.ring)
    for j in range(d + 1):
        piece = (base ** (d - j)) * (direction ** j) * (Fraction(c) * comb(d, j))
        if not piece.is_zero():
            out = out + ParamPoly.from_poly(piece, t_power=j)
    return out


@dataclass(frozen=True)
class TangentFamily:
    family: ParamPoly
    limit: Poly
    r: int


def tangent_limit_family(data: Sequence[TangentDatum], d: int) -> TangentFamily:
    """Sum of perturbed d-th powers whose constant term cancels exactly.

    At any t != 0 the family is a combination of r d-th powers, so the t^1
    coefficient — d * sum(c_i * base_i^(d-1) * direction_i) — carries a
    border-rank upper bound of r = len(data).
    """
    if not data:
        raise ValueError("empty tangent data")
    table = data[0].base.table
    const = Poly.zero(table, PRIMAL)
    for td in data:
        const = const + (td.base ** d) * td.coefficient
    if not const.is_zero():
        raise ValueError("tangent bases are not linearly dependent: sum c_i l_i^d != 0")
    family = ParamPoly.zero(table, PRIMAL)
    for td in data:
        family = family + perturbed_power(td.coefficient, td.base, td.direction, d)
    limit = family.coefficient_poly(1)
    return TangentFamily(family=family, limit=limit, r=len(data))


def auto_scale_exponent(family: ParamPoly) -> int:
    e = family.min_t_exponent()
    return 0 if e is None else e


def verify_limit(family: ParamPoly, k: int, target: Poly) -> bool:
    """True iff t^-k * family has no negative t-powers and its constant part
    is exactly target."""
    e = family.min_t_exponent()
    if e is not None and e < k:
        return False
    return family.coefficient_poly(k) == target


@dataclass(frozen=True)
class DoublePointCertificate:
    """f = sum(a_i * l_i^d + b_i * l_i^(d-1) * m_i), solved exactly.

    Each (l_i, m_i) pair is a 2-jet at a point on a line, hence curvilinear;
    the certified cactus bound is twice the number of pairs, and the
    curvilinear flag records why the witness scheme is also smoothable.
    """

    target: Poly
    pairs: tuple
    point_coeffs: tuple  # a_i
    jet_coeffs: tuple  # b_i
    curvilinear: bool = True

    @property
    def cactus_upper(self) -> int:
        return 2 * len(self.pairs)

    def verify(self) -> bool:
        d = self.target.homogeneous_degree()
        acc = Poly.zero(self.target.table, self.target.ring)
        for (l, m), a, b in zip(self.pairs, self.point_coeffs, self.jet_coeffs):
            acc = acc + (l ** d) * a
            if not m.is_zero():
                acc = acc + (l ** (d - 1)) * m * b
        return acc == self.target


def double_point_span(f: Poly, pairs: Sequence) -> Optional[DoublePointCertificate]:
    """Solve for f in the span of the given 2-jets; None when unsolvable."""
    d = f.homogeneous_degree()
    if d is None or f.is_zero():
        raise ValueError("expected a homogeneous nonzero polynomial")
    cols = []
    for l, m in pairs:
        cols.append(((l ** d)).coefficient_vector(d))
        cols.append((l ** (d - 1) * m).coefficient_vector(d))
    sol = linalg.solve_columns(cols, f.coefficient_vector(d))
    if sol is None:
        return None
    cert = DoublePointCertificate(
        target=f,
        pairs=tuple(tuple(p) for p in pairs),
        point_coeffs=tuple(sol[0::2]),
        jet_coeffs=tuple(sol[1::2]),
    )
    if not cert.verify():
        raise AssertionError("double-point certificate failed to re-expand")
    return cert


def double_point_certificate(f: Poly, pairs: Sequence):
    """The double-point span certificate and its record, or None when the
    2-jets do not span f."""
    cert = double_point_span(f, pairs)
    if cert is None:
        return None
    return cert, CertificateRecord(
        kind="double-point-span",
        verified=True,
        stage_log=(f"solved exactly with {len(cert.pairs)} pairs; cactus <= {cert.cactus_upper}",),
    )


def direct_summands(p: Poly) -> list:
    """Split p into variable-disjoint summands (connected components of the
    variable co-occurrence graph); each summand stays on the full table."""
    parent = {}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for v in p.support_vars():
        parent[v] = v
    for mono in p.terms:
        used = [i for i, e in enumerate(mono) if e]
        for a, b in zip(used, used[1:]):
            union(a, b)
    groups = {}
    for mono, c in p.terms.items():
        root = find(next(i for i, e in enumerate(mono) if e))
        groups.setdefault(root, {})[mono] = c
    return [Poly(p.table, p.ring, terms) for _, terms in sorted(groups.items())]


def slice_intersection_certificate(summands: Sequence[Poly], total: Poly) -> CertificateRecord:
    """Check that the degree-2 annihilator slice of a sum over disjoint
    variables is the intersection of the summands' slices."""
    inter = None
    for s in summands:
        vecs = ann_slice(s, 2).vectors()
        inter = vecs if inter is None else linalg.intersect_spans(inter, vecs)
    equal = inter == ann_slice(total, 2).vectors()
    return CertificateRecord(
        kind="direct-sum-slice-intersection",
        verified=equal,
        stage_log=(
            "degree-2 annihilator slice equals the intersection of the summand slices: "
            + str(equal),
        ),
    )


@dataclass(frozen=True)
class DirectSumReport:
    combined: Poly
    concise_left: int
    concise_right: int
    concise_total: int
    certificate: CertificateRecord  # the slice-intersection check

    @property
    def slice_intersection_equal(self) -> bool:
        return self.certificate.verified


def direct_sum_extend(f: Poly, g: Poly) -> DirectSumReport:
    """Verify the degree-2 annihilator slice of f + g against the
    intersection of the slices of the summands, over disjoint variables."""
    if g.is_zero() or f.is_zero():
        raise ValueError("both summands must be nonzero")
    if f.homogeneous_degree() != g.homogeneous_degree():
        raise ValueError("summands must share one degree")
    if f.table == g.table:
        if f.support_vars() & g.support_vars():
            raise ValueError("summands share variables")
        table = f.table
        F, G = f, g
    else:
        names = f.table.primal + g.table.primal
        duals = f.table.dual + g.table.dual
        table = VarTable.make(names, dual=duals)
        off = f.table.n
        F = Poly(table, PRIMAL,
                 {m + (0,) * g.table.n: c for m, c in f.terms.items()})
        G = Poly(table, PRIMAL,
                 {(0,) * off + m: c for m, c in g.terms.items()})
    total = F + G
    return DirectSumReport(
        combined=total,
        concise_left=concise_dim(F).dim,
        concise_right=concise_dim(G).dim,
        concise_total=concise_dim(total).dim,
        certificate=slice_intersection_certificate((F, G), total),
    )
