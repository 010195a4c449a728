"""Border-rank witness families and cactus-rank witness schemes.

A ParamPoly is a polynomial whose coefficients are Laurent polynomials in one
parameter t; tangent-limit families live here, and limits are read off as
exact t-power coefficients, so no topology is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from . import linalg
from .apolarity import ann_slice, concise_dim
from .poly import PRIMAL, Poly, TableMismatchError, VarTable, _cleared, _power_terms
from .ranks import Deduction, EvidenceRecord


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

    @classmethod
    def _of(cls, table: VarTable, ring: str, terms: dict) -> "ParamPoly":
        """A ParamPoly over a term dict that is already canonical: int
        t-exponents, nonzero Fraction coefficients, no empty Laurent part.
        Nothing is checked or copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "table", table)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero(table: VarTable, ring: str = PRIMAL) -> "ParamPoly":
        return ParamPoly(table, ring, {})

    @staticmethod
    def from_poly(p: Poly, t_power: int = 0) -> "ParamPoly":
        return ParamPoly(p.table, p.ring, {m: {t_power: c} for m, c in p.terms.items()})

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


def _perturbed_powers(data: Sequence[TangentDatum], d: int) -> ParamPoly:
    """sum(c * (base + t*direction)^d) over the data.

    Each datum is one multinomial expansion of a linear form in 2n slots:
    slot v carries base's coefficient of x_v and slot n + v direction's, so
    an expanded term's monomial adds its two halves and its t-power is the
    total exponent on the second half.  Every datum is cleared of
    denominators once, all of them are expanded into one integer table over
    a common denominator, and the ParamPoly is built from that table alone.
    """
    table, ring = data[0].base.table, data[0].base.ring
    n = table.n
    expansions = []  # (weight numerator, weight denominator, entries)
    for td in data:
        for form in (td.base, td.direction):
            if form.table != table or form.ring != ring:
                raise TableMismatchError("tangent data live over different tables or rings")
        c = Fraction(td.coefficient)
        if c == 0:
            continue
        slots = [m.index(1) for m in td.base.terms] + [n + m.index(1) for m in td.direction.terms]
        ints, den = _cleared(list(td.base.terms.values()) + list(td.direction.terms.values()))
        expansions.append((c.numerator, c.denominator * den ** d, list(zip(slots, ints))))
    common = lcm(*[den for _, den, _ in expansions])
    expanded = {}
    for num, den, entries in expansions:
        _power_terms(entries, d, 2 * n, num * (common // den), expanded)
    folded = {}  # (monomial, t-power) -> int
    for key, v in expanded.items():
        if v:
            shift = key[n:]
            folded_key = (tuple(a + b for a, b in zip(key[:n], shift)), sum(shift))
            folded[folded_key] = folded.get(folded_key, 0) + v
    terms = {}
    for (mono, tp), v in folded.items():
        if v:
            terms.setdefault(mono, {})[tp] = Fraction(v, common)
    return ParamPoly._of(table, ring, terms)


def perturbed_power(c, base: Poly, direction: Poly, d: int) -> ParamPoly:
    """c * (base + t*direction)^d for a nonzero linear base and a linear or
    zero direction, expanded by the multinomial formula."""
    return _perturbed_powers([TangentDatum(c, base, direction)], d)


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
    family = _perturbed_powers(data, d)
    # the t^0 part of the expansion is sum(c_i * base_i^d)
    if family.min_t_exponent() == 0:
        raise ValueError("tangent bases are not linearly dependent: sum c_i l_i^d != 0")
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
    """Solve for f in the span of the given 2-jets; None when unsolvable.
    Each pair (l, m) needs a nonzero linear form l and a linear or zero m."""
    d = f.homogeneous_degree()
    if d is None or f.is_zero():
        raise ValueError("expected a homogeneous nonzero polynomial")
    cols = []
    for l, m in pairs:
        if l.homogeneous_degree() != 1 or not (m.is_zero() or m.homogeneous_degree() == 1):
            raise ValueError(f"({l}, {m}): l must be a nonzero linear form, m linear or 0")
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
    upper = cert.cactus_upper
    return cert, EvidenceRecord(
        kind="double-point-span",
        verified=True,
        stage_log=(f"solved exactly with {len(cert.pairs)} pairs; cactus <= {upper}",),
        bounds=(
            Deduction("cactus", "upper", upper, rule="double-point-span",
                      detail=f"{len(cert.pairs)} two-jets span the target"),
            Deduction("smoothable", "upper", upper, rule="curvilinear-smoothable",
                      detail="2-jets on lines are curvilinear, hence smoothable",
                      basis="cited"),
        ),
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


def slice_intersection_certificate(summands: Sequence[Poly], total: Poly) -> EvidenceRecord:
    """Check that the degree-2 annihilator slice of a sum over disjoint
    variables is the intersection of the summands' slices; the check bounds
    no rank by itself."""
    inter = None
    for s in summands:
        vecs = ann_slice(s, 2).vectors()
        inter = vecs if inter is None else linalg.intersect_spans(inter, vecs)
    equal = inter == ann_slice(total, 2).vectors()
    return EvidenceRecord(
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
    summands: tuple  # the two summands over the combined table
    concise_left: int
    concise_right: int
    concise_total: int

    @cached_property
    def certificate(self) -> EvidenceRecord:
        """The slice-intersection check, computed on first use."""
        return slice_intersection_certificate(self.summands, self.combined)

    @property
    def slice_intersection_equal(self) -> bool:
        return self.certificate.verified


def direct_sum_extend(f: Poly, g: Poly) -> DirectSumReport:
    """f + g over disjoint variables, with the conciseness of both summands
    and of the sum; the report's certificate checks the degree-2 annihilator
    slice of the sum against the intersection of the summands' slices."""
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
        summands=(F, G),
        concise_left=concise_dim(F).dim,
        concise_right=concise_dim(G).dim,
        concise_total=concise_dim(total).dim,
    )
