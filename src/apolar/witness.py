"""Border-rank witness families and cactus-rank witness schemes.

A tangent limit family sum(c_i * (l_i + t*m_i)^d) is kept as its data.  Its
claim rests on two exact coefficients: the t^0 part sum(c_i * l_i^d) is zero,
and the t^1 part d * sum(c_i * l_i^(d-1) * m_i) is the limit.  Higher
t-powers never enter the claim, so they are never expanded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg
from .apolarity import ann_slice, contract
from .poly import PRIMAL, Poly, VarTable, _Record, expand_products
from .ranks import Deduction, EvidenceRecord


class TangentDatum(_Record):
    """One summand c * (base + t * direction)^d of a limit family: base is a
    nonzero linear form, direction is linear or zero."""

    __slots__ = _fields = ("coefficient", "base", "direction")

    def __init__(self, coefficient: Fraction, base: Poly, direction: Poly):
        if base.is_zero() or base.homogeneous_degree() != 1:
            raise ValueError("base must be a nonzero linear form")
        if not direction.is_zero() and direction.homogeneous_degree() != 1:
            raise ValueError("direction must be linear or zero")
        self._init(coefficient, base, direction)


class TangentFamily(_Record):
    """The TangentDatum summands of a limit family and its limit."""

    __slots__ = _fields = ("data", "limit")

    def __init__(self, data: tuple, limit: Poly):
        self._init(data, limit)

    @property
    def r(self) -> int:
        return len(self.data)


def tangent_limit_family(data: Sequence[TangentDatum], d: int) -> TangentFamily:
    """The limit of sum(c_i * (base_i + t*direction_i)^d) / t as t -> 0.

    (l + t*m)^d = l^d + t * d * l^(d-1) * m + t^2 * (...), so when the
    constant term sum(c_i * base_i^d) cancels, the family over t is a sum of
    r = len(data) d-th powers for every t != 0 and equals
    d * sum(c_i * base_i^(d-1) * direction_i) + O(t): a border-rank upper
    bound of r for that limit.  Raises ValueError when the constant term does
    not cancel.  Both sums are taken in integers over one common denominator.
    """
    if not data:
        raise ValueError("empty tangent data")
    table, ring = data[0].base.table, data[0].base.ring
    constant = expand_products(table, ring, ((td.coefficient, ((td.base, d),)) for td in data))
    if not constant.is_zero():
        raise ValueError("tangent bases are not linearly dependent: sum c_i l_i^d != 0")
    limit = expand_products(table, ring, (
        (d * td.coefficient, ((td.base, d - 1), (td.direction, 1))) for td in data if d))
    return TangentFamily(data=tuple(data), limit=limit)


class DoublePointCertificate(_Record):
    """f = sum(a_i * l_i^d + b_i * l_i^(d-1) * m_i), solved exactly.

    Each (l_i, m_i) pair is a 2-jet at a point on a line, hence curvilinear;
    the certified cactus bound is twice the number of pairs, and the record's
    cited curvilinear-smoothable deduction says why the witness scheme is
    also smoothable.
    """

    __slots__ = _fields = ("target", "pairs", "point_coeffs", "jet_coeffs")

    def __init__(self, target: Poly, pairs: tuple,
                 point_coeffs: tuple,  # a_i
                 jet_coeffs: tuple):  # b_i
        self._init(target, pairs, point_coeffs, jet_coeffs)

    @property
    def cactus_upper(self) -> int:
        return 2 * len(self.pairs)

    def verify(self) -> bool:
        d = self.target.homogeneous_degree()
        return expand_products(self.target.table, self.target.ring, [
            summand
            for (l, m), a, b in zip(self.pairs, self.point_coeffs, self.jet_coeffs)
            for summand in ((a, ((l, d),)), (b, ((l, d - 1), (m, 1))))
        ]) == self.target


def _check_linear_pairs(pairs: Sequence) -> None:
    """ValueError unless each pair (l, m) is a nonzero linear form l and a
    linear or zero m."""
    for l, m in pairs:
        if l.homogeneous_degree() != 1 or not (m.is_zero() or m.homogeneous_degree() == 1):
            raise ValueError(f"({l}, {m}): l must be a nonzero linear form, m linear or 0")


def double_point_span(f: Poly, pairs: Sequence) -> EvidenceRecord:
    """The record of f solved in the span of the given 2-jets, its witness
    the DoublePointCertificate; an unverified record with no witness when
    they do not span f.  ValueError unless f is a nonzero form and each pair
    (l, m) is a nonzero linear form l and a linear or zero m."""
    d = f.homogeneous_degree()
    if d is None or f.is_zero():
        raise ValueError("expected a homogeneous nonzero polynomial")
    _check_linear_pairs(pairs)
    cols = [expand_products(f.table, f.ring, ((1, factors),)).coefficient_vector(d)
            for l, m in pairs for factors in (((l, d),), ((l, d - 1), (m, 1)))]
    sol = linalg.solve_columns(cols, f.coefficient_vector(d))
    if sol is None:
        return EvidenceRecord("double-point-span", False,
                              ("no exact solution in the span of the given 2-jets",))
    cert = DoublePointCertificate(
        target=f,
        pairs=tuple(tuple(p) for p in pairs),
        point_coeffs=tuple(sol[0::2]),
        jet_coeffs=tuple(sol[1::2]),
    )
    if not cert.verify():
        raise AssertionError("double-point certificate failed to re-expand")
    upper = cert.cactus_upper
    return EvidenceRecord(
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
        witness=cert,
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
    """Check that the degree-2 annihilator slice of `total` is the
    intersection of the summands' slices; the check bounds no rank by itself.

    A form that annihilates every summand annihilates their sum, so the
    intersection always lies in the slice of `total`; the two are equal
    exactly when every basis form of that slice contracts every summand to
    zero.  Raises ValueError unless the summands add up to `total`."""
    if sum(summands, Poly.zero(total.table)) != total:
        raise ValueError("the summands do not add up to the total")
    equal = all(contract(b, s).is_zero() for b in ann_slice(total, 2).basis for s in summands)
    return EvidenceRecord(
        kind="direct-sum-slice-intersection",
        verified=equal,
        stage_log=(
            "degree-2 annihilator slice equals the intersection of the summand slices: "
            + str(equal),
        ),
    )


def direct_sum_extend(f: Poly, g: Poly) -> tuple:
    """(F, G): f and g over one merged table, as summands of a sum over
    disjoint variables whose degree-2 slice `slice_intersection_certificate`
    can check, so both must have one degree of at least 2.

    The two tables are merged by name: f's variables, then those of g's that
    f's table lacks, each with its own table's dual name (a shared name keeps
    f's).  The summands may not both use one variable."""
    if g.is_zero() or f.is_zero():
        raise ValueError("both summands must be nonzero")
    if f.homogeneous_degree() != g.homogeneous_degree():
        raise ValueError("summands must share one degree")
    if f.homogeneous_degree() is None or f.homogeneous_degree() < 2:
        raise ValueError("summands must be forms of degree at least 2: the check compares degree-2 slices")
    f_names, g_names = f.table.primal, g.table.primal
    if {f_names[i] for i in f.support_vars()} & {g_names[i] for i in g.support_vars()}:
        raise ValueError("summands share variables")
    new = [i for i, v in enumerate(g_names) if v not in f_names]
    table = VarTable.make(f_names + tuple(g_names[i] for i in new),
                          dual=f.table.dual + tuple(g.table.dual[i] for i in new))
    return tuple(p.substitute([Poly.variable(table, table.index(v, PRIMAL)) for v in p.table.primal])
                 for p in (f, g))
