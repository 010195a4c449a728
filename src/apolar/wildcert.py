"""Certificate pipeline for the five-variable wild cubic and its relatives.

Everything here re-verifies from scratch: certificates carry no trusted
state, every equality and dimension is computed exactly (the stages of one
report share one `FormFacts`, so each invariant is computed once), and
applications of literature rules are recorded as "cited" stages over
machine-verified hypotheses so an auditor can see precisely what was
computed.

Each certificate has one builder, which computes it and records it:
`limit_family_certificate` (border), `double_point_span` (cactus and
smoothable), `power_sum_certificate` (rank upper), `cactus_lower_via_slice`
(cactus lower) and `rank9_lower_cert` (rank lower, its stage records kept in
the record's `stages`).  Each returns (witness or None, EvidenceRecord), and
raises ValueError only on malformed input.

A rank report runs the bound sources of `_STAGES` in order: the classical
bounds, variable-disjoint summands, the upper bounds from square pairs,
slice saturation and the counting certificate.  Each stage is a plain
function of the run's `WildReport` that decides for itself whether it
applies and appends its records, notes and deductions there; `_report`
aggregates them once and applies the cited tameness rule once.
`classical_report` is the same run over the classical stage alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Optional, Sequence

from . import linalg
from .apolarity import FormFacts, contract, second_derivatives
from .ideals import IdealSlice, generated_slice
from .poly import (
    DUAL,
    Poly,
    VarTable,
    _cleared,
    _monomial_index,
    expand_products,
    linear_coeffs,
    linear_form,
    monomial_count,
    monomials,
)
from .ranks import (
    NOTIONS,
    Deduction,
    EvidenceRecord,
    RankReport,
    aggregate,
    catalecticant_deduction,
    sylvester_binary,
    tameness_rule,
)
from .witness import (
    TangentDatum,
    _check_linear_pairs,
    direct_summands,
    double_point_span,
    slice_intersection_certificate,
    tangent_limit_family,
)


class LocusShapeError(ValueError):
    """The bilinear solution locus is not a degree-2 hypersurface."""


# ---------------------------------------------------------------------------
# the distinguished cubic and its presentation
# ---------------------------------------------------------------------------


def wild_table(dual_names: Optional[Sequence[str]] = None) -> VarTable:
    return VarTable.make(("x0", "x1", "y0", "y1", "y2"), dual=dual_names)


def wild_cubic(table: Optional[VarTable] = None) -> Poly:
    """x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2 over the given 5-variable table."""
    if table is None:
        table = wild_table()
    if table.n != 5:
        raise ValueError("the wild cubic needs a 5-variable table")
    x0, x1, y0, y1, y2 = (Poly.variable(table, i) for i in range(5))
    return (x0 ** 2) * y0 - ((x0 + x1) ** 2) * y1 + (x1 ** 2) * y2


@dataclass(frozen=True)
class WildPresentation:
    """A cubic together with square-pair data: poly == sum of z_i^2 * w_i.

    The pairs drive every witness construction (tangent family, double
    points, dual-space split), so a linear change of variables applied to
    both the polynomial and the pairs transports all certificates.
    """

    poly: Poly
    square_pairs: tuple

    def __post_init__(self):
        if _square_sum(self.poly, self.square_pairs) != self.poly:
            raise ValueError("square pairs do not re-expand to the polynomial")


def _square_sum(f: Poly, pairs) -> Poly:
    """sum(z^2 * w) of linear square pairs over f's table, in integers."""
    return expand_products(f.table, f.ring, ((1, ((z, 2), (w, 1))) for z, w in pairs))


def wild_presentation(table: Optional[VarTable] = None) -> WildPresentation:
    if table is None:
        table = wild_table()
    f = wild_cubic(table)
    x0, x1, y0, y1, y2 = (Poly.variable(table, i) for i in range(5))
    pairs = ((x0, y0), (x0 + x1, -y1), (x1, y2))
    return WildPresentation(poly=f, square_pairs=pairs)


def transform_presentation(pres: WildPresentation, images: Sequence[Poly]) -> WildPresentation:
    """Apply a linear change of variables to the polynomial and its pairs."""
    return WildPresentation(
        poly=pres.poly.substitute(images),
        square_pairs=tuple(
            (z.substitute(images), w.substitute(images)) for z, w in pres.square_pairs
        ),
    )


def wild_cubic_tangent_witness(table: Optional[VarTable] = None) -> tuple:
    """Hand-picked five-term limit family certifying border rank <= 5 for the
    wild cubic: coefficients (1/3, -1/3, -1/12, -1/9, 1/9) on the bases
    x0, x0+x1, 2*x1, x0-x1, x0+2*x1 with directions y0, y1, -y2, 0, 0."""
    if table is None:
        table = wild_table()
    x0, x1, y0, y1, y2 = (Poly.variable(table, i) for i in range(5))
    zero = Poly.zero(table)
    return (
        TangentDatum(Fraction(1, 3), x0, y0),
        TangentDatum(Fraction(-1, 3), x0 + x1, y1),
        TangentDatum(Fraction(-1, 12), 2 * x1, -y2),
        TangentDatum(Fraction(-1, 9), x0 - x1, zero),
        TangentDatum(Fraction(1, 9), x0 + 2 * x1, zero),
    )


# ---------------------------------------------------------------------------
# structural shape extraction
# ---------------------------------------------------------------------------


def _rank_one_square(q: Poly):
    """Write a quadric as s * z^2 with z a rational linear form, or None.

    m is the quadric's symmetric matrix times a common positive integer, so
    m = s' * v * v^T exactly when m[i][j] * m[k][k] == m[k][i] * m[k][j] for
    the first nonzero row k, and then z has coefficients m[k][j] / m[k][k]
    and s is the coefficient of x_k^2.
    """
    n = q.table.n
    ints, _ = _cleared(q.terms.values())
    m = [[0] * n for _ in range(n)]
    for mono, c in zip(q.terms, ints):
        idx = [i for i, e in enumerate(mono) if e]
        if len(idx) == 1:
            m[idx[0]][idx[0]] = 2 * c
        else:
            i, j = idx
            m[i][j] = m[j][i] = c
    k = next((i for i in range(n) if any(m[i])), None)
    if k is None or m[k][k] == 0:
        return None
    row, lead = m[k], m[k][k]
    if any(m[i][j] * lead != row[i] * row[j] for i in range(n) for j in range(i, n)):
        return None
    s = q.terms[tuple(2 if i == k else 0 for i in range(n))]
    return s, linear_form(q.table, [Fraction(x, lead) for x in row], q.ring)


def extract_square_pairs(f: Poly):
    """Recognize f = sum z_i^2 * w_i from its monomial structure, or None.

    Works when the squared and linear variable groups are visible monomially
    (pure cubes count, with z = w); arbitrary coordinate changes hide the
    shape and are out of reach here — supply a presentation instead.
    """
    if f.homogeneous_degree() != 3:
        return None
    n = f.table.n
    maxexp = [0] * n
    for mono in f.terms:
        for i, e in enumerate(mono):
            maxexp[i] = max(maxexp[i], e)
    # pure power sums first
    if all(sorted(mono, reverse=True)[0] == 3 and sum(mono) == 3 for mono in f.terms):
        pairs = []
        for mono, c in sorted(f.terms.items(), reverse=True):
            v = Poly.variable(f.table, mono.index(3), f.ring)
            pairs.append((v, c * v))
        pairs = tuple(pairs)
    else:
        linear_vars = [i for i in range(n) if maxexp[i] == 1]
        pairs = []
        for y in linear_vars:
            dual_y = Poly.variable(f.table, y, DUAL)
            q = contract(dual_y, f)
            if q.is_zero():
                continue
            factored = _rank_one_square(q)
            if factored is None:
                return None
            s, z = factored
            pairs.append((z, s * Poly.variable(f.table, y, f.ring)))
        pairs = tuple(pairs)
    if not pairs:
        return None
    if _square_sum(f, pairs) != f:
        return None
    return pairs


def square_pair_split(square_pairs, table: VarTable):
    """Dual-space split derived from the pairs: the forms vanishing on the
    span of the squared parts, plus a coordinate complement."""
    z_rows = [linear_coeffs(z) for z, _ in square_pairs]
    perp_vecs = linalg.kernel_basis(z_rows, table.n)
    perp = tuple(linear_form(table, v, DUAL) for v in perp_vecs)
    pivots = set()
    for v in perp_vecs:
        pivots.add(next(j for j, c in enumerate(v) if c != 0))
    comp = tuple(
        Poly.variable(table, j, DUAL) for j in range(table.n) if j not in pivots
    )
    return perp, comp


def _proportional(u: Poly, v: Poly) -> bool:
    """Whether two linear forms span at most a line: every 2 x 2 minor
    u_i v_j - u_j v_i of their coefficients, cleared of denominators, is 0."""
    a, b = _int_coeffs((u, v))
    return all(a[i] * b[j] == a[j] * b[i]
               for i in range(len(a)) for j in range(i + 1, len(a)))


def _cube_dependency(forms) -> list:
    """The dependency sum(c_j * l_j^3) = 0 of five linear forms in a 2-space,
    scaled so that c_0 = 1: the reduced echelon vector of the kernel.

    With p_j the coordinates of l_j in a basis of the plane, the dependency
    is c_j = 1 / prod_{k != j} det(p_j, p_k).  The two coefficients of one
    coordinate pair on which the plane projects isomorphically are such
    coordinates, in another basis; the change of basis, like the common
    scale of `_int_coeffs`, multiplies every determinant alike, which
    cancels once c_0 = 1.  A vanishing determinant means two proportional
    forms, which leave no dependency with every coefficient nonzero.
    """
    vecs = _int_coeffs(forms)
    n = len(vecs[0])
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                if any(u[i] * v[j] != u[j] * v[i] for u in vecs for v in vecs))
    dets = [prod(u[i] * v[j] - u[j] * v[i] for k, v in enumerate(vecs) if k != m)
            for m, u in enumerate(vecs)]
    if 0 in dets:
        raise ValueError("degenerate dependency among the cubes")
    return [Fraction(dets[0], d) for d in dets]


def tangent_data_for_pairs(square_pairs) -> tuple:
    """Limit-family data for a cubic sum of squares-times-lines whose squared
    parts span a 2-dimensional space.

    Five pairwise non-proportional forms in a 2-space have cubes spanning the
    4-dimensional space of binary cubics, so they carry a unique linear
    dependence with every coefficient nonzero; tying the pair directions to
    the first three summands makes the t-coefficient of the family equal the
    polynomial.
    """
    table = square_pairs[0][0].table
    zs = [z for z, _ in square_pairs]
    if len(zs) > 5:
        raise ValueError("too many summands for a five-point dependency")
    z_rows = [linear_coeffs(z) for z in zs]
    if linalg.rank(z_rows) != 2:
        raise ValueError("squared parts must span a 2-dimensional space")
    b1 = zs[0]
    b2 = next(z for z in zs[1:] if not _proportional(b1, z))

    extras = []
    need = 5 - len(zs)
    for a, b in ((1, -1), (1, 2), (1, 1), (1, -2), (1, 3), (1, -3),
                 (2, 1), (2, -1), (3, 1), (3, -1)):
        if len(extras) == need:
            break
        cand = a * b1 + b * b2
        if not any(_proportional(cand, g) for g in zs + extras):
            extras.append(cand)
    if len(extras) < need:
        raise ValueError("could not complete the dependency point set")
    coeffs = _cube_dependency(zs + extras)
    data = []
    zero = Poly.zero(table)
    for i, (z, w) in enumerate(square_pairs):
        data.append(TangentDatum(coeffs[i], z, w * (Fraction(1) / (3 * coeffs[i]))))
    for j, l in enumerate(extras):
        data.append(TangentDatum(coeffs[len(zs) + j], l, zero))
    return tuple(data)


def limit_family_certificate(f: Poly, pairs):
    """(family, record) of the cubic tangent limit family of f's square
    pairs, whose verification re-reads f as the t-coefficient.

    (None, unverified record) when there are no pairs (f showed no
    squares-times-lines shape) or the squared parts carry no five-point
    dependency; ValueError when a pair is not linear.
    """
    if not pairs:
        return None, EvidenceRecord("border-limit-family", False, ("no squares-times-lines shape found",))
    _check_linear_pairs(pairs)
    try:
        fam = tangent_limit_family(tangent_data_for_pairs(pairs), 3)
    except ValueError as exc:
        return None, EvidenceRecord("border-limit-family", False, (str(exc),))
    ok = fam.limit == f
    return fam, EvidenceRecord(
        kind="border-limit-family",
        verified=ok,
        stage_log=(
            f"{fam.r} perturbed cubes, constant term cancels",
            f"t-coefficient equals the target: {ok}",
        ),
        bounds=(Deduction("border", "upper", fam.r, rule="limit-family",
                          detail=f"{fam.r}-term perturbed power family"),),
    )


# ---------------------------------------------------------------------------
# cactus lower bound via slice saturation
# ---------------------------------------------------------------------------


def _monomial_residues(slice_: IdealSlice) -> list:
    """Normal form of every monomial of the slice's degree modulo its reduced
    echelon basis, indexed like monomials(n, degree), as {coordinate:
    coefficient} over the non-pivot coordinates.

    A monomial off the pivots is its own normal form; the pivot monomial of
    a basis row reduces to itself minus that row, which vanishes on every
    pivot because the basis is reduced.
    """
    index = _monomial_index(slice_.table.n, slice_.degree)
    residues = [{k: 1} for k in range(len(index))]
    for b in slice_.basis:
        coords = {index[m]: c for m, c in b.terms.items()}
        pivot = min(coords)
        residues[pivot] = {k: -c for k, c in coords.items() if k != pivot}
    return residues


@dataclass(frozen=True)
class CactusSliceCertificate:
    bound: int
    scheme_quotient_dim: int  # H_f(2): schemes up to this length pin the slice
    gamma_basis: tuple  # linear forms certified to lie in the saturation
    witness_power: int  # gamma * m^k lies in the generated ideal
    quotient_h1: int  # linear-degree Hilbert value after saturating
    conciseness: int


def cactus_lower_via_slice(f: Poly, facts: Optional[FormFacts] = None):
    """(certificate, record) of the cactus lower bound from showing that the
    degree-2 annihilator slice saturates to too small a linear space.

    Any length-<= H_f(2) scheme spanning f pins its degree-2 ideal slice to
    the full annihilator slice; if the saturation of that slice contains
    enough independent linear forms to drop the linear Hilbert value below
    the number of essential variables, no such scheme exists and the cactus
    rank is at least H_f(2) + 1.  (None, unverified record) when the pattern
    finds no linear drop; ValueError when f is not a cubic or not concise.
    `facts`, when given, must be f's.
    """
    if f.homogeneous_degree() != 3:
        raise ValueError("the slice-saturation pattern is for cubics")
    n = f.table.n
    facts = facts or FormFacts(f)
    es_dim = facts.essential.dim
    if es_dim != n:
        raise ValueError("reduce to essential variables before this pattern")
    r = facts.hilbert(2)
    slice2 = facts.slice2
    k = 3
    slice4 = generated_slice(slice2.basis, 1 + k, table=f.table)
    residues = _monomial_residues(slice4)
    index4 = _monomial_index(n, 1 + k)
    # gamma = sum c_j x_j lies in the saturation iff every gamma * mu (mu a
    # degree-k monomial) reduces to zero; x_j * mu is a single monomial, so
    # each mu contributes one equation per coordinate its residues reach
    rows = []
    for mu in monomials(n, k):
        by_coord = {}
        for j in range(n):
            shifted = mu[:j] + (mu[j] + 1,) + mu[j + 1:]
            for coord, c in residues[index4[shifted]].items():
                by_coord.setdefault(coord, [0] * n)[j] = c
        rows.extend(by_coord[coord] for coord in sorted(by_coord))
    gamma_vecs = linalg.kernel_basis(rows, n)
    quotient_h1 = n - len(gamma_vecs)
    if quotient_h1 >= es_dim:
        return None, EvidenceRecord("cactus-slice-saturation", False,
                                    ("the slice-saturation pattern found no linear drop",))
    csl = CactusSliceCertificate(
        bound=r + 1,
        scheme_quotient_dim=r,
        gamma_basis=tuple(linear_form(f.table, v, DUAL) for v in gamma_vecs),
        witness_power=k,
        quotient_h1=quotient_h1,
        conciseness=es_dim,
    )
    return csl, EvidenceRecord(
        kind="cactus-slice-saturation",
        verified=True,
        stage_log=(
            f"degree-2 quotient dimension {r}",
            f"{len(gamma_vecs)} linear forms in the saturation (k={k})",
            f"saturated quotient has {quotient_h1} < {es_dim} linear dimensions",
            f"cactus rank >= {r + 1}",
        ),
        bounds=(Deduction("cactus", "lower", r + 1, rule="slice-saturation",
                          detail=f"saturated linear quotient {quotient_h1} < {es_dim}"),),
    )


# ---------------------------------------------------------------------------
# the bilinear product locus and its conic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductLocus:
    """Solutions (point, factor) of  (point-form) * (factor-form) annihilating f.

    `quadric` is the implicit degree-2 equation in point coordinates over the
    perp basis, eliminated from the 2x2 minors.  Each sample pairs the point
    solved from one fixed factor over the complement basis with the factor
    re-solved at that point.
    """

    quadric: tuple  # coefficients over monomials(k, 2)
    samples: tuple  # ((u...), (c0, c1)) pairs, u coprime ints
    smooth: bool

    def all_samples(self) -> tuple:
        """`samples`; the benchmark's tracer counts them through this name."""
        return self.samples


def _quadric_monomials(u) -> list:
    """The degree-2 monomials in the point coordinates, evaluated at u."""
    return [prod(ui ** e for ui, e in zip(u, mono)) for mono in monomials(len(u), 2)]


# Factors (c0, c1) whose kernels give the conic points, in sampling order.  On
# a smooth conic every factor yields exactly one point, so the first eleven
# are used; the spares stand in for factors whose kernel degenerates.
_FACTORS = (
    (0, 1), (1, 1), (1, -2), (2, -1), (1, -1), (1, 0),
    (3, -1), (2, 1), (4, -1), (2, -3), (4, -3),
    (1, 2), (1, -3), (3, 1), (1, 3), (3, -2),
)
_POINT_COUNT = 11


def _int_coeffs(forms: Sequence[Poly]) -> list:
    """Coefficient lists of dual linear forms, all multiplied by the least
    positive integer that makes every entry an int; read off the terms."""
    scale = lcm(*[c.denominator for b in forms for c in b.terms.values()])
    out = []
    for b in forms:
        v = [0] * b.table.n
        for m, c in b.terms.items():
            if sum(m) != 1:
                raise ValueError("not a linear form")
            v[m.index(1)] = c.numerator * (scale // c.denominator)
        out.append(v)
    return out


def _combine(a: Sequence, vecs: Sequence) -> list:
    """sum(a_i * vecs[i]) of equal-length coefficient vectors."""
    out = [0] * len(vecs[0])
    for c, vec in zip(a, vecs):
        if c:
            for p, x in enumerate(vec):
                if x:
                    out[p] += c * x
    return out


def _variable_contractions(f: Poly, forms: Sequence[Poly],
                           facts: Optional[FormFacts] = None) -> list:
    """[[contract(a * d_j, f) for every dual variable d_j] for a in forms]
    for dual linear forms, as coefficient vectors over monomials(n, d - 2),
    read off f's second-derivative table by bilinearity; no product is built.

    Every vector carries one common positive scale (the table's and that of
    the forms' cleared coefficients), which no kernel, rank, vanishing or
    proportionality computed from them sees.  `facts`, when given, must be
    f's; otherwise the table is computed for this call.
    """
    hessian = facts.second_derivatives if facts is not None else second_derivatives(f)
    # the table is symmetric, so its row j is the column of d_j
    return [[_combine(a, column) for column in hessian] for a in _int_coeffs(forms)]


def _contractions(f: Poly, left: Sequence[Poly], right: Sequence[Poly],
                  facts: Optional[FormFacts] = None) -> list:
    """[[contract(a * b, f) for b in right] for a in left] for dual linear
    forms: `_variable_contractions` of left, combined along the cleared
    coefficients of each b, so again with one common positive scale."""
    rights = _int_coeffs(right)
    return [[_combine(b, cols) for b in rights] for cols in _variable_contractions(f, left, facts)]


def product_locus(f: Poly, perp_basis: Sequence[Poly], comp_basis: Sequence[Poly],
                  facts: Optional[FormFacts] = None) -> ProductLocus:
    """Describe {point u : some factor over comp_basis multiplies the u-form
    into the annihilator}.

    Exact elimination gives the quadric.  The points come from the factor
    side: a smooth conic with a rational point is rational, and the factor
    coordinate parametrizes it, so a fixed factor c gives its point u as the
    one-dimensional kernel of the linear map u -> contract(u-form * c-form, f).
    Every point must lie on the quadric and solve back to a factor
    proportional to c, and the points together must pin the quadric.
    `facts`, when given, must be f's.
    """
    if len(comp_basis) != 2:
        raise ValueError("the factor space must be 2-dimensional")
    k = len(perp_basis)
    # contraction of (perp_j * comp_t) against f, as coefficient vectors
    base = _contractions(f, perp_basis, comp_basis, facts)
    ncoord = len(base[0][0])

    # quadric via the 2x2 minors of the residue matrix (quadratic forms in u)
    qmonos = list(monomials(k, 2))
    qindex = {m: i for i, m in enumerate(qmonos)}
    minor_vecs = []
    for p in range(ncoord):
        for q in range(p + 1, ncoord):
            coeffs = [0] * len(qmonos)
            for j in range(k):
                for l in range(k):
                    val = base[j][0][p] * base[l][1][q] - base[j][0][q] * base[l][1][p]
                    if val:
                        mono = tuple(
                            (1 if i == j else 0) + (1 if i == l else 0) for i in range(k)
                        )
                        coeffs[qindex[mono]] += val
            if any(coeffs):
                minor_vecs.append(coeffs)
    _, minor_red = linalg.rref(minor_vecs)
    if len(minor_red) != 1:
        raise LocusShapeError(
            f"the solution locus is not a single quadric (minor span rank {len(minor_red)})"
        )
    quadric = tuple(minor_red[0])

    points = []
    for c0, c1 in _FACTORS:
        if len(points) == _POINT_COUNT:
            break
        rows = [[c0 * base[j][0][i] + c1 * base[j][1][i] for j in range(k)] for i in range(ncoord)]
        # the reduced kernel vector cleared to coprime ints, first nonzero
        # entry positive; the quadric evaluation and the re-solve run on them
        ker = linalg.int_kernel_basis(rows, k)
        if len(ker) != 1:
            continue
        u = tuple(ker[0])
        cols = [[sum(u[j] * base[j][t][i] for j in range(k)) for t in range(2)]
                for i in range(ncoord)]
        factor = linalg.kernel_basis(cols, 2)
        if len(factor) != 1 or factor[0][0] * c1 != factor[0][1] * c0:
            raise LocusShapeError(f"the point of factor {(c0, c1)} does not solve back to it")
        points.append((u, tuple(factor[0])))

    # every point lies on the quadric, and together they must pin it uniquely
    eval_rows = [_quadric_monomials(u) for u, _ in points]
    ints = _cleared(quadric)[0]
    for row in eval_rows:
        if sum(map(mul, row, ints)):
            raise LocusShapeError("solvable point off the quadric")
    ker = linalg.kernel_basis(eval_rows, len(qmonos))
    if len(ker) != 1 or tuple(ker[0]) != quadric:
        raise LocusShapeError(
            f"samples do not pin a unique quadric ({len(points)} samples,"
            f" kernel dimension {len(ker)})"
        )
    smooth = False
    if k == 3:
        # twice the quadric's symmetric matrix, up to a positive scale
        smooth = linalg.rank([[2 * ints[0], ints[1], ints[2]],
                              [ints[1], 2 * ints[3], ints[4]],
                              [ints[2], ints[4], 2 * ints[5]]]) == 3
    return ProductLocus(quadric=quadric, samples=tuple(points), smooth=smooth)


def gamma_space(f: Poly, point_form: Poly, facts: Optional[FormFacts] = None):
    """Dimension and basis of the linear forms whose product with the given
    dual linear form annihilates f.  `facts`, when given, must be f's."""
    if point_form.is_zero() or point_form.homogeneous_degree() != 1:
        raise ValueError("the point form must be a nonzero dual linear form")
    n = f.table.n
    cols = _variable_contractions(f, [point_form], facts)[0]
    vecs = linalg.kernel_basis([list(row) for row in zip(*cols)], n)
    return len(vecs), tuple(linear_form(f.table, v, DUAL) for v in vecs)


def forced_square_check(f: Poly, perp_basis: Sequence[Poly],
                        facts: Optional[FormFacts] = None) -> bool:
    """True iff every linear form whose products with the whole perp basis
    annihilate f already lies in the span of the perp basis: adding those
    forms to the perp basis leaves its rank unchanged.  `facts`, when given,
    must be f's."""
    n = f.table.n
    rows = []
    for cols in _variable_contractions(f, perp_basis, facts):
        rows.extend(list(row) for row in zip(*cols) if any(row))
    span = _int_coeffs(perp_basis)
    return linalg.rank(span + linalg.int_kernel_basis(rows, n)) == linalg.rank(span)


def _no_common_zero(quadrics) -> bool:
    """Whether binary quadrics, as coefficients (a0, a1, a2) of (c1^2, c0*c1,
    c0^2), share no zero over the algebraic closure: they span all binary
    quadrics, or a pencil whose two generators have a nonzero resultant.
    A single nonzero quadric has a zero there."""
    _, basis = linalg.rref(quadrics)
    if len(basis) != 2:
        return len(basis) == 3
    (a0, a1, a2), (b0, b1, b2) = basis
    return (a0 * b2 - a2 * b0) ** 2 != (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1)


def _perp_products_vanish(f: Poly, perp_basis: Sequence[Poly],
                          facts: Optional[FormFacts] = None) -> bool:
    """Do all pairwise products of the perp basis, squares included,
    annihilate f?  Each unordered pair is contracted once, up to the first
    product that does not."""
    rights = _int_coeffs(perp_basis)
    for i, cols in enumerate(_variable_contractions(f, perp_basis, facts)):
        if any(any(_combine(b, cols)) for b in rights[i:]):
            return False
    return True


def squares_confined(f: Poly, perp_basis: Sequence[Poly], comp_basis: Sequence[Poly],
                     facts: Optional[FormFacts] = None) -> bool:
    """Prove that every linear form whose square annihilates f lies in the
    span of the perp basis.  True is a proof; False only means "not proved".

    Write a candidate as c0*comp0 + c1*comp1 + p.perp.  The perp products
    vanish, so its square contracts f to A(c) = c0^2*E00 + 2*c0*c1*E01 +
    c1^2*E11 plus a vector in U, the span of the comp_i * perp_j
    contractions.  Each functional vanishing on U therefore takes A to a
    binary quadric in c that the candidate must zero; when those quadrics
    share no zero over the algebraic closure, no nonzero c zeroes them all.
    `facts`, when given, must be f's.
    """
    if len(comp_basis) != 2:
        raise ValueError("the complement must be 2-dimensional")
    if linalg.rank(_int_coeffs(list(perp_basis) + list(comp_basis))) != f.table.n:
        raise ValueError("perp and complement together must span the dual space")
    if not _perp_products_vanish(f, perp_basis, facts):
        return False
    (E00, E01, *C0), (_, E11, *C1) = _contractions(
        f, comp_basis, list(comp_basis) + list(perp_basis), facts)
    # phi(A(c)) over (c1^2, c0*c1, c0^2)
    quadrics = [[sum(map(mul, phi, E11)), 2 * sum(map(mul, phi, E01)), sum(map(mul, phi, E00))]
                for phi in linalg.kernel_basis(C0 + C1, len(E00))]
    return _no_common_zero(quadrics)


# ---------------------------------------------------------------------------
# the length-9 lower bound certificate
# ---------------------------------------------------------------------------


def rank9_lower_cert(f: Poly, r_max: int, pairs, facts: Optional[FormFacts] = None):
    """(locus, record) of the counting certificate on f's square pairs: the
    hypotheses that rule out reduced decompositions of length <= r_max for
    the wild-cubic pattern, so rank >= r_max + 1.

    The record keeps the record of each stage in `stages`, up to the first
    that failed, with one log line per stage; the witness is the product
    locus, or None unless every stage verified.  No pairs fail the shape
    stage.  ValueError when r_max < 1 or a pair is not linear.  `facts`,
    when given, must be f's.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    if pairs:
        _check_linear_pairs(pairs)
    stages = []

    def done(locus=None):
        return locus, EvidenceRecord(
            kind="rank-lower-counting",
            verified=locus is not None,
            stage_log=tuple(
                f"{s.kind} [{s.basis}]: {'ok' if s.verified else 'FAILED'} — {s.stage_log[0]}"
                for s in stages
            ),
            bounds=(Deduction("rank", "lower", r_max + 1, rule="counting-certificate",
                              detail=f"no reduced scheme of length <= {r_max}"),),
            stages=tuple(stages),
        )

    def fail(name, detail):
        stages.append(EvidenceRecord(name, False, (detail,)))
        return done()

    def ok(name, detail, basis="computed"):
        stages.append(EvidenceRecord(name, True, (detail,), basis))

    n = f.table.n
    if f.homogeneous_degree() != 3 or n != 5:
        return fail("shape", "expected a cubic in exactly 5 variables")
    facts = facts or FormFacts(f)
    if facts.essential.dim != 5:
        return fail("shape", "not concise: fewer than 5 essential variables")
    if not pairs:
        return fail("shape", "no squares-times-lines presentation available")
    perp, comp = square_pair_split(pairs, f.table)
    if len(perp) != 3 or len(comp) != 2:
        return fail("shape", f"dual split is {len(perp)}+{len(comp)}, need 3+2")
    ok("shape", "concise 5-variable cubic with a 3+2 dual split")

    slice2 = facts.slice2
    if slice2.dim != 10:
        return fail("slice-dimension", f"degree-2 annihilator slice has dimension {slice2.dim}, need 10")
    ok("slice-dimension", "degree-2 annihilator slice is 10-dimensional")

    # squares_confined proves nothing unless the perp products vanish, so a
    # True settles both stages; only a False asks which of them failed (its
    # span check holds, since the complement is made of coordinates)
    confined = squares_confined(f, perp, comp, facts)
    if not confined and not _perp_products_vanish(f, perp, facts):
        return fail("perp-squares", "a product of perp forms does not annihilate f")
    ok("perp-squares", "all pairwise products of the perp basis annihilate f")

    if not confined:
        return fail("square-confinement", "not proved that every square in the annihilator slice comes from the perp span")
    ok("square-confinement", "every square in the annihilator slice comes from the perp span")

    total_quadrics = monomial_count(n, 2)
    forced = total_quadrics - r_max
    if forced < 7:
        return fail("quadric-count", f"{total_quadrics} - {r_max} = {forced} < 7 quadrics forced")
    ok("quadric-count", f"any length-{r_max} scheme forces >= {forced} quadrics; codimension <= {slice2.dim - forced}")

    try:
        locus = product_locus(f, perp, comp, facts)
    except LocusShapeError as exc:
        return fail("product-locus", str(exc))
    nsamples = len(locus.samples)
    if not locus.smooth:
        return fail("product-locus", "the solution quadric is not a smooth conic")
    if nsamples < 5:
        return fail("product-locus", f"only {nsamples} verified rational samples")
    ok("product-locus", f"smooth conic with {nsamples} verified rational samples")

    perp_coeffs = _int_coeffs(perp)  # a positive multiple of each point form moves no kernel
    for u, _ in locus.samples:
        point_form = linear_form(f.table, _combine(u, perp_coeffs), DUAL)
        dim, _basis = gamma_space(f, point_form, facts)
        if dim != 4:
            return fail("factor-family", f"factor family at {tuple(u)} has dimension {dim}, need 4")
    if 4 + forced <= slice2.dim:
        return fail("factor-family", f"4 + {forced} <= {slice2.dim}: no forced intersection")
    ok("factor-family", f"4-dimensional factor family at every sample; 4 + {forced} > {slice2.dim} forces intersection")

    if not forced_square_check(f, perp, facts):
        return fail("forced-square", "a linear form outside the perp span multiplies the whole perp basis into the annihilator")
    ok("forced-square", "perp-multiplying linear forms are confined to the perp span")

    ok(
        "product-propagation",
        "products of the conic family propagate across the locus into any"
        f" radical decomposition ideal, forcing a square and contradicting radicality;"
        f" rank >= {r_max + 1}",
        basis="cited",
    )
    return done(locus)


# ---------------------------------------------------------------------------
# the explicit 9-cube upper bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSumDecomposition:
    """f = sum(lambda_j * form_j^3), exact."""

    target: Poly
    terms: tuple  # (coefficient, linear form)

    def __len__(self):
        return len(self.terms)

    def verify(self) -> bool:
        return expand_products(self.target.table, self.target.ring,
                               ((lam, ((l, 3),)) for lam, l in self.terms)) == self.target


def power_sum_certificate(f: Poly, pairs):
    """(decomposition, record) of the explicit power sum of f's square pairs:
    z^2*w = ((z+w)^3 - (z-w)^3 - 2*w^3)/6, with proportional pairs collapsed
    to a single cube.  (None, unverified record) when there are no pairs or
    the cubes do not re-expand to f; ValueError when a pair is not linear or
    lies over another table."""
    if not pairs:
        return None, EvidenceRecord("power-sum-decomposition", False,
                                    ("shape mismatch: no squares-times-lines presentation",))
    _check_linear_pairs(pairs)
    terms = []
    for z, w in pairs:
        if w.is_zero():
            continue
        zc = linear_coeffs(z)
        wc = linear_coeffs(w)
        lead = next(i for i, c in enumerate(zc) if c)
        ratio = wc[lead] / zc[lead]
        if all(wc[i] == ratio * zc[i] for i in range(len(zc))):
            if ratio != 0:
                terms.append((ratio, z))
            continue
        terms.append((Fraction(1, 6), z + w))
        terms.append((Fraction(-1, 6), z - w))
        terms.append((Fraction(-1, 3), w))
    dec = PowerSumDecomposition(target=f, terms=tuple(terms))
    if not dec.verify():
        return None, EvidenceRecord("power-sum-decomposition", False,
                                    ("shape mismatch: decomposition does not re-expand to f",))
    return dec, EvidenceRecord(
        kind="power-sum-decomposition",
        verified=True,
        stage_log=(f"{len(dec)} cubes re-expand to the target",),
        bounds=(Deduction("rank", "upper", len(dec), rule="power-sum",
                          detail=f"{len(dec)} exact cubes"),),
    )


# ---------------------------------------------------------------------------
# the orchestrated report
# ---------------------------------------------------------------------------


@dataclass
class WildReport:
    """Everything the pipeline certified about one polynomial.

    The stages of one run share it: they add to `certificates`, `notes` and
    `evidence` and leave what later stages read in `pairs`, `direct_sum` and
    `saturation_gammas`.
    """

    poly: Poly
    facts: FormFacts
    r_max: int
    pairs: Optional[tuple] = None  # a presentation's square pairs, or those found
    direct_sum: bool = False  # variable-disjoint summands settled the shape
    evidence: tuple = ()  # deductions that are not records
    certificates: tuple = ()  # EvidenceRecord
    notes: tuple = ()
    saturation_gammas: tuple = ()  # printable linear forms in the saturation
    report: Optional[RankReport] = None

    @property
    def conciseness(self) -> int:
        return self.facts.essential.dim

    @property
    def hilbert(self) -> tuple:
        return tuple(self.facts.hilbert.values)

    @property
    def slice2_dim(self) -> Optional[int]:
        return self.facts.slice2.dim if self.poly.homogeneous_degree() >= 2 else None

    @property
    def border_witness_rank(self) -> Optional[int]:
        """r of the verified limit family."""
        return next((b.value for r in self.certificates if r.kind == "border-limit-family"
                     for b in r.certified()), None)

    def final(self) -> dict:
        out = {}
        for notion in NOTIONS:
            exact = self.report.value(notion)
            if exact is not None:
                out[notion] = exact
            else:
                out[notion] = [self.report.lower(notion), self.report.upper(notion)]
        return out


def _classical(rep: WildReport) -> bool:
    """The catalecticant bound for every form, plus the exact values of
    quadrics (H(1), as quadric_rank) and of essentially binary forms; True,
    which ends the run, when those settle the form."""
    facts = rep.facts
    rep.evidence += (catalecticant_deduction(facts.hilbert),)
    if rep.poly.homogeneous_degree() == 2:
        rep.evidence += (Deduction("all", "exact", facts.hilbert(1), rule="quadric-conciseness",
                                   detail="all notions coincide for quadrics"),)
    elif facts.essential.dim <= 2:
        rep.evidence += sylvester_binary(facts.form, facts).evidence
    else:
        return False
    return True


def _direct_sums(rep: WildReport) -> None:
    """A sum over disjoint variables, not given as a presentation: each
    summand's own report, the degree-2 slice check, and the summands' upper
    bounds glued by subadditivity."""
    components = direct_summands(rep.facts.form)
    if len(components) < 2 or rep.pairs is not None:  # only a presentation has pairs yet
        return
    sub_reports = [theorem2_report(comp, r_max=rep.r_max) for comp in components]
    # machine-verified: conciseness adds up over disjoint summands
    if sum(r.conciseness for r in sub_reports) != rep.conciseness:
        raise ValueError("conciseness failed to add over disjoint summands")
    rep.direct_sum = True
    rep.notes += (
        f"direct sum of {len(components)} variable-disjoint summands;"
        f" conciseness {rep.conciseness} = " + " + ".join(str(r.conciseness) for r in sub_reports),
    )
    rep.certificates += (slice_intersection_certificate(components, rep.facts.form),)
    # shown, but certifying nothing here: a summand's bounds are its
    # own (the wild cubic's border <= 5 is no bound on it plus u^3)
    rep.certificates += tuple(replace(c, bounds=()) for r in sub_reports for c in r.certificates)
    for notion in NOTIONS:
        ups = [r.report.upper(notion) for r in sub_reports]
        if all(u is not None for u in ups):
            rep.evidence += (
                Deduction(notion, "upper", sum(ups), rule="direct-sum-subadditivity",
                          detail="summand witnesses glued over disjoint variables",
                          basis="cited"),
            )


def _square_pairs(rep: WildReport) -> None:
    """The upper-bound certificates of a cubic's square pairs, found here
    unless a presentation gave them; a note for each one that does not
    apply."""
    g = rep.facts.form
    if g.homogeneous_degree() != 3 or rep.direct_sum:
        return
    rep.pairs = rep.pairs or extract_square_pairs(g)  # a presentation's, or found here
    if not rep.pairs:
        rep.notes += ("no squares-times-lines shape found; reporting catalecticant bounds",)
        return
    built = [("double-point span", double_point_span(g, rep.pairs)[1]),
             ("power-sum upper bound", power_sum_certificate(g, rep.pairs)[1])]
    if linalg.rank([linear_coeffs(z) for z, _ in rep.pairs]) == 2 and len(rep.pairs) <= 3:
        built.insert(0, ("limit family", limit_family_certificate(g, rep.pairs)[1]))
    rep.certificates += tuple(r for _, r in built if r.verified)
    rep.notes += tuple(f"{name} unavailable: {r.stage_log[0]}" for name, r in built if not r.verified)


def _slice_saturation(rep: WildReport) -> None:
    """The cactus lower bound of a cubic whose degree-2 slice saturates to
    too few linear forms; nothing when it does not."""
    if rep.facts.form.homogeneous_degree() == 3:
        csl, record = cactus_lower_via_slice(rep.facts.form, rep.facts)
        if csl is not None:
            rep.certificates += (record,)
            rep.saturation_gammas = tuple(str(gamma) for gamma in csl.gamma_basis)


def _counting(rep: WildReport) -> None:
    """The rank lower bound r_max + 1 from the counting certificate, for the
    5-variable three-pair shape once square pairs are known."""
    if not rep.pairs:
        return
    if rep.facts.form.table.n == 5 and len(rep.pairs) == 3:
        rep.certificates += (rank9_lower_cert(rep.facts.form, rep.r_max, rep.pairs, rep.facts)[1],)
    else:
        rep.notes += ("counting certificate skipped: not the 5-variable three-pair shape",)


# every bound source, in the order its records and notes are reported
_STAGES = (_classical, _direct_sums, _square_pairs, _slice_saturation, _counting)


def _report(f, stages, r_max: int = 8) -> WildReport:
    """Run the given stages on f (a Poly or a WildPresentation) over one
    FormFacts, up to the first that settles f, then aggregate the bounds of
    their evidence and verified records and apply the cited rules."""
    f, pairs = (f.poly, f.square_pairs) if isinstance(f, WildPresentation) else (f, None)
    d = f.homogeneous_degree()
    if d is None:
        raise ValueError("rank reports need a nonzero homogeneous polynomial")
    rep = WildReport(poly=f, facts=FormFacts(f), r_max=r_max, pairs=pairs)
    if pairs is not None and rep.conciseness != f.table.n:
        raise ValueError("presentations must already be concise")
    for stage in stages:
        if stage(rep):
            break
    evidence = rep.evidence + tuple(b for r in rep.certificates for b in r.certified())
    rep.report = tameness_rule(aggregate(rep.facts.form, evidence, rep.facts), d)
    return rep


def classical_report(f: Poly) -> tuple:
    """(conciseness, bounds) from the classical stage alone: the
    catalecticant bound for every form, exact values for quadrics and
    essentially binary forms."""
    rep = _report(f, (_classical,))
    return rep.conciseness, rep.report


def theorem2_report(f, r_max: int = 8) -> WildReport:
    """Run every applicable certificate and aggregate the certified bounds.

    Accepts a Poly or a WildPresentation (which must be concise); the stages
    run in the order of `_STAGES`: the classical bounds, which settle
    quadrics and essentially binary forms; then, for the rest, the summands
    of a variable-disjoint sum, the upper bounds from square pairs, the
    slice-saturation cactus bound of a cubic and the counting rank bound.
    """
    return _report(f, _STAGES, r_max)
