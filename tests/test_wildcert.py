import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apolar.apolarity import FormFacts, contract
from apolar.cli import main
from apolar.parsing import parse_poly
from apolar.poly import DUAL, PRIMAL, Poly, TableMismatchError, VarTable, linear_form, monomials
from apolar import linalg
from apolar.wildcert import (
    LocusShapeError,
    PowerSumDecomposition,
    WildPresentation,
    _no_common_zero,
    cactus_lower_via_slice,
    classical_report,
    extract_square_pairs,
    forced_square_check,
    gamma_space,
    limit_family_certificate,
    power_sum_certificate,
    product_locus,
    rank9_lower_cert,
    square_pair_split,
    squares_confined,
    tangent_data_for_pairs,
    theorem2_report,
    transform_presentation,
    wild_cubic,
    wild_presentation,
    wild_table,
)
from apolar.witness import double_point_span

from _oracle import random_poly

T5 = wild_table()
F = wild_cubic(T5)
FACTS = FormFacts(F)
PRES = wild_presentation(T5)


def dual(text, table=T5):
    return parse_poly(text, table=table, ring=DUAL)


def test_extract_square_pairs_of_wild_cubic():
    pairs = extract_square_pairs(FACTS)
    assert pairs is not None and len(pairs) == 3
    acc = Poly.zero(T5)
    for z, w in pairs:
        acc = acc + (z ** 2) * w
    assert acc == F


def test_extract_square_pairs_pure_powers():
    pairs = extract_square_pairs(FormFacts(parse_poly("x0^3 + x1^3 + x2^3")))
    assert pairs is not None and len(pairs) == 3


def test_extract_square_pairs_rejects_generic():
    rng = random.Random(4)
    t = VarTable.make(("a", "b", "c"))
    f = random_poly(rng, t, PRIMAL, 3, max_terms=10)
    assert extract_square_pairs(FormFacts(f)) is None


def test_square_sum_with_one_perturbed_coefficient_is_rejected():
    # x0 and x1 are not linear variables, so the monomial reading still
    # returns the three pairs of F, and only their re-expansion misses x0^3
    assert extract_square_pairs(FormFacts(F + parse_poly("1/7*x0^3", table=T5))) is None
    pairs = extract_square_pairs(FACTS)
    assert WildPresentation(F, pairs).poly == F
    for i in range(3):
        moved = list(pairs)
        z, w = moved[i]
        moved[i] = (z, w * Fraction(1010, 1009))
        with pytest.raises(ValueError, match="re-expand"):
            WildPresentation(F, tuple(moved))


def _reference_square_pairs(f):
    """The monomial reading of square pairs built from contractions: one
    contract(d_y, f) per variable y of degree one in f, and the symmetric
    matrix of each quadric built from its terms."""
    if f.homogeneous_degree() != 3:
        return None
    n = f.table.n
    if all(max(mono) == 3 for mono in f.terms):
        pairs = []
        for mono, c in sorted(f.terms.items(), reverse=True):
            v = Poly.variable(f.table, mono.index(3), f.ring)
            pairs.append((v, c * v))
    else:
        pairs = []
        for y in range(n):
            if max(mono[y] for mono in f.terms) != 1:
                continue
            q = contract(Poly.variable(f.table, y, DUAL), f)
            m = [[Fraction(0)] * n for _ in range(n)]
            for mono, c in q.terms.items():
                idx = [i for i, e in enumerate(mono) if e]
                if len(idx) == 1:
                    m[idx[0]][idx[0]] = 2 * c
                else:
                    i, j = idx
                    m[i][j] = m[j][i] = c
            k = next(i for i in range(n) if any(m[i]))
            row, lead = m[k], m[k][k]
            if lead == 0 or any(m[i][j] * lead != row[i] * row[j]
                                for i in range(n) for j in range(n)):
                return None
            s = q.terms[tuple(2 * (i == k) for i in range(n))]
            z = linear_form(f.table, [x / lead for x in row], f.ring)
            pairs.append((z, s * Poly.variable(f.table, y, f.ring)))
    acc = Poly.zero(f.table, f.ring)
    for z, w in pairs:
        acc = acc + (z ** 2) * w
    return tuple(pairs) if pairs and acc == f else None


def _square_pair_corpus(seed, count):
    """`count` seeded cubics in 2-6 variables, cycling through visible
    square sums with Fraction coefficients, the same sums plus a stray cube,
    random sparse cubics, non-concise square sums (proportional squared
    parts, unused variables) and pure power sums."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))

    def square_sum(table, squared, linear):
        f = Poly.zero(table)
        for y in linear:
            z = linear_form(table, [frac() if i in squared and rng.random() < 0.8 else 0
                                    for i in range(table.n)])
            if z.is_zero():
                z = Poly.variable(table, squared[0])
            f = f + (z ** 2) * (frac() * Poly.variable(table, y))
        return f

    for case in range(count):
        n = 2 + case % 5
        table = VarTable.make([f"v{i}" for i in range(n)])
        kind = case // 5 % 5
        order = rng.sample(range(n), n)
        split = rng.randint(1, n - 1)
        squared, linear = order[:split], order[split:]
        if kind in (0, 1):
            f = square_sum(table, squared, rng.sample(linear, rng.randint(1, len(linear))))
            if kind == 1:
                f = f + frac() * Poly.variable(table, rng.randrange(n)) ** 3
        elif kind == 2:
            f = random_poly(rng, table, PRIMAL, 3, max_terms=rng.randint(2, 8))
        elif kind == 3:
            # one squared part for every pair, and some variables left out
            z = linear_form(table, [frac() if i in squared else 0 for i in range(n)])
            f = Poly.zero(table)
            for y in rng.sample(linear, rng.randint(1, len(linear))):
                f = f + (z ** 2) * (frac() * Poly.variable(table, y))
        else:
            f = Poly.zero(table)
            for i in rng.sample(range(n), rng.randint(1, n)):
                f = f + frac() * Poly.variable(table, i) ** 3
        yield f


def test_square_pairs_read_off_the_table_equal_those_of_the_contractions():
    # the facts of a non-concise cubic describe its essential form, so the
    # reference reads that form too; the zero form has no facts
    found = missing = 0
    for f in _square_pair_corpus(30, 2500):
        if f.is_zero():
            continue
        facts = FormFacts(f)
        want = _reference_square_pairs(facts.form)
        got = extract_square_pairs(facts)
        if want is None:
            assert got is None, str(f)
            missing += 1
        else:
            assert [tuple(map(str, p)) for p in got] == [tuple(map(str, p)) for p in want], str(f)
            found += 1
    assert found > 1000 and missing > 500, (found, missing)


def test_square_pairs_come_from_one_second_derivative_table(monkeypatch):
    from apolar import apolarity, wildcert

    tables = []
    original = apolarity.second_derivatives

    def counted(f):
        tables.append(f)
        return original(f)

    def refuse(alpha, f):
        raise AssertionError("extract_square_pairs contracted")

    monkeypatch.setattr(apolarity, "second_derivatives", counted)
    monkeypatch.setattr(apolarity, "contract", refuse)
    assert not hasattr(wildcert, "contract") and not hasattr(wildcert, "second_derivatives")
    assert [tuple(map(str, p)) for p in extract_square_pairs(FormFacts(F))] == [
        ("x0", "y0"), ("x0 + x1", "-y1"), ("x1", "y2")]
    assert tables == [F]


def test_square_pair_split():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    assert [str(b) for b in perp] == ["d_y0", "d_y1", "d_y2"]
    assert [str(a) for a in comp] == ["d_x0", "d_x1"]


def test_cactus_lower_via_slice_wild():
    record = cactus_lower_via_slice(FACTS)
    assert record.verified and record.certified()[0].value == 6
    assert record.stage_log == (
        "degree-2 quotient dimension 5",
        "3 linear forms in the saturation (k=3)",
        "saturated quotient has 2 < 5 linear dimensions",
        "cactus rank >= 6",
    )
    assert [str(g) for g in record.witness] == ["d_y0", "d_y1", "d_y2"]


def test_cactus_lower_via_slice_no_drop_for_diagonal():
    diag = parse_poly("x0^3 + x1^3 + x2^3")
    record = cactus_lower_via_slice(FormFacts(diag))
    assert not record.verified and record.witness is None


def test_cactus_lower_requires_concise_cubic():
    # the facts of x0^3 over five variables describe x0^3 in one, which
    # has no linear drop; a quadric is refused
    padded = cactus_lower_via_slice(FormFacts(parse_poly("x0^3", table=T5)))
    assert padded == cactus_lower_via_slice(FormFacts(parse_poly("x0^3")))
    assert not padded.verified and padded.witness is None
    with pytest.raises(ValueError, match="for cubics"):
        cactus_lower_via_slice(FormFacts(parse_poly("x0^2 + x1^2")))


def test_product_locus_conic():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    locus = product_locus(FACTS, perp, comp)
    # frozen by the pre-build elimination oracle: u0*u1 - u0*u2 + u1*u2
    assert locus.quadric == (Fraction(0), Fraction(1), Fraction(-1),
                             Fraction(0), Fraction(1), Fraction(0))
    assert locus.smooth
    pts = {u for u, _ in locus.samples}
    for expected in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -2), (2, 1, 2), (2, -2, -1)):
        assert tuple(Fraction(c) for c in expected) in pts
    assert len(locus.samples) >= 11
    for u, c in locus.all_samples():
        assert sum(q * prod(ui ** e for ui, e in zip(u, mono))
                   for q, mono in zip(locus.quadric, monomials(3, 2))) == 0
        point = sum((b * ui for ui, b in zip(u, perp)), Poly.zero(T5, DUAL))
        factor = sum((a * ci for ci, a in zip(c, comp)), Poly.zero(T5, DUAL))
        assert contract(point * factor, F).is_zero()


def test_product_locus_contains_known_solution():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    locus = product_locus(FACTS, perp, comp)
    by_point = dict(locus.samples)
    u = (Fraction(1), Fraction(0), Fraction(0))
    assert by_point[u] == (Fraction(0), Fraction(1))


def test_product_locus_two_point_case():
    t4 = VarTable.make(("x0", "x1", "y0", "y1"))
    h = parse_poly("x0^2*y0 + x1^2*y1", table=t4)
    perp = (Poly.variable(t4, 2, DUAL), Poly.variable(t4, 3, DUAL))
    comp = (Poly.variable(t4, 0, DUAL), Poly.variable(t4, 1, DUAL))
    locus = product_locus(FormFacts(h), perp, comp)
    pts = dict(locus.samples)
    u = (Fraction(1), Fraction(0))
    assert u in pts and pts[u] == (Fraction(0), Fraction(1))


def test_product_locus_shape_mismatch_for_diagonal():
    diag = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")
    t = diag.table
    perp = tuple(Poly.variable(t, i, DUAL) for i in (2, 3, 4))
    comp = tuple(Poly.variable(t, i, DUAL) for i in (0, 1))
    with pytest.raises(LocusShapeError):
        product_locus(FormFacts(diag), perp, comp)


def test_product_locus_needs_enough_samples_to_pin_the_quadric(monkeypatch):
    # four points on a conic leave a pencil of quadrics through them
    from apolar import wildcert

    perp, comp = square_pair_split(PRES.square_pairs, T5)
    monkeypatch.setattr(wildcert, "_POINT_COUNT", 4)
    with pytest.raises(LocusShapeError, match=r"samples do not pin a unique quadric "
                                              r"\(4 samples, kernel dimension 2\)"):
        product_locus(FACTS, perp, comp)
    monkeypatch.setattr(wildcert, "_POINT_COUNT", 5)
    assert len(product_locus(FACTS, perp, comp).all_samples()) == 5


def naive_gamma_basis(f, point_form):
    """Reduced basis of the linear forms whose product with point_form
    annihilates f: the naive kernel of the columns contract(point_form * d_j, f)."""
    from _oracle import naive_kernel

    d = f.homogeneous_degree()
    cols = [contract(point_form * Poly.variable(f.table, j, DUAL), f).coefficient_vector(d - 2)
            for j in range(f.table.n)]
    return [linear_form(f.table, v, DUAL) for v in naive_kernel([list(r) for r in zip(*cols)], f.table.n)]


def test_gamma_space_at_sample_points():
    assert gamma_space(FACTS, dual("d_y0")) == 4
    assert [str(b) for b in naive_gamma_basis(F, dual("d_y0"))] == ["d_x1", "d_y0", "d_y1", "d_y2"]
    assert gamma_space(FACTS, dual("d_y2")) == 4
    assert any(str(b) == "d_x0" for b in naive_gamma_basis(F, dual("d_y2")))
    for bad in (Poly.zero(T5, DUAL), dual("d_y0*d_y1")):
        with pytest.raises(ValueError):
            gamma_space(FACTS, bad)


def test_gamma_space_is_the_naive_kernel_dimension():
    dims = set()
    for f, pairs in random_square_sums(16) + [(p.poly, p.square_pairs) for p in gl5_presentations(3)]:
        facts = FormFacts(f)
        if facts.form is not f:  # a non-concise f's facts describe its essential form
            continue
        for point in answer_points(*square_pair_split(pairs, T5)):
            dim = len(naive_gamma_basis(f, point))
            assert gamma_space(facts, point) == dim
            dims.add(dim)
    assert dims - {4}


def test_forced_square_check_wild():
    perp, _ = square_pair_split(PRES.square_pairs, T5)
    assert forced_square_check(FACTS, perp)


def test_forced_square_check_counterexample():
    # d_x0 * d_x1 annihilates f, and d_x0 lies outside the perp span
    t = VarTable.make(("x0", "x1", "x2"))
    f = parse_poly("x0^3 + x1^3 + x2^3", table=t)
    perp = (Poly.variable(t, 1, DUAL),)
    assert not forced_square_check(FormFacts(f), perp)


def test_squares_confined_wild():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    assert squares_confined(FACTS, perp, comp)


def test_squares_confined_counterexample():
    t = VarTable.make(("x0", "x1", "y0"))
    f = parse_poly("x0*x1*y0", table=t)
    perp = (Poly.variable(t, 2, DUAL),)
    comp = (Poly.variable(t, 0, DUAL), Poly.variable(t, 1, DUAL))
    # d_x0 squares to zero against f but lies outside the perp span
    assert not squares_confined(FormFacts(f), perp, comp)


def test_rank9_lower_cert_wild():
    record = rank9_lower_cert(FACTS, PRES.square_pairs)
    locus = record.witness
    assert record.verified
    assert record.certified()[0].value == 9
    assert record.failed_stage is None
    assert len(locus.samples) >= 5
    assert any(s.basis == "cited" for s in record.stages)


DIAG5 = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")


def test_rank9_lower_cert_rejects_diagonal():
    record = rank9_lower_cert(FormFacts(DIAG5), extract_square_pairs(FormFacts(DIAG5)))
    locus = record.witness
    assert not record.verified and locus is None
    assert record.failed_stage == "shape"


def stage_line(stage):
    return f"{stage.kind} [{stage.basis}]: {'ok' if stage.verified else 'FAILED'} — {stage.stage_log[0]}"


@pytest.mark.parametrize("f, pairs, failed", [
    (DIAG5, extract_square_pairs(FormFacts(DIAG5)), "shape"),
    (F + parse_poly("y0*y1*y2", table=T5), PRES.square_pairs, "perp-squares"),
    (F, PRES.square_pairs, None),
], ids=["diagonal", "perp-product", "verified"])
def test_counting_record_nests_its_stages_up_to_the_failed_one(f, pairs, failed):
    record = rank9_lower_cert(FormFacts(f), pairs)
    locus = record.witness
    assert record.kind == "rank-lower-counting"
    assert record.stage_log == tuple(stage_line(s) for s in record.stages)
    assert all(s.verified for s in record.stages[:-1])
    assert record.stages[-1].verified is (failed is None)
    assert record.stages[-1].kind == (failed or "product-propagation")
    assert record.failed_stage == failed
    assert record.verified == (failed is None) == (locus is not None)
    assert record.replace(stages=()).failed_stage is None


def test_rank9_upper_single_monomial():
    t = VarTable.make(("x0", "y0"))
    f = parse_poly("x0^2*y0", table=t)
    record = power_sum_certificate(f, extract_square_pairs(FormFacts(f)))
    dec = record.witness
    assert record.verified and record.certified()[0].value == 3
    assert len(dec) == 3
    terms = {(str(l)): lam for lam, l in dec.terms}
    assert terms["x0 + y0"] == Fraction(1, 6)
    assert terms["x0 - y0"] == Fraction(-1, 6)
    assert terms["y0"] == Fraction(-1, 3)
    assert dec.verify()


def test_rank9_upper_wild_nine_cubes():
    record = power_sum_certificate(F, extract_square_pairs(FACTS))
    dec = record.witness
    assert record.certified()[0].value == 9
    assert len(dec) == 9
    assert dec.verify()


def test_power_sum_with_one_perturbed_coefficient_is_rejected():
    dec = power_sum_certificate(F, PRES.square_pairs).witness
    for i, (lam, l) in enumerate(dec.terms):
        for term in ((lam + Fraction(1, 1009), l), (lam, l * Fraction(1010, 1009))):
            terms = list(dec.terms)
            terms[i] = term
            assert not dec.replace(terms=tuple(terms)).verify()
    assert PowerSumDecomposition(F, dec.terms).verify()


def test_rank9_upper_pure_cube_collapses():
    t = VarTable.make(("x",))
    f = parse_poly("x^3", table=t)
    dec = power_sum_certificate(f, extract_square_pairs(FormFacts(f))).witness
    assert len(dec) == 1
    assert dec.terms[0][0] == Fraction(1)


def test_rank9_upper_shape_mismatch():
    rng = random.Random(6)
    t = VarTable.make(("a", "b", "c"))
    f = random_poly(rng, t, PRIMAL, 3, max_terms=10)
    record = power_sum_certificate(f, extract_square_pairs(FormFacts(f)))
    dec = record.witness
    assert dec is None and not record.verified
    assert record.stage_log == ("shape mismatch: no squares-times-lines presentation",)


def test_power_sum_certificate_rejects_pairs_over_another_table():
    other = wild_table(("e0", "e1", "e2", "e3", "e4"))
    with pytest.raises(TableMismatchError):
        power_sum_certificate(F, wild_presentation(other).square_pairs)


def test_theorem2_wild_cubic():
    rep = theorem2_report(F)
    assert rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
    assert rep.facts.hilbert.values == (1, 5, 5, 1)
    assert rep.conciseness == 5
    assert rep.facts.slice2.dim == 10
    assert all(c.verified for c in rep.certificates)


def test_theorem2_binary_route():
    rep = theorem2_report(parse_poly("x^2*y", vars=["x", "y", "u", "v", "w"]))
    assert rep.final() == {"border": 2, "smoothable": 2, "cactus": 2, "rank": 3}


def test_theorem2_direct_sum_route():
    t6 = VarTable.make(("x0", "x1", "y0", "y1", "y2", "y3"))
    f6 = parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2 + y3^3", table=t6)
    rep = theorem2_report(f6)
    final = rep.final()
    assert rep.conciseness == 6
    assert final["border"] == 6
    assert rep.report.lower("cactus") >= 7
    assert final["cactus"] == 7
    assert final["smoothable"] == 7


def _theorem2_results(capsys, f: Poly) -> dict:
    """What `apolar theorem2` prints as results for f."""
    assert main(["theorem2", "--poly", str(f), "--vars", ",".join(f.table.primal)]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_direct_sum_report_takes_no_bound_from_summand_records(capsys):
    # the wild summand's records certify border <= 5 for it alone; read as
    # bounds on the sum they would contradict its conciseness 6
    t6 = VarTable.make(("x0", "x1", "y0", "y1", "y2", "u"))
    rep = theorem2_report(parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2 + u^3", table=t6))
    assert rep.final() == {"border": 6, "smoothable": 7, "cactus": 7, "rank": [7, 10]}
    assert [d.rule for d in rep.report.provenance] == (
        ["conciseness", "catalecticant"] + ["direct-sum-subadditivity"] * 4 + ["slice-saturation"]
    )
    assert "border-limit-family" in [c.kind for c in rep.certificates]
    assert _theorem2_results(capsys, rep.poly)["border_witness_rank"] is None


@pytest.mark.parametrize("poly", ["x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2 + u^3", "x*y*z + w^3"])
def test_summand_records_copied_into_a_sum_hold_no_witness(poly):
    rep = theorem2_report(parse_poly(poly))
    summands = [theorem2_report(parse_poly(s)) for s in poly.rsplit(" + ", 1)]
    copies = [c for c in rep.certificates if c.bounds == ()]
    # every summand record is shown once, after the slice-intersection record
    assert copies[1:] == [c.replace(bounds=()) for r in summands for c in r.certificates]
    assert copies[0].kind == "direct-sum-slice-intersection"
    assert any(c.witness is not None for r in summands for c in r.certificates)
    assert all(c.witness is None for c in copies)


def test_report_bounds_are_read_off_the_verified_records(capsys):
    rep = theorem2_report(F)
    assert [(d.rule, d.notion, d.side, d.value) for d in rep.report.provenance[2:]] == [
        ("limit-family", "border", "upper", 5),
        ("double-point-span", "cactus", "upper", 6),
        ("curvilinear-smoothable", "smoothable", "upper", 6),
        ("power-sum", "rank", "upper", 9),
        ("slice-saturation", "cactus", "lower", 6),
        ("counting-certificate", "rank", "lower", 9),
    ]
    assert list(rep.report.provenance[2:]) == [b for c in rep.certificates for b in c.bounds]
    assert _theorem2_results(capsys, F)["border_witness_rank"] == 5
    # a presentation whose pairs split the dual space 2+3 fails the counting
    # shape: the record is shown, its bound is not used
    x0, x1, y0, y1, y2 = (Poly.variable(T5, i) for i in range(5))
    weak = theorem2_report(WildPresentation(x0 ** 2 * y0 + x1 ** 2 * y1 + x0 * y2 ** 2,
                                            ((x0, y0), (x1, y1), (y2, x0))))
    counting = weak.certificates[-1]
    assert counting.kind == "rank-lower-counting" and not counting.verified
    assert counting.stage_log == ("shape [computed]: FAILED — dual split is 2+3, need 3+2",)
    assert counting.bounds and counting.certified() == ()
    assert "counting-certificate" not in [d.rule for d in weak.report.provenance]
    assert weak.final()["rank"] == [5, 9]


@pytest.mark.parametrize("poly, notes, kinds", [
    ("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2", (),
     ["border-limit-family", "double-point-span", "power-sum-decomposition",
      "cactus-slice-saturation", "rank-lower-counting"]),
    ("x*y*z", ("no squares-times-lines shape found; reporting catalecticant bounds",),
     ["cactus-slice-saturation"]),
    ("x^2*y + (x+z)^2*w", ("counting certificate skipped: not the 5-variable three-pair shape",),
     ["border-limit-family", "double-point-span", "power-sum-decomposition"]),
    ("x^3+y^3+z^3", ("direct sum of 3 variable-disjoint summands; conciseness 3 = 1 + 1 + 1",),
     ["direct-sum-slice-intersection"]),
    ("x^2*y", (), []),
    ("x0*x1+x2^2", (), []),
])
def test_each_route_writes_its_notes_and_records(poly, notes, kinds):
    rep = theorem2_report(parse_poly(poly))
    assert (rep.notes, [c.kind for c in rep.certificates]) == (notes, kinds)


def test_classical_report_is_the_first_stage_of_theorem2():
    # rank-bounds stops after the classical stage; theorem2's later stages
    # add the limit family's border <= 4 on this form
    f = parse_poly("x^2*y + (x+z)^2*w")
    conciseness, bounds = classical_report(f)
    rep = theorem2_report(f)
    assert conciseness == rep.conciseness == 4
    assert (bounds.lower("border"), bounds.upper("border")) == (4, None)
    assert rep.final()["border"] == 4
    assert bounds.provenance == rep.report.provenance[:len(bounds.provenance)]


def test_theorem2_quadric_route():
    rep = theorem2_report(parse_poly("x0*x1 + x2^2"))
    assert rep.final() == {"border": 3, "smoothable": 3, "cactus": 3, "rank": 3}


def test_theorem2_diagonal_cubic():
    rep = theorem2_report(parse_poly("x0^3 + x1^3 + x2^3"))
    assert rep.final() == {"border": 3, "smoothable": 3, "cactus": 3, "rank": 3}


def test_theorem2_rejects_bad_input():
    with pytest.raises(ValueError):
        theorem2_report(Poly.zero(T5))
    with pytest.raises(ValueError):
        theorem2_report(parse_poly("x^2 + x^3", vars=["x"]))


def test_presentation_transform_preserves_values():
    rng = random.Random(91)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        if linalg.rank(m) == 5:
            break
    images = [linear_form(T5, row) for row in m]
    moved = transform_presentation(PRES, images)
    assert moved.poly == F.substitute(images)
    rep = theorem2_report(moved)
    assert rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}


def test_gl5_stream_certifies_the_same_values():
    # twelve dense coordinate changes (seed 7, entries in -3..3); the rank
    # notions are GL-invariant, so every instance must certify the same values
    rng = random.Random(7)
    for _ in range(12):
        while True:
            m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
            if linalg.rank(m) == 5:
                break
        moved = transform_presentation(PRES, [linear_form(T5, row) for row in m])
        rep = theorem2_report(moved)
        assert rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
        assert all(c.verified for c in rep.certificates)


def count_invariants(monkeypatch) -> dict:
    """Calls of each invariant a report computes, counted from now on: the
    originals are wrapped wherever a module of the package holds them, as a
    caller through `from .apolarity import ...` would see them."""
    import apolar
    from apolar import apolarity, cli, ideals, ranks, wildcert, witness

    calls = {"concise_dim": 0, "hilbert_function": 0, "ann_slice(., 2)": 0,
             "second_derivatives": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name != "ann_slice":
                calls[name] += 1
            elif (args[1] if len(args) > 1 else kwargs["i"]) == 2:
                calls["ann_slice(., 2)"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("concise_dim", "hilbert_function", "ann_slice", "second_derivatives"):
        original = getattr(apolarity, name)
        wrapper = counting(name, original)
        for module in (apolar, apolarity, cli, ideals, ranks, wildcert, witness):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_theorem2_report_computes_each_invariant_once(monkeypatch):
    # the cubic's report reads the square pairs and the counting checks off
    # one second-derivative table; a presentation brings its own pairs
    calls = count_invariants(monkeypatch)
    for f in (wild_cubic(), wild_presentation()):
        for name in calls:
            calls[name] = 0
        rep = theorem2_report(f)
        assert rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
        assert calls == {"concise_dim": 1, "hilbert_function": 1, "ann_slice(., 2)": 1,
                         "second_derivatives": 1}


def gl5_presentations(count, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if linalg.rank(m) == 5:
            out.append(transform_presentation(PRES, [linear_form(T5, row) for row in m]))
    return out


def test_saturation_gammas_pass_the_witness_check():
    from apolar.apolarity import ann_slice
    from apolar.ideals import saturation_witness

    for f in [F] + [p.poly for p in gl5_presentations(3)]:
        record = cactus_lower_via_slice(FormFacts(f))
        assert record.certified()[0].value == 6 and len(record.witness) == 3
        assert "(k=3)" in record.stage_log[1]
        slice2 = ann_slice(f, 2)
        for gamma in record.witness:
            assert saturation_witness(slice2.basis, gamma, 3)


def test_monomial_residues_are_the_reductions_modulo_the_slice():
    from apolar.apolarity import ann_slice
    from apolar.ideals import generated_slice
    from apolar.poly import monomials
    from apolar.wildcert import _monomial_residues

    for f in [F] + [p.poly for p in gl5_presentations(3)]:
        slice4 = generated_slice(ann_slice(f, 2).basis, 4)
        vecs = slice4.vectors()
        pivots = [next(j for j, c in enumerate(v) if c) for v in vecs]
        residues = _monomial_residues(slice4)
        monos = monomials(5, 4)
        assert len(residues) == len(monos)
        for m, residue in enumerate(residues):
            full = [Fraction(0)] * len(monos)
            for coord, c in residue.items():
                full[coord] = Fraction(c)
            # the normal form: zero on every pivot, and e_m minus it in the span
            assert all(full[p] == 0 for p in pivots)
            e_m = [Fraction(int(k == m)) for k in range(len(monos))]
            assert linalg.solve_columns(vecs, [a - b for a, b in zip(e_m, full)]) is not None


def test_squares_confined_on_transformed_presentations():
    for seed in (1, 7, 11):
        for pres in gl5_presentations(3, seed):
            perp, comp = square_pair_split(pres.square_pairs, T5)
            assert squares_confined(FormFacts(pres.poly), perp, comp)


def test_theorem2_report_computes_each_invariant_once_for_a_binary_form(monkeypatch):
    # the classical stage settles a binary form, and no stage reads the table
    calls = count_invariants(monkeypatch)
    rep = theorem2_report(parse_poly("x^2*y"))
    assert rep.final() == {"border": 2, "smoothable": 2, "cactus": 2, "rank": 3}
    assert calls == {"concise_dim": 1, "hilbert_function": 1, "ann_slice(., 2)": 1,
                     "second_derivatives": 0}


def per_call_contractions(facts, left, right):
    """The reference for wildcert._contractions: one product and one
    contraction against the form of `facts` per pair of forms, no table and
    no common scale."""
    f = facts.form
    d = f.homogeneous_degree()
    return [[contract(a * b, f).coefficient_vector(d - 2) for b in right] for a in left]


def answer_points(perp, comp):
    """The point forms at which quadratic_answers asks gamma_space."""
    return list(perp) + list(comp) + [perp[0] + 2 * comp[-1] - comp[0]]


def quadratic_answers(facts, perp, comp):
    """What gamma_space, product_locus, squares_confined and
    forced_square_check answer on the form of `facts`, an exception standing
    for its text."""
    def attempt(fn):
        try:
            return fn()
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    def locus():
        loc = product_locus(facts, perp, comp)
        return loc.quadric, loc.all_samples(), loc.smooth

    return (
        [attempt(lambda: gamma_space(facts, p)) for p in answer_points(perp, comp)],
        attempt(locus),
        attempt(lambda: squares_confined(facts, perp, comp)),
        attempt(lambda: forced_square_check(facts, perp)),
    )


def random_square_sums(count, seed=5, stray=True):
    """Sums z1^2*w1 + z2^2*w2 + z3^2*w3 with the z's in a 2-space, half of
    them plus a stray l^2*m (none when not `stray`), as (f, pairs of the sum
    without the stray term)."""
    rng = random.Random(seed)

    def form():
        return linear_form(T5, [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                                for _ in range(5)])

    out = []
    while len(out) < count:
        b1, b2 = form(), form()
        zs = [b1 * rng.randint(-2, 2) + b2 * rng.randint(-2, 2) for _ in range(3)]
        pairs = tuple((z, form()) for z in zs if not z.is_zero())
        f = sum(((z ** 2) * w for z, w in pairs), Poly.zero(T5))
        if stray and rng.random() < 0.5:
            f = f + (form() ** 2) * form()
        if pairs and not f.is_zero() and len(square_pair_split(pairs, T5)[1]) == 2:
            out.append((f, pairs))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_squares_confined_on_concise_square_sums(seed):
    # f lies in (z1, z2)^2 and, being concise, has three q_j spanning the
    # quadrics in z1, z2: confinement holds, and the projection proves it
    f, pairs = random_square_sums(1, seed, stray=False)[0]
    facts = FormFacts(f)
    assume(facts.essential.dim == 5)
    perp, comp = square_pair_split(pairs, T5)
    assert squares_confined(facts, perp, comp)
    stages = {s.kind: s for s in rank9_lower_cert(facts, pairs).stages}
    assert stages["square-confinement"].verified


def test_table_contractions_match_per_call_contractions(monkeypatch):
    from apolar import wildcert

    cases = [(f, *square_pair_split(pairs, T5)) for f, pairs in
             [(F, PRES.square_pairs)] + [(p.poly, p.square_pairs) for p in gl5_presentations(3)]
             + random_square_sums(16)]
    # shaped like the counterexample tests above: both checks fail
    t = VarTable.make(("x0", "x1", "x2"))
    d0, d1, d2 = (Poly.variable(t, i, DUAL) for i in range(3))
    cases.append((parse_poly("x0^3 + x1^3 + x2^3", table=t), (d1,), (d0, d2)))
    cases.append((parse_poly("x0*x1*x2", table=t), (d2,), (d0, d1)))
    for f, perp, comp in cases:
        facts = FormFacts(f)
        if facts.form is not f:  # a non-concise f's facts describe its essential form
            continue
        with monkeypatch.context() as patch:
            patch.setattr(wildcert, "_contractions", per_call_contractions)
            expected = quadratic_answers(facts, perp, comp)
        assert quadratic_answers(facts, perp, comp) == expected


def test_product_locus_samples_are_the_cleared_fraction_points():
    """Every sample point is a coprime int tuple with its first nonzero entry
    positive; in Fraction arithmetic it spans the kernel of its own factor's
    system, cleared of denominators, and lies on the quadric."""
    from _oracle import naive_kernel

    for pres in [PRES] + gl5_presentations(3):
        f = pres.poly
        perp, comp = square_pair_split(pres.square_pairs, T5)
        locus = product_locus(FormFacts(f), perp, comp)
        assert len(locus.all_samples()) == 11
        for u, c in locus.all_samples():
            assert all(type(x) is int for x in u)
            assert gcd(*u) == 1 and next(x for x in u if x) > 0
            factor = sum((a * ci for ci, a in zip(c, comp)), Poly.zero(T5, DUAL))
            cols = [contract(b * factor, f).coefficient_vector(1) for b in perp]
            (v,) = naive_kernel([list(row) for row in zip(*cols)], len(perp))
            assert u == tuple(x * lcm(*(x.denominator for x in v)) for x in v)
            value = sum((q * prod(Fraction(x) ** e for x, e in zip(u, mono))
                         for q, mono in zip(locus.quadric, monomials(len(u), 2))), Fraction(0))
            assert value == 0


def rank_based_tangent_data(square_pairs):
    """The limit-family data chosen with ranks, as written before the
    selection moved to 2 x 2 cross-products: b2 is the first later squared
    part of rank 2 with b1, and a candidate is kept unless it has rank 1
    with a squared part or an earlier extra."""
    from _oracle import naive_kernel, naive_rank
    from apolar.poly import linear_coeffs
    from apolar.witness import TangentDatum

    zs = [z for z, _ in square_pairs]
    b1 = zs[0]
    b2 = next(z for z in zs[1:] if naive_rank([linear_coeffs(b1), linear_coeffs(z)]) == 2)

    def proportional(u, v):
        return naive_rank([linear_coeffs(u), linear_coeffs(v)]) == 1

    extras = []
    for cand in (b1 - b2, b1 + 2 * b2, b1 + b2, b1 - 2 * b2, b1 + 3 * b2, b1 - 3 * b2,
                 2 * b1 + b2, 2 * b1 - b2, 3 * b1 + b2, 3 * b1 - b2):
        if len(extras) == 5 - len(zs):
            break
        if not any(proportional(cand, g) for g in zs + extras):
            extras.append(cand)
    cubes = [(l ** 3).coefficient_vector(3) for l in zs + extras]
    (coeffs,) = naive_kernel([list(row) for row in zip(*cubes)], 5)
    zero = Poly.zero(T5)
    return tuple([TangentDatum(coeffs[i], z, w * (Fraction(1) / (3 * coeffs[i])))
                  for i, (z, w) in enumerate(square_pairs)]
                 + [TangentDatum(coeffs[len(zs) + j], l, zero) for j, l in enumerate(extras)])


def test_cube_dependency_is_the_kernel_of_the_cube_vectors():
    # the closed-form coefficients are the reduced echelon kernel vector of
    # the five cubes, on the wild cubic and on the gl5 seed-7 presentations
    for pres in [PRES] + gl5_presentations(6):
        data = tangent_data_for_pairs(pres.square_pairs)
        cubes = [(d.base ** 3).coefficient_vector(3) for d in data]
        ker = linalg.kernel_basis([list(row) for row in zip(*cubes)], 5)
        assert ker == [[d.coefficient for d in data]]
        for d, (z, w) in zip(data, pres.square_pairs):
            assert d.base == z and 3 * d.coefficient * d.direction == w
    # proportional squared parts leave no dependency with nonzero coefficients
    u, v = linear_form(T5, [1, 2, 0, 0, 0]), linear_form(T5, [0, 1, -1, 0, 0])
    with pytest.raises(ValueError, match="degenerate dependency"):
        tangent_data_for_pairs(((u, v), (v, u), (-2 * u, v)))


def test_tangent_data_selection_equals_the_rank_based_choice():
    for pres in [PRES] + gl5_presentations(3):
        pairs = pres.square_pairs
        assert tangent_data_for_pairs(pairs) == rank_based_tangent_data(pairs)
    # squared parts with many zero coordinates: u and v on two coordinates
    rng = random.Random(29)
    for p, q in combinations(range(5), 2):
        u = linear_form(T5, [rng.choice((-2, 1, 3)) if k == p else 0 for k in range(5)])
        v = linear_form(T5, [rng.choice((-1, 2)) if k == q else 0 for k in range(5)])
        ws = [linear_form(T5, [rng.randint(-2, 2) for _ in range(5)]) for _ in range(3)]
        pairs = tuple(zip((u, v, u + v), ws))
        assert tangent_data_for_pairs(pairs) == rank_based_tangent_data(pairs)


def gcd_rule_no_common_zero(quadrics):
    """The square-confinement decision as written before the closed form:
    each quadric is a list ascending in the c0-power, kept as its trimmed
    list and the multiplicity of its root at infinity; True once the running
    gcd of the nonzero quadrics is a constant with no root at infinity."""
    from _oracle import naive_poly_gcd as uni_gcd

    acc = None
    for q in quadrics:
        end = len(q)
        while end and not q[end - 1]:
            end -= 1
        if not end:
            continue
        roots = (list(q[:end]), len(q) - end)
        acc = roots if acc is None else (uni_gcd(acc[0], roots[0]), min(acc[1], roots[1]))
        if len(acc[0]) == 1 and acc[1] == 0:
            return True
    return False


def random_quadric_lists(count, seed=31):
    """Lists of 0 to 4 binary quadrics (a0, a1, a2) over (c1^2, c0*c1, c0^2),
    half of them with a planted common zero (r0, r1), which includes the
    zeros (1, 0) and (0, 1) that make the last or the first coefficient 0;
    in the others a first or last coefficient is zeroed at random."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(0, 4)
        if rng.random() < 0.5:
            # (r1*c0 - r0*c1) * (s*c0 + t*c1) vanishes at (c0, c1) = (r0, r1)
            r0, r1 = rng.choice(((1, 0), (0, 1), (rng.randint(-3, 3), rng.randint(1, 3))))
            quadrics = []
            for _ in range(size):
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                quadrics.append([-r0 * t, r1 * t - r0 * s, r1 * s])
        else:
            quadrics = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(size)]
            for q in quadrics:
                if rng.random() < 0.3:
                    q[rng.choice((0, 2))] = 0
        out.append(quadrics)
    return out


def test_no_common_zero_agrees_with_the_gcd_rule():
    lists = random_quadric_lists(4000)
    decisions = [_no_common_zero(qs) for qs in lists]
    assert decisions == [gcd_rule_no_common_zero(qs) for qs in lists]
    assert True in decisions and False in decisions
    # a pencil with a shared zero at infinity or at 0, a full span, one quadric
    assert not _no_common_zero([[1, 2, 0], [3, -1, 0]])
    assert not _no_common_zero([[0, 1, 1], [0, 2, -1]])
    assert _no_common_zero([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert _no_common_zero([[1, 0, 0], [0, 0, 1]])
    assert not _no_common_zero([[1, 0, 1]]) and not _no_common_zero([])


def square_pairs_of(text, table=T5):
    """Pairs written as "z,w;z,w" over the table."""
    return tuple(tuple(parse_poly(side, table=table) for side in chunk.split(","))
                 for chunk in text.split(";"))


FERMAT = parse_poly("x^3+y^3+z^3")


@pytest.mark.parametrize("build, kind, reason", [
    (lambda: limit_family_certificate(F, None), "border-limit-family",
     "no squares-times-lines shape found"),
    (lambda: limit_family_certificate(F, ()), "border-limit-family",
     "no squares-times-lines shape found"),
    (lambda: limit_family_certificate(FERMAT, extract_square_pairs(FormFacts(FERMAT))),
     "border-limit-family", "squared parts must span a 2-dimensional space"),
    (lambda: double_point_span(F, square_pairs_of("x0,y0;x1,y2")), "double-point-span",
     "no exact solution in the span of the given 2-jets"),
    (lambda: cactus_lower_via_slice(FormFacts(parse_poly("x^3"))), "cactus-slice-saturation",
     "the slice-saturation pattern found no linear drop"),
    (lambda: power_sum_certificate(F, square_pairs_of("x0,y0;x1,y2")),
     "power-sum-decomposition", "shape mismatch: decomposition does not re-expand to f"),
    (lambda: power_sum_certificate(F, None), "power-sum-decomposition",
     "shape mismatch: no squares-times-lines presentation"),
], ids=["limit-family-no-pairs", "limit-family-empty-pairs", "limit-family-fermat",
        "double-points", "saturation", "power-sum", "power-sum-no-pairs"])
def test_builders_return_an_unverified_record_when_they_do_not_apply(build, kind, reason):
    record = build()
    assert record.witness is None
    assert record.verified is False and record.certified() == ()
    assert (record.kind, record.stage_log) == (kind, (reason,))


@pytest.mark.parametrize("build", [limit_family_certificate, double_point_span,
                                   power_sum_certificate,
                                   lambda f, pairs: rank9_lower_cert(FormFacts(f), pairs)],
                         ids=["limit_family_certificate", "double_point_certificate",
                              "power_sum_certificate", "rank9_lower_cert"])
@pytest.mark.parametrize("pairs", ["x0^2,y0;x1,y2", "x0,y0^2;x1,y2", "0,y0;x1,y2", "x0,1;x1,y2"])
def test_pair_builders_reject_pairs_that_are_not_linear(build, pairs):
    with pytest.raises(ValueError, match="l must be a nonzero linear form"):
        build(F, square_pairs_of(pairs))


def test_each_builder_keeps_its_witness_on_the_record():
    pairs = PRES.square_pairs
    family = limit_family_certificate(F, pairs)
    assert family.verified and family.witness.limit == F and family.witness.r == 5
    span = double_point_span(F, pairs)
    assert span.verified and span.witness.cactus_upper == 6 and span.witness.verify()
    cubes = power_sum_certificate(F, pairs)
    assert cubes.verified and len(cubes.witness) == 9 and cubes.witness.verify()
    saturation = cactus_lower_via_slice(FACTS)
    assert [str(g) for g in saturation.witness] == ["d_y0", "d_y1", "d_y2"]
    counting = rank9_lower_cert(FACTS, pairs)
    assert counting.verified and len(counting.witness.samples) >= 5


def test_builders_read_only_the_facts_they_are_handed():
    # G, a sum of five cubes, has cactus rank 5, and wild + y0^3 has a perp
    # product that does not annihilate it; read with the wild cubic's
    # invariants, the slice pattern certified cactus >= 6 for G and the
    # counting certificate passed on wild + y0^3.  Each builder reads its
    # form off the facts it is handed, so neither can happen.
    from apolar.ranks import aggregate, sylvester_binary

    G = FormFacts(parse_poly("x0^3 + x1^3 + y0^3 + y1^3 + y2^3", table=T5))
    saturation = cactus_lower_via_slice(G)
    assert not saturation.verified and saturation.witness is None
    counting = rank9_lower_cert(FormFacts(F + parse_poly("y0^3", table=T5)), PRES.square_pairs)
    assert counting.failed_stage == "perp-squares" and counting.witness is None
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    assert not squares_confined(G, perp, comp) and not forced_square_check(G, perp)
    assert aggregate(G, []).lows == {"border": 5, "smoothable": 5, "cactus": 5, "rank": 5}
    # the facts of a form in more variables than it uses describe its essential form
    embedded = FormFacts(parse_poly("x0^2*y0", vars=["x0", "y0", "z"]))
    assert sylvester_binary(embedded).rank == 3


@pytest.mark.parametrize("other", ["renamed dual", "primal"])
def test_counting_checks_refuse_forms_that_are_not_dual_over_fs_table(other):
    # the forms of perp = (d_y0, d_y1, d_y2) and comp = (d_x0, d_x1), over a
    # renamed 5-variable table or in the primal ring: read by position, each
    # check would answer as for the dual forms
    if other == "primal":
        forms = [parse_poly(v, table=T5) for v in ("y0", "y1", "y2", "x0", "x1")]
    else:
        renamed = wild_table(("e0", "e1", "e2", "e3", "e4"))
        forms = [dual(v, renamed) for v in ("e2", "e3", "e4", "e0", "e1")]
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    calls = [
        lambda: gamma_space(FACTS, forms[0]),
        lambda: product_locus(FACTS, forms[:3], forms[3:]),
        lambda: product_locus(FACTS, perp, forms[3:]),
        lambda: squares_confined(FACTS, forms[:3], forms[3:]),
        lambda: squares_confined(FACTS, perp, forms[3:]),
        lambda: forced_square_check(FACTS, forms[:3]),
    ]
    for call in calls:
        with pytest.raises(TableMismatchError):
            call()


def test_counting_checks_refuse_a_form_over_a_smaller_table():
    # read by position, d_a contracts f as d_x0 does: gamma_space returned
    # d_x0's 1, and forced_square_check returned True, a "proof" that d_x0
    # itself does not give
    d_a = dual("d_a", VarTable.make(("a", "b")))
    with pytest.raises(TableMismatchError):
        gamma_space(FACTS, d_a)
    with pytest.raises(TableMismatchError):
        forced_square_check(FACTS, (d_a,))
    assert gamma_space(FACTS, dual("d_x0")) == 1 and not forced_square_check(FACTS, (dual("d_x0"),))


def test_record_builders_never_read_pairs_off_the_monomials(monkeypatch):
    from apolar import wildcert

    def refuse(f):
        raise AssertionError("a record builder scanned the monomials")

    monkeypatch.setattr(wildcert, "extract_square_pairs", refuse)
    pairs = PRES.square_pairs
    assert limit_family_certificate(F, pairs).verified
    assert power_sum_certificate(F, pairs).verified
    assert rank9_lower_cert(FACTS, pairs).verified
    assert limit_family_certificate(F, None).witness is None
    assert power_sum_certificate(F, None).witness is None
    record = rank9_lower_cert(FACTS, None)
    locus = record.witness
    assert not record.verified and locus is None and record.failed_stage == "shape"
    assert record.stage_log == (
        "shape [computed]: FAILED — no squares-times-lines presentation available",)


def test_perp_products_are_evaluated_once_per_verified_counting_certificate(monkeypatch):
    from apolar import wildcert

    calls = []
    original = wildcert._perp_products_vanish

    def counted(*args, **kwargs):
        calls.append(args[0].form)
        return original(*args, **kwargs)

    monkeypatch.setattr(wildcert, "_perp_products_vanish", counted)
    for pres in [PRES] + gl5_presentations(2):
        calls.clear()
        record = rank9_lower_cert(FormFacts(pres.poly), pres.square_pairs)
        assert record.verified
        assert calls == [pres.poly]
    calls.clear()
    assert theorem2_report(PRES).final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
    assert len(calls) == 1


def test_counting_certificate_stops_at_perp_squares_when_a_perp_product_survives():
    # y0*y1*y2 is contracted to 1 by d_y0*d_y1*d_y2, so the perp products of
    # the wild pairs no longer all annihilate f; f stays concise, so its
    # degree-2 annihilator slice is still 10-dimensional
    f = F + parse_poly("y0*y1*y2", table=T5)
    record = rank9_lower_cert(FormFacts(f), PRES.square_pairs)
    locus = record.witness
    assert [(s.kind, s.verified, s.stage_log) for s in record.stages] == [
        ("shape", True, ("concise 5-variable cubic with a 3+2 dual split",)),
        ("slice-dimension", True, ("degree-2 annihilator slice is 10-dimensional",)),
        ("perp-squares", False, ("a product of perp forms does not annihilate f",)),
    ]
    assert record.failed_stage == "perp-squares" and locus is None and record.certified() == ()


def test_counting_stages_follow_the_perp_products_and_the_confinement_proof():
    # perp-squares passes exactly when every perp product contracts f to zero
    # (checked per product here), and square-confinement is then
    # squares_confined's answer
    outcomes = set()
    for f, pairs in random_square_sums(24, seed=13) + [(F, PRES.square_pairs)]:
        facts = FormFacts(f)
        if facts.essential.dim != 5:
            continue
        perp, comp = square_pair_split(pairs, T5)
        stages = [(s.kind, s.verified) for s in
                  rank9_lower_cert(facts, pairs).stages][:4]
        vanish = not any(any(v) for vs in per_call_contractions(facts, perp, perp) for v in vs)
        expected = [("shape", True), ("slice-dimension", True), ("perp-squares", vanish)]
        if vanish:
            expected.append(("square-confinement", squares_confined(facts, perp, comp)))
        assert stages == expected
        outcomes.add(tuple(expected))
    assert len(outcomes) >= 2


COUNTING_STAGES = ("shape", "slice-dimension", "perp-squares", "square-confinement",
                   "quadric-count", "product-locus", "factor-family", "forced-square",
                   "product-propagation")


def _locus_shape_error(*args):
    raise LocusShapeError("the solution locus is not a degree-2 hypersurface")


def _four_samples(*args):
    locus = product_locus(*args)
    return locus.replace(samples=locus.samples[:4])


# per case: (module-level check, its stand-in, the failed stage, its log detail);
# the slice-dimension stage cannot fail on a concise 5-variable cubic
COUNTING_FAILURES = {
    "not-confined": ("squares_confined", lambda *args: False, "square-confinement",
                     "not proved that every square in the annihilator slice comes from the perp span"),
    "locus-shape": ("product_locus", _locus_shape_error, "product-locus",
                    "the solution locus is not a degree-2 hypersurface"),
    "not-smooth": ("product_locus", lambda *args: product_locus(*args).replace(smooth=False),
                   "product-locus", "the solution quadric is not a smooth conic"),
    "four-samples": ("product_locus", _four_samples, "product-locus",
                     "only 4 verified rational samples"),
    "factor-family": ("gamma_space", lambda *args: 3, "factor-family", None),
    "forced-square": ("forced_square_check", lambda *args: False, "forced-square",
                      "a linear form outside the perp span multiplies the whole perp basis"
                      " into the annihilator"),
}


@pytest.mark.parametrize("case", list(COUNTING_FAILURES))
def test_counting_certificate_reports_each_failed_stage_on_the_wild_cubic(case, monkeypatch):
    from apolar import wildcert

    name, stand_in, failed, detail = COUNTING_FAILURES[case]
    if detail is None:  # the first sample's point is named in the detail
        u = rank9_lower_cert(FACTS, PRES.square_pairs).witness.samples[0][0]
        detail = f"factor family at {tuple(u)} has dimension 3, need 4"
    monkeypatch.setattr(wildcert, name, stand_in)
    record = rank9_lower_cert(FACTS, PRES.square_pairs)
    assert [s.kind for s in record.stages] == list(COUNTING_STAGES[:COUNTING_STAGES.index(failed) + 1])
    assert all(s.verified for s in record.stages[:-1])
    assert record.failed_stage == failed
    assert record.stage_log[-1] == f"{failed} [computed]: FAILED — {detail}"
    assert record.verified is False and record.witness is None and record.certified() == ()
