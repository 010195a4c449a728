"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line on success (pytest -s shows them; a
failure raises before the line is printed).
"""

import random

from apolar import linalg
from apolar.apolarity import FormFacts, ann_slice, concise_dim, contract, hilbert_function
from apolar.ideals import macaulay_bound, membership, quotient_hilbert, saturation_witness, slice_from_forms
from apolar.parsing import parse_poly
from apolar.poly import DUAL, PRIMAL, Poly, VarTable, linear_form
from apolar.ranks import (
    Deduction,
    aggregate,
    sylvester_binary,
)
from apolar.wildcert import (
    cactus_lower_via_slice,
    power_sum_certificate,
    rank9_lower_cert,
    tangent_data_for_pairs,
    theorem2_report,
    transform_presentation,
    wild_cubic,
    wild_presentation,
    wild_table,
)
from apolar.witness import (
    direct_sum_extend,
    double_point_span,
    slice_intersection_certificate,
    tangent_limit_family,
)

from _oracle import random_poly

T5 = wild_table()
F = wild_cubic(T5)
FACTS = FormFacts(F)


def dual(text, table=T5):
    return parse_poly(text, table=table, ring=DUAL)


def reference_generators():
    squares = [dual(f"{a}*{b}") for a, b in
               (("d_y0", "d_y0"), ("d_y0", "d_y1"), ("d_y0", "d_y2"),
                ("d_y1", "d_y1"), ("d_y1", "d_y2"), ("d_y2", "d_y2"))]
    phis = [
        dual("d_x1*d_y0"),
        dual("d_x0*d_y2"),
        dual("-1*d_x0*d_y1 + d_x1*d_y1"),
        dual("d_x0*d_y0 + d_x0*d_y1 + d_x1*d_y2"),
    ]
    return squares, phis


def test_criterion_1_hilbert_function():
    assert hilbert_function(F).values == (1, 5, 5, 1)
    print("PASS criterion 1: Hilbert function of the wild cubic is (1, 5, 5, 1)")


def test_criterion_2_annihilator_slice_span_equality():
    sl = ann_slice(F, 2)
    assert sl.dim == 10
    squares, phis = reference_generators()
    listed = slice_from_forms(squares + phis, 2, T5)
    assert listed.dim == 10
    # span equality both ways: identical canonical echelon bases, plus
    # explicit containment checks in each direction
    assert listed.vectors() == sl.vectors()
    assert all(sl.contains(g) for g in squares + phis)
    assert all(listed.contains(b) for b in sl.basis)
    print("PASS criterion 2: degree-2 annihilator slice is 10-dimensional and "
          "matches the listed generators (span equality both ways)")


def test_criterion_3_membership_and_saturation():
    squares, phis = reference_generators()
    phi1, phi2, phi3, phi4 = phis
    target = dual("d_x0^3*d_y0")
    sl = ann_slice(F, 2)
    cert = membership(target, list(sl.basis))
    assert cert is not None and cert.verify()
    combination = (
        dual("d_x0^2 - d_x0*d_x1") * phi4
        - dual("d_x0*d_x1 - d_x1^2") * phi2
        + dual("d_x0^2") * phi3
        + dual("d_x0^2") * phi1
    )
    assert combination == target
    for name in ("d_y0", "d_y1", "d_y2"):
        assert saturation_witness(list(sl.basis), dual(name), 3)
    print("PASS criterion 3: membership certificate for the cubic product, the "
          "explicit recombination re-expands exactly, and all three linear "
          "forms have k=3 saturation witnesses")


def test_criterion_4_cactus_six():
    record = cactus_lower_via_slice(FACTS)
    assert record.witness is not None and record.certified()[0].value == 6
    x0, x1, y0, y1, y2 = (Poly.variable(T5, i) for i in range(5))
    span = double_point_span(F, [(x0, y0), (x0 + x1, -y1), (x1, y2)]).witness
    assert span is not None and span.verify() and span.cactus_upper == 6
    rep = aggregate(FACTS, [
        Deduction("cactus", "lower", record.certified()[0].value, rule="slice-saturation"),
        Deduction("cactus", "upper", span.cactus_upper, rule="double-point-span"),
        Deduction("smoothable", "upper", span.cactus_upper,
                  rule="curvilinear-smoothable", basis="cited"),
    ])
    assert rep.value("cactus") == 6
    assert rep.value("smoothable") == 6
    print("PASS criterion 4: cactus lower bound 6 via slice saturation, "
          "double-point span certificate verified, cactus = smoothable = 6")


def test_criterion_5_border_five():
    data = tangent_data_for_pairs(wild_presentation(T5).square_pairs)
    fam = tangent_limit_family(data, 3)
    assert fam.limit == F and fam.r == 5
    assert hilbert_function(F).max() == 5
    rep = aggregate(FACTS, [
        Deduction("all", "lower", 5, rule="catalecticant"),
        Deduction("border", "upper", fam.r, rule="limit-family"),
    ])
    assert rep.value("border") == 5
    print("PASS criterion 5: five-term limit family verified at scale 1 and "
          "catalecticant bound 5, so border rank = 5")


def test_criterion_6_rank_nine():
    pairs = wild_presentation(T5).square_pairs
    dec = power_sum_certificate(F, pairs).witness
    assert len(dec) == 9 and dec.verify()
    record = rank9_lower_cert(FACTS, pairs)
    locus = record.witness
    assert record.verified and record.certified()[0].value == 9
    stage_names = [s.kind for s in record.stages]
    for needed in ("slice-dimension", "product-locus", "factor-family", "forced-square"):
        assert needed in stage_names
    assert len(locus.samples) >= 5
    rep = theorem2_report(F)
    assert rep.final()["rank"] == 9
    print("PASS criterion 6: nine exact cubes re-expand to the wild cubic and "
          "the counting certificate excludes length 8, so rank = 9")


def test_criterion_7_sylvester_suite():
    t2 = VarTable.make(("x", "y"))
    res = sylvester_binary(FormFacts(parse_poly("x^2*y", table=t2)))
    assert (res.d1, res.rank) == (2, 3)
    assert sylvester_binary(FormFacts(parse_poly("x^3 + y^3", table=t2))).rank == 2
    for d in range(1, 7):
        r = sylvester_binary(FormFacts(parse_poly(f"x^{d}", table=t2)))
        assert r.d1 == r.rank == 1
    rng = random.Random(600)
    checked = 0
    while checked < 200:
        d = rng.randint(1, 6)
        f = random_poly(rng, t2, PRIMAL, d, max_terms=d + 1)
        if f.is_zero():
            continue
        r = sylvester_binary(FormFacts(f))
        assert r.d1 + r.d2 == d + 2
        checked += 1
    print("PASS criterion 7: Sylvester suite (x^2*y, x^3+y^3, pure powers, 200 "
          "random binary forms with d1 + d2 = d + 2)")


def test_criterion_8_property_suites():
    rng = random.Random(888)
    table = VarTable.make(("a", "b", "c", "d"))
    # Gorenstein symmetry on 100 random polynomials
    checked = 0
    while checked < 100:
        d = rng.randint(1, 4)
        f = random_poly(rng, table, PRIMAL, d)
        if f.is_zero():
            continue
        h = hilbert_function(f)
        assert all(h(i) == h(d - i) for i in range(d + 1))
        checked += 1
    # contraction composition
    checked = 0
    while checked < 100:
        f = random_poly(rng, table, PRIMAL, rng.randint(2, 4))
        if f.is_zero():
            continue
        a = random_poly(rng, table, DUAL, rng.randint(0, 2), allow_zero=True)
        b = random_poly(rng, table, DUAL, rng.randint(0, 2), allow_zero=True)
        assert contract(a * b, f) == contract(a, contract(b, f))
        checked += 1
    # Macaulay-bound conformance of quotient Hilbert functions
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
    # aggregate chain consistency across the shipped example zoo
    zoo = [
        F,
        parse_poly("x0^3 + x1^3 + x2^3"),
        parse_poly("x^2*y", vars=["x", "y", "u", "v", "w"]),
        parse_poly("x0*x1 + x2^2"),
        parse_poly("x0^2*y0 + x1^2*y1", table=T5),
        parse_poly("x0^3", table=T5),
    ]
    for g in zoo:
        rep = theorem2_report(g).report
        assert rep.lower("smoothable") >= max(rep.lower("border"), rep.lower("cactus"))
        assert rep.lower("rank") >= rep.lower("smoothable")
        for notion in ("border", "smoothable", "cactus", "rank"):
            up = rep.upper(notion)
            assert up is None or rep.lower(notion) <= up
            assert rep.lower(notion) >= concise_dim(g).dim
    print("PASS criterion 8: symmetry, contraction composition, Macaulay "
          "conformance, and chain-consistent aggregates on the example zoo")


def test_criterion_9_direct_sum_extension():
    t6 = VarTable.make(("x0", "x1", "y0", "y1", "y2", "y3"))
    f = parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2", table=t6)
    g = parse_poly("y3^3", table=t6)
    summands = direct_sum_extend(f, g)
    total = summands[0] + summands[1]
    assert slice_intersection_certificate(summands, total).verified
    rep = theorem2_report(total)
    assert rep.conciseness == 6
    assert rep.report.value("border") == 6
    assert rep.report.lower("cactus") >= 7
    print("PASS criterion 9: direct sum with an extra cube has conciseness 6, "
          "border rank 6, cactus rank >= 7, slice-intersection equality verified")


def test_criterion_10_coordinate_invariance():
    rng = random.Random(424242)
    pres = wild_presentation(T5)
    expected = {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
    for trial in range(5):
        while True:
            m = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
            if linalg.rank(m) == 5:
                break
        images = [linear_form(T5, row) for row in m]
        moved = transform_presentation(pres, images)
        assert theorem2_report(moved).final() == expected
    print("PASS criterion 10: all four certified values survive 5 random "
          "invertible changes of variables")
