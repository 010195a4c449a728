import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apolar.apolarity import contract
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

T5 = wild_table()
F = wild_cubic(T5)
PRES = wild_presentation(T5)


def dual(text, table=T5):
    return parse_poly(text, table=table, ring=DUAL)


def test_extract_square_pairs_of_wild_cubic():
    pairs = extract_square_pairs(F)
    assert pairs is not None and len(pairs) == 3
    acc = Poly.zero(T5)
    for z, w in pairs:
        acc = acc + (z ** 2) * w
    assert acc == F


def test_extract_square_pairs_pure_powers():
    pairs = extract_square_pairs(parse_poly("x0^3 + x1^3 + x2^3"))
    assert pairs is not None and len(pairs) == 3


def test_extract_square_pairs_rejects_generic():
    rng = random.Random(4)
    t = VarTable.make(("a", "b", "c"))
    from _oracle import random_poly

    f = random_poly(rng, t, PRIMAL, 3, max_terms=10)
    assert extract_square_pairs(f) is None


def test_square_sum_with_one_perturbed_coefficient_is_rejected():
    # x0 and x1 are not linear variables, so the monomial reading still
    # returns the three pairs of F, and only their re-expansion misses x0^3
    assert extract_square_pairs(F + parse_poly("1/7*x0^3", table=T5)) is None
    pairs = extract_square_pairs(F)
    assert WildPresentation(F, pairs).poly == F
    for i in range(3):
        moved = list(pairs)
        z, w = moved[i]
        moved[i] = (z, w * Fraction(1010, 1009))
        with pytest.raises(ValueError, match="re-expand"):
            WildPresentation(F, tuple(moved))


def test_square_pair_split():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    assert [str(b) for b in perp] == ["d_y0", "d_y1", "d_y2"]
    assert [str(a) for a in comp] == ["d_x0", "d_x1"]


def test_cactus_lower_via_slice_wild():
    cert, record = cactus_lower_via_slice(F)
    assert cert is not None
    assert cert.bound == 6
    assert record.verified and record.certified()[0].value == 6
    assert cert.scheme_quotient_dim == 5
    assert cert.quotient_h1 == 2
    assert [str(g) for g in cert.gamma_basis] == ["d_y0", "d_y1", "d_y2"]


def test_cactus_lower_via_slice_no_drop_for_diagonal():
    diag = parse_poly("x0^3 + x1^3 + x2^3")
    assert cactus_lower_via_slice(diag)[0] is None


def test_cactus_lower_requires_concise_cubic():
    with pytest.raises(ValueError):
        cactus_lower_via_slice(parse_poly("x0^3", table=T5))
    with pytest.raises(ValueError):
        cactus_lower_via_slice(parse_poly("x0^2 + x1^2"))


def test_product_locus_conic():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    locus = product_locus(F, perp, comp)
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
    locus = product_locus(F, perp, comp)
    by_point = dict(locus.samples)
    u = (Fraction(1), Fraction(0), Fraction(0))
    assert by_point[u] == (Fraction(0), Fraction(1))


def test_product_locus_two_point_case():
    t4 = VarTable.make(("x0", "x1", "y0", "y1"))
    h = parse_poly("x0^2*y0 + x1^2*y1", table=t4)
    perp = (Poly.variable(t4, 2, DUAL), Poly.variable(t4, 3, DUAL))
    comp = (Poly.variable(t4, 0, DUAL), Poly.variable(t4, 1, DUAL))
    locus = product_locus(h, perp, comp)
    pts = dict(locus.samples)
    u = (Fraction(1), Fraction(0))
    assert u in pts and pts[u] == (Fraction(0), Fraction(1))


def test_product_locus_shape_mismatch_for_diagonal():
    diag = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")
    t = diag.table
    perp = tuple(Poly.variable(t, i, DUAL) for i in (2, 3, 4))
    comp = tuple(Poly.variable(t, i, DUAL) for i in (0, 1))
    with pytest.raises(LocusShapeError):
        product_locus(diag, perp, comp)


def test_gamma_space_at_sample_points():
    dim, basis = gamma_space(F, dual("d_y0"))
    assert dim == 4
    assert [str(b) for b in basis] == ["d_x1", "d_y0", "d_y1", "d_y2"]
    dim2, basis2 = gamma_space(F, dual("d_y2"))
    assert dim2 == 4
    assert any(str(b) == "d_x0" for b in basis2)
    with pytest.raises(ValueError):
        gamma_space(F, Poly.zero(T5, DUAL))


def test_forced_square_check_wild():
    perp, _ = square_pair_split(PRES.square_pairs, T5)
    assert forced_square_check(F, perp)


def test_forced_square_check_counterexample():
    t = VarTable.make(("x0", "x1", "x2"))
    f = parse_poly("x0^3", table=t)
    perp = (Poly.variable(t, 1, DUAL),)
    assert not forced_square_check(f, perp)


def test_squares_confined_wild():
    perp, comp = square_pair_split(PRES.square_pairs, T5)
    assert squares_confined(F, perp, comp)


def test_squares_confined_counterexample():
    t = VarTable.make(("x0", "x1", "y0"))
    f = parse_poly("x0^2*y0", table=t)
    perp = (Poly.variable(t, 2, DUAL),)
    comp = (Poly.variable(t, 0, DUAL), Poly.variable(t, 1, DUAL))
    # d_x1 squares to zero against f but lies outside the perp span
    assert not squares_confined(f, perp, comp)


def test_rank9_lower_cert_wild():
    locus, record = rank9_lower_cert(F, 8, PRES.square_pairs)
    assert record.verified
    assert record.certified()[0].value == 9
    assert record.failed_stage is None
    assert len(locus.samples) >= 5
    assert any(s.basis == "cited" for s in record.stages)


def test_rank9_lower_cert_weak_rmax():
    locus, record = rank9_lower_cert(F, 4, PRES.square_pairs)
    assert record.verified and locus is not None
    assert record.certified()[0].value == 5


@pytest.mark.parametrize("r_max", [0, -1])
def test_rank9_lower_cert_rejects_rmax_below_one(r_max):
    with pytest.raises(ValueError, match="r_max"):
        rank9_lower_cert(F, r_max, PRES.square_pairs)


DIAG5 = parse_poly("x0^3 + x1^3 + x2^3 + x3^3 + x4^3")


def test_rank9_lower_cert_rejects_diagonal():
    locus, record = rank9_lower_cert(DIAG5, 8, extract_square_pairs(DIAG5))
    assert not record.verified and locus is None
    assert record.failed_stage == "shape"


def test_rank9_lower_cert_rejects_large_rmax():
    locus, record = rank9_lower_cert(F, 9, PRES.square_pairs)
    assert not record.verified and locus is None
    assert record.failed_stage == "quadric-count"


def stage_line(stage):
    return f"{stage.kind} [{stage.basis}]: {'ok' if stage.verified else 'FAILED'} — {stage.stage_log[0]}"


@pytest.mark.parametrize("f, r_max, pairs, failed", [
    (DIAG5, 8, extract_square_pairs(DIAG5), "shape"),
    (F, 9, PRES.square_pairs, "quadric-count"),
    (F + parse_poly("y0*y1*y2", table=T5), 8, PRES.square_pairs, "perp-squares"),
    (F, 8, PRES.square_pairs, None),
], ids=["diagonal", "large-rmax", "perp-product", "verified"])
def test_counting_record_nests_its_stages_up_to_the_failed_one(f, r_max, pairs, failed):
    locus, record = rank9_lower_cert(f, r_max, pairs)
    assert record.kind == "rank-lower-counting"
    assert record.stage_log == tuple(stage_line(s) for s in record.stages)
    assert all(s.verified for s in record.stages[:-1])
    assert record.stages[-1].verified is (failed is None)
    assert record.stages[-1].kind == (failed or "product-propagation")
    assert record.failed_stage == failed
    assert record.verified == (failed is None) == (locus is not None)
    assert replace(record, stages=()).failed_stage is None


def test_rank9_upper_single_monomial():
    t = VarTable.make(("x0", "y0"))
    f = parse_poly("x0^2*y0", table=t)
    dec, record = power_sum_certificate(f, extract_square_pairs(f))
    assert record.verified and record.certified()[0].value == 3
    assert len(dec) == 3
    terms = {(str(l)): lam for lam, l in dec.terms}
    assert terms["x0 + y0"] == Fraction(1, 6)
    assert terms["x0 - y0"] == Fraction(-1, 6)
    assert terms["y0"] == Fraction(-1, 3)
    assert dec.verify()


def test_rank9_upper_wild_nine_cubes():
    dec, record = power_sum_certificate(F, extract_square_pairs(F))
    assert record.certified()[0].value == 9
    assert len(dec) == 9
    assert dec.verify()


def test_power_sum_with_one_perturbed_coefficient_is_rejected():
    dec, _ = power_sum_certificate(F, PRES.square_pairs)
    for i, (lam, l) in enumerate(dec.terms):
        for term in ((lam + Fraction(1, 1009), l), (lam, l * Fraction(1010, 1009))):
            terms = list(dec.terms)
            terms[i] = term
            assert not replace(dec, terms=tuple(terms)).verify()
    assert PowerSumDecomposition(F, dec.terms).verify()


def test_rank9_upper_pure_cube_collapses():
    t = VarTable.make(("x",))
    f = parse_poly("x^3", table=t)
    dec, _ = power_sum_certificate(f, extract_square_pairs(f))
    assert len(dec) == 1
    assert dec.terms[0][0] == Fraction(1)


def test_rank9_upper_shape_mismatch():
    rng = random.Random(6)
    t = VarTable.make(("a", "b", "c"))
    from _oracle import random_poly

    f = random_poly(rng, t, PRIMAL, 3, max_terms=10)
    dec, record = power_sum_certificate(f, extract_square_pairs(f))
    assert dec is None and not record.verified
    assert record.stage_log == ("shape mismatch: no squares-times-lines presentation",)


def test_power_sum_certificate_rejects_pairs_over_another_table():
    other = wild_table(("e0", "e1", "e2", "e3", "e4"))
    with pytest.raises(TableMismatchError):
        power_sum_certificate(F, wild_presentation(other).square_pairs)


def test_theorem2_wild_cubic():
    rep = theorem2_report(F)
    assert rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
    assert rep.hilbert == (1, 5, 5, 1)
    assert rep.conciseness == 5
    assert rep.slice2_dim == 10
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


def test_direct_sum_report_takes_no_bound_from_summand_records():
    # the wild summand's records certify border <= 5 for it alone; read as
    # bounds on the sum they would contradict its conciseness 6
    t6 = VarTable.make(("x0", "x1", "y0", "y1", "y2", "u"))
    rep = theorem2_report(parse_poly("x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2 + u^3", table=t6))
    assert rep.final() == {"border": 6, "smoothable": 7, "cactus": 7, "rank": [7, 10]}
    assert [d.rule for d in rep.report.provenance] == (
        ["conciseness", "catalecticant"] + ["direct-sum-subadditivity"] * 4 + ["slice-saturation"]
    )
    assert "border-limit-family" in [c.kind for c in rep.certificates]
    assert rep.border_witness_rank is None


def test_report_bounds_are_read_off_the_verified_records():
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
    assert rep.border_witness_rank == 5
    # r_max = 9 fails the quadric count: the record is shown, its bound is not used
    weak = theorem2_report(F, r_max=9)
    counting = weak.certificates[-1]
    assert counting.kind == "rank-lower-counting" and not counting.verified
    assert counting.bounds and counting.certified() == ()
    assert "counting-certificate" not in [d.rule for d in weak.report.provenance]
    assert weak.final()["rank"] == [6, 9]


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


def test_theorem2_report_computes_each_invariant_once(monkeypatch):
    # wrap the originals wherever a module of the package holds them, as a
    # caller through `from .apolarity import ...` would see them
    import apolar
    from apolar import apolarity, cli, ideals, ranks, wildcert, witness

    calls = {"concise_dim": 0, "hilbert_function": 0, "ann_slice(., 2)": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name != "ann_slice":
                calls[name] += 1
            elif (args[1] if len(args) > 1 else kwargs["i"]) == 2:
                calls["ann_slice(., 2)"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("concise_dim", "hilbert_function", "ann_slice"):
        original = getattr(apolarity, name)
        wrapper = counting(name, original)
        for module in (apolar, apolarity, cli, ideals, ranks, wildcert, witness):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    rep = theorem2_report(wild_cubic())
    assert rep.final() == {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
    assert calls == {"concise_dim": 1, "hilbert_function": 1, "ann_slice(., 2)": 1}


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
        cert, _ = cactus_lower_via_slice(f)
        assert cert is not None and cert.bound == 6 and len(cert.gamma_basis) == 3
        slice2 = ann_slice(f, 2)
        for gamma in cert.gamma_basis:
            assert saturation_witness(slice2.basis, gamma, cert.witness_power)


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
            assert squares_confined(pres.poly, perp, comp)


def test_theorem2_report_computes_each_invariant_once_for_a_binary_form(monkeypatch):
    import apolar
    from apolar import apolarity, cli, ideals, ranks, wildcert, witness

    calls = {"concise_dim": 0, "hilbert_function": 0, "ann_slice(., 2)": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name != "ann_slice":
                calls[name] += 1
            elif (args[1] if len(args) > 1 else kwargs["i"]) == 2:
                calls["ann_slice(., 2)"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("concise_dim", "hilbert_function", "ann_slice"):
        original = getattr(apolarity, name)
        wrapper = counting(name, original)
        for module in (apolar, apolarity, cli, ideals, ranks, wildcert, witness):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    rep = theorem2_report(parse_poly("x^2*y"))
    assert rep.final() == {"border": 2, "smoothable": 2, "cactus": 2, "rank": 3}
    assert calls == {"concise_dim": 1, "hilbert_function": 1, "ann_slice(., 2)": 1}


def per_call_contractions(f, left, right, facts=None):
    """The reference for wildcert._contractions: one product and one
    contraction against f per pair of forms, no table and no common scale."""
    d = f.homogeneous_degree()
    return [[contract(a * b, f).coefficient_vector(d - 2) for b in right] for a in left]


def quadratic_answers(f, perp, comp, facts):
    """What gamma_space, product_locus, squares_confined and
    forced_square_check answer on f, an exception standing for its text."""
    def attempt(fn):
        try:
            return fn()
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    def locus():
        loc = product_locus(f, perp, comp, facts)
        return loc.quadric, loc.all_samples(), loc.smooth

    points = list(perp) + list(comp) + [perp[0] + 2 * comp[-1] - comp[0]]
    return (
        [attempt(lambda: gamma_space(f, p, facts)) for p in points],
        attempt(locus),
        attempt(lambda: squares_confined(f, perp, comp, facts)),
        attempt(lambda: forced_square_check(f, perp, facts)),
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
    from apolar.apolarity import FormFacts

    f, pairs = random_square_sums(1, seed, stray=False)[0]
    facts = FormFacts(f)
    assume(facts.essential.dim == 5)
    perp, comp = square_pair_split(pairs, T5)
    assert squares_confined(f, perp, comp)
    assert squares_confined(f, perp, comp, facts)
    stages = {s.kind: s for s in rank9_lower_cert(f, 8, pairs, facts)[1].stages}
    assert stages["square-confinement"].verified


def test_table_contractions_match_per_call_contractions(monkeypatch):
    from apolar import wildcert
    from apolar.apolarity import FormFacts

    cases = [(f, *square_pair_split(pairs, T5)) for f, pairs in
             [(F, PRES.square_pairs)] + [(p.poly, p.square_pairs) for p in gl5_presentations(3)]
             + random_square_sums(16)]
    # shaped like the counterexample tests above: both checks fail
    t = VarTable.make(("x0", "x1", "x2"))
    d0, d1, d2 = (Poly.variable(t, i, DUAL) for i in range(3))
    cases.append((parse_poly("x0^3", table=t), (d1,), (d0, d2)))
    cases.append((parse_poly("x0^2*x2", table=t), (d2,), (d0, d1)))
    for f, perp, comp in cases:
        with monkeypatch.context() as patch:
            patch.setattr(wildcert, "_contractions", per_call_contractions)
            expected = quadratic_answers(f, perp, comp, None)
        assert quadratic_answers(f, perp, comp, None) == expected
        facts = FormFacts(f)
        if facts.form is f:  # facts are f's only when f is concise
            assert quadratic_answers(f, perp, comp, facts) == expected


def test_product_locus_samples_are_the_cleared_fraction_points():
    """Every sample point is a coprime int tuple with its first nonzero entry
    positive; in Fraction arithmetic it spans the kernel of its own factor's
    system, cleared of denominators, and lies on the quadric."""
    from _oracle import naive_kernel

    for pres in [PRES] + gl5_presentations(3):
        f = pres.poly
        perp, comp = square_pair_split(pres.square_pairs, T5)
        locus = product_locus(f, perp, comp)
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
    (lambda: limit_family_certificate(FERMAT, extract_square_pairs(FERMAT)),
     "border-limit-family", "squared parts must span a 2-dimensional space"),
    (lambda: double_point_span(F, square_pairs_of("x0,y0;x1,y2")), "double-point-span",
     "no exact solution in the span of the given 2-jets"),
    (lambda: cactus_lower_via_slice(parse_poly("x^3")), "cactus-slice-saturation",
     "the slice-saturation pattern found no linear drop"),
    (lambda: power_sum_certificate(F, square_pairs_of("x0,y0;x1,y2")),
     "power-sum-decomposition", "shape mismatch: decomposition does not re-expand to f"),
    (lambda: power_sum_certificate(F, None), "power-sum-decomposition",
     "shape mismatch: no squares-times-lines presentation"),
], ids=["limit-family-no-pairs", "limit-family-empty-pairs", "limit-family-fermat",
        "double-points", "saturation", "power-sum", "power-sum-no-pairs"])
def test_builders_return_an_unverified_record_when_they_do_not_apply(build, kind, reason):
    witness, record = build()
    assert witness is None
    assert record.verified is False and record.certified() == ()
    assert (record.kind, record.stage_log) == (kind, (reason,))


@pytest.mark.parametrize("build", [limit_family_certificate, double_point_span,
                                   power_sum_certificate,
                                   lambda f, pairs: rank9_lower_cert(f, 8, pairs)],
                         ids=["limit_family_certificate", "double_point_certificate",
                              "power_sum_certificate", "rank9_lower_cert"])
@pytest.mark.parametrize("pairs", ["x0^2,y0;x1,y2", "x0,y0^2;x1,y2", "0,y0;x1,y2", "x0,1;x1,y2"])
def test_pair_builders_reject_pairs_that_are_not_linear(build, pairs):
    with pytest.raises(ValueError, match="l must be a nonzero linear form"):
        build(F, square_pairs_of(pairs))


def test_record_builders_never_read_pairs_off_the_monomials(monkeypatch):
    from apolar import wildcert

    def refuse(f):
        raise AssertionError("a record builder scanned the monomials")

    monkeypatch.setattr(wildcert, "extract_square_pairs", refuse)
    pairs = PRES.square_pairs
    assert limit_family_certificate(F, pairs)[1].verified
    assert power_sum_certificate(F, pairs)[1].verified
    assert rank9_lower_cert(F, 8, pairs)[1].verified
    assert limit_family_certificate(F, None)[0] is None
    assert power_sum_certificate(F, None)[0] is None
    locus, record = rank9_lower_cert(F, 8, None)
    assert not record.verified and locus is None and record.failed_stage == "shape"
    assert record.stage_log == (
        "shape [computed]: FAILED — no squares-times-lines presentation available",)


def test_perp_products_are_evaluated_once_per_verified_counting_certificate(monkeypatch):
    from apolar import wildcert

    calls = []
    original = wildcert._perp_products_vanish

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(wildcert, "_perp_products_vanish", counted)
    for pres in [PRES] + gl5_presentations(2):
        calls.clear()
        _, record = rank9_lower_cert(pres.poly, 8, pres.square_pairs)
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
    locus, record = rank9_lower_cert(f, 8, PRES.square_pairs)
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
    from apolar.apolarity import FormFacts

    outcomes = set()
    for f, pairs in random_square_sums(24, seed=13) + [(F, PRES.square_pairs)]:
        facts = FormFacts(f)
        if facts.essential.dim != 5:
            continue
        perp, comp = square_pair_split(pairs, T5)
        stages = [(s.kind, s.verified) for s in
                  rank9_lower_cert(f, 8, pairs, facts)[1].stages][:4]
        vanish = not any(any(v) for vs in per_call_contractions(f, perp, perp) for v in vs)
        expected = [("shape", True), ("slice-dimension", True), ("perp-squares", vanish)]
        if vanish:
            expected.append(("square-confinement", squares_confined(f, perp, comp)))
        assert stages == expected
        outcomes.add(tuple(expected))
    assert len(outcomes) >= 2
