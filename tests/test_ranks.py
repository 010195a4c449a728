import random
from fractions import Fraction

import pytest

from apolar.apolarity import FormFacts, hilbert_function
from apolar.parsing import parse_poly
from apolar.poly import PRIMAL, Poly, VarTable
from apolar.ranks import (
    Deduction,
    EvidenceRecord,
    InconsistentEvidenceError,
    _binary_square_free,
    aggregate,
    sylvester_binary,
)
from apolar.wildcert import classical_report, wild_cubic, wild_table

from _oracle import naive_poly_gcd, random_poly

T5 = wild_table()
F = wild_cubic(T5)
FACTS = FormFacts(F)
T2 = VarTable.make(("x", "y"))


def test_catalecticant_lower_bound_values():
    assert hilbert_function(F).max() == 5
    assert hilbert_function(parse_poly("x^3", table=T2)).max() == 1
    assert hilbert_function(parse_poly("x0^3 + x1^3 + x2^3")).max() == 3


def _quadric_rank(q):
    return classical_report(q)[1].value("rank")


def test_quadric_rank_values():
    assert _quadric_rank(parse_poly("x0*x1")) == 2
    assert _quadric_rank(parse_poly("x0^2 + x1^2 + x2^2 + x3^2 + x4^2")) == 5
    assert _quadric_rank(parse_poly("x0^2 + x0*x1")) == 2


def test_quadric_rank_equals_first_hilbert_value():
    rng = random.Random(12)
    table = VarTable.make(("a", "b", "c", "d"))
    checked = 0
    while checked < 50:
        f = random_poly(rng, table, PRIMAL, 2)
        if f.is_zero():
            continue
        assert _quadric_rank(f) == hilbert_function(f)(1)
        checked += 1


def test_sylvester_monomial_with_double_root():
    facts = FormFacts(parse_poly("x^2*y", table=T2))
    res = sylvester_binary(facts)
    assert (res.d1, res.d2, res.rank) == (2, 3, 3)
    rep = aggregate(facts, res.evidence)
    assert rep.value("border") == 2
    assert rep.value("smoothable") == 2
    assert rep.value("cactus") == 2
    assert rep.value("rank") == 3


def test_sylvester_fermat_binary():
    res = sylvester_binary(FormFacts(parse_poly("x^3 + y^3", table=T2)))
    assert (res.d1, res.d2, res.rank) == (2, 3, 2)


def test_sylvester_pure_powers():
    for d in range(1, 7):
        res = sylvester_binary(FormFacts(parse_poly(f"x^{d}", table=T2)))
        assert res.d1 == res.rank == 1
        assert res.d1 + res.d2 == d + 2


def test_sylvester_balanced_quadric():
    res = sylvester_binary(FormFacts(parse_poly("x*y", table=T2)))
    assert (res.d1, res.d2, res.rank) == (2, 2, 2)


def test_sylvester_embedded_input():
    res = sylvester_binary(FormFacts(parse_poly("x0^2*y0", vars=["x0", "y0", "z", "w"])))
    assert (res.d1, res.rank) == (2, 3)
    with pytest.raises(ValueError):
        sylvester_binary(FACTS)


def test_sylvester_random_binary_forms():
    rng = random.Random(65537)
    checked = 0
    while checked < 200:
        d = rng.randint(1, 6)
        f = random_poly(rng, T2, PRIMAL, d, max_terms=d + 1)
        if f.is_zero():
            continue
        res = sylvester_binary(FormFacts(f))
        assert res.d1 + res.d2 == d + 2
        assert res.d1 <= res.d2
        assert res.d1 == hilbert_function(f).max()
        assert res.rank in (res.d1, res.d2)
        checked += 1


@pytest.mark.parametrize("text, d1, d2, rank", [
    ("x^2*y", 2, 3, 3),
    ("x^3+y^3", 2, 3, 2),
    ("x^4-2*x^2*y^2+y^4", 3, 3, 3),  # d1 == d2: the pencil is scanned
    ("(x+y)^2*(x-2*y)^3", 3, 4, 4),
])
def test_sylvester_named_binary_forms(text, d1, d2, rank):
    res = sylvester_binary(FormFacts(parse_poly(text, table=T2)))
    assert (res.d1, res.d2, res.rank) == (d1, d2, rank)


def gcd_rule_square_free(u):
    """A binary form with coefficients u, ascending in x over x^k*y^(d-k), is
    square-free when y^2 does not divide it and its trimmed list has a
    constant gcd with its derivative."""
    top = len(u)
    while not u[top - 1]:
        top -= 1
    trimmed = u[:top]
    derivative = [k * c for k, c in enumerate(trimmed)][1:]
    return len(u) - top <= 1 and len(naive_poly_gcd(trimmed, derivative)) == 1


def times_linear(u, a, b):
    """The coefficient list of (a*x + b*y) times the binary form with list u."""
    return [b * (u[k] if k < len(u) else 0) + a * (u[k - 1] if k else 0)
            for k in range(len(u) + 1)]


def binary_coefficient_lists(count, seed=1729):
    """Coefficient lists of nonzero binary forms of degree 1 to 7, ascending
    in x: half of them products of seeded linear factors, with repeats, and
    y and x among the factors; the others random, with Fraction coefficients
    and zeros; then pure powers and forms times y^2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count // 2:
        pool = [(0, 1), (1, 0)] + [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        pool = [p for p in pool if p != (0, 0)]
        u = [1]
        for _ in range(rng.randint(1, 7)):
            u = times_linear(u, *rng.choice(pool))
        out.append(u)
    while len(out) < count:
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else 0
             for _ in range(rng.randint(2, 8))]
        if any(u):
            out.append(u)
    for d in range(1, 8):
        for a, b in ((1, 0), (0, 1), (1, 1), (2, -3), (Fraction(1, 2), 5)):
            u = [1]
            for _ in range(d):
                u = times_linear(u, a, b)
            out.append(u)
        for _ in range(5):
            u = [rng.randint(-2, 2) for _ in range(d - 2)] + [1]
            out.append(times_linear(times_linear(u, 0, 1), 0, 1))  # y^2 divides
    return out


def test_binary_square_free_equals_the_gcd_rule():
    lists = binary_coefficient_lists(2000)
    seen = {"y^2": 0, "degree 1": 0, "square-free": 0, "repeated root": 0}
    for u in lists:
        d = len(u) - 1
        g = Poly(T2, PRIMAL, {(k, d - k): c for k, c in enumerate(u) if c})
        want = gcd_rule_square_free(u)
        assert _binary_square_free(g) == want, u
        seen["y^2"] += not u[-1] and not u[-2]
        seen["degree 1"] += d == 1
        seen["square-free" if want else "repeated root"] += 1
    assert len(lists) >= 2000
    assert min(seen.values()) >= 100, seen


def _wild_evidence():
    return [
        Deduction("all", "lower", 5, rule="catalecticant"),
        Deduction("border", "upper", 5, rule="limit-family"),
        Deduction("cactus", "lower", 6, rule="slice-saturation"),
        Deduction("cactus", "upper", 6, rule="double-point-span"),
        Deduction("smoothable", "upper", 6, rule="curvilinear-smoothable", basis="cited"),
        Deduction("rank", "lower", 9, rule="counting-certificate"),
        Deduction("rank", "upper", 9, rule="power-sum"),
    ]


def test_aggregate_wild_values():
    rep = aggregate(FACTS, _wild_evidence())
    assert rep.value("border") == 5
    assert rep.value("cactus") == 6
    assert rep.value("smoothable") == 6
    assert rep.value("rank") == 9


def test_aggregate_order_independent_and_idempotent():
    ev = _wild_evidence()
    base = aggregate(FACTS, ev)
    rng = random.Random(3)
    for _ in range(10):
        shuffled = ev[:]
        rng.shuffle(shuffled)
        rep = aggregate(FACTS, shuffled)
        assert rep.lows == base.lows and rep.ups == base.ups
    again = aggregate(FACTS, list(base.provenance)[1:])  # conciseness re-injected
    assert again.lows == base.lows and again.ups == base.ups


def test_aggregate_rejects_contradiction():
    g = parse_poly("x0^3 + x1^3 + x2^3")
    with pytest.raises(InconsistentEvidenceError):
        aggregate(FormFacts(g), [Deduction("rank", "upper", 2, rule="bogus")])


def test_chain_closure():
    rep = aggregate(FACTS, [
        Deduction("cactus", "lower", 6, rule="slice-saturation"),
        Deduction("rank", "upper", 9, rule="power-sum"),
    ])
    assert rep.lower("smoothable") == 6
    assert rep.lower("rank") == 6
    assert rep.upper("smoothable") == 9
    assert rep.upper("border") == 9


def test_tameness_rule_fires_for_low_border():
    g = parse_poly("x0^3 + x1^3 + x2^3")
    fired = aggregate(FormFacts(g), [Deduction("border", "upper", 3, rule="limit-family")])
    assert fired.upper("smoothable") == 3
    assert [(d.side, d.value, d.detail, d.basis) for d in fired.provenance if d.rule == "tameness"] == [
        ("upper", 3, "border rank <= 4", "cited"), ("lower", 3, "", "cited")]


def test_tameness_rule_does_not_fire_for_wild():
    rep = aggregate(FACTS, _wild_evidence())
    assert rep.value("smoothable") == 6
    assert not any(d.rule == "tameness" for d in rep.provenance)


def test_tameness_rule_degree_two():
    q = parse_poly("x0*x1 + x2^2")
    fired = aggregate(FormFacts(q), [Deduction("border", "upper", 3, rule="quadric-conciseness")])
    assert fired.upper("smoothable") == 3


def test_records_that_differ_only_in_their_witness_are_equal():
    # the direct-sum command finds the pipeline's record among its own by
    # equality, so a witness must not tell two records apart
    a = EvidenceRecord("k", True, ("log",), witness=(1, 2))
    b = EvidenceRecord("k", True, ("log",), witness=None)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "witness" not in repr(a)
    assert a != EvidenceRecord("k", False, ("log",), witness=(1, 2))
