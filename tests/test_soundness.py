"""Planted-decomposition soundness sweep.

Each form is built from a known decomposition, which bounds every rank
notion from above: r cubes give at most r for every notion, and a tangent
term l^2*m adds at most 2 to border, smoothable and cactus rank and at most
3 to the rank.  A certified lower bound above that planted bound is an
unsound certificate, which `InconsistentEvidenceError` catches only where
some certificate also supplies a matching upper bound.
"""

import random
from collections import Counter

from apolar import VarTable, linear_form, theorem2_report
from apolar.ranks import NOTIONS

FORMS = 400


def planted_form(rng):
    """(f, r, k): f the sum of r cubes and k tangent terms l^2*m of linear
    forms with entries in -2..2, in 3 to 5 variables.

    Half the draws are dense cubes, tangent terms or both.  The other half
    keep the squared forms on the first `split` variables and give each
    tangent term its own coordinate of the rest as its line, the
    squares-times-lines shape that the square-pair and counting stages read.
    """
    n = rng.randint(3, 5)
    table = VarTable.make([f"v{i}" for i in range(n)])
    if rng.random() < 0.5:
        split = n
        r, k = rng.choice(((rng.randint(1, 9), 0), (0, rng.randint(1, 4)),
                           (rng.randint(1, 9), rng.randint(1, 4))))
    else:
        split = rng.randint(1, n - 1)
        r, k = 0, rng.randint(1, n - split)

    def linear(variables):
        while True:
            a = [rng.randint(-2, 2) if i in variables else 0 for i in range(n)]
            if any(a):
                return linear_form(table, a)

    f = linear_form(table, [0] * n)
    for _ in range(r):
        f = f + rng.choice((1, -1, 2)) * linear(range(split)) ** 3
    for j in range(k):
        line = linear(range(n)) if split == n else linear({split + j})
        f = f + rng.choice((1, -1, 2)) * linear(range(split)) ** 2 * line
    return f, r, k


def test_no_certified_lower_bound_exceeds_a_planted_decomposition():
    rng = random.Random(2026)
    kinds, checked = Counter(), 0
    while checked < FORMS:
        f, r, k = planted_form(rng)
        if f.is_zero():
            continue
        checked += 1
        rep = theorem2_report(f)
        for notion in NOTIONS:
            planted = r + 3 * k if notion == "rank" else r + 2 * k
            assert rep.report.lower(notion) <= planted, (str(f), notion, rep.final())
        kinds.update(c.kind for c in rep.certificates if c.verified)
    # every stage after the classical one certified something somewhere
    assert {"direct-sum-slice-intersection", "border-limit-family", "double-point-span",
            "power-sum-decomposition", "cactus-slice-saturation",
            "rank-lower-counting"} <= set(kinds)
