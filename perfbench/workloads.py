"""Seeded inputs, operations and output checks for each workload.

Every input is generated here, before the timed loop, from the seed alone;
the library only ever sees the generated inputs.  An operation is one call
into apolar; its check returns None when the output is right and a short
reason otherwise.  Functions are looked up on their module at call time, so
the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Optional

from apolar import apolarity, cli, wildcert
from apolar.poly import PRIMAL, Poly, VarTable, linear_form

WILD_VARS = ("x0", "x1", "y0", "y1", "y2")
WILD_TEMPLATE = "{x0}^2*{y0} - ({x0}+{x1})^2*{y1} + {x1}^2*{y2}"
PAIRS_TEMPLATE = "{x0},{y0};{x0}+{x1},-{y1};{x1},{y2}"
WILD = WILD_TEMPLATE.format(**{v: v for v in WILD_VARS})
EXPECTED = {"border": 5, "smoothable": 6, "cactus": 6, "rank": 9}
POWER_SIZES = ((5, 4), (6, 5), (8, 4))  # (variables, degree)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    describe: Optional[Callable[[object], dict]] = None


@dataclass
class Workload:
    name: str
    ops: list
    max_ops: Optional[int] = None
    warmup: bool = True  # run one untimed operation first
    meta: dict = field(default_factory=dict)  # written to the run record


# -- exact helpers the checks use, independent of the library ------------------


def exact_rank(rows) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, len(m)):
            a = m[i][col]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], m[rank])]
        prev = p
        rank += 1
    return rank


def exponents(n: int, d: int):
    """All exponent tuples of n variables with total degree d."""
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in exponents(n - 1, d - e):
            yield (e,) + rest


def power_sum(coeffs_list, d: int) -> dict:
    """Integer coefficients of sum(l^d) for the linear forms given by coeffs."""
    n = len(coeffs_list[0])
    out = {}
    for mono in exponents(n, d):
        multinom = factorial(d)
        for e in mono:
            multinom //= factorial(e)
        total = 0
        for a in coeffs_list:
            term = multinom
            for ai, e in zip(a, mono):
                term *= ai ** e
            total += term
        if total:
            out[mono] = total
    return out


def naive_hilbert(coeffs: dict, n: int, d: int) -> tuple:
    """Catalecticant ranks from the coefficients: entry (a, b) is c[a+b]*(a+b)!,
    which differs from the derivative matrix by row scalings only."""
    def scaled(mono):
        c = coeffs.get(mono, 0)
        for e in mono:
            c *= factorial(e)
        return c

    half = []
    for i in range(d // 2 + 1):
        rows = [[scaled(tuple(x + y for x, y in zip(a, b))) for b in exponents(n, d - i)]
                for a in exponents(n, i)]
        half.append(exact_rank(rows))
    return tuple(half[min(i, d - i)] for i in range(d + 1))


# -- wild and gl5 -------------------------------------------------------------


def _report_check(rep) -> Optional[str]:
    if rep.final() != EXPECTED:
        return f"final {rep.final()}"
    failed = [c.kind for c in rep.certificates if not c.verified]
    return f"unverified {failed}" if failed else None


def _report_describe(rep) -> dict:
    return {"final": rep.final(),
            "failed_certificates": [c.kind for c in rep.certificates if not c.verified]}


def _signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def wild(seed: int, quick: bool) -> Workload:
    """The wild cubic under seeded signed permutations of its five variables:
    sparse, +-1 coordinates, a different input on every operation."""
    rng = random.Random(seed)
    table = wildcert.wild_table()
    pres = wildcert.wild_presentation(table)
    ops = []
    for _ in range(2 if quick else 160):
        perm, signs = _signed_permutation(rng, 5)
        images = [linear_form(table, [s if j == p else 0 for j in range(5)])
                  for p, s in zip(perm, signs)]
        poly = wildcert.transform_presentation(pres, images).poly
        ops.append(Op("theorem2", lambda f=poly: wildcert.theorem2_report(f), _report_check))
    return Workload("wild", ops)


def gl5_matrices(seed: int, count: int):
    """Invertible 5x5 integer matrices, entries in -3..3, singular draws rejected."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if exact_rank(m) == 5:
            out.append(m)
    return out


def gl5(seed: int, quick: bool) -> Workload:
    """The wild presentation in dense GL5 coordinates."""
    table = wildcert.wild_table()
    pres = wildcert.wild_presentation(table)
    ops = []
    mats = gl5_matrices(seed, 1 if quick else 24)
    for m in mats:
        moved = wildcert.transform_presentation(pres, [linear_form(table, row) for row in m])
        ops.append(Op("theorem2", lambda p=moved: wildcert.theorem2_report(p),
                      _report_check, _report_describe))
    return Workload("gl5", ops, max_ops=len(ops), warmup=False,
                    meta={"matrices": mats})


# -- powers -------------------------------------------------------------------


def _powers_check(out, h: tuple, dim: int) -> Optional[str]:
    hilbert, slice_ = out
    if hilbert.values != h:
        return f"H {hilbert.values} != {h}"
    return None if slice_.dim == dim else f"slice dimension {slice_.dim} != {dim}"


def powers(seed: int, quick: bool) -> Workload:
    """Sums of n+1 random d-th powers of linear forms, dense coefficients.
    One operation is hilbert_function(f) and ann_slice(f, d//2) on one form."""
    rng = random.Random(seed)
    ops = []
    for _ in range(1 if quick else 40):
        for n, d in POWER_SIZES:
            forms = []
            while len(forms) < n + 1:
                a = [rng.randint(-3, 3) for _ in range(n)]
                if any(a):
                    forms.append(a)
            coeffs = power_sum(forms, d)
            table = VarTable.make(tuple(f"x{i}" for i in range(n)))
            f = Poly(table, PRIMAL, coeffs)
            h = naive_hilbert(coeffs, n, d)
            i = d // 2
            dim = comb(n + i - 1, i) - h[i]
            ops.append(Op(f"powers{n}x{d}",
                          lambda f=f, i=i: (apolarity.hilbert_function(f), apolarity.ann_slice(f, i)),
                          lambda out, h=h, dim=dim: _powers_check(out, h, dim)))
    return Workload("powers", ops)


# -- cli ----------------------------------------------------------------------


def _random_form(rng: random.Random, names, degree: int, terms: int) -> str:
    """Sum of distinct monomials with nonzero coefficients, as CLI text."""
    text = ""
    for mono in rng.sample(list(exponents(len(names), degree)), terms):
        c = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        factors = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e)
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += f"{sign}{abs(c)}*{factors}"
    return text


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(extra=None):
    def check(out) -> Optional[str]:
        code, text, err = out
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        doc = json.loads(text)
        return extra(doc["results"]) if extra else None
    return check


def _palindrome(results) -> Optional[str]:
    h = results["hilbert"]
    return None if h == h[::-1] else f"H {h} not symmetric"


def _sane_final(results) -> Optional[str]:
    for notion, value in results["final"].items():
        if isinstance(value, list) and value[1] is not None and value[0] > value[1]:
            return f"{notion} bounds {value} cross"
    return None


def cli_requests(rng: random.Random) -> list:
    """One round of the light request mix, (argv, extra check) pairs."""
    xyz = ("x", "y", "z")
    perm, signs = _signed_permutation(rng, 5)
    names = {v: (WILD_VARS[p] if s > 0 else f"(-{WILD_VARS[p]})")
             for v, p, s in zip(WILD_VARS, perm, signs)}
    wild_text = WILD_TEMPLATE.format(**names)
    pairs = PAIRS_TEMPLATE.format(**names)
    wvars = ",".join(WILD_VARS)
    return [
        (["hilbert", "--poly", _random_form(rng, xyz, 3, 4)], _palindrome),
        (["annihilator", "--poly", _random_form(rng, xyz, 3, 4), "--degree", "2"], None),
        (["catalecticant", "--poly", _random_form(rng, xyz, 3, 4), "--degree", "1"], None),
        (["concise", "--poly", _random_form(rng, xyz, 3, 3), "--vars", "x,y,z,w"], None),
        (["macaulay", "--dim", str(rng.randint(1, 20)), "--degree", str(rng.randint(1, 5))], None),
        (["sylvester", "--poly", _random_form(rng, ("x", "y"), rng.randint(3, 5), 3)], None),
        (["rank-bounds", "--poly", _random_form(rng, xyz, 3, 4)], None),
        (["witness-verify", "--poly", wild_text, "--vars", wvars],
         lambda r: None if r["border_upper"] == 5 else f"border_upper {r['border_upper']}"),
        (["double-points", "--poly", wild_text, "--vars", wvars, "--pairs", pairs],
         lambda r: None if r["cactus_upper"] == 6 else f"cactus_upper {r['cactus_upper']}"),
        (["theorem2", "--poly", _random_form(rng, ("x", "y"), 3, 2)], _sane_final),
        (["theorem2", "--poly", _random_form(rng, xyz, 2, 4)], _sane_final),
    ]


def cli_workload(seed: int, quick: bool) -> Workload:
    """In-process CLI calls on small forms: argparse, parsing and JSON weigh in."""
    rng = random.Random(seed)
    ops = []
    for _ in range(1 if quick else 400):
        for argv, extra in cli_requests(rng):
            ops.append(Op(argv[0], lambda a=argv: _run_cli(a), _cli_check(extra)))
    return Workload("cli", ops)


BUILDERS = {"wild": wild, "gl5": gl5, "powers": powers, "cli": cli_workload}
