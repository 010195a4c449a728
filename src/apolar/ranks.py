"""Certified rank bookkeeping.

Bounds for the four notions (border, smoothable, cactus, rank) are kept with
their provenance and closed under the two inequality chains
border <= smoothable <= rank and cactus <= smoothable <= rank; every notion
is also bounded below by the number of essential variables.  Inconsistent
evidence is an error, since it means some certificate is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .apolarity import FormFacts, HilbertFn, ann_slice, hilbert_function
from .poly import Poly

NOTIONS = ("border", "smoothable", "cactus", "rank")


class InconsistentEvidenceError(ValueError):
    """Certified bounds contradict each other — some certificate is buggy."""


@dataclass(frozen=True)
class Deduction:
    """One certified fact: a bound for one notion (or all four).

    `basis` distinguishes machine-verified computations from cited literature
    rules applied to verified hypotheses.
    """

    notion: str  # one of NOTIONS or "all"
    side: str  # "lower" | "upper" | "exact"
    value: int
    rule: str
    detail: str = ""
    basis: str = "computed"  # "computed" | "cited"

    def __post_init__(self):
        if self.notion not in NOTIONS + ("all",):
            raise ValueError(f"unknown notion {self.notion!r}")
        if self.side not in ("lower", "upper", "exact"):
            raise ValueError(f"unknown side {self.side!r}")


@dataclass(frozen=True)
class EvidenceRecord:
    """One certificate, or one stage of a certificate: its kind, whether it
    verified, a stage-by-stage log, whether it was computed or cites a
    literature rule over verified hypotheses, the bounds it certifies and,
    for a certificate checked in stages, the record of each stage run."""

    kind: str
    verified: bool
    stage_log: tuple
    basis: str = "computed"  # "computed" | "cited"
    bounds: tuple = ()  # Deductions, certified only when verified
    stages: tuple = ()  # EvidenceRecord per stage, up to the first that failed

    def certified(self) -> tuple:
        return self.bounds if self.verified else ()

    @property
    def failed_stage(self) -> Optional[str]:
        """The kind of the first unverified stage, or None."""
        return next((s.kind for s in self.stages if not s.verified), None)


@dataclass
class RankReport:
    """Tightest consistent bounds per notion, with full provenance."""

    lows: dict
    ups: dict
    provenance: tuple

    def lower(self, notion: str) -> int:
        return self.lows[notion]

    def upper(self, notion: str) -> Optional[int]:
        return self.ups[notion]

    def value(self, notion: str) -> Optional[int]:
        u = self.ups[notion]
        return u if u is not None and u == self.lows[notion] else None

    def as_dict(self) -> dict:
        out = {}
        for n in NOTIONS:
            out[n] = {
                "lower": self.lows[n],
                "upper": self.ups[n],
                "exact": self.value(n),
            }
        return out


def _min_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _aggregate_deductions(deductions: Sequence[Deduction]) -> RankReport:
    lows = {n: 0 for n in NOTIONS}
    ups = {n: None for n in NOTIONS}
    for ded in deductions:
        targets = NOTIONS if ded.notion == "all" else (ded.notion,)
        for n in targets:
            if ded.side in ("lower", "exact"):
                lows[n] = max(lows[n], ded.value)
            if ded.side in ("upper", "exact"):
                ups[n] = _min_opt(ups[n], ded.value)
    # close under border <= smoothable <= rank and cactus <= smoothable <= rank
    lows["smoothable"] = max(lows["smoothable"], lows["border"], lows["cactus"])
    lows["rank"] = max(lows["rank"], lows["smoothable"])
    ups["smoothable"] = _min_opt(ups["smoothable"], ups["rank"])
    ups["border"] = _min_opt(ups["border"], ups["smoothable"])
    ups["cactus"] = _min_opt(ups["cactus"], ups["smoothable"])
    for n in NOTIONS:
        if ups[n] is not None and lows[n] > ups[n]:
            raise InconsistentEvidenceError(
                f"{n}: certified lower bound {lows[n]} exceeds upper bound {ups[n]}"
            )
    return RankReport(lows=lows, ups=ups, provenance=tuple(deductions))


def conciseness_deduction(dim: int) -> Deduction:
    return Deduction(
        notion="all",
        side="lower",
        value=dim,
        rule="conciseness",
        detail="every notion is at least the number of essential variables",
    )


def aggregate(f: Poly, evidence: Sequence[Deduction],
              facts: Optional[FormFacts] = None) -> RankReport:
    """Close the given evidence under the inequality chains; the conciseness
    lower bound is always injected, read from facts (f's) when given."""
    dim = (facts or FormFacts(f)).essential.dim
    return _aggregate_deductions([conciseness_deduction(dim)] + list(evidence))


def catalecticant_lower_bound(f: Poly) -> int:
    """max_i H_f(i); a lower bound for all four notions."""
    return hilbert_function(f).max()


def catalecticant_deduction(h: HilbertFn) -> Deduction:
    """The catalecticant bound max_i H(i), from the Hilbert function h."""
    return Deduction(
        notion="all",
        side="lower",
        value=h.max(),
        rule="catalecticant",
        detail=f"hilbert function {tuple(h.values)}",
    )


def quadric_rank(f: Poly) -> int:
    """All four notions coincide for quadrics; the common value is H_f(1)."""
    if f.homogeneous_degree() != 2:
        raise ValueError("quadric_rank expects a homogeneous quadric")
    return hilbert_function(f)(1)


def _square_free(u: list) -> bool:
    """Whether the univariate polynomial with ascending coefficients u (ints
    or Fractions, degree m = len(u) - 1 >= 2) has no repeated root over the
    algebraic closure, i.e. shares no root with its derivative u'.  In
    characteristic zero u' has degree m - 1, so the Sylvester matrix of u and
    u' has size 2m - 1, and it is nonsingular exactly when gcd(u, u') is
    constant."""
    m = len(u) - 1
    du = [k * c for k, c in enumerate(u)][1:]
    size = 2 * m - 1
    rows = [[0] * s + p + [0] * (size - s - len(p))
            for p, shifts in ((u, m - 1), (du, m)) for s in range(shifts)]
    return linalg.rank(rows) == size


def _binary_square_free(g: Poly) -> bool:
    """Square-freeness of a nonzero binary form over the algebraic closure.
    Its roots are those of its coefficient list u, ascending in the first
    variable, plus a root at infinity of multiplicity the power of the
    second variable that divides g; so g is square-free when that power is
    at most 1 and u has degree at most 1 or passes `_square_free`."""
    d = g.homogeneous_degree()
    u = [g.coeff((k, d - k)) for k in range(d + 1)]
    while not u[-1]:
        u.pop()
    if d - (len(u) - 1) > 1:
        return False  # the second variable divides at least twice
    return len(u) - 1 <= 1 or _square_free(u)


@dataclass(frozen=True)
class SylvesterResult:
    d1: int
    d2: int
    border: int
    rank: int
    evidence: tuple  # the four exact-value Deductions


def sylvester_binary(f: Poly, facts: Optional[FormFacts] = None) -> SylvesterResult:
    """Exact ranks of a form in at most two essential variables.

    The annihilator of a binary form is a complete intersection in degrees
    d1 <= d2 with d1 + d2 = d + 2; cactus, smoothable and border rank all
    equal d1, and the rank is d1 exactly when the degree-d1 slice contains a
    square-free form, else d2.  The result carries these four exact values
    as Deductions, for the caller to aggregate.  `facts`, when given, must be
    f's or those of a form whose essential form f is.
    """
    d = f.homogeneous_degree()
    if d is None or f.is_zero():
        raise ValueError("sylvester_binary expects a homogeneous nonzero polynomial")
    facts = facts or FormFacts(f)
    es = facts.essential
    if es.dim > 2:
        raise ValueError(f"not essentially binary: {es.dim} essential variables")
    if es.dim == 1:
        d1, d2, rank_val = 1, d + 1, 1
    else:
        # dim Ann(g)_i = (i + 1) - H(i) for a concise binary form g, so the
        # first nonzero slice is the first degree where H(i) <= i
        d1 = next(i for i in range(1, d + 1) if facts.hilbert(i) <= i)
        sl = facts.slice2 if d1 == 2 else ann_slice(facts.form, d1)
        d2 = d + 2 - d1
        if sl.dim == 1:
            rank_val = d1 if _binary_square_free(sl.basis[0]) else d2
        else:
            # d1 == d2: scan the pencil; a binary form pencil with no
            # square-free member has an identically vanishing discriminant,
            # which 2*d1 - 1 samples refute or confirm
            members = [sl.basis[1]] + [
                sl.basis[0] + t * sl.basis[1] for t in range(2 * d1 - 1)
            ]
            rank_val = d1 if any(_binary_square_free(m) for m in members) else d2
    evidence = (
        Deduction("border", "exact", d1, rule="binary-kernel",
                  detail=f"complete intersection degrees d1={d1}, d2={d2}"),
        Deduction("smoothable", "exact", d1, rule="binary-kernel"),
        Deduction("cactus", "exact", d1, rule="binary-kernel"),
        Deduction("rank", "exact", rank_val, rule="binary-square-free",
                  detail="square-free slice member" if rank_val == d1 else "no square-free member in first slice"),
    )
    return SylvesterResult(d1=d1, d2=d2, border=d1, rank=rank_val, evidence=evidence)


def tameness_rule(report: RankReport, d: int) -> RankReport:
    """If the certified border-rank upper bound is at most d+1, smoothable
    rank equals border rank; copy the border bounds across."""
    b_up = report.upper("border")
    if b_up is None or b_up > d + 1:
        return report
    return _aggregate_deductions(report.provenance + (
        Deduction("smoothable", "upper", b_up, rule="tameness",
                  detail=f"border rank <= {d + 1}", basis="cited"),
        Deduction("smoothable", "lower", report.lower("border"),
                  rule="tameness", basis="cited"),
    ))
