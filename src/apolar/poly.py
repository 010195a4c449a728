"""Sparse multivariate polynomials over exact rationals.

Polynomials are immutable values over a fixed variable table.  A table pairs
every primal variable with a dual variable; a polynomial is tagged with the
ring it lives in (PRIMAL or DUAL).  Coefficients are `fractions.Fraction`, so
all arithmetic is exact.  The canonical term order used everywhere (printing,
coefficient vectors, matrix columns) is graded lexicographic: higher total
degree first, then lexicographically by exponent tuple, descending.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add, attrgetter
from typing import Mapping, Sequence

PRIMAL = "primal"
DUAL = "dual"

Monomial = tuple  # exponent tuple, one entry per table variable
_ZERO = Fraction(0)  # Fractions are immutable, so one zero serves every vector


class TableMismatchError(ValueError):
    """Raised when operands live over different variable tables or rings."""


class _Record:
    """Base of the immutable value records.

    A subclass lists its fields in `__slots__` and hands their values, in
    that order, to `_init` from its own `__init__`, which checks them first.
    Equality, hashing and repr read the fields named in `_fields`, so a
    field left out of it (a witness, say) takes no part in them.  A copy or
    an unpickled record is rebuilt through the constructor from the
    arguments `__reduce__` returns, every slot by default, and `replace`
    changes some of those same arguments, so the checks run again on both.
    `_of` builds a record from values its caller already made valid,
    skipping those checks.  Both fill the slots through `_init`, which calls
    the slot descriptors' `__set__` methods that each class keeps in
    `_setters`, read once when the class is made.  `Poly` is a record too,
    whose cache slots come after its fields and are neither compared nor
    rebuilt.  The mutable reports (`ranks.RankReport`,
    `wildcert.WildReport`) share only its `__repr__`.
    """

    __slots__ = ()

    def _init(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _of(cls, *values):
        """A record over the values of its slots, in order, unchecked."""
        record = object.__new__(cls)
        record._init(*values)
        return record

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # the compared fields, read in one call
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**dict(zip(self.__slots__, self.__reduce__()[1])) | changes)


class VarTable(_Record):
    """Ordered primal variable names paired with their dual names, kept as
    tuples whatever sequences they are given as."""

    __slots__ = _fields = ("primal", "dual")

    def __init__(self, primal, dual):
        primal, dual = tuple(primal), tuple(dual)
        if len(primal) != len(dual):
            raise ValueError("primal and dual name lists differ in length")
        names = primal + dual
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique across both rings")
        self._init(primal, dual)

    @staticmethod
    def make(primal, dual=None) -> "VarTable":
        primal = tuple(primal)
        if dual is None:
            dual = ["d_" + v for v in primal]
        return VarTable(primal, dual)

    @property
    def n(self) -> int:
        return len(self.primal)

    def names(self, ring: str) -> tuple:
        return self.primal if ring == PRIMAL else self.dual

    def index(self, name: str, ring: str) -> int:
        return self.names(ring).index(name)


_MONOMIALS: dict = {}  # (nvars, degree) -> tuple of exponent tuples, canonical order
_INDEX: dict = {}  # (nvars, degree) -> {exponent tuple: position in that tuple}
_MULTINOMIALS: dict = {}  # (nvars, degree) -> ((exponent tuple, multinomial coefficient), ...)


def monomials(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, descending lex order.

    The tuple is built once per (nvars, degree) and shared by every caller.
    """
    table = _MONOMIALS.get((nvars, degree))
    if table is None:
        if degree < 0:
            table = ()
        elif nvars == 0:
            table = ((),) if degree == 0 else ()
        elif nvars == 1:
            table = ((degree,),)
        else:
            table = tuple((e,) + rest for e in range(degree, -1, -1)
                          for rest in monomials(nvars - 1, degree - e))
        _MONOMIALS[(nvars, degree)] = table
    return table


def _monomial_index(nvars: int, degree: int) -> dict:
    """Position of each exponent tuple in monomials(nvars, degree)."""
    index = _INDEX.get((nvars, degree))
    if index is None:
        index = {m: k for k, m in enumerate(monomials(nvars, degree))}
        _INDEX[(nvars, degree)] = index
    return index


def _multinomials(nvars: int, degree: int) -> tuple:
    """(e, degree! / prod(e_i!)) for every e in monomials(nvars, degree): the
    terms of (x_1 + ... + x_nvars)^degree, built once per (nvars, degree)."""
    table = _MULTINOMIALS.get((nvars, degree))
    if table is None:
        top = factorial(degree)
        table = []
        for e in monomials(nvars, degree):
            coeff = top
            for ei in e:
                coeff //= factorial(ei)
            table.append((e, coeff))
        table = _MULTINOMIALS[(nvars, degree)] = tuple(table)
    return table


def _cleared(coeffs) -> tuple:
    """(ints, den): den is the least positive integer that makes every
    coefficient an int, and ints are the coefficients times den."""
    coeffs = list(coeffs)
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _power_terms(entries, k: int, width: int) -> dict:
    """(sum of a * x_slot over entries)^k, expanded by the multinomial
    formula, as {exponent tuple of length width: int}.

    `entries` are (slot, int a) pairs with distinct slots.  Everything stays
    in ints; zero sums are included.
    """
    acc = {}
    powers = []  # per entry: [1, a, a^2, ..., a^k]
    for _, a in entries:
        pw = [1]
        for _ in range(k):
            pw.append(pw[-1] * a)
        powers.append(pw)
    for exps, coeff in _multinomials(len(entries), k):
        mono = [0] * width
        for (slot, _), pw, e in zip(entries, powers, exps):
            if e:
                coeff *= pw[e]
                mono[slot] = e
        key = tuple(mono)
        acc[key] = acc.get(key, 0) + coeff
    return acc


def _int_product(a: dict, b: dict) -> dict:
    """Product of two {exponent tuple: coefficient} term maps, zero sums
    included; coefficients are ints or Fractions."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(map(add, m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _require_over(forms, table: VarTable, ring: str) -> None:
    """TableMismatchError unless every form lives over (table, ring)."""
    for g in forms:
        if g.table != table or g.ring != ring:
            raise TableMismatchError(f"{g} lives over another table or ring")


def _linear_entries(l: "Poly", table: VarTable, ring: str) -> tuple:
    """(entries, den) for a linear form over (table, ring): den clears its
    coefficients and entries is the tuple of (slot, int) pairs of den * l.

    The pair is worked out once per Poly and kept in its private `_linear`
    slot; the table and ring are checked on every call, and a form that is
    not linear raises ValueError on every call, since nothing is kept for
    it.
    """
    _require_over((l,), table, ring)
    try:
        return l._linear
    except AttributeError:  # first call: the slot is still empty
        pass
    if l.terms and l.homogeneous_degree() != 1:
        raise ValueError(f"{l} is not a linear form")
    ints, den = _cleared(l.terms.values())
    linear = tuple((m.index(1), a) for m, a in zip(l.terms, ints)), den
    object.__setattr__(l, "_linear", linear)
    return linear


def expand_products(table: VarTable, ring: str, summands) -> "Poly":
    """sum(w * prod(l ** k for l, k in factors) for w, factors in summands),
    each l a linear form over (table, ring), zero allowed.

    The sum is taken in integers over one common denominator: each form's
    cleared entries come from `_linear_entries`, which works them out once
    per Poly, each (form, k) power is expanded once by the multinomial
    formula, and one Fraction is built per output term.  Raises ValueError
    on a factor that is not linear and TableMismatchError on one over
    another table or ring.
    """
    n = table.n
    # (id(form), k) -> (int terms of (den * form) ** k, den ** k, form); holding
    # the form keeps its id unique
    powers = {}
    parts = []  # (weight numerator, int terms, denominator)
    for w, factors in summands:
        w = _as_fraction(w)
        if not w:
            continue
        terms, den = None, w.denominator
        for l, k in factors:
            power = powers.get((id(l), k))
            if power is None:
                entries, den_l = _linear_entries(l, table, ring)
                power = powers[id(l), k] = (_power_terms(entries, k, n), den_l ** k, l)
            terms = power[0] if terms is None else _int_product(terms, power[0])
            den *= power[1]
        parts.append((w.numerator, {(0,) * n: 1} if terms is None else terms, den))
    common = lcm(*[den for _, _, den in parts])
    acc = {}
    for num, terms, den in parts:
        scale = num * (common // den)
        for m, v in terms.items():
            acc[m] = acc.get(m, 0) + scale * v
    return Poly._of(table, ring, {m: Fraction(v, common) for m, v in acc.items() if v})


def monomial_count(nvars: int, degree: int) -> int:
    from math import comb

    return comb(nvars + degree - 1, degree)


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


class Poly(_Record):
    """Immutable sparse polynomial over a variable table.

    `terms` maps exponent tuples to nonzero Fraction coefficients.  Zero
    coefficients are never stored, so equality of term maps is equality of
    polynomials.  `Poly(...)` checks and converts outside input; the
    inherited `Poly._of(table, ring, terms)` takes a term dict that is
    already canonical (Fraction coefficients, all nonzero, exponent tuples
    of the table's length) and neither checks nor copies it, so results of
    Poly arithmetic come through `_of`.  `homogeneous_degree()` and, for a
    linear form, its cleared `_linear_entries` are computed once and kept in
    private slots, `_degree` and `_linear`, which equality, hashing and repr
    ignore.  A copy, an unpickled Poly or `replace` goes through the
    constructor, so its terms are checked again and no cache comes along.
    """

    __slots__ = ("table", "ring", "terms", "_degree", "_linear")
    _fields = ("table", "ring", "terms")

    def __init__(self, table: VarTable, ring: str, terms: Mapping):
        if ring not in (PRIMAL, DUAL):
            raise ValueError(f"unknown ring tag {ring!r}")
        clean = {}
        n = table.n
        for mono, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            mono = tuple(mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for {n} variables")
            clean[mono] = coeff
        self._init(table, ring, clean)

    def __reduce__(self):
        return Poly, (self.table, self.ring, self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VarTable, ring: str = PRIMAL) -> "Poly":
        return Poly(table, ring, {})

    @staticmethod
    def constant(table: VarTable, c, ring: str = PRIMAL) -> "Poly":
        return Poly(table, ring, {(0,) * table.n: c})

    @staticmethod
    def variable(table: VarTable, i: int, ring: str = PRIMAL) -> "Poly":
        e = [0] * table.n
        e[i] = 1
        return Poly(table, ring, {tuple(e): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _require_over((other,), self.table, self.ring)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, _ZERO) + c
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Poly._of(self.table, self.ring, terms)

    def __neg__(self) -> "Poly":
        return Poly._of(self.table, self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _require_over((other,), self.table, self.ring)
        return Poly._of(self.table, self.ring,
                        {m: c for m, c in _int_product(self.terms, other.terms).items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return Poly.zero(self.table, self.ring)
        return Poly._of(self.table, self.ring, {m: c * v for m, v in self.terms.items()})

    def times_monomial(self, mono: Monomial) -> "Poly":
        """The product with the monomial `mono` (coefficient 1): exponents
        add, coefficients are reused as they are."""
        mono = tuple(mono)
        if len(mono) != self.table.n or min(mono, default=0) < 0:
            raise ValueError(f"bad exponent tuple {mono} for {self.table.n} variables")
        return Poly._of(self.table, self.ring,
                        {tuple(a + b for a, b in zip(m, mono)): c
                         for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            # one term: exponents times k, coefficient to the k
            (m, c), = self.terms.items()
            return Poly._of(self.table, self.ring, {tuple(e * k for e in m): c ** k})
        if self.terms and all(sum(m) == 1 for m in self.terms):
            # a linear form: one multinomial expansion in integers
            return expand_products(self.table, self.ring, ((1, ((self, k),)),))
        result = Poly.constant(self.table, 1, self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __hash__(self):
        return hash((self.table, self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def homogeneous_degree(self):
        """The common degree of all terms, or None if mixed or zero."""
        try:
            return self._degree
        except AttributeError:  # first call: the slot is still empty
            pass
        degs = {sum(m) for m in self.terms}
        d = degs.pop() if len(degs) == 1 else None
        object.__setattr__(self, "_degree", d)
        return d

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def sorted_terms(self):
        """(monomial, coefficient) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def coefficient_vector(self, degree: int) -> list:
        """Coefficients aligned with monomials(n, degree); terms of any other
        degree are left out."""
        index = _monomial_index(self.table.n, degree)
        vec = [_ZERO] * len(index)
        for mono, c in self.terms.items():
            k = index.get(mono)
            if k is not None:
                vec[k] = c
        return vec

    def support_vars(self) -> set:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # -- substitution --------------------------------------------------------

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Replace variable i by images[i]; images must be homogeneous of
        degree 1 (zero allowed) over a common target table and ring.  The
        result is one `expand_products` sum, one summand per term."""
        if len(images) != self.table.n:
            raise ValueError("one image per variable required")
        target = None
        for img in images:
            if img.is_zero():
                continue
            if img.homogeneous_degree() != 1:
                raise ValueError("substitution images must be linear forms")
            if target is None:
                target = img
            elif img.table != target.table or img.ring != target.ring:
                raise TableMismatchError("images live over different tables")
        if target is None:
            # every image is zero: only the constant term survives, on our own table
            return Poly._of(self.table, self.ring,
                            {m: c for m, c in self.terms.items() if not any(m)})
        return expand_products(
            target.table, target.ring,
            ((c, [(images[i], e) for i, e in enumerate(mono) if e])
             for mono, c in self.terms.items()))

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.table.names(self.ring)
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.ring}: {self})"


def linear_form(table: VarTable, coeffs: Sequence, ring: str = PRIMAL) -> Poly:
    """Sum of coeffs[i] * variable_i, for at most table.n coefficients."""
    n = table.n
    if ring not in (PRIMAL, DUAL):
        raise ValueError(f"unknown ring tag {ring!r}")
    if len(coeffs) > n:
        raise ValueError(f"{len(coeffs)} coefficients for {n} variables")
    return Poly._of(table, ring, {(0,) * i + (1,) + (0,) * (n - 1 - i): _as_fraction(c)
                                  for i, c in enumerate(coeffs) if c})


def linear_coeffs(p: Poly) -> list:
    """Coefficient vector of a linear form (degree <= 1, no constant)."""
    if not p.is_zero() and p.homogeneous_degree() != 1:
        raise ValueError("not a linear form")
    return p.coefficient_vector(1)
