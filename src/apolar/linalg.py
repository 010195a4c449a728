"""Deterministic exact linear algebra over the rationals.

Inputs are rows of ints and Fractions, and everything is computed in
integers: a row of ints is taken as it is, only a row that holds a Fraction
is cleared of denominators, once, and a Fraction is built only for an entry
that is returned (`rank` builds none; since rank(A) = rank(A^T), it
eliminates whichever of the two has fewer rows).  Two eliminations serve the
two shapes of row that reach this module:

- Dense rows (lists, one entry per column: catalecticants, kernels of small
  systems, spans of a few vectors) go through `rref`, `rank`,
  `kernel_basis` and `solve_columns`.  The forward pass is fraction-free
  (Bareiss), which keeps intermediate entries to minor-sized integers, and
  the back-substitution divides every combined row by its content.  On full
  rows this is the faster of the two.
- Sparse rows (`{column: value}` dicts with a handful of entries out of many
  columns: the monomial multiples that span an ideal slice) go through
  `sparse_rref`, a fraction-free Gauss-Jordan that reduces one row at a
  time, shortest rows first, against the reduced rows kept so far.  It
  touches only nonzero entries, and its entries stay the size of reduced-row
  entries instead of growing to minors, so a tall, mostly dependent stack of
  rows costs little.

A kernel is one reduction: `kernel_basis` reduces A with its columns
reversed, which picks A's rightmost independent columns as pivots.  By
matroid duality, a set of columns is a basis of A's column space exactly
when the kernel projects isomorphically onto the other coordinates, and the
greedy choice from the right on one side is the greedy choice from the left
on the other; so the other columns are the pivots of the kernel's reduced
echelon basis.  That basis is the unique one that is the identity on them,
so each vector is read straight off the reduced rows: v[free] = 1 and
v[pivot] = -red[k][free], with no second reduction.  `int_kernel_basis`
reads the same vectors off the integer rows, each cleared to coprime ints,
for callers that go on in integers.

Every routine is deterministic: pivoting always picks the first usable row,
and reduced echelon bases are unique, so both eliminations give the same
basis and downstream golden tests can compare bases verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vector = list  # list of Fraction


def _to_int_rows(rows: Sequence[Sequence]) -> list:
    """Each nonzero row as a list of ints divided by their content; zero rows
    are dropped.  A row of ints is taken as it is, its content read by one
    `gcd` call; `gcd` refuses a Fraction, so only a row that holds one is
    first scaled by the lcm of its denominators."""
    out = []
    for r in rows:
        try:
            g = gcd(*r)
        except TypeError:  # a Fraction entry
            den = lcm(*[c.denominator for c in r])
            r = [c.numerator * (den // c.denominator) for c in r]
            g = gcd(*r)
        if g == 0:
            continue
        out.append([c // g for c in r] if g > 1 else list(r))
    return out


def _bareiss_echelon(int_rows: list) -> tuple:
    """Fraction-free row echelon; returns (rows, pivot_columns)."""
    rows = list(int_rows)
    m = len(rows)
    if m == 0:
        return [], []
    n = len(rows[0])
    pivots = []
    prev = 1
    r = 0
    for col in range(n):
        if r == m:
            break
        sel = None
        for i in range(r, m):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
        row_r = rows[r]
        piv = row_r[col]
        tail_r = row_r[col + 1:]
        head = [0] * (col + 1)  # rows below r are zero up to this column
        for i in range(r + 1, m):
            row_i = rows[i]
            ric = row_i[col]
            if ric:
                rows[i] = head + [(piv * a - ric * b) // prev
                                  for a, b in zip(row_i[col + 1:], tail_r)]
            elif piv != prev:
                rows[i] = head + [piv * a // prev for a in row_i[col + 1:]]
        prev = piv
        pivots.append(col)
        r += 1
    return rows[: len(pivots)], pivots


def _primitive(row: list, lead: int) -> list:
    """row divided by its content, signed so that the entry `lead` is positive."""
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    return [c // g for c in row] if g != 1 else row


def _int_rref(int_rows: list) -> tuple:
    """Reduced echelon form of integer rows, kept in integers.

    Returns (pivot_columns, rows): row k is a primitive integer multiple of
    the k-th reduced row, so the reduced row itself is row k divided by its
    (positive) pivot entry.
    """
    rows, pivots = _bareiss_echelon(int_rows)
    for k in range(len(pivots) - 1, -1, -1):
        p = pivots[k]
        row_k = rows[k] = _primitive(rows[k], p)
        lead = row_k[p]
        for i in range(k):
            row_i = rows[i]
            factor = row_i[p]
            if factor:
                # row k is zero before column p and row i before its pivot
                q = pivots[i]
                rows[i] = _primitive(
                    row_i[:q] + [lead * a for a in row_i[q:p]]
                    + [lead * a - factor * b for a, b in zip(row_i[p:], row_k[p:])],
                    q,
                )
    return pivots, rows


def _primitive_sparse(row: dict, lead: int) -> dict:
    """Sparse row divided by its content, signed so that row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return {c: x // g for c, x in row.items()} if g != 1 else row


def sparse_rref(rows) -> tuple:
    """Reduced echelon form of sparse rows, kept in integers.

    Each row is a {column: int or Fraction} dict, zero entries allowed and
    missing columns zero.  Rows are taken one at a time, shortest first (a
    stable sort by entry count; the reduced echelon form does not depend on
    the order, and short rows make short pivot rows to reduce against): a
    row is cleared of denominators, then reduced against every pivot row it
    meets in a single pass, which is valid because a pivot row is zero on
    every other pivot column.  If anything is left, it is divided by its
    content, its first column becomes a pivot, and that column is cleared
    from the earlier rows that hold it, which a column index names without
    scanning every row.

    Returns (pivot_columns, rows) in pivot order: row k is a primitive
    {column: int} multiple of the k-th reduced row with a positive pivot
    entry, so the reduced row itself is row k divided by that entry.
    """
    reduced = {}  # pivot column -> primitive row, zero on every other pivot
    holders = {}  # column -> pivots naming every reduced row with a nonzero entry there
    for row in sorted(rows, key=len):
        den = lcm(*[x.denominator for x in row.values()])
        v = {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}
        hits = [c for c in v if c in reduced]
        if hits:
            # v <- scale*v - sum over hits of (v[p]*scale/lead_p) * row_p
            scale = lcm(*[reduced[p][p] for p in hits])
            acc = {c: scale * x for c, x in v.items()} if scale != 1 else dict(v)
            for p in hits:
                r = reduced[p]
                t = v[p] * (scale // r[p])
                for c, y in r.items():
                    acc[c] = acc.get(c, 0) - t * y
            v = {c: x for c, x in acc.items() if x}
        if not v:
            continue
        q = min(v)
        v = _primitive_sparse(v, q)
        lead = v[q]
        # clear column q from the reduced rows that hold it; the column index
        # may also name rows whose entry there has cancelled since, skipped here
        updated = [p for p in holders.pop(q, ()) if q in reduced[p]]
        for p in updated:
            r = reduced[p]
            a = r[q]
            g = gcd(lead, a)
            s, t = lead // g, a // g
            acc = {c: s * y for c, y in r.items()} if s != 1 else dict(r)
            for c, y in v.items():
                acc[c] = acc.get(c, 0) - t * y
            reduced[p] = _primitive_sparse({c: x for c, x in acc.items() if x}, p)
        reduced[q] = v
        # a cleared row may now hold any column of v, and v holds all of them
        group = set(updated)
        group.add(q)
        for c in v:
            if c != q:
                holders.setdefault(c, set()).update(group)
    pivots = sorted(reduced)
    return pivots, [reduced[p] for p in pivots]


_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Sequence[Sequence]) -> tuple:
    """Reduced row echelon form over Q.

    Returns (pivot_columns, reduced_rows); reduced_rows has one row per pivot,
    each with leading coefficient 1 and zeros above and below every pivot.
    """
    pivots, red = _int_rref(_to_int_rows(rows))
    return pivots, [[Fraction(c, row[p]) if c else _ZERO for c in row]
                    for p, row in zip(pivots, red)]


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q.  rank(A) = rank(A^T), so the orientation with fewer rows
    is eliminated: a tall matrix is transposed first, which keeps the
    per-row clearing and the Bareiss row updates to the short side."""
    if rows and len(rows) > len(rows[0]):
        rows = list(zip(*rows))
    return len(_bareiss_echelon(_to_int_rows(rows))[1])


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list:
    """Basis of {v : A v = 0} in reduced echelon form w.r.t. column order.

    One reduction of A with its columns reversed: its free columns are the
    kernel's pivots, and row k gives v[pivot_k] = -red[k][free] (see the
    module docstring).
    """
    last = ncols - 1
    pivots, red = rref([r[::-1] for r in rows])
    pivset = set(pivots)
    vecs = []
    for free in range(last, -1, -1):
        if free in pivset:
            continue
        v = [_ZERO] * ncols
        v[last - free] = _ONE
        for p, row in zip(pivots, red):
            x = row[free]
            if x:
                v[last - p] = -x
        vecs.append(v)
    return vecs


def int_kernel_basis(rows: Sequence[Sequence], ncols: int) -> list:
    """The vectors of `kernel_basis(rows, ncols)`, each multiplied by the
    least positive integer that clears its denominators: coprime ints with a
    positive leading entry.  Read off the same integer reduction, so no
    Fraction is built."""
    last = ncols - 1
    pivots, red = _int_rref(_to_int_rows([r[::-1] for r in rows]))
    pivset = set(pivots)
    vecs = []
    for free in range(last, -1, -1):
        if free in pivset:
            continue
        # v[pivot] = -x / lead in lowest terms; the lcm of those denominators
        # scales v[free] = 1 to the cleared vector
        hits = [(p, row[free], row[p]) for p, row in zip(pivots, red) if row[free]]
        scale = lcm(*[lead // gcd(x, lead) for _, x, lead in hits])
        v = [0] * ncols
        v[last - free] = scale
        for p, x, lead in hits:
            v[last - p] = -x * scale // lead
        vecs.append(v)
    return vecs


def solve_columns(cols: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """One exact solution c of  sum_j c_j * cols[j] = target, or None.

    Deterministic: free coordinates are set to zero.
    """
    ncols = len(cols)
    aug = [[col[i] for col in cols] + [t] for i, t in enumerate(target)]
    pivots, red = _int_rref(_to_int_rows(aug))
    if ncols in pivots:
        return None
    sol = [_ZERO] * ncols
    for p, row in zip(pivots, red):
        sol[p] = Fraction(row[ncols], row[p])
    return sol
