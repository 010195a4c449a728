"""Recursive-descent parser for polynomial expressions.

Grammar (juxtaposition is not multiplication; '*' is required):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' nat]
    atom     := rational | ident | '(' expr ')'
    rational := int ['/' posint]

Tokens are ASCII: identifiers match [A-Za-z_][A-Za-z0-9_]* and integers
[0-9]+; any other character except whitespace is an error at its line and
column.  When no variable list is supplied, variables are collected in
first-appearance order.  Text is parsed into a term dict and one Poly is
built at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .poly import DUAL, PRIMAL, Poly, VarTable, _int_product


class ParseError(ValueError):
    """Bad input text, at a line and column, or a bad variable list (no position)."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# whitespace, then one token; "bad" is the first character no token starts with
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^/()])|(?P<bad>\S))")


def _error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at `offset` in `text`: lines end at '\\n', and every
    other character, a tab included, is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, line_start) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list:
    """(kind, text, offset) triples, kind one of "num", "ident", "op",
    ending with ("eof", "", len(text))."""
    toks = []
    match = _TOKEN.match
    i = 0
    while (m := match(text, i)) is not None:
        kind = m.lastgroup
        if kind == "bad":
            raise _error(f"unexpected character {m[kind]!r}", text, m.start(kind))
        toks.append((kind, m[kind], m.start(kind)))
        i = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    """Parses tokens into a term dict {exponent tuple: nonzero int or Fraction}."""

    def __init__(self, text: str, tokens, table: VarTable, ring: str):
        self.text = text
        self.toks = tokens
        self.pos = 0
        self.table = table
        self.ring = ring
        self.one = (0,) * table.n  # the exponent tuple of the monomial 1
        self.units = {name: self.one[:i] + (1,) + self.one[i + 1:]
                      for i, name in enumerate(table.names(ring))}

    def fail(self, message: str):
        raise _error(message, self.text, self.toks[self.pos][2])

    def expect_op(self, op: str):
        tok = self.toks[self.pos][1]
        if tok != op:
            self.fail(f"expected {op!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def parse(self) -> Poly:
        terms = self.expr()
        kind, tok, _ = self.toks[self.pos]
        if kind != "eof":
            self.fail(f"trailing input {tok!r}")
        # every term is nonzero and indexed by the table's own exponent tuples
        return Poly._of(self.table, self.ring, {m: c if type(c) is Fraction else Fraction(c)
                                                for m, c in terms.items()})

    def expr(self) -> dict:
        sign = self.toks[self.pos][1]
        if sign == "+" or sign == "-":
            self.pos += 1
        acc = self.term()
        if sign == "-":
            acc = {m: -c for m, c in acc.items()}
        while (op := self.toks[self.pos][1]) == "+" or op == "-":
            self.pos += 1
            for m, c in self.term().items():
                c = acc.get(m, 0) + c if op == "+" else acc.get(m, 0) - c
                if c:
                    acc[m] = c
                else:
                    del acc[m]
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.toks[self.pos][1] == "*":
            self.pos += 1
            acc = {m: c for m, c in _int_product(acc, self.factor()).items() if c}
        return acc

    def factor(self) -> dict:
        base = self.atom()
        if self.toks[self.pos][1] != "^":
            return base
        self.pos += 1
        kind, exp, _ = self.toks[self.pos]
        if kind != "num":
            self.fail("exponent must be a non-negative integer")
        self.pos += 1
        k = int(exp)
        if len(base) == 1:
            (m, c), = base.items()
            return {tuple(e * k for e in m): c ** k}
        # several terms (or none): linear forms take the multinomial kernel
        return (Poly(self.table, self.ring, base) ** k).terms

    def atom(self) -> dict:
        kind, tok, _ = self.toks[self.pos]
        if kind == "num":
            self.pos += 1
            c = int(tok)
            if self.toks[self.pos][1] == "/":
                self.pos += 1
                kind, den, _ = self.toks[self.pos]
                if kind != "num" or int(den) == 0:
                    self.fail("denominator must be a positive integer")
                self.pos += 1
                c = Fraction(c, int(den))
            return {self.one: c} if c else {}
        if kind == "ident":
            unit = self.units.get(tok)
            if unit is None:
                self.fail(f"unknown variable {tok!r}")
            self.pos += 1
            return {unit: 1}
        if tok == "(":
            self.pos += 1
            inner = self.expr()
            self.expect_op(")")
            return inner
        self.fail(f"expected a number, variable or '(', found {tok or 'end of input'!r}")


def _identifiers(toks) -> list:
    return list(dict.fromkeys(tok for kind, tok, _ in toks if kind == "ident"))


def parse_poly(
    text: str,
    vars: Optional[Sequence[str]] = None,
    table: Optional[VarTable] = None,
    ring: str = PRIMAL,
    dual_names: Optional[Sequence[str]] = None,
) -> Poly:
    """Parse an expression into a fully expanded Poly.

    Exactly one of `table` / `vars` may pin the variable set; otherwise
    variables are auto-collected in first-appearance order.  A variable list
    with an empty, non-identifier, repeated or clashing name, or dual names
    that do not match the variables in number, raises ParseError.
    """
    toks = _tokenize(text)
    if table is None:
        names = list(vars) if vars is not None else _identifiers(toks)
        if dual_names is not None:
            dual_names = list(dual_names)
            if len(dual_names) != len(names):
                raise ParseError(f"{len(dual_names)} dual names for {len(names)} variables")
        for group in (names, dual_names or ()):
            if "" in group:
                raise ParseError("empty variable name")
            for name in group:
                if not (name.isascii() and name.isidentifier()):  # [A-Za-z_][A-Za-z0-9_]*
                    raise ParseError(f"variable name {name!r} is not an identifier")
        try:
            if ring == DUAL:
                table = VarTable.make(["p_" + v for v in names], dual=names)
            else:
                table = VarTable.make(names, dual=dual_names)
        except ValueError as exc:  # repeated or clashing names
            raise ParseError(str(exc)) from None
    return _Parser(text, toks, table, ring).parse()
