"""Recursive-descent parser for polynomial expressions.

Grammar (juxtaposition is not multiplication; '*' is required):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' nat]
    atom     := rational | ident | '(' expr ')'
    rational := int ['/' posint]

Identifiers match [A-Za-z_][A-Za-z0-9_]*.  When no variable list is supplied,
variables are collected in first-appearance order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .poly import DUAL, PRIMAL, Poly, VarTable


class ParseError(ValueError):
    """Bad input text, at a line and column, or a bad variable list (no position)."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


_OPS = set("+-*^/()")


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            toks.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens, table: VarTable, ring: str):
        self.toks = tokens
        self.pos = 0
        self.table = table
        self.ring = ring
        self.names = table.names(ring)

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, ch: str) -> _Token:
        t = self.peek()
        if t.kind != "op" or t.text != ch:
            raise ParseError(f"expected {ch!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def parse(self) -> Poly:
        p = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
        return p

    def expr(self) -> Poly:
        sign = 1
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.next()
            sign = -1 if t.text == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in "+-":
                self.next()
                q = self.term()
                p = p + q if t.text == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            e = self.peek()
            if e.kind != "num":
                self.fail("exponent must be a non-negative integer")
            self.next()
            p = p ** int(e.text)
        return p

    def atom(self) -> Poly:
        t = self.peek()
        if t.kind == "num":
            self.next()
            num = int(t.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.next()
                d = self.peek()
                if d.kind != "num" or int(d.text) == 0:
                    self.fail("denominator must be a positive integer")
                self.next()
                return Poly.constant(self.table, Fraction(num, int(d.text)), self.ring)
            return Poly.constant(self.table, num, self.ring)
        if t.kind == "ident":
            self.next()
            try:
                idx = self.names.index(t.text)
            except ValueError:
                raise ParseError(f"unknown variable {t.text!r}", t.line, t.col) from None
            return Poly.variable(self.table, idx, self.ring)
        if t.kind == "op" and t.text == "(":
            self.next()
            p = self.expr()
            self.expect_op(")")
            return p
        self.fail(f"expected a number, variable or '(', found {t.text or 'end of input'!r}")


def _identifiers(toks) -> list:
    return list(dict.fromkeys(t.text for t in toks if t.kind == "ident"))


def collect_variables(text: str) -> list:
    """Identifiers in first-appearance order."""
    return _identifiers(_tokenize(text))


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
    with an empty, repeated or clashing name, or dual names that do not match
    the variables in number, raises ParseError.
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
        try:
            if ring == DUAL:
                table = VarTable.make(["p_" + v for v in names], dual=names)
            else:
                table = VarTable.make(names, dual=dual_names)
        except ValueError as exc:  # repeated or clashing names
            raise ParseError(str(exc)) from None
    return _Parser(toks, table, ring).parse()


def poly_to_string(p: Poly) -> str:
    return str(p)
