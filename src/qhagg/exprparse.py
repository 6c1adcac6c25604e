"""Minimal scalar-expression language for user-supplied unit functions.

Grammar (whitespace insignificant, ``^`` right-associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' factor)?
    atom   := number | 'x' | '(' expr ')' | '-' atom

Numbers are plain decimal literals (no scientific notation, no sign; the
sign lives in unary negation). The parser enforces nothing about the
codomain: range policy belongs to the unit-function constructors, not here.

Parsing builds the evaluator directly: each grammar rule returns a closure
(a constant, ``x``, a negation or a binary operator over its operands), so
a parsed expression is its evaluator, built once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import EvalError, ParseError
from .numerics import elementwise

#: a parsed expression: its evaluator, a function of a float array (or 0-d
#: array) that returns a float or an array; call it through ``eval_expr``
Expr = Callable


# ---------------------------------------------------------------- tokenizer

_OPS = set("+-*/^()")
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kind is 'num', 'x' or the op char."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "x":
            tokens.append(("x", "x", i))
            i += 1
            continue
        if ch in _DIGITS or ch == ".":
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            lit = text[i:j]
            if lit == ".":
                raise ParseError("malformed number", i)
            tokens.append(("num", lit, i))
            i = j
            continue
        raise ParseError(f"unknown character {ch!r}", i)
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, "", len(self.text))

    def _advance(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _fail(self, expected: str):
        kind, text, off = self._peek()
        if kind is None:
            raise ParseError(f"unexpected end of input, expected {expected}", off)
        raise ParseError(f"unexpected {text!r}, expected {expected}", off)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self._peek()
        if kind is not None:
            raise ParseError(f"trailing input {text!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self._peek()[0] in ("+", "-"):
            op = self._advance()[0]
            e = _binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self._peek()[0] in ("*", "/"):
            op = self._advance()[0]
            e = _binary(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        base = self.atom()
        if self._peek()[0] == "^":
            self._advance()
            return _binary("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, off = self._peek()
        if kind == "num":
            self._advance()
            value = float(text)
            return lambda x: value
        if kind == "x":
            self._advance()
            return lambda x: x
        if kind == "(":
            self._advance()
            e = self.expr()
            if self._peek()[0] != ")":
                self._fail("')'")
            self._advance()
            return e
        if kind == "-":
            self._advance()
            operand = self.atom()
            return lambda x: -operand(x)
        self._fail("a number, 'x', '(' or '-'")


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into its evaluator, built once; evaluate it with
    ``eval_expr``.

    Raises ParseError (with a 0-based offset) on lexical errors, syntax
    errors and trailing garbage, and on text that is not a string.
    """
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {text!r}", 0)
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# --------------------------------------------------------------- evaluation


def eval_expr(e: Expr, x):
    """Evaluate elementwise at ``x`` (float or array).

    Raises EvalError on division by zero, on a negative base raised to a
    fractional power, and on non-finite results, overflow included.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(e(np.asarray(x, dtype=float)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvalError("expression evaluated to a non-finite value")
    return elementwise(out, x)


def _binary(op: str, left: Expr, right: Expr) -> Expr:
    def apply(x):
        left_v = left(x)
        right_v = right(x)
        if op == "+":
            return left_v + right_v
        if op == "-":
            return left_v - right_v
        if op == "*":
            return left_v * right_v
        if op == "/":
            if np.any(np.asarray(right_v) == 0.0):
                bad_x = _first_where(np.asarray(right_v) == 0.0, x)
                raise EvalError(f"division by zero (at x={bad_x!r})")
            return left_v / right_v
        base = np.asarray(left_v, dtype=float)
        expo = np.asarray(right_v, dtype=float)
        frac = np.floor(expo) != expo
        if np.any((base < 0.0) & frac):
            bad_x = _first_where((base < 0.0) & frac, x)
            raise EvalError(f"negative base with fractional exponent (at x={bad_x!r})")
        if np.any((base == 0.0) & (expo < 0.0)):
            bad_x = _first_where((base == 0.0) & (expo < 0.0), x)
            raise EvalError(f"division by zero: 0 to a negative power (at x={bad_x!r})")
        return np.power(base, expo)

    return apply


def _first_where(mask, x):
    mask = np.broadcast_to(mask, np.shape(x)) if np.shape(x) else mask
    if np.ndim(x) == 0:
        return float(x)
    idx = np.argwhere(mask)
    return float(np.asarray(x)[tuple(idx[0])]) if idx.size else float("nan")
