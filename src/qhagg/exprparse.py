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
(a constant, ``x``, a negation or a binary operator over its operands), and
each operator's closure is chosen when it is parsed, so a parsed expression
is its evaluator, built once.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

import numpy as np

from .errors import EvalError, ParseError
from .numerics import elementwise

#: a parsed expression: its evaluator, a function of a float array (or 0-d
#: array) that returns a float or an array; call it through ``eval_expr``
Expr = Callable


# ---------------------------------------------------------------- tokenizer

# after whitespace: a number (ASCII digits, at most one '.'), an operator
# or 'x', or any other character, which is unknown
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+\.?[0-9]*|\.[0-9]*)|(?P<op>[-+*/^()x])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str | None, str, int]]:
    """(kind, text, offset) triples, kind 'num', 'x' or the op char; None ends them."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, off = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)
        if kind == "bad":
            raise ParseError(f"unknown character {tok!r}", off)
        if tok == ".":
            raise ParseError("malformed number", off)
        tokens.append((kind if kind == "num" else tok, tok, off))
    return tokens + [(None, "", len(text))]


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _fail(self, expected: str):
        """Refuse the token just read, which is not ``expected``."""
        kind, text, off = self.tokens[self.pos - 1]
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
        kind, text, _ = self._advance()
        if kind == "num":
            value = float(text)
            return lambda x: value
        if kind == "x":
            return lambda x: x
        if kind == "(":
            e = self.expr()
            if self._advance()[0] != ")":
                self._fail("')'")
            return e
        if kind == "-":
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
    """The closure of ``op`` over its operands; the left one is evaluated first."""
    apply = {"+": operator.add, "-": operator.sub, "*": operator.mul}.get(op)
    if apply is not None:
        return lambda x: apply(left(x), right(x))
    if op == "/":
        def divide(x):
            left_v, right_v = left(x), right(x)
            zero = np.asarray(right_v) == 0.0
            if np.any(zero):
                raise EvalError(f"division by zero (at x={_first_where(zero, x)!r})")
            return left_v / right_v

        return divide

    def power(x):
        base = np.asarray(left(x), dtype=float)
        expo = np.asarray(right(x), dtype=float)
        bad = (base < 0.0) & (np.floor(expo) != expo)
        if np.any(bad):
            raise EvalError("negative base with fractional exponent "
                            f"(at x={_first_where(bad, x)!r})")
        bad = (base == 0.0) & (expo < 0.0)
        if np.any(bad):
            raise EvalError("division by zero: 0 to a negative power "
                            f"(at x={_first_where(bad, x)!r})")
        return np.power(base, expo)

    return power


def _first_where(mask, x) -> float:
    """The first ``x``, in C order, where ``mask`` (broadcast to x's shape) holds."""
    x = np.asarray(x)
    return float(x.flat[np.argmax(np.broadcast_to(mask, x.shape))])
