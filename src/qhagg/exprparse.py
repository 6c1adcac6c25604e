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
each operator's closure is chosen when it is parsed, so a parsed expression's
evaluator is built once.

Each rule returns its inverse beside its evaluator. An expression has one
when ``x`` occurs in it exactly once and every operation on the path from
the root to that ``x`` has an ``x``-free other operand: ``e+c``, ``c+e``,
``e-c``, ``c-e``, ``e*c``, ``c*e``, ``e/c``, ``c/e``, ``e^c``, ``c^e`` and
``-e``. The inverse undoes those operations from the root down; it reads
each ``c`` when it is called, never at parse time. A zero ``c`` in ``e*c``,
``c*e`` or ``e^c``, and a ``c^e`` with ``c <= 0`` or ``c == 1``, give NaN.
The inverse is a formula and holds no contract of its own: ``x*x``,
``2*x/(1+x)`` and ``(x+x^5)/2`` have none, and where the formula picks
another branch than the function's (``1-(x-1)^2``) only a check of its
values shows it (``numerics.pinned_inverse`` makes that check).
"""

from __future__ import annotations

import operator
import re
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvalError, ParseError
from .numerics import elementwise


class Expr(NamedTuple):
    """A parsed expression.

    evaluator : a function of a float array (or 0-d array) that returns a
        float or an array; call it through ``eval_expr``
    inverse : the formula that undoes it, a function of a float array, or
        None (see the module docstring)
    """

    evaluator: Callable
    inverse: Callable | None


#: the inverse slot of an operand in which ``x`` does not occur
_CONST = object()


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

    # every rule returns (evaluator, inverse), the inverse None or _CONST

    def parse(self) -> Expr:
        ev, inv = self.expr()
        kind, text, off = self._peek()
        if kind is not None:
            raise ParseError(f"trailing input {text!r}", off)
        return Expr(ev, None if inv is _CONST else inv)

    #: the operators of each binary level of the grammar, loosest first
    _LEVELS = (("+", "-"), ("*", "/"))

    def expr(self, level=0):
        """The grammar's ``expr`` at level 0 and ``term`` at 1: a
        left-associative chain of the next level, or of factors below the last."""
        if level == len(self._LEVELS):
            return self.factor()
        e = self.expr(level + 1)
        while self._peek()[0] in self._LEVELS[level]:
            e = _node(self._advance()[0], e, self.expr(level + 1))
        return e

    def factor(self):
        base = self.atom()
        if self._peek()[0] == "^":
            self._advance()
            return _node("^", base, self.factor())
        return base

    def atom(self):
        kind, text, _ = self._advance()
        if kind == "num":
            value = float(text)
            return (lambda x: value), _CONST
        if kind == "x":
            return (lambda x: x), (lambda t: t)
        if kind == "(":
            e = self.expr()
            if self._advance()[0] != ")":
                self._fail("')'")
            return e
        if kind == "-":
            operand, inv = self.atom()
            if inv is not None and inv is not _CONST:
                inv = lambda t, inner=inv: inner(-t)
            return (lambda x: -operand(x)), inv
        self._fail("a number, 'x', '(' or '-'")


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into its evaluator, built once, and its inverse;
    evaluate it with ``eval_expr``.

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
        out = np.asarray(e.evaluator(np.asarray(x, dtype=float)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvalError("expression evaluated to a non-finite value")
    return elementwise(out, x)


def _nan_like(t):
    return np.full(np.shape(t), np.nan)


#: op -> the target of ``e`` in ``e op c``, from the node's target t and c
_SOLVE_LEFT = {
    "+": lambda t, c: t - c,
    "-": lambda t, c: t + c,
    "*": lambda t, c: t / c if c != 0.0 else _nan_like(t),
    "/": lambda t, c: t * c,
    "^": lambda t, c: np.power(t, 1.0 / c) if c != 0.0 else _nan_like(t),
}

#: op -> the target of ``e`` in ``c op e``; + and * commute
_SOLVE_RIGHT = {
    **_SOLVE_LEFT,
    "-": lambda t, c: c - t,
    "/": lambda t, c: c / t,
    "^": lambda t, c: np.log(t) / np.log(c) if c > 0.0 and c != 1.0 else _nan_like(t),
}


def _node(op: str, left, right):
    """The (evaluator, inverse) pair of ``left op right``."""
    (left_ev, left_inv), (right_ev, right_inv) = left, right
    ev = _binary(op, left_ev, right_ev)
    if left_inv is _CONST and right_inv is _CONST:
        return ev, _CONST
    if right_inv is _CONST and left_inv is not None:
        solve, inner, const = _SOLVE_LEFT[op], left_inv, right_ev
    elif left_inv is _CONST and right_inv is not None:
        solve, inner, const = _SOLVE_RIGHT[op], right_inv, left_ev
    else:
        return ev, None
    # c is x-free, so any x reads it
    return ev, lambda t: inner(solve(t, const(0.0)))


def _binary(op: str, left: Callable, right: Callable) -> Callable:
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
        # a check runs only if its exponent condition holds somewhere (x^2: neither)
        if np.any(frac := np.floor(expo) != expo) and np.any(bad := (base < 0.0) & frac):
            raise EvalError("negative base with fractional exponent "
                            f"(at x={_first_where(bad, x)!r})")
        if np.any(neg := expo < 0.0) and np.any(bad := (base == 0.0) & neg):
            raise EvalError("division by zero: 0 to a negative power "
                            f"(at x={_first_where(bad, x)!r})")
        return np.power(base, expo)

    return power


def _first_where(mask, x) -> float:
    """The first ``x``, in C order, where ``mask`` (broadcast to x's shape) holds."""
    x = np.asarray(x)
    return float(x.flat[np.argmax(np.broadcast_to(mask, x.shape))])
