"""The expression lexer's edge cases, pinned as the parser reports them.

Digits are ASCII 0-9 only, any Unicode whitespace separates tokens, a
number holds at most one '.', and a lone '.' is a malformed number. Each
error is pinned by its full text, offset included.
"""

from __future__ import annotations

import pytest

from qhagg import ParseError, eval_expr, parse_expr


@pytest.mark.parametrize("text, message", [
    ("٣", "unknown character '٣' (at offset 0)"),
    ("x²", "unknown character '²' (at offset 1)"),
    ("1..2", "trailing input '.2' (at offset 2)"),
    ("1.2.3", "trailing input '.3' (at offset 3)"),
    ("x x", "trailing input 'x' (at offset 2)"),
    ("1+.", "malformed number (at offset 2)"),
    ("2*.x", "malformed number (at offset 2)"),
])
def test_lexical_error_text_and_offset(text, message):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, value", [
    ("5.", 5.0),
    (".5", 0.5),
    ("007", 7.0),
    ("x^.5", 0.5),
    ("\u00a0x\u2003", 0.25),
    ("\x1cx", 0.25),
    ("x\t+\n1", 1.25),
])
def test_lexical_value_at_a_quarter(text, value):
    got = eval_expr(parse_expr(text), 0.25)
    assert type(got) is float
    assert got == value
