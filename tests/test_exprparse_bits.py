"""The expression language's observable behaviour, pinned to the bit.

Each expression's values on the n = 100 grid are pinned by the SHA-256
of their float64 bytes, and its value at x = 0.3 by its hex spelling, so
any change to the arithmetic, its order or its operand types shows here.
The text of every EvalError and the offset of every ParseError are pinned
too, including which error wins when two lanes fail in different
operators.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from qhagg import EvalError, ParseError, eval_expr, make_grid, parse_expr

GRID = make_grid(100).points

# text -> (sha256 of the grid values, float.hex of the value at x = 0.3)
PINNED = {
    "2*x/(1+x)": ("0d930361418080b88ccb5d64d8dab3d624872c0ebce3e207b861f3a64713daa2",
                  "0x1.d89d89d89d89dp-2"),
    "x^0.5": ("52cec0cb9699718ab794568e3a7099e088742958723a6cb4baf28cabebb1288b",
              "0x1.186f174f88472p-1"),
    "-x^2": ("51532f6660a43c0ac62ea8a69f714d86b3b54bba6079745c8417ace399e5dbdc",
             "0x1.70a3d70a3d70ap-4"),
    "2^3^2": ("1aeffde506877662d07468910ea42b3c812abe5f3b709d4423b07efafb4551e9",
              "0x1.0000000000000p+9"),
    "0.3*x+0.7*(2*x/(1+x))": (
        "b4c4709984e1b5f539a201a0cc024dbdd6300f08c64dfe62bced402cbd0ddc85",
        "0x1.a6fda30d64096p-2"),
    "1/(2-x)": ("473f3089432895e25cb485627f6b25baef6eea4d701a3e65e742b747985d9703",
                "0x1.2d2d2d2d2d2d3p-1"),
    "x*x*x": ("51d7bb0852ae7e61e1f186b65b861bc7033296080452b1ce2c5a484c92cf5215",
              "0x1.ba5e353f7ced9p-6"),
}


@pytest.mark.parametrize("text", sorted(PINNED))
def test_grid_values_are_pinned(text):
    out = eval_expr(parse_expr(text), GRID)
    assert out.dtype == np.float64 and out.shape == GRID.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED[text][0]


@pytest.mark.parametrize("text", sorted(PINNED))
def test_scalar_value_is_a_pinned_float(text):
    out = eval_expr(parse_expr(text), 0.3)
    assert type(out) is float
    assert out.hex() == PINNED[text][1]


@pytest.mark.parametrize("text, x, message", [
    ("1/x", 0.0, "division by zero (at x=0.0)"),
    ("1/(x-0.5)", GRID, "division by zero (at x=0.5)"),
    ("x/(x-x)", GRID, "division by zero (at x=0.0)"),
    ("(0-1)^0.5", 0.0, "negative base with fractional exponent (at x=0.0)"),
    ("(x-0.5)^0.5", GRID, "negative base with fractional exponent (at x=0.0)"),
    ("x^(0-1)", 0.0, "division by zero: 0 to a negative power (at x=0.0)"),
    ("(x-0.25)^(0-2)", GRID, "division by zero: 0 to a negative power (at x=0.25)"),
    ("10^400", 0.5, "expression evaluated to a non-finite value"),
    ("10^300*10^300", GRID, "expression evaluated to a non-finite value"),
    # operands evaluate left to right, so the left operator's error wins
    ("1/x+(x-0.5)^0.5", GRID, "division by zero (at x=0.0)"),
    ("(x-0.5)^0.5+1/x", GRID, "negative base with fractional exponent (at x=0.0)"),
])
def test_eval_error_text_is_pinned(text, x, message):
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expr(text), x)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, offset, message", [
    ("2*/x", 2, "unexpected '/', expected a number, 'x', '(' or '-'"),
    ("2*y", 2, "unknown character 'y'"),
    ("1+1 1", 4, "trailing input '1'"),
    ("(x))", 3, "trailing input ')'"),
    ("", 0, "empty expression"),
    ("  ", 0, "empty expression"),
    ("(1+x", 4, "unexpected end of input, expected ')'"),
    ("x^", 2, "unexpected end of input, expected a number, 'x', '(' or '-'"),
    ("-", 1, "unexpected end of input, expected a number, 'x', '(' or '-'"),
    ("1e-3", 1, "unknown character 'e'"),
    (".", 0, "malformed number"),
    (None, 0, "expression must be a string, got None"),
])
def test_parse_error_offset_is_pinned(text, offset, message):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.position == offset
    assert str(exc.value) == f"{message} (at offset {offset})"
