import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhagg import EvalError, ParseError, eval_expr, make_grid, parse_expr
from qhagg.numerics import pinned_inverse

GRID = make_grid(100).points


class TestParse:
    def test_rational_section_parses(self):
        e = parse_expr("2*x/(1+x)")
        assert eval_expr(e, 0.5) == 2 * 0.5 / 1.5

    def test_square_at_point(self):
        assert eval_expr(parse_expr("x^2"), 0.3) == pytest.approx(0.09, abs=1e-15)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("2*/x")
        assert exc.value.position == 2

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("2*y")
        assert exc.value.position == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("1+1 1")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expr("")
        with pytest.raises(ParseError):
            parse_expr("   ")

    @pytest.mark.parametrize("text", [None, 1, 0.5, ["x"]])
    def test_non_string_text(self, text):
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert exc.value.position == 0

    def test_lone_dot(self):
        with pytest.raises(ParseError):
            parse_expr(".")

    def test_whitespace_insignificant(self):
        a = eval_expr(parse_expr("2*x/(1+x)"), GRID)
        b = eval_expr(parse_expr("  2 * x / ( 1 + x ) "), GRID)
        np.testing.assert_array_equal(a, b)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(1+x")

    def test_no_scientific_notation(self):
        with pytest.raises(ParseError):
            parse_expr("1e-3")


class TestEval:
    def test_identity(self):
        assert eval_expr(parse_expr("x"), 0.77) == 0.77

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("1/x"), 0.0)

    def test_division_by_zero_in_array(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("1/x"), np.array([0.5, 0.0]))

    def test_precedence(self):
        assert eval_expr(parse_expr("1-2*x"), 0.5) == 0.0
        assert eval_expr(parse_expr("(1-2)*x"), 0.5) == -0.5

    def test_power_right_associative(self):
        assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0

    def test_negation_binds_to_atom(self):
        # per the grammar, -x^2 is (-x)^2
        assert eval_expr(parse_expr("-x^2"), 0.5) == 0.25

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("(0-1)^0.5"), 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("x^(0-1)"), 0.0)

    @pytest.mark.parametrize("text, x, message", [
        ("x^0.5", -0.25, "negative base with fractional exponent (at x=-0.25)"),
        ("x^0.5", np.array([0.5, -0.25, -0.5]),
         "negative base with fractional exponent (at x=-0.25)"),
        ("x^-1", 0.0, "division by zero: 0 to a negative power (at x=0.0)"),
        ("x^-1", GRID, "division by zero: 0 to a negative power (at x=0.0)"),
    ])
    def test_a_constant_exponent_still_checks_its_base(self, text, x, message):
        with pytest.raises(EvalError) as info:
            eval_expr(parse_expr(text), x)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, value", [("x^2", 0.25), ("x^-2", 4.0), ("x^0", 1.0)])
    def test_an_integer_exponent_takes_a_negative_base(self, text, value):
        assert eval_expr(parse_expr(text), -0.5) == value
        assert eval_expr(parse_expr(text), np.array([-0.5, 0.5])).tolist() == [value, value]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [0.5, GRID], ids=["scalar", "array"])
    @pytest.mark.parametrize("text", ["10^400", "10^300*10^300", "10^400-10^400"])
    def test_overflow_is_a_non_finite_value(self, text, x):
        with pytest.raises(EvalError, match="non-finite"):
            eval_expr(parse_expr(text), x)

    def test_array_evaluation(self):
        e = parse_expr("2*x/(1+x)")
        out = eval_expr(e, GRID)
        assert out.shape == GRID.shape
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_constant_broadcasts(self):
        out = eval_expr(parse_expr("0.25"), GRID)
        assert out.shape == GRID.shape
        assert np.all(out == 0.25)


# ------------------------------------------------------- property tests


@given(st.text(max_size=40))
@settings(max_examples=500)
def test_parser_totality(text):
    try:
        parse_expr(text)
    except ParseError:
        pass



# ----------------------------------------------------- closed-form inverses

#: ``e`` is the operand that holds x, ``c`` a constant
FORMS = ["(e)+c", "c+(e)", "(e)-c", "c-(e)", "(e)*c", "c*(e)", "(e)/c", "-(e)", "c^(e)"]


@st.composite
def single_x_increasing(draw):
    """x wrapped in one to three invertible operations with constant other
    operands, negated at the end if it decreases; so x occurs once and the
    expression is monotone on [0, 1]. A power or a quotient by the
    operand is drawn only where the operand's range allows it."""
    text = "x"
    for _ in range(draw(st.integers(1, 3))):
        lo = float(np.min(eval_expr(parse_expr(text), np.array([0.0, 1.0]))))
        forms = FORMS + (["c/(e)"] if lo > 0.0 else []) + (["(e)^2", "(e)^0.5"] if lo >= 0.0
                                                             else [])
        c = draw(st.sampled_from(["0.5", "2", "3"]))
        text = draw(st.sampled_from(forms)).replace("e", text).replace("c", c)
    values = eval_expr(parse_expr(text), GRID)
    return f"-({text})" if values[-1] < values[0] else text


@given(single_x_increasing())
@settings(max_examples=200, deadline=None)
def test_inverse_returns_the_grid_points_from_their_values(text):
    e = parse_expr(text)
    values = eval_expr(e, GRID)
    # a rise of 1e-4 per step keeps the rounding of the forward evaluation
    # (at most a few ulps of values below 30) far below 1e-12 in x
    assume(float(np.min(np.diff(values))) >= 1e-4)
    with np.errstate(all="raise"):
        inner = e.inverse(values[1:-1])
    assert float(np.max(np.abs(inner - GRID[1:-1]))) <= 1e-12, text
    # held to the contract at the ends, an accepted inverse returns all 101
    # points, the ends exactly
    pinned = pinned_inverse(e.inverse, e.evaluator)
    if pinned is not None:
        back = pinned(values)
        assert (back[0], back[-1]) == (0.0, 1.0), text
        assert float(np.max(np.abs(back - GRID))) <= 1e-12, text


@pytest.mark.parametrize("text", ["x*x", "2*x/(1+x)", "x/(1-x)", "(x+x^5)/2", "0.5", "2^3"])
def test_no_inverse_where_x_occurs_twice_or_not_at_all(text):
    assert parse_expr(text).inverse is None


@pytest.mark.parametrize("text, y, x", [
    ("x+0.5", 1.0, 0.5), ("0.5+x", 1.0, 0.5), ("x-0.5", 0.0, 0.5), ("1-x", 0.25, 0.75),
    ("x*4", 1.0, 0.25), ("4*x", 1.0, 0.25), ("x/4", 0.125, 0.5), ("1/x", 4.0, 0.25),
    ("x^2", 0.25, 0.5), ("4^x", 2.0, 0.5), ("-x", -0.5, 0.5), ("-(-x)", 0.5, 0.5),
    ("(x*(1+1))^(2-1)", 0.5, 0.25),
])
def test_each_form_inverts(text, y, x):
    assert parse_expr(text).inverse(np.array([y]))[0] == x


@pytest.mark.parametrize("text", ["x*0", "0*x", "x^0", "x^(1-1)", "1^x", "0^x", "(0-2)^x"])
def test_a_constant_that_leaves_no_inverse_gives_nan(text):
    with np.errstate(all="ignore"):
        assert np.isnan(parse_expr(text).inverse(np.array([0.5]))).all()


def test_parsing_evaluates_nothing():
    e = parse_expr("x+1/0")
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(e, 0.5)
    with pytest.raises(EvalError, match="division by zero"):
        e.inverse(np.array([0.5]))
