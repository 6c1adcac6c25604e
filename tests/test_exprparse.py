import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhagg import EvalError, ParseError, eval_expr, format_expr, make_grid, parse_expr
from qhagg.exprparse import BinOp, Neg, Num, Var

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
        a = parse_expr("2*x/(1+x)")
        b = parse_expr("  2 * x / ( 1 + x ) ")
        assert a == b

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

_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Var),
)


def _node(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
    )


_trees = st.recursive(_leaf, _node, max_leaves=12)


@given(_trees)
@settings(max_examples=300)
def test_format_parse_round_trip(tree):
    assert parse_expr(format_expr(tree)) == tree


@given(st.text(max_size=40))
@settings(max_examples=500)
def test_parser_totality(text):
    try:
        parse_expr(text)
    except ParseError:
        pass


def test_round_trip_evaluates_identically():
    texts = ["2*x/(1+x)", "x^2", "1-2*x", "(1-2)*x", "-x^2", "x^0.5",
             "0.3*x+0.7*(2*x/(1+x))", "x*x*x", "1/(2-x)"]
    for text in texts:
        tree = parse_expr(text)
        again = parse_expr(format_expr(tree))
        assert again == tree
        got = eval_expr(again, GRID)
        want = eval_expr(tree, GRID)
        np.testing.assert_array_equal(got, want)
