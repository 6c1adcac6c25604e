"""The inversion primitive ``bisect_increasing``: per-lane results, work
counts, reported non-convergence, the bits of its roots, and the
scalar/array return rule shared by every public evaluator.

Work is counted in lanes passed to the inverted function, not timed, so
these tests are deterministic.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from qhagg import (PhiSpec, PsiSpec, UnitFunction, bisect_increasing, catalog_lookup,
                   check_quasi_homogeneity, ext_mul, invert_monotone, make_grid,
                   power_function, unit_function_from_expr)
from qhagg.exprparse import eval_expr, parse_expr
from qhagg.numerics import _BRACKET_TABLE, _REFINE_BLOCK, distinct


class Counted:
    """Elementwise function wrapper that counts the lanes it evaluates."""

    def __init__(self, fn):
        self.fn, self.lanes = fn, 0

    def __call__(self, x):
        self.lanes += np.size(x)
        return self.fn(x)


def square(x):
    return np.asarray(x, dtype=float) ** 2


def jump(x):
    # x/2 below 1/2, x/2 + 1/2 from 1/2 on: the values (1/4, 3/4) are skipped
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5, 0.5 * x, 0.5 * x + 0.5)


class TestPerLane:
    @pytest.mark.parametrize("fn", [
        square,
        lambda x: np.power(x, 1.7),
        unit_function_from_expr("2*x/(1+x)", continuous_bijection=True).evaluator,
    ])
    def test_each_lane_equals_its_target_inverted_alone(self, fn):
        rng = np.random.default_rng(7)
        y = np.concatenate([rng.uniform(size=300), rng.choice(rng.uniform(size=5), 100),
                            [0.0, 1.0, 1e-14, np.nan]])
        batch = bisect_increasing(fn, y)
        alone = np.array([bisect_increasing(fn, float(t)) for t in y])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64))

    @pytest.mark.filterwarnings("error")
    def test_roots_far_below_two_to_the_minus_sixty(self):
        # x^0.05 maps [0, 2^-60] onto [0, 0.125]: targets below 2.5e-4 have
        # roots near 1e-72 and below, which the table still brackets
        def steep(t):
            return np.power(t, 0.05)

        y = np.random.default_rng(0).uniform(size=10**5)
        x = bisect_increasing(steep, y)
        assert not np.isnan(x).any()
        assert float(np.max(np.abs(steep(x) - y))) <= 1e-12
        assert float(np.min(x)) < 1e-72
        # lanes above 0.125 come out the same in a batch that needs no
        # points below 2^-60, and tiny lanes the same without the rest
        high, low = y > 0.125, y < 1e-3
        assert np.array_equal(bisect_increasing(steep, y[high]), x[high])
        assert np.array_equal(bisect_increasing(steep, y[low]), x[low])
        # below steep(2^-1072) the bracket is subnormal, and still quiet
        tiny = bisect_increasing(steep, np.array([1e-20, 1e-30]))
        assert np.all((tiny >= 0.0) & (tiny <= 2.0 ** -1072))

    def test_tiny_target_is_accurate_in_x(self):
        # x^2 is within 1e-12 of 1e-14 on all of [0, 1e-6]; the bracket
        # rule still pins the root 1e-7
        assert abs(bisect_increasing(square, 1e-14) - 1e-7) <= 2.0 ** -44


class TestWorkCount:
    def test_identical_targets_are_solved_once(self):
        fn = Counted(square)
        x = bisect_increasing(fn, np.full(10**5, 0.3))
        assert fn.lanes < 1000
        assert np.all(x == x[0]) and abs(x[0] ** 2 - 0.3) <= 1e-12

    def test_distinct_targets_take_few_lanes_each(self):
        y = np.random.default_rng(3).uniform(size=10**5)
        fn = Counted(square)
        x = bisect_increasing(fn, y)
        assert fn.lanes <= 10 * y.size
        assert float(np.max(np.abs(square(x) - y))) <= 1e-12


class TestNonConvergence:
    def test_target_inside_a_jump_is_nan(self):
        inside, regular = Counted(jump), Counted(jump)
        assert math.isnan(bisect_increasing(inside, 0.5))
        bisect_increasing(regular, 0.1)
        # the bracket reaches adjacent floats in about 50 halvings and the
        # lane stops there, well before the 200-round cap
        assert inside.lanes - regular.lanes < 100
        x = bisect_increasing(jump, np.array([0.1, 0.5, 0.9]))
        assert math.isnan(x[1])
        np.testing.assert_allclose(x[[0, 2]], [0.2, 0.8], atol=1e-12)

    def test_nan_target_does_not_hold_the_batch(self):
        y = np.linspace(0.0, 1.0, 1001)
        y[500] = np.nan
        fn = Counted(square)
        x = bisect_increasing(fn, y)
        assert math.isnan(x[500])
        assert np.isfinite(np.delete(x, 500)).all()
        assert fn.lanes < 10 * y.size

    def test_jumping_phi_declared_bijective_is_refuted_with_witness(self):
        phi = PhiSpec.from_unit_function(
            UnitFunction(evaluator=jump, continuous_bijection=True, name="jump"))
        g = make_grid(20)
        report = check_quasi_homogeneity(catalog_lookup("min"), phi, PsiSpec.power(1.0),
                                         grid=g)
        assert report.passed is False
        assert math.isnan(report.max_residual)
        assert report.witness is not None
        assert all(v in set(g.points.tolist()) for v in report.witness)


class TestBlocksAndEndpointScreen:
    @pytest.mark.parametrize("fn", [square, lambda x: np.power(x, 1.7)],
                             ids=["x^2", "x^1.7"])
    def test_lanes_across_block_boundaries_equal_their_targets_alone(self, fn):
        rng = np.random.default_rng(11)
        y = rng.uniform(size=3 * _REFINE_BLOCK + 17)
        dup = rng.choice(y.size, 16, replace=False)
        y[dup[:8]] = y[dup[8:]]
        y[dup[8:10]] = np.nan
        y[dup[10]], y[dup[11]] = 0.0, 1.0
        targets, at = distinct(y[(y > 0.0) & (y < 1.0)])
        assert targets.size > 3 * _REFINE_BLOCK
        # lanes whose targets sit on either side of each block boundary
        edges = [k for b in (1, 2, 3) for k in (b * _REFINE_BLOCK - 1, b * _REFINE_BLOCK)]
        inner = np.flatnonzero((y > 0.0) & (y < 1.0))
        picked = {int(inner[np.flatnonzero(at == k)[0]]) for k in edges}
        picked |= set(dup.tolist())
        for i in rng.permutation(y.size).tolist():
            if len(picked) == 200:
                break
            picked.add(i)
        lanes = sorted(picked)
        batch = bisect_increasing(fn, y)
        alone = np.array([bisect_increasing(fn, float(y[i])) for i in lanes])
        assert np.array_equal(batch[lanes].view(np.int64), alone.view(np.int64))

    def test_endpoint_targets_call_fn_on_the_bracket_table_only(self):
        fn = Counted(square)
        y = np.tile([0.0, 1.0, -1e-13, 1.0 + 1e-13], 10**4)
        x = bisect_increasing(fn, y)
        assert fn.lanes == len(_BRACKET_TABLE)
        assert np.array_equal(x, np.tile([0.0, 1.0, 0.0, 1.0], 10**4))


class TestDistinct:
    def test_sorted_values_and_index_rebuild_the_array(self):
        values = np.array([0.5, -0.0, 0.25, np.nan, 0.5, 0.0, 1.0, np.nan, 0.25])
        w, at = distinct(values)
        assert np.array_equal(w[:4], [0.0, 0.25, 0.5, 1.0])
        assert np.isnan(w[4:]).all() and len(w) == 6  # each NaN is its own value
        assert np.array_equal(w[at], values, equal_nan=True)

    def test_empty(self):
        w, at = distinct(np.array([]))
        assert w.size == 0 and at.size == 0 and at.dtype == np.intp


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


#: 10^5 seeded targets in [0, 1), the smallest near 6.9e-6
TARGETS = np.random.default_rng(2024).uniform(size=10**5)


class TestRootBits:
    """SHA-256 of the roots, bit for bit. Every function here is built from
    IEEE-exact operations only (products, quotients, square roots), so the
    roots do not depend on the platform's libm."""

    @pytest.mark.parametrize("fn, digest", [
        (lambda x: x * x, "ac6f94d09afd533e1580fff7984b3fe3805e3e64af15cf528efcf1e765d5b335"),
        (np.sqrt, "419e2c67aab8a0b65e8c2b78f099999a771765ffef1fe420d856512c701f8005"),
        (lambda x: x * x * x, "f5d218bbd9376a61b8b73625914cd5b469b2b1fee76a6e9b08a03b82b67b3d7f"),
        # x^(1/16): targets below 2^(-60/16) splice in the deep table
        (lambda x: np.sqrt(np.sqrt(np.sqrt(np.sqrt(x)))),
         "ff8b72162b28fa0c3f2d409cfd556b8c1454a5124c82b75aa1ae8ff4248a518a"),
    ], ids=["x*x", "sqrt", "x*x*x", "sqrt^4"])
    def test_bisect_increasing_roots(self, fn, digest):
        assert _sha256(bisect_increasing(fn, TARGETS)) == digest

    def test_deep_table_is_reached(self):
        assert float(TARGETS.min()) < 2.0 ** (-60 / 16)

    def test_unbounded_phi_inverse(self):
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        assert (_sha256(phi.invert(TARGETS))
                == "baa7860090a8196dc514aa3fb59087f3838fce6a438ebb5b88ee5a1c9c932bab")


#: 10^4 seeded targets in [0, 1): half uniform, half log-uniform down to 1e-30
BOUND_TARGETS = np.concatenate([np.random.default_rng(0).uniform(size=5000),
                                10.0 ** np.random.default_rng(1).uniform(-30.0, 0.0, 5000)])


class TestBracketBound:
    """Every root of a numeric inverse lies within 2^-44 of the true root
    (the width of its final bracket), give or take the rounding of the
    closed-form root it is compared with. The scaling law holds closed-form
    and numeric inverses to one tolerance on the strength of this bound."""

    @pytest.mark.parametrize("text, b, to_target, root", [
        ("x^2", None, lambda t: t, np.sqrt),
        ("x^3", None, lambda t: t, np.cbrt),
        ("x^0.5", None, lambda t: t, np.square),
        ("x/(1-x)", float("inf"), lambda t: t / (1.0 - t), lambda y: y / (1.0 + y)),
    ], ids=["x^2", "x^3", "x^0.5", "x/(1-x), b=inf"])
    def test_root_within_the_bracket_width(self, text, b, to_target, root):
        phi = PhiSpec.from_expr(text, b=b)
        assert not phi.closed_form
        y = to_target(BOUND_TARGETS)
        exact = root(y)
        assert np.all(np.abs(phi.invert(y) - exact) <= 2.0 ** -44 + np.spacing(exact))

    @pytest.mark.parametrize("text, mp_phi", [
        ("x^20", lambda x: x ** 20),
        ("x^0.05", lambda x: x ** 0.05),
        ("(x+x^5)/2", lambda x: (x + x ** 5) / 2),
        ("(1024^x-1)/1023", lambda x: (1024 ** x - 1) / 1023),
    ], ids=["x^20", "x^0.05", "(x+x^5)/2", "(1024^x-1)/1023"])
    def test_root_within_the_bracket_width_by_mpmath(self, text, mp_phi):
        """Steep phis, and phis with no usable closed form. The true root
        lies within 2^-44 of a root r exactly when phi(r - 2^-44) <= y <=
        phi(r + 2^-44), which mpmath decides at 200 bits."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2)
        y = np.concatenate([rng.uniform(size=150), 10.0 ** rng.uniform(-30.0, 0.0, 150)])
        roots = PhiSpec.from_expr(text).invert(y)
        with mpmath.workprec(200):
            half = mpmath.mpf(2) ** -44
            for target, r in zip(y.tolist(), roots.tolist()):
                lo, hi = max(mpmath.mpf(r) - half, 0), min(mpmath.mpf(r) + half, 1)
                assert mp_phi(lo) <= target <= mp_phi(hi), (target, r)


_BISECTED = UnitFunction(evaluator=power_function(2).evaluator, continuous_bijection=True,
                         name="x^2 (no closed form)")
_EXPR_BIJECTION = unit_function_from_expr("2*x/(1+x)", continuous_bijection=True)

#: every public elementwise evaluator, as a function of one argument
EVALUATORS = {
    "ext_mul": lambda v: ext_mul(v, 2.0),
    "ext_mul(v, v)": lambda v: ext_mul(v, v),
    "bisect_increasing": lambda v: bisect_increasing(lambda x: x * x, v),
    "invert_monotone closed form": lambda v: invert_monotone(power_function(2), v),
    "invert_monotone bisection": lambda v: invert_monotone(_BISECTED, v),
    "UnitFunction": power_function(2),
    "UnitFunction expression": _EXPR_BIJECTION,
    "UnitFunction.invert closed form": power_function(2).invert,
    "UnitFunction.invert bisection": _EXPR_BIJECTION.invert,
    "AggregationFunction": lambda v: catalog_lookup("product")(v, v),
    "AggregationFunction(v, 0.5)": lambda v: catalog_lookup("min")(v, 0.5),
    "PsiSpec power": PsiSpec.power(2.0),
    "PsiSpec step0": PsiSpec.step_at_zero(),
    "PsiSpec step1": PsiSpec.step_at_one(),
    "PhiSpec identity": PhiSpec.identity(),
    "PhiSpec.invert identity": PhiSpec.identity().invert,
    "PhiSpec power": PhiSpec.power(2.0),
    "PhiSpec.invert power": PhiSpec.power(2.0).invert,
    "PhiSpec expression": PhiSpec.from_expr("x^2"),
    "PhiSpec.invert expression": PhiSpec.from_expr("x^2").invert,
    "PhiSpec unbounded": PhiSpec.from_expr("x/(1-x)", b=float("inf")),
    "PhiSpec.invert unbounded": PhiSpec.from_expr("x/(1-x)", b=float("inf")).invert,
    "PhiSpec inverse_of": PhiSpec.inverse_of(power_function(2)),
    "eval_expr": lambda v: eval_expr(parse_expr("x^2"), v),
}


class TestReturnType:
    """A scalar in gives a Python float out; an array in gives a float64
    array of the same shape."""

    @pytest.mark.parametrize("name", list(EVALUATORS))
    @pytest.mark.parametrize("scalar", [0.25, np.float64(0.25), np.array(0.25)],
                             ids=["float", "float64", "0-d"])
    def test_scalar_in_float_out(self, name, scalar):
        assert type(EVALUATORS[name](scalar)) is float

    @pytest.mark.parametrize("name", list(EVALUATORS))
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (0,)])
    def test_array_in_array_of_its_shape_out(self, name, shape):
        v = np.linspace(0.0, 0.75, int(np.prod(shape))).reshape(shape)
        out = EVALUATORS[name](v)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == shape
