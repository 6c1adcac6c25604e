"""The inversion primitive ``bisect_increasing``: per-lane results, work
counts and reported non-convergence.

Work is counted in lanes passed to the inverted function, not timed, so
these tests are deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qhagg import (PhiSpec, PsiSpec, UnitFunction, bisect_increasing, catalog_lookup,
                   check_quasi_homogeneity, make_grid, unit_function_from_expr)


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
