import numpy as np
import pytest

from qhagg import (
    ContractError,
    DomainError,
    UnitFunction,
    bisect_increasing,
    bounded_rational,
    identity,
    invert_monotone,
    make_grid,
    power_function,
)


class TestMakeGrid:
    @pytest.mark.parametrize("n,expected", [
        (2, [0.0, 0.5, 1.0]),
        (1, [0.0, 1.0]),
        (4, [0.0, 0.25, 0.5, 0.75, 1.0]),
    ])
    def test_examples(self, n, expected):
        np.testing.assert_array_equal(make_grid(n).points, expected)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            make_grid(0)

    def test_points_are_exact_fractions(self):
        g = make_grid(100)
        assert all(g.points[i] == i / 100 for i in range(101))
        assert g.points[0] == 0.0 and g.points[-1] == 1.0

    def test_strictly_increasing(self):
        g = make_grid(37)
        assert np.all(np.diff(g.points) > 0)
        assert len(g) == 38

    @pytest.mark.parametrize("n", [2.5, 2.0, float("nan"), float("inf"), "3", None])
    def test_a_resolution_that_is_not_an_integer_is_refused(self, n):
        with pytest.raises(DomainError) as info:
            make_grid(n)
        assert str(info.value) == f"grid resolution must be an integer, got {n!r}"

    @pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_an_integer_resolution_of_any_integer_type_builds_the_grid(self, n):
        g = make_grid(n)
        assert g.n == 3 and len(g) == 4
        np.testing.assert_array_equal(g.points, [0.0, 1 / 3, 2 / 3, 1.0])


class TestInvertMonotone:
    def test_identity(self):
        assert invert_monotone(identity(), 0.3) == 0.3

    def test_square(self):
        assert invert_monotone(power_function(2), 0.25) == 0.5

    def test_rational_closed_form(self):
        # 2x/(1+x) = 2/3  <=>  6x = 2 + 2x  <=>  x = 0.5
        assert abs(invert_monotone(bounded_rational(), 2 / 3) - 0.5) < 1e-12

    def test_rational_bisection_oracle(self):
        # independent bisection oracle, separate from the library path
        fn = lambda x: 2 * x / (1 + x)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if fn(mid) <= 2 / 3:
                lo = mid
            else:
                hi = mid
        oracle = (lo + hi) / 2

        stripped = UnitFunction(evaluator=lambda x: 2 * np.asarray(x, float) / (1 + np.asarray(x, float)),
                                continuous_bijection=True, name="2x/(1+x)")
        got = invert_monotone(stripped, 2 / 3)
        assert abs(got - oracle) < 1e-10
        assert abs(got - 0.5) < 1e-10

    def test_undeclared_rejected(self):
        plain = UnitFunction(evaluator=lambda x: np.asarray(x, float))
        with pytest.raises(ContractError):
            invert_monotone(plain, 0.5)

    def test_unbracketed_target_rejected(self):
        with pytest.raises(DomainError):
            bisect_increasing(lambda x: 0.5 * np.asarray(x, float), 0.9)

    @pytest.mark.parametrize("make", [identity, lambda: power_function(2),
                                      lambda: power_function(0.5), bounded_rational])
    def test_inversion_residual_on_grid(self, make):
        f = make()
        ys = make_grid(100).points
        xs = np.asarray([invert_monotone(f, y) for y in ys])
        residual = np.abs(np.asarray(f.evaluator(xs), float) - ys)
        assert float(np.max(residual)) <= 1e-12

    @pytest.mark.parametrize("make", [identity, lambda: power_function(2),
                                      bounded_rational])
    def test_inversion_residual_bisection_path(self, make):
        f = make()
        stripped = UnitFunction(evaluator=f.evaluator, continuous_bijection=True)
        ys = make_grid(50).points
        xs = invert_monotone(stripped, ys)
        residual = np.abs(np.asarray(f.evaluator(xs), float) - ys)
        assert float(np.max(residual)) <= 1e-12

    def test_increasing_in_target(self):
        f = power_function(2)
        stripped = UnitFunction(evaluator=f.evaluator, continuous_bijection=True)
        ys = make_grid(50).points
        closed = np.asarray([invert_monotone(f, y) for y in ys])
        assert np.all(np.diff(closed) >= 0)
        # the bisection path may wobble within the residual target
        bis = np.asarray([invert_monotone(stripped, y) for y in ys])
        assert np.all(np.diff(bis) >= -1e-9)

    def test_exact_endpoints(self):
        stripped = UnitFunction(evaluator=lambda x: np.power(x, 2),
                                continuous_bijection=True)
        assert invert_monotone(stripped, 0.0) == 0.0
        assert invert_monotone(stripped, 1.0) == 1.0

    def test_vectorized_matches_scalar_shape(self):
        f = bounded_rational()
        ys = np.array([0.0, 0.5, 1.0])
        out = invert_monotone(f, ys)
        assert out.shape == ys.shape
        assert isinstance(invert_monotone(f, 0.5), float)
