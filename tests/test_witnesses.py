"""Exact first witnesses and messages of every sample check.

Each check refutes a property with the first offending grid point in C
order (x-direction before y-direction). These tests pin that point and
the message text for one failing input per check, so that the shared
first-witness search cannot drift from what the checks reported before.
"""

import numpy as np
import pytest

from qhagg import (
    NOT_QH,
    ContractError,
    GeneratorTriple,
    PhiSpec,
    catalog_lookup,
    check_aggregation,
    check_multiplicative,
    class_boundary,
    classify,
    diagonal,
    diagonal_bijection_check,
    from_triple,
    identity,
    make_grid,
    power_function,
    unit_function_from_expr,
    validate_triple,
)
from qhagg.algebra import AggregationFunction, UnitFunction

G10 = make_grid(10)


def unit(evaluator, name, **flags):
    return UnitFunction(evaluator=evaluator, name=name, **flags)


class TestUnitFunctionSamples:
    @pytest.mark.parametrize("text, flags, message", [
        ("2*x", {}, "expression '2*x': value 1.2 at x=0.6 falls outside [0, 1]"),
        ("1-x", {"increasing": True},
         "expression '1-x': declared increasing but decreases on (0.0, 0.1)"),
        ("x^2*0+0.5", {"strictly_increasing": True},
         "expression 'x^2*0+0.5': declared strictly increasing but is flat on (0.0, 0.1)"),
        ("x/2", {"continuous_bijection": True},
         "expression 'x/2': declared continuous_bijection but endpoints are "
         "(0.0, 0.5), expected (0.0, 1.0)"),
    ])
    def test_message(self, text, flags, message):
        with pytest.raises(ContractError) as exc:
            unit_function_from_expr(text, grid=G10, **flags)
        assert str(exc.value) == message


class TestValidateTriple:
    def test_endpoint_and_monotone_witnesses(self):
        t = GeneratorTriple(f=unit(lambda x: 2.0 * np.minimum(x, 0.5), "f"),
                            g=unit(lambda x: 1.0 - x + x * x, "g"),
                            h=unit(lambda x: x / 2.0, "h"))
        failures = {c.name: c.witness for c in validate_triple(t, grid=G10).failures}
        assert failures == {
            "f strictly increasing": (0.5, 0.6),
            "g increasing": (0.0, 0.1),
            "h(1)=1": (1.0, 0.5),
            "f_inv(h(x))/x nonincreasing on (0,1]": None,
            "f_inv(g(x))/x nonincreasing on (0,1]": None,
        }

    def test_ratio_witness_and_detail(self):
        t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
        (fail,) = validate_triple(t, grid=G10).failures
        assert str(fail) == ("f_inv(h(x))/x nonincreasing on (0,1]: FAIL witness=(0.1, 0.2) "
                             "(ratio rises 0.10000000000000002 -> 0.20000000000000004)")


class TestClassBoundary:
    def test_decrease_message(self):
        bump = unit(lambda x: np.where(x == 0.5, 0.9, x), "bump", increasing=True)
        with pytest.raises(ContractError) as exc:
            class_boundary(bump, identity(), grid=G10)
        assert str(exc.value) == "class_boundary: g decreases on (0.5, 0.6)"

    def test_range_message(self):
        low = unit(lambda x: 2.0 * x - 1.0, "2x-1", increasing=True)
        with pytest.raises(ContractError) as exc:
            class_boundary(identity(), low, grid=G10)
        assert str(exc.value) == "class_boundary: h leaves [0, 1] on the grid"


class TestPhiFromExpr:
    @pytest.mark.parametrize("text, b, message", [
        ("x+1", None, "phi expression 'x+1': phi(0) must be 0, got 1.0"),
        ("x*(1-x)", None,
         "phi expression 'x*(1-x)' is not strictly increasing on (0.5, 0.6)"),
        ("x*(0.5-x)", float("inf"),
         "phi expression 'x*(0.5-x)' is not strictly increasing on (0.2, 0.3)"),
    ])
    def test_message(self, text, b, message):
        with pytest.raises(ContractError) as exc:
            PhiSpec.from_expr(text, b=b, grid=G10)
        assert str(exc.value) == message


class TestDiagonalWitness:
    def test_flat_step(self):
        report = diagonal_bijection_check(diagonal(catalog_lookup("drastic")), grid=G10)
        assert report.witness == (0.0, 0.1, 0.0, 0.0)

    def test_endpoints(self):
        report = diagonal_bijection_check(unit(lambda x: x / 2.0, "x/2"), grid=G10)
        assert report.witness == (0.0, 1.0, 0.0, 0.5)


class TestMultiplicativeWitness:
    def test_first_pair(self):
        report = check_multiplicative(lambda x: np.asarray(x) * (2.0 - np.asarray(x)),
                                      grid=G10)
        assert report.witness == (0.1, 0.1)
        assert report.max_residual == 0.125


class TestAggregationWitness:
    def test_boundary(self):
        A = AggregationFunction(lambda x, y: x + y, provenance="sum")
        report = check_aggregation(A, grid=G10)
        assert report.witness == ((1.0, 1.0, 2.0),)
        assert report.reason == "A(1,1)=2.0, expected 1"

    def test_range(self):
        A = AggregationFunction(
            lambda x, y: np.where((x == 0.5) & (y == 0.3), -0.25, np.minimum(x, y)),
            provenance="dip")
        report = check_aggregation(A, grid=G10)
        assert report.witness == ((0.5, 0.3, -0.25),)
        assert report.reason == "A(0.5,0.3)=-0.25 outside [0,1]"
        assert report.max_violation == 0.55

    def test_decreasing_in_x(self):
        A = AggregationFunction(
            lambda x, y: np.minimum(x, y) * (1.0 - 0.5 * (x > 0.45) * (x < 0.55)),
            provenance="dip in x")
        report = check_aggregation(A, grid=G10)
        assert report.witness == ((0.4, 0.1, 0.1), (0.5, 0.1, 0.05))
        assert report.reason == "decreasing in x: A(0.5,0.1)=0.05 < A(0.4,0.1)=0.1"

    def test_decreasing_in_y(self):
        A = from_triple(GeneratorTriple(f=identity(), g=identity(), h=power_function(2)),
                        validate=False)
        report = check_aggregation(A, grid=G10)
        assert report.witness == ((0.1, 0.1, 0.1), (0.1, 0.2, 0.05))
        assert report.reason == "decreasing in y: A(0.1,0.2)=0.05 < A(0.1,0.1)=0.1"


def _flat_with_sloped_axes(x, y):
    return np.where((x > 0.0) & (y > 0.0), 1.0, np.where(x == 0.0, y / 2.0, x / 3.0))


def _boundary_with_speck(x, y):
    # 0.8e-6 on [0,1)^2 (within tol 1e-6) except 1.5e-6 at (0.3, 0.7): no
    # lam < 1 maps a grid pair onto that point, so the scaling law holds
    # on the grid while the boundary-class formula does not
    inner = np.where((x == 0.3) & (y == 0.7), 1.5e-6, 0.8e-6)
    inner = np.where((x == 0.0) & (y == 0.0), 0.0, inner)
    edge = np.maximum(np.where(x == 1.0, y, x), 0.8e-6)
    return np.where((x < 1.0) & (y < 1.0), inner, edge)


class TestClassifyRefutations:
    def test_flat_branch_scaling_law(self):
        A = AggregationFunction(_flat_with_sloped_axes, provenance="sloped axes")
        report = classify(A, grid=G10)
        assert report.verdict == NOT_QH
        assert report.witness == (0.1, 0.0, 1.0, 0.45)
        assert report.reason == "interior diagonal is 1 but the step-at-zero scaling law fails"
        assert report.diagnostics == {"aggregation": 0.0, "class2_formula": 0.45,
                                      "scaling_law": 0.45}

    def test_boundary_branch_formula(self):
        A = AggregationFunction(_boundary_with_speck, provenance="speck")
        report = classify(A, grid=G10)
        assert report.verdict == NOT_QH
        assert report.witness == (1.0, 0.3, 0.7, 1.5e-6)
        assert report.reason == "interior diagonal is 0 but the boundary-class formula fails"
        assert report.diagnostics["class3_formula"] == 1.5e-6
        assert report.diagnostics["scaling_law"] == 8e-7
