"""Inputs that used to escape as non-library exceptions or silent numbers."""

import functools

import numpy as np
import pytest

from qhagg import (
    CLASS3,
    NOT_QH,
    DomainError,
    GeneratorTriple,
    PhiSpec,
    PsiSpec,
    QhaggError,
    check_aggregation,
    check_multiplicative,
    check_quasi_homogeneity,
    class_boundary,
    classify,
    diagonal_bijection_check,
    identity,
    make_grid,
    power_function,
    recover_psi,
    validate_triple,
)
from qhagg.algebra import AggregationFunction, UnitFunction
from qhagg.cli import load_grid_csv, main
from qhagg.exprparse import eval_expr, parse_expr
from qhagg.numerics import bisect_increasing
from qhagg.verify import ClassificationReport

G10 = make_grid(10)


def min_with_nan_hole():
    return AggregationFunction(
        lambda x, y: np.where((x == 0.5) & (y == 0.5), np.nan, np.minimum(x, y)),
        provenance="min with a NaN at (0.5, 0.5)")


class TestNonFiniteSamples:
    def test_check_aggregation_reports_range_violation(self):
        report = check_aggregation(min_with_nan_hole(), grid=G10)
        assert not report.passed and not report.range_ok
        (x, y, v), = report.witness
        assert (x, y) == (0.5, 0.5) and np.isnan(v)
        assert report.max_violation == np.inf

    def test_classify_refutes(self):
        report = classify(min_with_nan_hole(), grid=G10)
        assert report.verdict == NOT_QH
        assert report.reason.startswith("not an aggregation function")
        assert report.witness[1:3] == (0.5, 0.5)

    def test_multiplicative_failure_has_a_witness(self):
        report = check_multiplicative(
            lambda x: np.where(np.asarray(x) == 0.5, np.nan, x), grid=G10)
        assert not report.passed
        assert report.witness == (0.0, 0.5)

    @pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.from_expr("x^2"),
                                     PhiSpec.from_expr("x/(1-x)", b=float("inf"))],
                             ids=["identity", "x^2", "x/(1-x), b=inf"])
    def test_recover_psi_gives_no_fit(self, phi):
        A = AggregationFunction(
            lambda x, y: np.where((x == 0.5) & (y == 0.5), np.nan, x * y),
            provenance="product with a NaN at (0.5, 0.5)")
        rec = recover_psi(A, phi, grid=G10)
        assert rec.fitted is None
        assert rec.note == "NaN diagonal at lam=0.5"
        assert np.isnan(rec.max_fit_residual) and np.isnan(rec.samples[5])


#: sections whose evaluator returns a Python float whatever its argument
ONE = UnitFunction(lambda x: 1.0, increasing=True, name="one")
HALF = UnitFunction(lambda x: 0.5, name="half")


@pytest.mark.parametrize("call, text", [
    (lambda: validate_triple(GeneratorTriple(f=identity(), g=ONE, h=ONE)).ok, "True"),
    (lambda: class_boundary(ONE, ONE)(0.5, 1.0), "1.0"),
    (lambda: diagonal_bijection_check(HALF).reason,
     "diagonal is not strictly increasing: delta(0.0)=0.5, delta(0.01)=0.5"),
    (lambda: recover_psi(AggregationFunction(lambda x, y: 0.5, "half"), PhiSpec.identity()),
     "psi recovery: no fit (power fit residual 0.442593 above 1e-06)"),
    (lambda: ClassificationReport(verdict=CLASS3, g=ONE, h=HALF, grid_n=10),
     "Class3 g=(sampled) h=(sampled)"),
], ids=["validate_triple", "class_boundary", "diagonal_bijection_check", "recover_psi",
        "report labels"])
def test_a_section_that_returns_a_scalar_is_sampled_as_a_constant(call, text):
    assert str(call()) == text


class TestOutOfRangeTarget:
    def test_power_psi_reports_a_witness_where_A_leaves_the_unit_interval(self):
        # A leaves [0, 1]; phi is read at A clipped to [0, 1], so the
        # bisection-backed phi reports the failure the closed form reports
        A = AggregationFunction(lambda x, y: 1.5 * x * y, provenance="1.5 x y")
        report = check_quasi_homogeneity(A, PhiSpec.from_expr("x^2"), PsiSpec.power(1.0),
                                         grid=G10)
        assert not report.passed
        assert report.witness == (0.4, 0.7, 1.0)
        assert all(v in G10.points for v in report.witness)
        closed = check_quasi_homogeneity(A, PhiSpec.power(2.0), PsiSpec.power(1.0), grid=G10)
        assert closed.witness == report.witness
        assert abs(closed.max_residual - report.max_residual) <= 1e-12

    def test_domain_error_prints_the_target_as_a_plain_float(self):
        # 1.125 lies beyond the image of x^2 on [0, 1]; the message names
        # it as Python prints a float, not as np.float64(1.125)
        square = functools.partial(eval_expr, parse_expr("x^2"))
        with pytest.raises(DomainError) as info:
            bisect_increasing(square, np.array([0.5, 1.125, 2.25]))
        assert str(info.value) == (
            "target 1.125 is not bracketed by [0.0, 1.0] (no solution within tol)")


class TestLoadGridCsv:
    def test_off_grid_lookup(self, tmp_path):
        path = tmp_path / "min.csv"
        assert main(["grid", "--fn", "min", "--n", "4", "--out", str(path)]) == 0
        with pytest.raises(QhaggError, match=r"no value at \(0\.0, 0\.125\)"):
            classify(load_grid_csv(str(path)), grid=make_grid(8))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,value\n0.0,0.0,0.0\n0.0,1.0\n")
        with pytest.raises(QhaggError, match="line 3"):
            load_grid_csv(str(path))

    def test_unexpected_header(self, tmp_path):
        path = tmp_path / "abc.csv"
        path.write_text("a,b,c\n0.0,0.0,0.0\n")
        with pytest.raises(QhaggError) as info:
            load_grid_csv(str(path))
        assert type(info.value) is QhaggError
        assert str(info.value) == f"unexpected CSV header 'a,b,c' in {path}"


@pytest.mark.parametrize("call, text", [
    (lambda: power_function(0), "power exponent must be positive, got 0"),
    (lambda: PhiSpec.inverse_of(identity(), 0), "exponent must be positive, got 0"),
    (lambda: PhiSpec.from_expr("x", b=2.0), "phi expression 'x': b must be None or inf, got 2.0"),
], ids=["power_function(0)", "inverse_of(identity(), 0)", "from_expr('x', b=2.0)"])
def test_out_of_domain_parameter_is_a_domain_error(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text
