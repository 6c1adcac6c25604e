"""Inputs that used to escape as non-library exceptions or silent numbers."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhagg import (
    CLASS3,
    NOT_QH,
    DomainError,
    GeneratorTriple,
    PhiSpec,
    PsiSpec,
    QhaggError,
    catalog_lookup,
    check_aggregation,
    check_homogeneous_order,
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
from qhagg.algebra import COMBINERS, AggregationFunction, UnitFunction
from qhagg.cli import build_aggregation, load_grid_csv, main
from qhagg.exprparse import eval_expr, parse_expr
from qhagg.numerics import MAX_GRID_N, bisect_increasing
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


def test_a_psi_that_returns_a_scalar_is_read_as_a_constant():
    assert check_multiplicative(lambda x: 1.0).passed
    report = check_multiplicative(lambda x: 0.5, grid=G10)
    assert (report.passed, report.witness, report.max_residual) == (False, (0.0, 0.0), 0.25)


def test_bisecting_a_constant_function_refuses_the_target():
    u = UnitFunction(lambda x: 0.5, continuous_bijection=True)
    with pytest.raises(DomainError) as info:
        u.invert(0.3)
    assert str(info.value) == (
        "target 0.3 is not bracketed by [0.0, 1.0] (no solution within tol)")


def test_a_phi_inverse_that_returns_a_scalar_is_read_as_a_constant():
    phi = PhiSpec(b=1.0, evaluator=lambda x: 0.5, inverse=lambda y: 0.5)
    report = check_quasi_homogeneity(catalog_lookup("product"), phi, PsiSpec.power(1), grid=G10)
    assert str(report) == ("quasi-homogeneity psi=power:c=1 phi=phi: max residual 0.5 at "
                           "(0.0, 0.0, 0.0) (grid n=10, tol=1e-09) -> FAIL")


class TestOutOfRangeTarget:
    def test_power_psi_reports_a_witness_where_A_leaves_the_unit_interval(self):
        # A leaves [0, 1]; phi is read at A clipped to [0, 1], so the
        # expression phi reports the failure the catalog power reports
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
        # the n = 8 grid holds points the n = 4 dump does not: NaN there
        path = tmp_path / "min.csv"
        assert main(["grid", "--fn", "min", "--n", "4", "--out", str(path)]) == 0
        report = classify(load_grid_csv(str(path)), grid=make_grid(8))
        assert report.verdict == NOT_QH
        assert report.reason == "not an aggregation function: A(0.0,0.125)=nan outside [0,1]"
        assert report.witness == (1.0, 0.0, 0.125, np.inf)

    def test_classify_at_the_dumps_own_n_has_a_witness_on_its_grid(self, tmp_path):
        # the table passes the aggregation check on its own grid; the
        # diagonal's bisection and the sweep read it at points off that grid
        path, grid = tmp_path / "product.csv", make_grid(4)
        assert main(["grid", "--fn", "product", "--n", "4", "--out", str(path)]) == 0
        table = load_grid_csv(str(path))
        assert check_aggregation(table, grid=grid).passed
        report = classify(table, grid=grid)
        assert report.verdict == NOT_QH
        *point, residual = report.witness
        assert all(v in grid.points for v in point) and np.isnan(residual)

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
    (lambda: PhiSpec.inverse_of(identity(), 0), "power exponent must be positive, got 0"),
    (lambda: PhiSpec.from_expr("x", b=2.0), "phi expression 'x': b must be None or inf, got 2.0"),
    (lambda: power_function(np.inf), "power exponent must be finite, got inf"),
    (lambda: PhiSpec.power(np.inf), "power exponent must be finite, got inf"),
    (lambda: PhiSpec.inverse_of(identity(), np.inf), "power exponent must be finite, got inf"),
    (lambda: PsiSpec.power(np.inf), "power exponent must be finite, got inf"),
    (lambda: check_homogeneous_order(catalog_lookup("product"), np.inf, grid=G10),
     "power exponent must be finite, got inf"),
    (lambda: power_function(1e-300),
     "power exponent is too small: x^c rounds to 1 at x = 0.5, got 1e-300"),
    (lambda: PsiSpec.power(5e-324),
     "power exponent is too small: x^c rounds to 1 at x = 0.5, got 5e-324"),
    (lambda: PhiSpec.power(1e-17),
     "power exponent is too small: x^c rounds to 1 at x = 0.5, got 1e-17"),
    (lambda: PhiSpec.inverse_of(identity(), 1e-300),
     "power exponent is too small: x^c rounds to 1 at x = 0.5, got 1e-300"),
    (lambda: check_homogeneous_order(catalog_lookup("product"), 1e-300, grid=G10),
     "power exponent is too small: x^c rounds to 1 at x = 0.5, got 1e-300"),
    (lambda: power_function(1e300),
     "power exponent is too large: x^(1/c) rounds to 1 at x = 0.5, got 1e+300"),
    (lambda: PsiSpec.power(1e300),
     "power exponent is too large: x^(1/c) rounds to 1 at x = 0.5, got 1e+300"),
    (lambda: PhiSpec.power(1e18),
     "power exponent is too large: x^(1/c) rounds to 1 at x = 0.5, got 1e+18"),
    (lambda: PhiSpec.inverse_of(identity(), 1e18),
     "power exponent is too large: x^(1/c) rounds to 1 at x = 0.5, got 1e+18"),
    (lambda: check_homogeneous_order(catalog_lookup("product"), 1e300, grid=G10),
     "power exponent is too large: x^(1/c) rounds to 1 at x = 0.5, got 1e+300"),
    (lambda: power_function(10**400), "power exponent is too large for a float"),
    (lambda: PsiSpec("power", 10**400), "power exponent is too large for a float"),
    (lambda: check_homogeneous_order(catalog_lookup("product"), 10**400, grid=G10),
     "power exponent is too large for a float"),
    (lambda: make_grid(2**62 - 1), f"grid resolution must be <= {MAX_GRID_N}, got {2**62 - 1}"),
    (lambda: make_grid(2**63 - 1), f"grid resolution must be <= {MAX_GRID_N}, got {2**63 - 1}"),
    (lambda: make_grid(10**400), f"grid resolution must be <= {MAX_GRID_N}, got {10**400}"),
    (lambda: classify(catalog_lookup("product"), grid=make_grid(8), tol=np.nan),
     "tol must be a number >= 0, got nan"),
    (lambda: classify(catalog_lookup("product"), grid=make_grid(8), tol=-1),
     "tol must be a number >= 0, got -1"),
    (lambda: classify(catalog_lookup("product"), grid=make_grid(8), tol=10**400),
     "tol is too large for a float"),
    (lambda: check_aggregation(catalog_lookup("product"), grid=G10, tol=10**400),
     "tol is too large for a float"),
    (lambda: check_aggregation(catalog_lookup("product"), grid=G10, tol=np.nan),
     "tol must be a number >= 0, got nan"),
    (lambda: check_quasi_homogeneity(catalog_lookup("product"), PhiSpec.identity(),
                                     PsiSpec.power(1), grid=G10, tol=-1e-300),
     "tol must be a number >= 0, got -1e-300"),
    (lambda: check_multiplicative(PsiSpec.power(2), grid=G10, tol=np.nan),
     "tol must be a number >= 0, got nan"),
    (lambda: check_homogeneous_order(catalog_lookup("product"), 2, grid=G10, tol=-1),
     "tol must be a number >= 0, got -1"),
    (lambda: diagonal_bijection_check(identity(), grid=G10, tol=-np.inf),
     "tol must be a number >= 0, got -inf"),
    (lambda: validate_triple(GeneratorTriple(f=identity(), g=identity(), h=identity()),
                             grid=G10, tol=np.nan),
     "tol must be a number >= 0, got nan"),
], ids=["power_function(0)", "inverse_of(identity(), 0)", "from_expr('x', b=2.0)",
        "power_function(inf)", "PhiSpec.power(inf)", "inverse_of(identity(), inf)",
        "PsiSpec.power(inf)", "check_homogeneous_order(F, inf)",
        "power_function(1e-300)", "PsiSpec.power(5e-324)", "PhiSpec.power(1e-17)",
        "inverse_of(identity(), 1e-300)", "check_homogeneous_order(F, 1e-300)",
        "power_function(1e300)", "PsiSpec.power(1e300)", "PhiSpec.power(1e18)",
        "inverse_of(identity(), 1e18)", "check_homogeneous_order(F, 1e300)",
        "power_function(10**400)", "PsiSpec('power', 10**400)",
        "check_homogeneous_order(F, 10**400)", "make_grid(2**62 - 1)", "make_grid(2**63 - 1)",
        "make_grid(10**400)", "classify(tol=nan)", "classify(tol=-1)", "classify(tol=10**400)",
        "check_aggregation(tol=10**400)", "check_aggregation(tol=nan)",
        "check_quasi_homogeneity(tol=-1e-300)", "check_multiplicative(tol=nan)",
        "check_homogeneous_order(tol=-1)", "diagonal_bijection_check(tol=-inf)",
        "validate_triple(tol=nan)"])
def test_out_of_domain_parameter_is_a_domain_error(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text


@pytest.mark.parametrize("tol", [0, -0.0, np.inf])
def test_zero_and_infinite_tol_are_admitted_by_every_check(tol):
    F, g = catalog_lookup("product"), make_grid(8)
    reports = [
        check_aggregation(F, grid=g, tol=tol),
        check_quasi_homogeneity(F, PhiSpec.identity(), PsiSpec.power(2), grid=g, tol=tol),
        check_multiplicative(PsiSpec.power(2), grid=g, tol=tol),
        check_homogeneous_order(F, 2, grid=g, tol=tol),
        diagonal_bijection_check(identity(), grid=g, tol=tol),
        classify(F, grid=g, tol=tol),
        validate_triple(GeneratorTriple(f=identity(), g=identity(), h=identity()),
                        grid=g, tol=tol),
    ]
    assert [r.tol for r in reports] == [float(tol)] * 7


def test_a_grid_of_a_million_intervals_still_builds():
    assert len(make_grid(10**6).points) == 10**6 + 1


def test_a_large_finite_exponent_still_builds():
    # x^(1/c) at 0.5 is 1 - 6.7e-16 here, still below 1
    u = power_function(1e15)
    assert u.continuous_bijection and u.invert(0.5) < 1.0
    assert PsiSpec.power(1e15)(0.5) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_integer_exponent_gives_the_bits_of_its_float(k):
    # power_function reads c as a float once; no exponent changes type on the way
    p = make_grid(50).points
    np.testing.assert_array_equal(PsiSpec("power", k)(p).view(np.uint64),
                                  PsiSpec.power(float(k))(p).view(np.uint64))
    np.testing.assert_array_equal(power_function(k).invert(p).view(np.uint64),
                                  power_function(float(k)).invert(p).view(np.uint64))
    F = catalog_lookup("product")
    assert str(check_homogeneous_order(F, k, grid=G10)) == str(
        check_homogeneous_order(F, float(k), grid=G10))


def test_text_is_not_read_as_an_exponent():
    with pytest.raises(TypeError):
        power_function("2")


def test_an_overflowing_psi_exponent_is_a_usage_error(capsys):
    code = main(["check", "--fn", "product", "--mode", "qh", "--psi", "power:c=1e400",
                 "--grid", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: power exponent must be finite, got inf\n")


def test_a_vanishing_psi_exponent_is_a_usage_error(capsys):
    # x^1e-300 rounds to a step; it ran a sweep and exited 1
    code = main(["check", "--fn", "product", "--mode", "qh", "--psi", "power:c=1e-300",
                 "--grid", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: power exponent is too small: x^c rounds to 1 at x = 0.5, got 1e-300\n")


def test_a_huge_psi_exponent_is_a_usage_error(capsys):
    # x^1e300 rounds to a step at one; it ran a sweep and exited 1
    code = main(["check", "--fn", "product", "--mode", "qh", "--psi", "power:c=1e300",
                 "--grid", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: power exponent is too large: x^(1/c) rounds to 1 at x = 0.5, "
        "got 1e+300\n")


# -- generated expression inputs --------------------------------------------

NUMBERS = st.sampled_from(["0", "1", "2", "3", "0.5", "10", "0.0000001"])


def _compose(parts):
    return (st.tuples(parts, st.sampled_from("+-*/^"), parts).map(lambda t: "({}{}{})".format(*t))
            | st.tuples(parts, NUMBERS).map(lambda t: f"{t[0]}^{t[1]}")
            | parts.map(lambda e: f"-{e}"))


#: increasing bijections of [0, 1] and their compositions, bijections too
SECTIONS = st.recursive(
    st.sampled_from(["x", "x^2", "x*x", "x^0.5", "x^0.05", "2*x/(1+x)", "(x+x^5)/2",
                     "1-(1-x)^2", "x/(2-x)"]),
    lambda parts: st.tuples(parts, parts).map(lambda t: t[0].replace("x", f"({t[1]})")),
    max_leaves=3)

#: half sections, the rest free expressions in x and arbitrary text
EXPRESSIONS = st.one_of(SECTIONS, SECTIONS, st.recursive(st.just("x") | NUMBERS, _compose,
                                                         max_leaves=6),
                        st.text("x0123456789.+-*/^() ", max_size=10))

SPECS = (st.builds(lambda c, u, v: {"kind": "expr2d", "combiner": c, "u": u, "v": v},
                   st.sampled_from(sorted(COMBINERS)), EXPRESSIONS, EXPRESSIONS)
         | st.builds(lambda f, g, h: {"kind": "triple", "f": f, "g": g, "h": h},
                     EXPRESSIONS, EXPRESSIONS, EXPRESSIONS)
         | st.builds(lambda g, h: {"kind": "boundary", "g": g, "h": h},
                     EXPRESSIONS, EXPRESSIONS))

PSIS = (st.floats(0.25, 4.0).map(PsiSpec.power)
        | st.sampled_from([PsiSpec.step_at_zero(), PsiSpec.step_at_one()]))


@settings(max_examples=60, deadline=None)
@given(spec=SPECS, validate=st.booleans(), n=st.sampled_from([2, 3, 8, 12]),
       phi=EXPRESSIONS, unbounded=st.booleans(), psi=PSIS)
def test_generated_inputs_raise_only_library_errors(spec, validate, n, phi, unbounded, psi):
    """Every check on any spec built from expressions either returns a
    report or raises a ``QhaggError``, with warnings as errors."""
    grid = make_grid(n)

    def qh(A):
        phi_spec = PhiSpec.from_expr(phi, b=float("inf") if unbounded else None)
        return check_quasi_homogeneity(A, phi_spec, psi, grid=grid)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            A = build_aggregation(spec, validate=validate)
        except QhaggError:
            return
        for check in (functools.partial(classify, grid=grid),
                      functools.partial(check_aggregation, grid=grid), qh):
            try:
                check(A)
            except QhaggError:
                pass
