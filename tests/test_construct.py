import numpy as np
import pytest

from qhagg import (
    ContractError,
    DomainError,
    GeneratorTriple,
    PhiSpec,
    PsiSpec,
    bounded_rational,
    catalog_lookup,
    check_aggregation,
    check_quasi_homogeneity,
    class_boundary,
    class_flat,
    diagonal,
    from_triple,
    identity,
    make_grid,
    power_function,
    triple_of,
    unit_function_from_expr,
    validate_triple,
)
from qhagg.algebra import UnitFunction

GRID = make_grid(100)


def nan_at_half(x):
    x = np.asarray(x, float)
    return np.where(x == 0.5, np.nan, x)


#: sections that fail on the default grid: NaN at 0.5, and the V 2|x - 0.5|
NAN_SECTION = UnitFunction(evaluator=nan_at_half, increasing=True, name="nan@0.5")
V_SECTION = UnitFunction(evaluator=lambda x: 2.0 * np.abs(np.asarray(x, float) - 0.5),
                         name="2|x-0.5|")
NOT_EVALUATED = "FAIL (not evaluated: f is not an increasing bijection on the grid)"


def harmonic_triple():
    return GeneratorTriple(f=identity(), g=identity(), h=bounded_rational())


class TestValidateTriple:
    def test_harmonic_triple_passes(self):
        report = validate_triple(harmonic_triple(), grid=GRID)
        assert report.ok
        assert all(c.passed for c in report.conditions)

    def test_square_section_fails_ratio(self):
        t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
        report = validate_triple(t, grid=GRID)
        assert not report.ok
        failing = report.failures
        assert len(failing) == 1
        assert "h" in failing[0].name and "nonincreasing" in failing[0].name
        # ratio f_inv(h(x))/x = x is increasing; witness is a grid pair
        assert failing[0].witness is not None

    def test_scaled_identity_fails_endpoint(self):
        g = unit_function_from_expr("0.9*x", increasing=True)
        t = GeneratorTriple(f=identity(), g=g, h=identity())
        report = validate_triple(t, grid=GRID)
        assert not report.ok
        names = [c.name for c in report.failures]
        assert "g(1)=1" in names

    def test_non_bijective_f_reported_not_raised(self):
        flat_f = unit_function_from_expr("0.5*x")
        t = GeneratorTriple(f=flat_f, g=identity(), h=identity())
        report = validate_triple(t, grid=GRID)
        assert not report.ok
        assert any("f(1)=1" == c.name for c in report.failures)

    def test_report_renders(self):
        text = str(validate_triple(harmonic_triple(), grid=make_grid(10)))
        assert "valid" in text

    @pytest.mark.parametrize("f, g, h, failures", [
        (identity(), identity(), V_SECTION, [
            "h increasing: FAIL witness=(0.0, 0.01)",
            "f_inv(h(x))/x nonincreasing on (0,1]: FAIL witness=(0.5, 0.51) "
            "(ratio rises 0.0 -> 0.03921568627450984)"]),
        (identity(), NAN_SECTION, identity(), [
            "g increasing: FAIL witness=(0.49, 0.5)",
            "f_inv(g(x))/x nonincreasing on (0,1]: FAIL witness=(0.49, 0.5) "
            "(ratio rises 1.0 -> nan)"]),
        (NAN_SECTION, identity(), identity(), [
            "f strictly increasing: FAIL witness=(0.49, 0.5)",
            f"f_inv(h(x))/x nonincreasing on (0,1]: {NOT_EVALUATED}",
            f"f_inv(g(x))/x nonincreasing on (0,1]: {NOT_EVALUATED}"]),
    ], ids=["h-V", "g-NaN", "f-NaN"])
    def test_failure_texts_on_the_default_grid(self, f, g, h, failures):
        report = validate_triple(GeneratorTriple(f=f, g=g, h=h))
        assert [str(c) for c in report.failures] == failures

    @pytest.mark.parametrize("c, n, witness", [
        (0.9, 12, (0.08333333333333333, 0.09090909090909091)),
        (0.95, 20, (0.05, 0.052631578947368425)),
    ], ids=["x^0.9", "x^0.95"])
    def test_ratio_between_consecutive_grid_points_fails(self, c, n, witness):
        # the ratio conditions hold at consecutive grid points, but not at
        # the ratios x/y of grid points between them, where A reads g and h
        t = GeneratorTriple(f=power_function(c), g=bounded_rational(), h=bounded_rational())
        grid = make_grid(n)
        failures = validate_triple(t, grid=grid).failures
        assert [(k.name, k.witness) for k in failures] == [
            ("f_inv(h(x))/x nonincreasing on (0,1]", witness),
            ("f_inv(g(x))/x nonincreasing on (0,1]", witness)]
        assert not check_aggregation(from_triple(t, validate=False), grid=grid).passed


class TestFromTriple:
    def test_harmonic_values(self):
        A = from_triple(harmonic_triple())
        assert A(0.3, 0.6) == pytest.approx(0.4, abs=1e-12)
        assert A(0.9, 0.4) == 0.4
        assert A(1.0, 1.0) == 1.0
        assert A(0.0, 0.0) == 0.0

    def test_invalid_triple_rejected_with_report(self):
        t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
        with pytest.raises(ContractError) as exc:
            from_triple(t)
        assert exc.value.report is not None
        assert not exc.value.report.ok

    def test_raw_formula_of_invalid_triple(self):
        t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
        A = from_triple(t, validate=False)
        # below the diagonal the raw formula is y*(x/y)^2 = x^2/y,
        # decreasing in y
        assert A(0.2, 0.4) == pytest.approx(0.2 ** 2 / 0.4, abs=1e-15)
        report = check_aggregation(A, grid=make_grid(50), tol=1e-9)
        assert not report.passed
        assert "decreasing in y" in report.reason

    def test_boundary_sections_and_diagonal(self):
        t = harmonic_triple()
        A = from_triple(t)
        p = GRID.points
        np.testing.assert_allclose(A.evaluator(p, np.ones_like(p)),
                                   t.h.evaluator(p), atol=1e-12)
        np.testing.assert_allclose(A.evaluator(np.ones_like(p), p),
                                   t.g.evaluator(p), atol=1e-12)
        np.testing.assert_allclose(diagonal(A).evaluator(p),
                                   t.f.evaluator(p), atol=1e-12)

    def test_tie_branch_consistency(self):
        # both branches agree on the diagonal; the x<=y branch is evaluated
        A = from_triple(harmonic_triple())
        p = GRID.points
        np.testing.assert_allclose(A.evaluator(p, p), p, atol=1e-12)


class TestClassFlat:
    def test_examples(self):
        A = class_flat(0.2, 0.7)
        assert A(0.3, 0.9) == 1.0
        assert A(0.5, 0.0) == 0.7
        assert A(0.0, 0.5) == 0.2
        assert class_flat(0.0, 0.0)(0.0, 0.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            class_flat(-0.1, 0.5)
        with pytest.raises(DomainError):
            class_flat(0.5, 1.5)

    def test_is_aggregation_function(self):
        for alpha, beta in ((0.0, 0.0), (0.2, 0.7), (1.0, 1.0), (1.0, 0.0)):
            report = check_aggregation(class_flat(alpha, beta), grid=GRID, tol=0.0)
            assert report.passed

    @pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.power(2),
                                     PhiSpec.from_unit_function(bounded_rational())])
    def test_quasi_homogeneous_with_step_at_zero(self, phi):
        A = class_flat(0.2, 0.7)
        report = check_quasi_homogeneity(A, phi, PsiSpec.step_at_zero(),
                                         grid=make_grid(50), tol=1e-12)
        assert report.passed


class TestClassBoundary:
    def test_identity_sections_give_drastic_exactly(self):
        A = class_boundary(identity(), identity())
        D = catalog_lookup("drastic")
        p = GRID.points
        VA = np.asarray(A.evaluator(p[:, None], p[None, :]), float)
        VD = np.asarray(D.evaluator(p[:, None], p[None, :]), float)
        np.testing.assert_array_equal(VA, VD)

    def test_interior_is_zero(self):
        A = class_boundary(identity(), identity())
        assert A(0.99, 0.99) == 0.0

    def test_section_read_back(self):
        A = class_boundary(unit_function_from_expr("x^2", increasing=True),
                           identity())
        assert A(1.0, 0.5) == 0.25

    def test_conditions_rejected(self):
        with pytest.raises(ContractError):
            class_boundary(unit_function_from_expr("0.9*x", increasing=True),
                           identity())
        with pytest.raises(ContractError):
            class_boundary(unit_function_from_expr("x^2"), identity())

    @pytest.mark.parametrize("g, message", [
        (NAN_SECTION, "class_boundary: g decreases on (0.49, 0.5)"),
        (V_SECTION.declared(increasing=True), "class_boundary: g decreases on (0.0, 0.01)"),
    ], ids=["NaN", "V"])
    def test_decrease_message_on_the_default_grid(self, g, message):
        with pytest.raises(ContractError) as exc:
            class_boundary(g, identity())
        assert str(exc.value) == message

    @pytest.mark.parametrize("phi", [PhiSpec.identity(), PhiSpec.power(2),
                                     PhiSpec.from_unit_function(bounded_rational())])
    def test_quasi_homogeneous_with_step_at_one(self, phi):
        A = class_boundary(unit_function_from_expr("x^2", increasing=True),
                           identity())
        report = check_quasi_homogeneity(A, phi, PsiSpec.step_at_one(),
                                         grid=make_grid(50), tol=1e-12)
        assert report.passed


class TestTripleOf:
    def test_harmonic_recovery(self):
        t = triple_of(catalog_lookup("harmonic_min"))
        p = GRID.points
        np.testing.assert_allclose(t.f.evaluator(p), p, atol=1e-12)
        np.testing.assert_allclose(t.g.evaluator(p), p, atol=1e-12)
        np.testing.assert_allclose(t.h.evaluator(p),
                                   bounded_rational().evaluator(p), atol=1e-12)

    def test_min_recovery(self):
        t = triple_of(catalog_lookup("min"))
        p = GRID.points
        for u in (t.f, t.g, t.h):
            np.testing.assert_array_equal(u.evaluator(p), p)

    def test_product_recovery_and_reconstruction(self):
        t = triple_of(catalog_lookup("product"))
        p = GRID.points
        np.testing.assert_allclose(t.f.evaluator(p), p ** 2, atol=1e-15)
        np.testing.assert_array_equal(t.g.evaluator(p), p)
        np.testing.assert_array_equal(t.h.evaluator(p), p)
        # reconstruction identity on the lower branch: f(y*sqrt(x/y)) = x*y
        x, y = np.meshgrid(p[1:], p[1:], indexing="ij")
        lower = np.where(x <= y, x, y)
        upper = np.where(x <= y, y, x)
        rebuilt = (upper * np.sqrt(lower / upper)) ** 2
        np.testing.assert_allclose(rebuilt, x * y, atol=1e-12)

    def test_never_fails_even_for_refuted_functions(self):
        t = triple_of(catalog_lookup("drastic"))
        assert t.f(0.5) == 0.0
        assert t.g(0.5) == 0.5

    def test_round_trip_closed_forms(self):
        for t in (harmonic_triple(),
                  GeneratorTriple(f=power_function(2), g=identity(), h=identity()),
                  GeneratorTriple(f=power_function(0.5),
                                  g=power_function(0.25), h=power_function(0.5))):
            A = from_triple(t)
            back = triple_of(A)
            p = GRID.points
            for orig, rec in ((t.f, back.f), (t.g, back.g), (t.h, back.h)):
                np.testing.assert_allclose(
                    np.asarray(rec.evaluator(p), float),
                    np.asarray(orig.evaluator(p), float), atol=1e-9)
