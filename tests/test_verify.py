import pickle
import warnings

import numpy as np
import pytest

from conftest import interior_step

from qhagg import (
    CLASS1,
    CLASS2,
    CLASS3,
    NOT_QH,
    ContractError,
    DomainError,
    GeneratorTriple,
    PhiSpec,
    PsiSpec,
    aggregation_from_combiner,
    bounded_rational,
    canonical_pair,
    catalog_lookup,
    check_aggregation,
    check_homogeneous_order,
    check_multiplicative,
    check_quasi_homogeneity,
    class_boundary,
    class_flat,
    classify,
    diagonal,
    diagonal_bijection_check,
    fit_power_exponent,
    from_triple,
    identity,
    make_grid,
    power_function,
    recover_psi,
    unit_function_from_expr,
)
from qhagg.algebra import AggregationFunction, UnitFunction
from qhagg.verify import ClassificationReport, _scaling_rhs

GRID = make_grid(100)
G50 = make_grid(50)


def mean_function():
    return aggregation_from_combiner("mean", identity(), identity())


def bounded_sum_function():
    return aggregation_from_combiner("bounded_sum", identity(), identity())


class TestPsiSpec:
    def test_variants_fix_endpoints(self):
        for psi in (PsiSpec.power(0.5), PsiSpec.power(1), PsiSpec.power(3),
                    PsiSpec.step_at_zero(), PsiSpec.step_at_one()):
            assert psi(0.0) == 0.0
            assert psi(1.0) == 1.0

    def test_variants_increasing(self):
        p = GRID.points
        for psi in (PsiSpec.power(0.5), PsiSpec.step_at_zero(), PsiSpec.step_at_one()):
            vals = np.asarray(psi(p), float)
            assert np.all(np.diff(vals) >= 0)

    def test_step_values(self):
        s0, s1 = PsiSpec.step_at_zero(), PsiSpec.step_at_one()
        assert s0(1e-300) == 1.0 and s0(0.0) == 0.0
        assert s1(0.999) == 0.0 and s1(1.0) == 1.0

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            PsiSpec.power(0.0)
        with pytest.raises(DomainError):
            PsiSpec("sigmoid")

    def test_a_psi_pickles_as_its_kind_and_exponent(self):
        for psi in (PsiSpec.power(2), PsiSpec.step_at_one()):
            again = pickle.loads(pickle.dumps(psi))
            assert again == psi and again(0.5) == psi(0.5)

    def test_describe_round_trips_flag_grammar(self):
        assert PsiSpec.power(2).describe() == "power:c=2"
        assert PsiSpec.step_at_zero().describe() == "step0"
        assert PsiSpec.step_at_one().describe() == "step1"


class TestPhiSpec:
    def closed_form_phis(self):
        return [
            PhiSpec.identity(),
            PhiSpec.power(2),
            PhiSpec.power(0.5),
            PhiSpec.from_unit_function(bounded_rational()),
            PhiSpec.inverse_of(power_function(2)),
            PhiSpec.inverse_of(power_function(2), c=2),
        ]

    def expr_phis(self):
        return [PhiSpec.from_expr("x^2"), PhiSpec.from_expr("2*x/(1+x)")]

    def phis(self):
        return self.closed_form_phis() + self.expr_phis()

    def test_zero_is_fixed_exactly(self):
        for phi in self.phis():
            assert phi(0.0) == 0.0
        unbounded = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        assert unbounded(0.0) == 0.0

    def test_strictly_increasing_on_grid(self):
        p = GRID.points
        for phi in self.phis():
            vals = np.asarray(phi.evaluator(p), float)
            assert np.all(np.diff(vals) > 0), phi.name

    def test_endpoint_is_b(self):
        for phi in self.phis():
            assert phi(1.0) == phi.b == 1.0

    def test_inverse_round_trip(self):
        p = GRID.points
        for phis, tol in ((self.closed_form_phis(), 1e-12), (self.expr_phis(), 1e-9)):
            for phi in phis:
                back = np.asarray(phi.inverse(phi.evaluator(p)), float)
                assert float(np.max(np.abs(back - p))) <= tol, phi.name

    def test_unbounded_endpoint(self):
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        assert np.isinf(phi.b)
        assert np.isinf(phi(1.0))
        assert phi.invert(float("inf")) == 1.0
        assert abs(phi.invert(1.0) - 0.5) <= 1e-9
        assert phi.invert(0.0) == 0.0

    def test_requires_declared_bijection(self):
        undeclared = UnitFunction(evaluator=lambda x: np.asarray(x, float))
        with pytest.raises(ContractError):
            PhiSpec.from_unit_function(undeclared)
        with pytest.raises(ContractError):
            PhiSpec.inverse_of(undeclared)

    @pytest.mark.parametrize("b", [None, float("inf")], ids=["bounded", "b=inf"])
    def test_flat_expression_message_on_the_default_grid(self, b):
        with pytest.raises(ContractError) as exc:
            PhiSpec.from_expr("x*(1-x)", b=b)
        assert str(exc.value) == (
            "phi expression 'x*(1-x)' is not strictly increasing on (0.5, 0.51)")

    def test_expression_validation(self):
        with pytest.raises(ContractError):
            PhiSpec.from_expr("x*(1-x)")  # not injective
        with pytest.raises(ContractError):
            PhiSpec.from_expr("x+0.5")  # phi(0) != 0
        with pytest.raises(DomainError):
            PhiSpec(b=0.0, evaluator=lambda x: x, inverse=lambda y: y)


class TestCheckAggregation:
    def test_min_passes(self):
        assert check_aggregation(catalog_lookup("min"), grid=GRID, tol=0.0).passed

    def test_raw_square_triple_fails_in_y(self):
        t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
        A = from_triple(t, validate=False)
        report = check_aggregation(A, grid=G50, tol=1e-9)
        assert not report.passed
        assert not report.monotone_ok
        assert "decreasing in y" in report.reason
        (x1, y1, v1), (x2, y2, v2) = report.witness
        assert x1 == x2 and y2 > y1 and v2 < v1

    def test_class_flat_passes(self):
        assert check_aggregation(class_flat(0.2, 0.7), grid=GRID, tol=0.0).passed

    def test_boundary_violation_detected(self):
        broken = aggregation_from_combiner(
            "mean", unit_function_from_expr("0.5*x+0.25"), identity(),
            validate=False)
        report = check_aggregation(broken, grid=make_grid(10), tol=1e-9)
        assert not report.passed and not report.boundary_ok


class TestCheckQuasiHomogeneity:
    def test_min_is_order_one(self):
        report = check_quasi_homogeneity(catalog_lookup("min"),
                                         PhiSpec.identity(), PsiSpec.power(1),
                                         grid=GRID)
        assert report.passed
        assert report.max_residual == 0.0

    def test_drastic_with_step_at_one(self):
        report = check_quasi_homogeneity(catalog_lookup("drastic"),
                                         PhiSpec.identity(), PsiSpec.step_at_one(),
                                         grid=GRID)
        assert report.passed and report.max_residual == 0.0

    def test_drastic_with_wrong_step_fails(self):
        report = check_quasi_homogeneity(catalog_lookup("drastic"),
                                         PhiSpec.identity(), PsiSpec.step_at_zero(),
                                         grid=G50)
        assert not report.passed

    def test_product_fails_order_one(self):
        A = catalog_lookup("product")
        report = check_quasi_homogeneity(A, PhiSpec.identity(), PsiSpec.power(1),
                                         grid=GRID, tol=1e-9)
        assert not report.passed
        # the classic witness: lam = x = y = 0.5
        assert abs(A(0.25, 0.25) - 0.5 * A(0.5, 0.5)) == pytest.approx(0.0625)
        # the grid maximum of lam*(1-lam)*x*y is at (0.5, 1, 1)
        assert report.max_residual == pytest.approx(0.25)
        assert report.witness == (0.5, 1.0, 1.0)

    def test_product_with_its_own_scaling_passes(self):
        A = catalog_lookup("product")
        phi = PhiSpec.inverse_of(power_function(2))
        report = check_quasi_homogeneity(A, phi, PsiSpec.power(1), grid=G50)
        assert report.passed, report.max_residual

    def test_unbounded_phi_on_flat_class(self):
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        report = check_quasi_homogeneity(class_flat(0.2, 0.7), phi,
                                         PsiSpec.step_at_zero(), grid=G50,
                                         tol=1e-12)
        assert report.passed

    def test_unbounded_phi_on_boundary_class(self):
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        report = check_quasi_homogeneity(catalog_lookup("drastic"), phi,
                                         PsiSpec.step_at_one(), grid=G50,
                                         tol=1e-12)
        assert report.passed

    @pytest.mark.parametrize("psi", [PsiSpec.power(1), PsiSpec.step_at_zero(),
                                     PsiSpec.step_at_one()])
    def test_unbounded_phi_refutes_bijective_diagonal(self, psi):
        # with phi(1) = inf the scaling law forces a step-type diagonal,
        # so a continuous-diagonal function can never verify
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        report = check_quasi_homogeneity(catalog_lookup("harmonic_min"), phi,
                                         psi, grid=G50)
        assert not report.passed


class TestScalingRhsRows:
    """The row rule of the scaling law's right-hand side, on a base slab V
    that reaches 1, where the unbounded phi = x/(1-x) is infinite."""

    V = np.array([[0.0, 0.5], [0.75, 1.0]])
    UNBOUNDED = PhiSpec.from_expr("x/(1-x)", b=float("inf"))

    def rows(self, phi, psi, lams):
        # psi(lam) * phi(V) meets 0 * inf on a zero row; the rule must
        # neither form that product nor warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _scaling_rhs(phi, psi, self.V)(np.array(lams)[:, None, None])

    def test_a_zero_row_is_phi_inv_of_zero_even_where_phi_is_infinite(self):
        Y = self.rows(self.UNBOUNDED, PsiSpec.step_at_one(), [0.5])
        np.testing.assert_array_equal(Y, np.zeros((1, 2, 2)))

    def test_a_one_row_is_the_base_slab_itself(self):
        Y = self.rows(self.UNBOUNDED, PsiSpec.step_at_zero(), [0.5])
        np.testing.assert_array_equal(Y, self.V[None])

    def test_an_interior_row_maps_an_infinite_phi_to_one(self):
        # phi(0.5) = 1 and phi(0.75) = 3; halved, phi_inv gives 1/3 and 3/5
        Y = self.rows(self.UNBOUNDED, PsiSpec.power(1), [0.5])
        np.testing.assert_allclose(Y, [[[0.0, 1 / 3], [0.6, 1.0]]], rtol=0, atol=2.0 ** -44)

    @pytest.mark.parametrize("phi", [UNBOUNDED, PhiSpec.power(2.0)], ids=["x/(1-x)", "x^2"])
    def test_one_chunk_of_all_three_rows(self, phi):
        lams = [0.0, 0.25, 1.0]
        Y = self.rows(phi, PsiSpec.power(1), lams)
        assert Y.shape == (3, 2, 2)
        np.testing.assert_array_equal(Y[0], np.zeros((2, 2)))
        np.testing.assert_array_equal(Y[2], self.V)
        np.testing.assert_array_equal(Y[1], self.rows(phi, PsiSpec.power(1), [0.25])[0])


class TestCheckMultiplicative:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_powers_within_float_noise(self, c):
        report = check_multiplicative(PsiSpec.power(c), grid=GRID, tol=1e-12)
        assert report.passed

    def test_steps_exact(self):
        for psi in (PsiSpec.step_at_zero(), PsiSpec.step_at_one()):
            report = check_multiplicative(psi, grid=GRID, tol=0.0)
            assert report.passed and report.max_residual == 0.0

    def test_affine_fails_at_origin(self):
        fn = lambda x: (1.0 + np.asarray(x, float)) / 2.0
        report = check_multiplicative(fn, grid=GRID, tol=1e-12)
        assert not report.passed
        assert report.witness == (0.0, 0.0)
        assert report.max_residual >= 0.25 - 1e-15

    def test_pass_text(self):
        report = check_multiplicative(PsiSpec.step_at_zero(), grid=make_grid(10), tol=0.0)
        assert str(report) == ("multiplicativity psi(lam*x) = psi(lam)*psi(x): max residual "
                               "0.0 (grid n=10, tol=0) -> pass")
        assert report.reason == ""

    def test_fail_text_names_both_sides_at_the_witness(self):
        report = check_multiplicative(lambda x: x * 0.5)
        assert report.witness == (0.01, 0.01)
        assert report.reason == "psi(0.01*0.01)=5e-05 != psi(0.01)*psi(0.01)=2.5e-05"
        assert str(report) == (
            "multiplicativity psi(lam*x) = psi(lam)*psi(x): max residual 0.25 "
            "(grid n=100, tol=1e-12) -> FAIL\n"
            "first violation: psi(0.01*0.01)=5e-05 != psi(0.01)*psi(0.01)=2.5e-05")
        # the repr stays the dataclass's
        assert repr(report).startswith("MultiplicativeReport(witness=(0.01, 0.01), reason='psi(")

    def test_interior_step_rejected(self):
        report = check_multiplicative(interior_step(0.5), grid=GRID, tol=1e-12)
        assert not report.passed
        lam, x = report.witness
        # a pair with both factors above the threshold but product below
        assert lam >= 0.5 and x >= 0.5 and lam * x < 0.5


class TestCheckHomogeneousOrder:
    def test_min_order_one(self):
        report = check_homogeneous_order(catalog_lookup("min"), 1.0, grid=G50)
        assert report.passed and report.max_residual == 0.0

    def test_product_orders(self):
        A = catalog_lookup("product")
        assert not check_homogeneous_order(A, 1.0, grid=G50).passed
        assert check_homogeneous_order(A, 2.0, grid=G50).passed

    def test_normalized_harmonic_is_order_one(self):
        A = catalog_lookup("harmonic_min")
        # diagonal is the identity, so the composite is A itself
        report = check_homogeneous_order(A, 1.0, grid=G50, tol=1e-9)
        assert report.passed

    def test_bad_order(self):
        with pytest.raises(DomainError):
            check_homogeneous_order(catalog_lookup("min"), 0.0)


class TestRecoverPsi:
    def test_harmonic_gives_identity_power(self):
        rec = recover_psi(catalog_lookup("harmonic_min"), PhiSpec.identity(),
                          grid=GRID)
        np.testing.assert_array_equal(rec.samples, GRID.points)
        assert rec.fitted is not None
        assert rec.fitted.kind == "power"
        assert rec.fitted.c == pytest.approx(1.0, abs=1e-12)

    def test_product_gives_square_power(self):
        rec = recover_psi(catalog_lookup("product"), PhiSpec.identity(),
                          grid=GRID)
        assert rec.fitted is not None and rec.fitted.kind == "power"
        assert rec.fitted.c == pytest.approx(2.0, abs=1e-9)

    def test_drastic_gives_step_at_one(self):
        rec = recover_psi(catalog_lookup("drastic"), PhiSpec.identity(), grid=GRID)
        assert rec.fitted == PsiSpec.step_at_one()

    def test_flat_gives_step_at_zero(self):
        rec = recover_psi(class_flat(0.2, 0.7), PhiSpec.identity(), grid=GRID)
        assert rec.fitted == PsiSpec.step_at_zero()

    def test_a_vanishing_fitted_exponent_is_no_fit(self):
        # samples 1 but one ulp below at lam = 0.5 fit x^6.9e-18, a step, which
        # recover_psi used to report as a fitted power
        A = AggregationFunction(
            lambda x, y: np.where((x == 0.5) & (y == 0.5), 1.0 - 2.0**-53,
                                  np.where(np.minimum(x, y) > 0.0, 1.0, 0.0)),
            provenance="one but an ulp below at (0.5, 0.5)")
        rec = recover_psi(A, PhiSpec.identity(), grid=make_grid(10))
        assert rec.fitted is None
        assert rec.note.startswith("power exponent is too small")

    def test_mismatched_phi_reports_no_fit(self):
        rec = recover_psi(mean_function(),
                          PhiSpec.from_unit_function(bounded_rational()),
                          grid=GRID)
        assert rec.fitted is None
        assert "residual" in rec.note

    def test_unbounded_phi_uses_pointwise_ratio(self):
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        rec = recover_psi(class_flat(0.2, 0.7), phi, grid=GRID)
        assert rec.fitted == PsiSpec.step_at_zero()
        rec = recover_psi(catalog_lookup("drastic"), phi, grid=GRID)
        assert rec.fitted == PsiSpec.step_at_one()

    def test_text_of_a_fit(self):
        rec = recover_psi(catalog_lookup("product"), PhiSpec.identity(), grid=make_grid(10))
        assert str(rec) == "psi recovery: power:c=2 (max fit residual 0.0)"

    def test_grid_too_coarse_for_a_fit(self):
        rec = recover_psi(catalog_lookup("product"), PhiSpec.identity(), grid=make_grid(1))
        assert rec.fitted is None
        assert str(rec) == "psi recovery: no fit (grid too coarse for an interior fit)"

    def test_mixed_zero_and_positive_samples_give_no_fit(self):
        # the Lukasiewicz t-norm: its diagonal max(0, 2x - 1) is 0 up to 1/2
        luk = AggregationFunction(lambda x, y: np.maximum(0.0, x + y - 1.0),
                                  provenance="lukasiewicz")
        rec = recover_psi(luk, PhiSpec.identity(), grid=make_grid(10))
        assert rec.fitted is None
        assert str(rec) == "psi recovery: no fit (mixed zero and positive interior samples)"

    def test_exponent_fit_refuses_the_point_one_alone(self):
        with pytest.raises(DomainError, match="x=1 alone"):
            fit_power_exponent(np.array([1.0]), np.array([1.0]))


class TestDiagonalBijectionCheck:
    def test_identity_passes(self):
        report = diagonal_bijection_check(identity(), grid=GRID)
        assert report.passed

    def test_square_passes(self):
        report = diagonal_bijection_check(power_function(2), grid=GRID)
        assert report.passed

    def test_drastic_diagonal_fails_with_jump(self):
        report = diagonal_bijection_check(diagonal(catalog_lookup("drastic")),
                                          grid=GRID)
        assert not report.passed
        assert not report.continuity_ok
        assert report.max_jump == 1.0
        assert report.max_jump_at == (0.99, 1.0)

    def test_jump_detected_even_when_strictly_increasing(self):
        jumpy = UnitFunction(
            evaluator=lambda x: 0.5 * np.asarray(x, float)
            + np.where(np.asarray(x, float) >= 0.5, 0.5, 0.0))
        report = diagonal_bijection_check(jumpy, grid=GRID)
        assert report.strictly_increasing_ok
        assert not report.continuity_ok and not report.passed

    def test_flat_region_fails_strictness(self):
        saturating = UnitFunction(
            evaluator=lambda x: np.minimum(1.0, 2.0 * np.asarray(x, float)))
        report = diagonal_bijection_check(saturating, grid=GRID)
        assert not report.strictly_increasing_ok
        assert report.witness[0] == 0.5

    def test_text_of_a_pass(self):
        report = diagonal_bijection_check(identity(), grid=make_grid(10))
        assert report.reason == ""
        assert str(report) == (
            "diagonal bijection check (grid n=10, tol=1e-09): endpoints=ok, "
            "strict increase=ok, continuity heuristic=ok "
            "(max jump 0.10000000000000009 on (0.7, 0.8))")

    @pytest.mark.parametrize("fn, n, flags, reason", [
        (lambda x: np.minimum(1.0, 2.0 * x), 10,
         "endpoints=ok, strict increase=FAIL, continuity heuristic=ok "
         "(max jump 0.20000000000000007 on (0.3, 0.4))",
         "diagonal is not strictly increasing: delta(0.5)=1.0, delta(0.6)=1.0"),
        (lambda x: 0.9 * x, 10,
         "endpoints=FAIL, strict increase=ok, continuity heuristic=ok "
         "(max jump 0.09000000000000008 on (0.7, 0.8))",
         "diagonal endpoints are not (0, 1): delta(0.0)=0.0, delta(1.0)=0.9"),
        (lambda x: 0.5 * x + np.where(x >= 0.5, 0.5, 0.0), 20,
         "endpoints=ok, strict increase=ok, continuity heuristic=FAIL "
         "(max jump 0.525 on (0.45, 0.5))",
         "diagonal jumps beyond the continuity heuristic: delta(0.45)=0.225, delta(0.5)=0.75"),
        (lambda x: np.where(x == 0.5, np.nan, x), 100,
         "endpoints=ok, strict increase=FAIL, continuity heuristic=FAIL "
         "(max jump nan on (0.49, 0.5))",
         "diagonal is not strictly increasing: delta(0.49)=0.49, delta(0.5)=nan"),
    ], ids=["strict", "endpoints", "continuity", "NaN"])
    def test_text_of_a_refutation(self, fn, n, flags, reason):
        report = diagonal_bijection_check(UnitFunction(evaluator=fn), grid=make_grid(n))
        assert report.reason == reason
        assert str(report) == (f"diagonal bijection check (grid n={n}, tol=1e-09): {flags}\n"
                               f"first violation: {reason}")


class TestClassify:
    def test_min_is_class1(self):
        report = classify(catalog_lookup("min"), grid=G50)
        assert report.verdict == CLASS1
        np.testing.assert_allclose(report.delta.evaluator(G50.points),
                                   G50.points, atol=1e-15)

    def test_product_is_class1_with_square_diagonal(self):
        report = classify(catalog_lookup("product"), grid=G50)
        assert report.verdict == CLASS1
        np.testing.assert_allclose(report.delta.evaluator(G50.points),
                                   G50.points ** 2, atol=1e-15)

    def test_mean_is_class1(self):
        assert classify(mean_function(), grid=G50).verdict == CLASS1

    def test_max_is_class1(self):
        assert classify(catalog_lookup("max"), grid=G50).verdict == CLASS1

    def test_harmonic_is_class1(self):
        assert classify(catalog_lookup("harmonic_min"), grid=G50).verdict == CLASS1

    def test_drastic_is_class3_with_identity_sections(self):
        report = classify(catalog_lookup("drastic"), grid=G50)
        assert report.verdict == CLASS3
        np.testing.assert_array_equal(report.g.evaluator(G50.points), G50.points)
        np.testing.assert_array_equal(report.h.evaluator(G50.points), G50.points)

    def test_boundary_sections_recovered(self):
        A = class_boundary(unit_function_from_expr("x^2", increasing=True),
                           identity())
        report = classify(A, grid=G50)
        assert report.verdict == CLASS3
        assert report.g(0.5) == 0.25

    def test_flat_is_class2(self):
        report = classify(class_flat(0.2, 0.7), grid=G50)
        assert report.verdict == CLASS2
        assert (report.alpha, report.beta) == (0.2, 0.7)

    def test_bounded_sum_is_refuted_on_the_diagonal(self):
        report = classify(bounded_sum_function(), grid=G50)
        assert report.verdict == NOT_QH
        assert report.witness is not None
        assert "strictly increasing" in report.reason
        # the diagonal saturates at 0.5
        assert report.witness[0] == 0.5

    def test_diagonal_jump_beyond_continuity_heuristic_is_refuted(self):
        # j(min(x, y)) with j strictly increasing but jumping from 1/8 to 3/4
        # at 1/2: an aggregation function whose diagonal has fixed endpoints
        # and increases strictly, so only the 10/n jump bound refutes it
        def j(t):
            return np.where(t < 0.5, t / 4.0, 0.75 + (t - 0.5) / 2.0)

        A = AggregationFunction(lambda x, y: j(np.minimum(x, y)), provenance="jump at 1/2")
        report = classify(A, grid=make_grid(40))
        assert report.verdict == NOT_QH
        assert report.reason.startswith("diagonal jumps beyond the continuity heuristic")
        assert report.witness == (0.475, 0.5, 0.5, 0.63125)
        assert report.diagnostics["diagonal_max_jump"] == 0.63125

    def test_non_aggregation_input_is_refuted(self):
        t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
        raw = from_triple(t, validate=False)
        report = classify(raw, grid=G50)
        assert report.verdict == NOT_QH
        assert "not an aggregation function" in report.reason

    def test_witness_invariant_enforced(self):
        with pytest.raises(AssertionError):
            ClassificationReport(verdict=NOT_QH)
        with pytest.raises(AssertionError):
            ClassificationReport(verdict=CLASS1, witness=(0, 0, 0, 0))

    def test_verdict_max_residual_excludes_gap_diagnostic(self):
        report = classify(catalog_lookup("product"), grid=G50)
        assert report.max_residual <= 1e-6
        assert report.diagnostics["diagonal_max_jump"] > 1e-3

    @pytest.mark.parametrize("name", ["product", "drastic"])
    def test_diagonal_is_sampled_once(self, name):
        # the diagonal is read from the base sample: A never runs on a 1-d
        # array of grid points
        A, calls = catalog_lookup(name), []

        def evaluator(x, y):
            calls.append(np.shape(x))
            return A.evaluator(x, y)

        classify(AggregationFunction(evaluator, provenance="counted"), grid=G50)
        assert calls.count((len(G50),)) == 0

    def test_degenerate_grid_rejected(self):
        # n = 1 has no interior points, so every interior test is vacuous
        with pytest.raises(DomainError):
            classify(catalog_lookup("min"), grid=make_grid(1))


class TestSoundness:
    """Whenever classify returns a class, the canonical pair re-verifies."""

    def entries(self):
        yield catalog_lookup("min")
        yield catalog_lookup("max")
        yield catalog_lookup("product")
        yield catalog_lookup("harmonic_min")
        yield catalog_lookup("drastic")
        yield class_flat(0.2, 0.7)
        yield class_boundary(unit_function_from_expr("x^2", increasing=True),
                             identity())

    def test_catalog_soundness(self):
        for A in self.entries():
            report = classify(A, grid=G50)
            assert report.verdict != NOT_QH, A.name
            phi, psi = canonical_pair(report)
            recheck = check_quasi_homogeneity(A, phi, psi, grid=G50)
            assert recheck.passed, (A.name, recheck.max_residual)

    def test_random_triples_soundness(self, triples_50):
        grid = make_grid(25)
        for t in triples_50:
            A = from_triple(t)
            report = classify(A, grid=grid)
            assert report.verdict == CLASS1
            phi, psi = canonical_pair(report)
            recheck = check_quasi_homogeneity(A, phi, psi, grid=grid)
            assert recheck.passed

    def test_canonical_pair_refuses_refuted(self):
        report = classify(bounded_sum_function(), grid=make_grid(25))
        with pytest.raises(DomainError):
            canonical_pair(report)


class TestTrichotomy:
    def test_recovered_psi_is_always_one_of_three(self):
        cases = [
            (catalog_lookup("min"), "power"),
            (catalog_lookup("product"), "power"),
            (class_flat(0.2, 0.7), "step0"),
            (catalog_lookup("drastic"), "step1"),
        ]
        for A, kind in cases:
            rec = recover_psi(A, PhiSpec.identity(), grid=GRID)
            assert rec.fitted is not None
            assert rec.fitted.kind == kind

    def test_interior_step_is_not_multiplicative(self):
        report = check_multiplicative(interior_step(0.5), grid=GRID)
        assert not report.passed and report.witness is not None


class TestExponentInvariance:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_harmonic_min(self, c):
        phi = PhiSpec.inverse_of(identity(), c=c)
        report = check_quasi_homogeneity(catalog_lookup("harmonic_min"), phi,
                                         PsiSpec.power(c), grid=G50, tol=1e-9)
        assert report.passed

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_product(self, c):
        phi = PhiSpec.inverse_of(power_function(2), c=c)
        report = check_quasi_homogeneity(catalog_lookup("product"), phi,
                                         PsiSpec.power(c), grid=G50, tol=1e-9)
        assert report.passed

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_verdict_invariant_for_non_member(self, c):
        # mean has identity diagonal but fails under the product's scaling;
        # the verdict does not depend on the chosen exponent
        phi = PhiSpec.inverse_of(power_function(2), c=c)
        report = check_quasi_homogeneity(mean_function(), phi,
                                         PsiSpec.power(c), grid=make_grid(25))
        assert not report.passed


class TestOrderOneIdentity:
    @pytest.mark.parametrize("name", ["min", "product", "harmonic_min", "max"])
    def test_normalized_composite_is_order_one(self, name):
        A = catalog_lookup(name)
        grid = make_grid(25)
        report = classify(A, grid=grid)
        assert report.verdict == CLASS1
        delta = report.delta

        def composite(x, y, ev=A.evaluator, d=delta):
            return d.invert(np.clip(np.asarray(ev(x, y), float), 0.0, 1.0))

        hom = check_homogeneous_order(composite, 1.0, grid=grid, tol=1e-6)
        assert hom.passed


class TestFiniteNonUnitEndpoint:
    def test_scaled_codomain(self):
        # phi: [0,1] -> [0,2] is admissible; the scaling law is unchanged
        phi = PhiSpec.from_expr("2*x")
        assert phi.b == 2.0
        report = check_quasi_homogeneity(catalog_lookup("min"), phi,
                                         PsiSpec.power(1), grid=make_grid(25))
        assert report.passed

    def test_recover_psi_normalizes_by_endpoint(self):
        phi = PhiSpec.from_expr("2*x")
        rec = recover_psi(catalog_lookup("harmonic_min"), phi, grid=GRID)
        assert rec.fitted is not None and rec.fitted.kind == "power"
        assert rec.fitted.c == pytest.approx(1.0, abs=1e-9)


def classified(A, verdict):
    """A call of ``classify`` on A that must reach ``verdict``."""
    def call(**kw):
        report = classify(A, **kw)
        assert report.verdict == verdict, str(report)
        return report
    return call


#: each public check, a call of it on a fixed input, and its default tol
RECORDING = {
    "check_aggregation": (lambda **kw: check_aggregation(catalog_lookup("min"), **kw), 1e-9),
    "check_quasi_homogeneity": (lambda **kw: check_quasi_homogeneity(
        catalog_lookup("product"), PhiSpec.identity(), PsiSpec.power(2.0), **kw), 1e-9),
    "check_multiplicative": (lambda **kw: check_multiplicative(PsiSpec.power(2.0), **kw), 1e-12),
    "check_homogeneous_order": (lambda **kw: check_homogeneous_order(
        catalog_lookup("min"), 1.0, **kw), 1e-6),
    "diagonal_bijection_check": (lambda **kw: diagonal_bijection_check(identity(), **kw), 1e-9),
    "classify Class1": (classified(catalog_lookup("product"), CLASS1), 1e-6),
    "classify Class2": (classified(class_flat(0.2, 0.7), CLASS2), 1e-6),
    "classify Class3": (classified(catalog_lookup("drastic"), CLASS3), 1e-6),
    "classify not an aggregation function": (classified(aggregation_from_combiner(
        "product", unit_function_from_expr("1-x"), identity(), validate=False), NOT_QH), 1e-6),
    "classify diagonal refuted": (classified(bounded_sum_function(), NOT_QH), 1e-6),
    "classify scaling law refuted": (classified(aggregation_from_combiner(
        "product", unit_function_from_expr("x+0.1*x^2*(1-x)"), identity()), NOT_QH), 1e-6),
}


@pytest.mark.parametrize("n, tol", [(None, None), (12, 1e-5)],
                         ids=["default grid and tol", "n=12 tol=1e-5"])
@pytest.mark.parametrize("name", RECORDING)
def test_report_records_its_grid_and_tol(name, n, tol):
    call, default_tol = RECORDING[name]
    report = call(**({} if n is None else {"grid": make_grid(n)}),
                  **({} if tol is None else {"tol": tol}))
    assert (report.grid_n, report.tol) == (n or 100, default_tol if tol is None else tol)
