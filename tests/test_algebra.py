import numpy as np
import pytest

from qhagg import (
    ContractError,
    DomainError,
    GeneratorTriple,
    aggregation_from_combiner,
    bounded_rational,
    catalog_describe,
    catalog_lookup,
    catalog_names,
    check_aggregation,
    diagonal,
    from_triple,
    identity,
    make_grid,
    power_function,
    unit_function_from_expr,
)

GRID = make_grid(100)


class TestDiagonal:
    def test_min_diagonal_is_identity(self):
        d = diagonal(catalog_lookup("min"))
        np.testing.assert_array_equal(d.evaluator(GRID.points), GRID.points)

    def test_product_diagonal(self):
        d = diagonal(catalog_lookup("product"))
        assert d(0.5) == 0.25

    def test_drastic_diagonal_steps_at_one(self):
        d = diagonal(catalog_lookup("drastic"))
        vals = np.asarray(d.evaluator(GRID.points), float)
        assert np.all(vals[:-1] == 0.0)
        assert vals[-1] == 1.0

    def test_no_flags_inherited(self):
        d = diagonal(catalog_lookup("min"))
        assert not d.increasing and not d.continuous_bijection


class TestCatalog:
    def test_harmonic_min_example(self):
        A = catalog_lookup("harmonic_min")
        # closed form below the diagonal: 2*0.3*0.6/(0.3+0.6)
        assert A(0.3, 0.6) == pytest.approx(2 * 0.3 * 0.6 / (0.3 + 0.6), abs=1e-15)
        assert A(0.3, 0.6) == pytest.approx(0.4, abs=1e-12)

    def test_harmonic_min_upper_branch_is_min(self):
        A = catalog_lookup("harmonic_min")
        assert A(0.9, 0.4) == 0.4

    def test_drastic_examples(self):
        A = catalog_lookup("drastic")
        assert A(1.0, 0.7) == 0.7
        assert A(0.7, 1.0) == 0.7
        assert A(0.5, 0.9) == 0.0

    def test_flat_examples(self):
        A = catalog_lookup("flat", {"alpha": 0.2, "beta": 0.7})
        assert A(0.0, 0.5) == 0.2
        assert A(0.5, 0.0) == 0.7
        assert A(0.0, 0.0) == 0.0
        assert A(0.3, 0.9) == 1.0

    def test_boundary_only_entry(self):
        A = catalog_lookup("boundary_only", {"g": "x^2", "h": "x"})
        assert A(1.0, 0.5) == 0.25
        assert A(0.5, 1.0) == 0.5
        assert A(0.99, 0.99) == 0.0

    @pytest.mark.parametrize("params, message", [
        # monotonicity is checked once, by class_boundary
        ({"g": "1-x+x^2", "h": "x"}, "class_boundary: g decreases on (0.0, 0.01)"),
        ({"g": "x", "h": "2*x"}, "expression '2*x': value 1.02 at x=0.51 falls outside [0, 1]"),
    ], ids=["decreasing", "out-of-range"])
    def test_boundary_only_section_messages(self, params, message):
        with pytest.raises(ContractError) as exc:
            catalog_lookup("boundary_only", params)
        assert str(exc.value) == message

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            catalog_lookup("owa")

    def test_missing_params(self):
        with pytest.raises(DomainError):
            catalog_lookup("flat", {"alpha": 0.2})
        with pytest.raises(DomainError):
            catalog_lookup("boundary_only", {})

    def test_out_of_range_params(self):
        with pytest.raises(DomainError):
            catalog_lookup("flat", {"alpha": 1.2, "beta": 0.0})

    def test_unexpected_params(self):
        with pytest.raises(DomainError):
            catalog_lookup("min", {"alpha": 0.2})

    def test_names_and_descriptions_are_stable(self):
        assert catalog_names() == ["min", "max", "product", "drastic",
                                   "harmonic_min", "flat", "boundary_only"]
        rows = catalog_describe()
        assert rows[5][2] == ("alpha", "beta")

    def test_every_entry_passes_aggregation_check_exactly(self):
        entries = [catalog_lookup(n) for n in ("min", "max", "product",
                                               "drastic", "harmonic_min")]
        entries.append(catalog_lookup("flat", {"alpha": 0.2, "beta": 0.7}))
        entries.append(catalog_lookup("boundary_only", {"g": "x^2", "h": "x"}))
        for A in entries:
            report = check_aggregation(A, grid=GRID, tol=0.0)
            assert report.passed, f"{A.name}: {report.reason}"

    def test_harmonic_min_matches_its_triple(self):
        A = catalog_lookup("harmonic_min")
        B = from_triple(GeneratorTriple(f=identity(), g=identity(),
                                        h=bounded_rational()))
        p = GRID.points
        VA = np.asarray(A.evaluator(p[:, None], p[None, :]), float)
        VB = np.asarray(B.evaluator(p[:, None], p[None, :]), float)
        assert float(np.max(np.abs(VA - VB))) <= 1e-12


class TestUnitFunctionConstruction:
    def test_expression_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            unit_function_from_expr("2*x")

    def test_declared_increasing_violation_rejected(self):
        with pytest.raises(ContractError):
            unit_function_from_expr("1-x", increasing=True)

    def test_declared_bijection_needs_exact_endpoints(self):
        with pytest.raises(ContractError):
            unit_function_from_expr("0.5*x", continuous_bijection=True)

    def test_division_by_zero_on_grid_rejected(self):
        with pytest.raises(Exception):
            unit_function_from_expr("1/x")

    def test_valid_expression(self):
        u = unit_function_from_expr("2*x/(1+x)", continuous_bijection=True)
        assert u(0.5) == pytest.approx(2 / 3, abs=1e-15)
        assert u.continuous_bijection and u.increasing

    def test_declared_copies_flags(self):
        u = unit_function_from_expr("x^2")
        v = u.declared(continuous_bijection=True)
        assert v.continuous_bijection and not u.continuous_bijection

    def test_scalar_and_array_calls(self):
        u = bounded_rational()
        assert isinstance(u(0.5), float)
        out = u(np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestClosedFormBijections:
    """The catalog's closed-form bijections declare all three flags, carry
    their name, and evaluate and invert by their formulas bit for bit."""

    @pytest.mark.parametrize("u, name, forward, backward", [
        (identity(), "x", lambda x: x, lambda y: y),
        (power_function(0.5), "x^0.5",
         lambda x: np.power(x, 0.5), lambda y: np.power(y, 2.0)),
        (power_function(2), "x^2",
         lambda x: np.power(x, 2.0), lambda y: np.power(y, 0.5)),
        (bounded_rational(), "2x/(1+x)",
         lambda x: 2.0 * x / (1.0 + x), lambda y: y / (2.0 - y)),
    ], ids=["identity", "power-0.5", "power-2", "bounded_rational"])
    def test_flags_name_and_formulas(self, u, name, forward, backward):
        assert (u.increasing, u.strictly_increasing, u.continuous_bijection) == (
            True, True, True)
        assert u.name == name
        p = GRID.points
        np.testing.assert_array_equal(_bits(u.evaluator(p)), _bits(forward(p)))
        np.testing.assert_array_equal(_bits(u.inverse(p)), _bits(backward(p)))


class TestCombiners:
    def test_mean_builds(self):
        A = aggregation_from_combiner("mean", identity(), identity())
        assert A(0.2, 0.6) == pytest.approx(0.4, abs=1e-15)

    def test_bounded_sum_builds(self):
        A = aggregation_from_combiner("bounded_sum", identity(), identity())
        assert A(0.7, 0.8) == 1.0
        assert A(0.2, 0.3) == 0.5

    def test_unknown_combiner(self):
        with pytest.raises(DomainError):
            aggregation_from_combiner("median", identity(), identity())

    def test_eager_validation_rejects_non_monotone(self):
        decreasing = unit_function_from_expr("1-x")
        with pytest.raises(ContractError) as exc:
            aggregation_from_combiner("product", decreasing, identity())
        assert exc.value.report is not None
        assert not exc.value.report.passed

    def test_validation_can_be_deferred(self):
        decreasing = unit_function_from_expr("1-x")
        A = aggregation_from_combiner("product", decreasing, identity(),
                                      validate=False)
        assert not check_aggregation(A, grid=make_grid(20)).passed


class TestProvenance:
    def test_tags(self):
        from qhagg import class_boundary, class_flat, from_triple
        from qhagg import GeneratorTriple, bounded_rational

        assert catalog_lookup("min").provenance == "min"
        assert catalog_lookup("drastic").provenance == "drastic"
        t = GeneratorTriple(f=identity(), g=identity(), h=bounded_rational())
        assert from_triple(t).provenance == "triple-generated"
        assert class_flat(0.2, 0.7).provenance == "class-2"
        assert class_boundary(identity(), identity()).provenance == "class-3"
        A = aggregation_from_combiner("mean", identity(), identity())
        assert A.provenance == "external expression"
