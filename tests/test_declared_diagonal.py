"""Declared diagonals and the Class-1 sweep's right-hand side, bit for bit.

The idempotent catalog members (min, max, harmonic_min) declare their
diagonal A(x, x) = x in closed form, and every triple-generated function
declares f(x * f_inv(h(1))), which is f for a valid triple; ``diagonal``
reads them in place of the evaluator. The canonical pair computes no x^1
pass; harmonic_min computes no guarded denominator. None of it may move a
bit of any value or report.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from conftest import random_valid_triples, strip_inverse
from qhagg import (CLASS1, NOT_QH, EvalError, GeneratorTriple, PhiSpec, UnitFunction,
                   canonical_pair, catalog_lookup, catalog_names, check_aggregation,
                   check_quasi_homogeneity, classify, diagonal, from_triple, identity,
                   make_grid, numerics, power_function, triple_of, unit_function_from_expr,
                   validate_triple)
from qhagg.construct import _harmonic_min
from qhagg.numerics import _BRACKET_TABLE

IDEMPOTENT = ["min", "max", "harmonic_min"]

PARAMS = {"flat": {"alpha": 0.2, "beta": 0.7}, "boundary_only": {"g": "x^2", "h": "x"}}


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def old_harmonic_min(x, y):
    """The formula before the guarded denominator was dropped (reference)."""
    den = x + y
    safe = np.where(den == 0.0, 1.0, den)
    with np.errstate(invalid="ignore"):
        harm = 2.0 * x * y / safe
    return np.where(x < y, harm, y)


def inputs():
    """Every input the declared diagonals are held to: three grids, 10^5
    seeded points, and the edge values (signed zeros, 1, NaN, subnormals)."""
    yield from (make_grid(n).points for n in (50, 100, 400))
    yield np.random.default_rng(20261019).uniform(0.0, 1.0, 100_000)
    tiny = np.finfo(float).smallest_subnormal
    yield np.array([0.0, -0.0, 1.0, np.nan, tiny, 2.0 * tiny, 0.5 * np.finfo(float).tiny,
                    np.nextafter(np.finfo(float).tiny, 0.0)])


class TestDeclaredDiagonal:
    def test_only_the_idempotent_members_declare_one(self):
        """Of the catalog members, that is: every triple-generated function
        declares one too (``TestTripleDiagonal``)."""
        declared = [name for name in catalog_names()
                    if catalog_lookup(name, PARAMS.get(name)).diagonal is not None]
        assert declared == IDEMPOTENT

    @pytest.mark.parametrize("name", IDEMPOTENT)
    def test_equal_to_the_evaluator_bit_for_bit(self, name):
        A = catalog_lookup(name)
        for x in inputs():
            out = A.diagonal(x)
            np.testing.assert_array_equal(bits(out), bits(A.evaluator(x, x)))
            assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("name", IDEMPOTENT)
    @pytest.mark.parametrize("x", [0.0, -0.0, 0.3, 1.0, float("nan"), 5e-324])
    def test_scalars_too(self, name, x):
        A = catalog_lookup(name)
        assert bits([A.diagonal(x)]) == bits([A.evaluator(x, x)])
        assert bits([diagonal(A)(x)]) == bits([A(x, x)])
        assert isinstance(diagonal(A)(x), float)

    @pytest.mark.parametrize("name", IDEMPOTENT)
    def test_never_returns_the_read_only_table(self, name):
        out = diagonal(catalog_lookup(name)).evaluator(_BRACKET_TABLE)
        assert out.flags.writeable and not np.shares_memory(out, _BRACKET_TABLE)
        np.testing.assert_array_equal(bits(out), bits(_BRACKET_TABLE))

    @pytest.mark.parametrize("name", IDEMPOTENT)
    def test_diagonal_and_triple_of_read_it(self, name):
        A = catalog_lookup(name)
        assert diagonal(A).evaluator is A.diagonal
        assert triple_of(A).f.evaluator is A.diagonal
        plain = dataclasses.replace(A, diagonal=None)
        np.testing.assert_array_equal(bits(diagonal(plain)(make_grid(100).points)),
                                      bits(make_grid(100).points))

    def test_each_call_builds_a_new_section(self):
        A = catalog_lookup("harmonic_min")
        assert diagonal(A) is not diagonal(A)
        assert classify(A).delta is not classify(A).delta

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("name", catalog_names())
    def test_reports_are_those_of_the_evaluator(self, name, n):
        A, grid = catalog_lookup(name, PARAMS.get(name)), make_grid(n)
        declared, plain = classify(A, grid=grid), classify(
            dataclasses.replace(A, diagonal=None), grid=grid)
        assert str(declared) == str(plain)
        assert bits([declared.max_residual]) == bits([plain.max_residual])

    def test_a_patched_bisection_still_sees_the_diagonal_inverted(self, monkeypatch):
        calls, bisect = [], numerics.bisect_increasing

        def recorded(fn, y, **kwargs):
            calls.append(np.size(y))
            return bisect(fn, y, **kwargs)

        monkeypatch.setattr(numerics, "bisect_increasing", recorded)
        A, grid = catalog_lookup("harmonic_min"), make_grid(20)
        r = classify(A, grid=grid)
        assert r.verdict == CLASS1 and calls
        calls.clear()
        assert check_quasi_homogeneity(A, *canonical_pair(r), grid=grid).passed
        assert calls


def expression_triple(f, g, h):
    """The triple the CLI builds from the expressions f, g and h."""
    return GeneratorTriple(f=unit_function_from_expr(f, continuous_bijection=True),
                           g=unit_function_from_expr(g, increasing=True),
                           h=unit_function_from_expr(h, increasing=True))


def constant_one(evaluator) -> UnitFunction:
    """The section h = 1, which is nondecreasing, from its evaluator."""
    return UnitFunction(evaluator, increasing=True, name="1")


#: f jumps from 0 to 0.99993 between 0 and the smallest subnormal, so the
#: f_inv root of every target inside the jump, such as h(0.5) = 0.5 at
#: A(0.5, 1.0), is NaN
NAN_ROOT = ("x^0.0000001", "x/(2-x)", "x")

TRIPLES = {
    "expression": expression_triple("x^2", "x", "2*x/(1+x)"),
    # h(1) = 0.9, so the diagonal is f(x * f_inv(0.9)), not f
    "h=0.9*x": expression_triple("x^2", "x", "0.9*x"),
    # x occurs twice in f, so f inverts by bisection
    "bisected f": expression_triple("x*x", "x", "2*x/(1+x)"),
    "nan root": expression_triple(*NAN_ROOT),
    # f_inv(h(1)) = f_inv(0.5) is NaN, so the diagonal is NaN off 0
    "nan scale": expression_triple("x^0.0000001", "x", "0.5*x"),
    # a constant h may return a Python float (the elementwise rule)
    "scalar h": GeneratorTriple(power_function(2), identity(), constant_one(lambda x: 1.0)),
    **{f"seeded {k}": t for k, t in enumerate(random_valid_triples(20))},
}


def verdict_triples():
    """The triples of tests/test_classify_verdicts.py, three of them with f
    inverted by bisection; the verdict corpus holds none."""
    seeded = random_valid_triples(6)
    return seeded + [GeneratorTriple(f=strip_inverse(t.f), g=t.g, h=t.h) for t in seeded[:3]]


def counted(u: UnitFunction, label: str, calls: list) -> UnitFunction:
    def evaluator(x):
        calls.append(label)
        return u.evaluator(x)
    return dataclasses.replace(u, evaluator=evaluator)


class TestTripleDiagonal:
    @pytest.mark.parametrize("name", TRIPLES)
    def test_equal_to_the_evaluator_bit_for_bit(self, name):
        A = from_triple(TRIPLES[name], validate=False)
        for x in inputs():
            try:
                expected = A.evaluator(x, x)
            except EvalError:
                # an expression section refuses a NaN argument; the diagonal
                # reads h at 1 only, so it gives NaN there instead
                nan = np.isnan(x)
                assert nan.any() and np.isnan(A.diagonal(x[nan])).all()
                x = x[~nan]
                expected = A.evaluator(x, x)
            out = A.diagonal(x)
            np.testing.assert_array_equal(bits(out), bits(expected))
            assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("name", ["expression", "h=0.9*x", "bisected f", "seeded 0"])
    @pytest.mark.parametrize("x", [0.0, -0.0, 0.3, 1.0, 5e-324])
    def test_scalars_too(self, name, x):
        A = from_triple(TRIPLES[name], validate=False)
        assert np.ndim(A.diagonal(x)) == 0
        assert bits([diagonal(A)(x)]) == bits([A(x, x)])
        assert isinstance(diagonal(A)(x), float)

    def test_a_valid_triple_reads_f_and_an_invalid_one_its_scale(self):
        p = make_grid(100).points
        for name in ("expression", "bisected f", "seeded 3"):
            t = TRIPLES[name]
            np.testing.assert_array_equal(bits(from_triple(t).diagonal(p)), bits(t.f(p)))
        A = from_triple(TRIPLES["h=0.9*x"], validate=False)
        assert A.diagonal(1.0) == A(1.0, 1.0) == pytest.approx(0.9, abs=1e-15)
        assert np.isnan(from_triple(TRIPLES["nan scale"], validate=False).diagonal(p[1:])).all()

    def test_a_scalar_h_classifies_as_an_array_h_does(self):
        scalar = TRIPLES["scalar h"]
        array = dataclasses.replace(scalar, h=constant_one(np.ones_like))
        assert validate_triple(scalar).ok
        grid = make_grid(50)
        report = classify(from_triple(scalar), grid=grid)
        assert str(report).splitlines()[0] == "Class1 delta=x^2 (fitted)"
        assert str(report) == str(classify(from_triple(array), grid=grid))
        for f in (scalar.f, strip_inverse(scalar.f)):
            A = from_triple(dataclasses.replace(scalar, f=f), validate=False)
            assert A.diagonal(0.5) == A(0.5, 0.5) == 0.25

    def test_diagonal_and_triple_of_read_it(self):
        A = from_triple(TRIPLES["expression"])
        assert diagonal(A).evaluator is A.diagonal
        assert triple_of(A).f.evaluator is A.diagonal

    def test_building_evaluates_no_section(self):
        calls = []
        t = TRIPLES["bisected f"]
        A = from_triple(GeneratorTriple(f=counted(t.f, "f", calls), g=counted(t.g, "g", calls),
                                        h=counted(t.h, "h", calls)), validate=False)
        assert calls == []
        A.diagonal(make_grid(10).points)
        # h once, at 1; f to invert h(1), then on the lanes; g never
        assert calls.count("h") == 1 and "g" not in calls
        calls.clear()
        A.diagonal(make_grid(10).points)
        assert calls == ["f"]

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("k", range(9))
    def test_reports_are_those_of_the_evaluator(self, k, n):
        A, grid = from_triple(verdict_triples()[k]), make_grid(n)
        declared, plain = classify(A, grid=grid), classify(
            dataclasses.replace(A, diagonal=None), grid=grid)
        assert declared.verdict == CLASS1
        assert str(declared) == str(plain)
        assert bits([declared.max_residual]) == bits([plain.max_residual])


class TestNanRoot:
    """A lane whose f_inv root is NaN is NaN in A, and f never sees it: the
    checks report it as a witness, where an expression f would raise."""

    def test_f_is_not_called_on_a_nan_lane(self):
        seen = []
        t = expression_triple(*NAN_ROOT)

        def f(x):
            seen.append(np.asarray(x, dtype=float).copy())
            return t.f.evaluator(x)

        A = from_triple(dataclasses.replace(t, f=dataclasses.replace(t.f, evaluator=f)),
                        validate=False)
        out = A.evaluator(np.array([0.0, 0.5, 1.0, 0.5]), np.array([0.0, 1.0, 1.0, 0.5]))
        assert np.isnan(out[1]) and out[0] == 0.0 and not np.isnan(out[2:]).any()
        assert not any(np.isnan(x).any() for x in seen)

    def test_the_checks_report_a_witness(self):
        A, grid = from_triple(expression_triple(*NAN_ROOT), validate=False), make_grid(2)
        agg = check_aggregation(A, grid=grid)
        assert not agg.passed and agg.reason == "A(0.5,1.0)=nan outside [0,1]"
        r = classify(A, grid=grid)
        assert r.verdict == NOT_QH
        assert r.reason == "not an aggregation function: A(0.5,1.0)=nan outside [0,1]"


class TestHarmonicMin:
    def test_the_formula_is_unchanged_on_the_base_grid_and_a_sweep_cube(self):
        p = make_grid(100).points
        lam = p[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in ((p[:, None], p[None, :]),
                         (lam * p[None, :, None], lam * p[None, None, :])):
                np.testing.assert_array_equal(bits(_harmonic_min(x, y)),
                                              bits(old_harmonic_min(x, y)))

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (0.0, 0.5), (0.25, 0.75), (0.5, 0.5),
                                      (0.75, 0.25), (float("nan"), 0.5), (0.5, float("nan"))])
    def test_python_floats_raise_nothing(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bits([_harmonic_min(x, y)]) == bits([old_harmonic_min(x, y)])


class TestNoPowerPass:
    def test_power_one_is_the_identity_bit_for_bit(self):
        # PhiSpec.inverse_of(u, 1.0) skips np.power(v, 1.0); this pins that
        # the skipped pass returned v, on this numpy
        rng = np.random.default_rng(7)
        info = np.finfo(float)
        v = np.concatenate([
            rng.uniform(0.0, 1.0, 1_000_000),
            np.exp2(rng.uniform(-1074.0, 0.0, 100_000)),  # down to the subnormals
            rng.uniform(0.5, 1.0, 100_000) * info.max,
            [0.0, -0.0, np.nan, np.inf, -np.inf, info.smallest_subnormal, info.tiny, info.max],
        ])
        np.testing.assert_array_equal(bits(np.power(v, 1.0)), bits(v))

    def test_the_normalized_pair_is_u_inv_and_u(self):
        u = classify(catalog_lookup("product")).delta
        phi = PhiSpec.inverse_of(u)
        assert phi.evaluator == u.invert and phi.inverse is u.evaluator
        assert phi.name == f"({u.name})^-1"
        squared = PhiSpec.inverse_of(u, 2.0)
        p = make_grid(50).points
        np.testing.assert_array_equal(bits(squared(p)), bits(np.power(phi(p), 2.0)))
