"""The paper's invariances of Class 1, as Hypothesis properties.

The members are the catalog's Class-1 functions and triples drawn from
the conftest families; grids are small (n in {8, 12, 20}).

* Exponent freedom: if A meets the scaling law with psi = id and
  phi = delta_inv, it meets it with psi = x^c and phi = (delta_inv)^c for
  every c > 0; c is drawn from [0.25, 4].
* Homogeneity as a corollary: with delta = x^k the law reads
  A(lam x, lam y) = lam^k A(x, y), so a diagonal that fits x^k makes A
  homogeneous of order k, and of no other order.
* Generated members are Class 1: a triple that ``from_triple`` accepts
  (it validates on 101 points) classifies Class 1, and its canonical pair
  re-verifies the scaling law. Triples are drawn from the conftest
  families, with power sections x^a for a in [0.05, 4].
* Validation at the classifying grid is enough: a triple that
  ``validate_triple`` accepts at n classifies Class 1 at that n.
* The ratio conditions are not vacuous: a triple whose nonincreasing-ratio
  condition fails at n, built with ``validate=False``, is refuted at n as
  not an aggregation function.
* Verdicts are stable under n -> 2n: a triple that ``from_triple``
  accepts, and every catalog member, gets the same verdict at n and 2n
  (n in {4, 6, 10}).
* An interior bump is refuted on the grid: a Class-1 catalog member plus a
  bump of height +-[1e-3, 0.1], centred at an interior grid point and
  supported inside the open square, is NotQuasiHomogeneous, and its
  witness (lam, x, y) lies on the grid. This fails on the code for a
  narrow bump on the diagonal, so the property is a strict xfail.
* The discontinuous classes take any phi: ``class_flat`` and
  ``class_boundary`` members meet the scaling law with their step psi for
  phi = x^c, (2x/(1+x))_inv^c or the expression x^c, c in [0.25, 4].
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from conftest import convex_with_identity, random_valid_triples
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhagg import (CLASS1, NOT_QH, AggregationFunction, ContractError, GeneratorTriple, PhiSpec,
                   PsiSpec, bounded_rational, canonical_pair, catalog_lookup, catalog_names,
                   check_homogeneous_order, check_quasi_homogeneity, class_boundary,
                   class_flat, classify, fit_power_exponent, from_triple, identity,
                   make_grid, power_function, validate_triple)

MEMBERS = {name: catalog_lookup(name) for name in ("min", "max", "product", "harmonic_min")}
MEMBERS.update((f"triple{i}", from_triple(t)) for i, t in enumerate(random_valid_triples(6)))
SIZES = st.sampled_from([8, 12, 20])


@functools.cache
def report(name, n):
    r = classify(MEMBERS[name], grid=make_grid(n))
    assert r.verdict == CLASS1, (name, n, str(r))
    return r


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(MEMBERS)), n=SIZES, c=st.floats(0.25, 4.0))
def test_any_exponent_gives_a_scaling_pair(name, n, c):
    delta = report(name, n).delta
    qh = check_quasi_homogeneity(MEMBERS[name], PhiSpec.inverse_of(delta, c),
                                 PsiSpec.power(c), grid=make_grid(n))
    assert qh.passed, (name, n, c, str(qh))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(MEMBERS)), n=SIZES)
def test_a_power_diagonal_makes_a_homogeneous(name, n):
    grid = make_grid(n)
    xs = grid.points[1:]
    k, deviation = fit_power_exponent(xs, np.asarray(report(name, n).delta.evaluator(xs)))
    assert deviation < 1e-9, (name, n, k, deviation)
    A = MEMBERS[name]
    assert check_homogeneous_order(A, k, grid=grid).passed, (name, n, k)
    assert not check_homogeneous_order(A, 1.1 * k, grid=grid).passed, (name, n, k)


#: increasing sections with u(1) = 1: the conftest families, whose powers
#: x^a are widened to a in [0.05, 4]
POWERS = st.floats(0.05, 4.0).map(power_function)
SECTIONS = st.one_of(st.just(identity()), st.just(bounded_rational()), POWERS,
                     st.builds(convex_with_identity, st.one_of(st.just(bounded_rational()), POWERS),
                               st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.5, 2.0), g=SECTIONS, h=SECTIONS, n=SIZES)
def test_an_accepted_triple_classifies_class1(c, g, h, n):
    try:
        A = from_triple(GeneratorTriple(f=power_function(c), g=g, h=h))
    except ContractError:
        assume(False)
    grid = make_grid(n)
    r = classify(A, grid=grid)
    assert r.verdict == CLASS1, (repr(A), n, str(r))
    qh = check_quasi_homogeneity(A, *canonical_pair(r), grid=grid, tol=1e-6)
    assert qh.passed, (repr(A), n, str(qh))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.5, 2.0), g=SECTIONS, h=SECTIONS, n=SIZES)
def test_a_triple_valid_at_n_classifies_class1_at_n(c, g, h, n):
    t, grid = GeneratorTriple(f=power_function(c), g=g, h=h), make_grid(n)
    assume(validate_triple(t, grid=grid).ok)
    r = classify(from_triple(t, validate=False), grid=grid)
    assert r.verdict == CLASS1, (repr(t), n, str(r))


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.5, 2.0), g=SECTIONS, h=SECTIONS, n=SIZES)
def test_a_triple_that_breaks_a_ratio_condition_is_not_an_aggregation_function(c, g, h, n):
    # both read at validate_triple's default tolerance: at classify's looser
    # default, f = x^0.99999, g = h = x at n = 12 breaks a ratio condition
    # yet A's fall (8e-7) is within tolerance, and A classifies Class 1
    t, grid, tol = GeneratorTriple(f=power_function(c), g=g, h=h), make_grid(n), 1e-9
    assume(any(not check.passed and check.name.startswith("f_inv(")
               for check in validate_triple(t, grid=grid, tol=tol).conditions))
    r = classify(from_triple(t, validate=False), grid=grid, tol=tol)
    assert r.verdict == NOT_QH, (repr(t), n, str(r))
    assert r.reason.startswith("not an aggregation function: "), (repr(t), n, str(r))


def bumped(A, x0, y0, radius, height):
    """A plus a bump of ``height`` at (x0, y0), zero from ``radius`` away."""
    def evaluator(x, y):
        with np.errstate(over="ignore"):  # a tiny radius: inf off the centre, then 0
            s = np.hypot(np.asarray(x, dtype=float) - x0, np.asarray(y, dtype=float) - y0) / radius
        return A.evaluator(x, y) + height * np.maximum(0.0, 1.0 - s * s) ** 2

    return AggregationFunction(evaluator, provenance="test", name=f"{A.name}+bump")


# Fails on the code: a bump centred on a diagonal grid point whose support
# holds no other sampled point goes unseen, since with psi = id the scaling
# law holds along the diagonal whatever the diagonal is. The example pins
# the case Hypothesis found, so that the property fails on every run, and
# it stops there: a generated failure makes Hypothesis's pytest plugin
# import a module that warns, which -W error turns into an internal error.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a narrow bump on the diagonal is not refuted (FOUND in CHANGES.md)")
@example(name="product", n=8, i=5, j=5, radius=1 / 64, height=1 / 64, sign=1.0)
@settings(max_examples=100, deadline=None, report_multiple_bugs=False)
@given(name=st.sampled_from(["min", "max", "product", "harmonic_min"]), n=SIZES,
       i=st.integers(1, 19), j=st.integers(1, 19),
       radius=st.floats(0.0, 1.0, exclude_min=True), height=st.floats(1e-3, 0.1),
       sign=st.sampled_from([1.0, -1.0]))
def test_an_interior_bump_is_refuted_with_a_witness_on_the_grid(name, n, i, j, radius, height,
                                                                 sign):
    grid = make_grid(n)
    # the centre is an interior grid point
    x0, y0 = grid.points[1 + (i - 1) % (n - 1)], grid.points[1 + (j - 1) % (n - 1)]
    # the bump's support stays inside the open square
    radius *= min(x0, y0, 1.0 - x0, 1.0 - y0)
    r = classify(bumped(catalog_lookup(name), x0, y0, radius, sign * height), grid=grid)
    assert r.verdict == NOT_QH, (name, n, x0, y0, radius, sign * height, str(r))
    assert set(r.witness[:3]) <= set(grid.points.tolist()), (name, n, str(r))


CATALOG_PARAMS = {"flat": {"alpha": 0.2, "beta": 0.7}, "boundary_only": {"g": "x^2", "h": "x"}}
HALF_SIZES = st.sampled_from([4, 6, 10])


def same_verdict_at_n_and_2n(A, n):
    coarse, fine = (classify(A, grid=make_grid(m)) for m in (n, 2 * n))
    assert coarse.verdict == fine.verdict, (repr(A), n, str(coarse), str(fine))


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.5, 2.0), g=SECTIONS, h=SECTIONS, n=HALF_SIZES)
def test_an_accepted_triple_keeps_its_verdict_from_n_to_2n(c, g, h, n):
    try:
        A = from_triple(GeneratorTriple(f=power_function(c), g=g, h=h))
    except ContractError:
        assume(False)
    same_verdict_at_n_and_2n(A, n)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(catalog_names()), n=HALF_SIZES)
def test_a_catalog_member_keeps_its_verdict_from_n_to_2n(name, n):
    same_verdict_at_n_and_2n(catalog_lookup(name, CATALOG_PARAMS.get(name)), n)


PHIS = {
    "power": PhiSpec.power,
    "inverse_of": lambda c: PhiSpec.inverse_of(bounded_rational(), c),
    "expression": lambda c: PhiSpec.from_expr(f"x^{c!r}"),
}
STEP_MEMBERS = st.one_of(
    st.builds(lambda a, b: (class_flat(a, b), PsiSpec.step_at_zero()),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(lambda g, h: (class_boundary(g, h), PsiSpec.step_at_one()), SECTIONS, SECTIONS))


@settings(max_examples=100, deadline=None)
@given(member=STEP_MEMBERS, phi=st.sampled_from(sorted(PHIS)), c=st.floats(0.25, 4.0), n=SIZES)
def test_a_step_class_member_meets_the_law_for_any_phi(member, phi, c, n):
    A, psi = member
    qh = check_quasi_homogeneity(A, PHIS[phi](c), psi, grid=make_grid(n))
    assert qh.passed, (repr(A), phi, c, n, str(qh))
