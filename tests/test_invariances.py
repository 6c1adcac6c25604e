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
* The discontinuous classes take any phi: ``class_flat`` and
  ``class_boundary`` members meet the scaling law with their step psi for
  phi = x^c, (2x/(1+x))_inv^c or the expression x^c, c in [0.25, 4].
"""

from __future__ import annotations

import functools

import numpy as np
from conftest import convex_with_identity, random_valid_triples
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhagg import (CLASS1, ContractError, GeneratorTriple, PhiSpec, PsiSpec, bounded_rational,
                   canonical_pair, catalog_lookup, check_homogeneous_order,
                   check_quasi_homogeneity, class_boundary, class_flat, classify,
                   fit_power_exponent, from_triple, identity, make_grid, power_function,
                   validate_triple)

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
