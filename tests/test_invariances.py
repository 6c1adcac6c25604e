"""The paper's invariances of Class 1, as Hypothesis properties.

The members are the catalog's Class-1 functions and triples drawn from
the conftest families; grids are small (n in {8, 12, 20}).

* Exponent freedom: if A meets the scaling law with psi = id and
  phi = delta_inv, it meets it with psi = x^c and phi = (delta_inv)^c for
  every c > 0; c is drawn from [0.25, 4].
* Homogeneity as a corollary: with delta = x^k the law reads
  A(lam x, lam y) = lam^k A(x, y), so a diagonal that fits x^k makes A
  homogeneous of order k, and of no other order.
"""

from __future__ import annotations

import functools

import numpy as np
from conftest import random_valid_triples
from hypothesis import given, settings
from hypothesis import strategies as st

from qhagg import (CLASS1, PhiSpec, PsiSpec, catalog_lookup, check_homogeneous_order,
                   check_quasi_homogeneity, classify, fit_power_exponent, from_triple,
                   make_grid)

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
