"""Characterization of ``classify`` verdicts at n = 40.

Pins the verdict (and the recovered class parameters) of the catalog
members, of seeded generator triples (three of them through the bisection
path of ``f``), and of combiner functions over power and rational
sections. The witnesses of Class-1 refutations are deliberately not
pinned: they depend on the units in which the scaling-law residual is
measured, not on the mathematics.
"""

from __future__ import annotations

import pytest

from conftest import random_valid_triples, strip_inverse
from qhagg import (CLASS1, CLASS2, CLASS3, NOT_QH, GeneratorTriple,
                   aggregation_from_combiner, catalog_lookup, classify,
                   from_triple, make_grid, unit_function_from_expr)

G40 = make_grid(40)

CATALOG = (
    ("min", {}, CLASS1),
    ("max", {}, CLASS1),
    ("product", {}, CLASS1),
    ("harmonic_min", {}, CLASS1),
    ("drastic", {}, CLASS3),
    ("flat", {"alpha": 0.2, "beta": 0.7}, CLASS2),
    ("boundary_only", {"g": "x^2", "h": "x"}, CLASS3),
)

SECTION_PAIRS = (("x^2", "x"), ("x", "x"), ("x^2", "x^2"), ("x^0.5", "x^2"),
                 ("2*x/(1+x)", "x"))

#: verdicts of combiner(u(x), v(y)) in the order of SECTION_PAIRS
COMBINER_VERDICTS = {
    "min": (NOT_QH, CLASS1, CLASS1, NOT_QH, NOT_QH),
    "max": (NOT_QH, CLASS1, CLASS1, NOT_QH, NOT_QH),
    "product": (CLASS1, CLASS1, CLASS1, CLASS1, NOT_QH),
    "mean": (NOT_QH, CLASS1, CLASS1, NOT_QH, NOT_QH),
}


@pytest.mark.parametrize("name,params,verdict", CATALOG, ids=[c[0] for c in CATALOG])
def test_catalog_verdicts(name, params, verdict):
    report = classify(catalog_lookup(name, params), grid=G40)
    assert report.verdict == verdict
    if verdict == CLASS2:
        assert (report.alpha, report.beta) == (params["alpha"], params["beta"])


TRIPLES = random_valid_triples(6)


@pytest.mark.parametrize("k", range(len(TRIPLES)))
def test_triple_verdicts(k):
    assert classify(from_triple(TRIPLES[k]), grid=G40).verdict == CLASS1


@pytest.mark.parametrize("k", range(3))
def test_bisection_triple_verdicts(k):
    t = TRIPLES[k]
    A = from_triple(GeneratorTriple(f=strip_inverse(t.f), g=t.g, h=t.h))
    assert classify(A, grid=G40).verdict == CLASS1


@pytest.mark.parametrize("combiner,pair,verdict", [
    pytest.param(comb, pair, verdicts[k], id=f"{comb}({pair[0]},{pair[1]})")
    for comb, verdicts in COMBINER_VERDICTS.items()
    for k, pair in enumerate(SECTION_PAIRS)
])
def test_combiner_verdicts(combiner, pair, verdict):
    u, v = (unit_function_from_expr(text, increasing=True) for text in pair)
    report = classify(aggregation_from_combiner(combiner, u, v), grid=G40)
    assert report.verdict == verdict
    if verdict == NOT_QH:
        # the diagonal is bijective in every refuted case: step 4 refutes
        assert report.diagnostics["aggregation"] == 0.0
        assert report.witness is not None
