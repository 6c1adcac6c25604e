"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria that need the randomized triple population share the session
fixture ``triples_50`` (families documented in conftest).
"""

import time

import numpy as np
import pytest

from conftest import interior_step, strip_inverse

from qhagg import (
    CLASS1,
    CLASS2,
    CLASS3,
    NOT_QH,
    GeneratorTriple,
    PhiSpec,
    PsiSpec,
    aggregation_from_combiner,
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
    from_triple,
    identity,
    make_grid,
    power_function,
    triple_of,
    unit_function_from_expr,
    validate_triple,
)

G25 = make_grid(25)
G50 = make_grid(50)
G100 = make_grid(100)


def announce(number: int, label: str):
    print(f"ACCEPTANCE {number} ({label}): PASS")


@pytest.fixture(scope="module")
def class1_reports():
    functions = {
        "min": catalog_lookup("min"),
        "product": catalog_lookup("product"),
        "arithmetic mean": aggregation_from_combiner("mean", identity(), identity()),
        "harmonic_min": catalog_lookup("harmonic_min"),
    }
    return {name: (A, classify(A, grid=G50)) for name, A in functions.items()}


def test_criterion_1_construction_soundness(triples_50):
    start = time.perf_counter()
    for t in triples_50:
        A = from_triple(t)
        agg = check_aggregation(A, grid=G50, tol=1e-9)
        assert agg.passed, agg.reason
        phi = PhiSpec.inverse_of(t.f)
        qh = check_quasi_homogeneity(A, phi, PsiSpec.power(1), grid=G50, tol=1e-9)
        assert qh.passed, (t, qh.max_residual)

    # same construction through the bisection inverse, at the same tolerance
    for t in triples_50[:5]:
        t_b = GeneratorTriple(f=strip_inverse(t.f), g=t.g, h=t.h)
        A = from_triple(t_b)
        assert t_b.f.inverse is None
        phi = PhiSpec.inverse_of(t_b.f)
        qh = check_quasi_homogeneity(A, phi, PsiSpec.power(1), grid=G50)
        assert qh.passed, qh.max_residual

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"soundness sweep took {elapsed:.1f}s"
    announce(1, "construction soundness, 50 random triples")


def test_criterion_2_drastic_counterexample():
    from qhagg import bounded_rational

    drastic = catalog_lookup("drastic")
    phis = [PhiSpec.identity(), PhiSpec.power(2),
            PhiSpec.from_unit_function(bounded_rational())]

    for phi in phis:
        report = check_quasi_homogeneity(drastic, phi, PsiSpec.step_at_one(),
                                         grid=G100)
        assert report.max_residual == 0.0, (phi.name, report.max_residual)
        assert report.passed

    dbc = diagonal_bijection_check(diagonal(drastic), grid=G100)
    assert not dbc.passed
    assert dbc.max_jump == 1.0
    assert dbc.max_jump_at == (0.99, 1.0)
    announce(2, "drastic product verifies, its diagonal is no bijection")


def test_criterion_3_round_trip(triples_50):
    p = G100.points
    for t in triples_50:
        A = from_triple(t, validate=False)
        back = triple_of(A)
        for orig, rec in ((t.f, back.f), (t.g, back.g), (t.h, back.h)):
            ov = np.asarray(orig.evaluator(p), float)
            rv = np.asarray(rec.evaluator(p), float)
            assert float(np.max(np.abs(ov - rv))) <= 1e-9
    announce(3, "triple recovery round trip at 101 points")


def test_criterion_4_classification(class1_reports):
    for name, (A, report) in class1_reports.items():
        assert report.verdict == CLASS1, (name, report.verdict)

    for alpha in (0.0, 0.3, 1.0):
        for beta in (0.0, 0.3, 1.0):
            report = classify(class_flat(alpha, beta), grid=G50)
            assert report.verdict == CLASS2
            assert (report.alpha, report.beta) == (alpha, beta)

    assert classify(catalog_lookup("drastic"), grid=G50).verdict == CLASS3
    boundary = class_boundary(unit_function_from_expr("x^2", increasing=True),
                              identity())
    assert classify(boundary, grid=G50).verdict == CLASS3

    refuted = classify(aggregation_from_combiner("bounded_sum", identity(),
                                                 identity()), grid=G50)
    assert refuted.verdict == NOT_QH
    assert refuted.witness is not None
    announce(4, "verdicts for all canonical examples")


def test_criterion_5_multiplicative_trichotomy():
    for psi in (PsiSpec.step_at_zero(), PsiSpec.step_at_one()):
        report = check_multiplicative(psi, grid=G100, tol=0.0)
        assert report.passed and report.max_residual == 0.0

    for c in (0.5, 1.0, 2.0, 3.0):
        report = check_multiplicative(PsiSpec.power(c), grid=G100, tol=1e-12)
        assert report.passed, (c, report.max_residual)

    report = check_multiplicative(interior_step(0.5), grid=G100, tol=1e-12)
    assert not report.passed
    assert report.witness is not None
    lam, x = report.witness
    assert lam >= 0.5 and x >= 0.5 and lam * x < 0.5
    announce(5, "multiplicative law holds exactly for the three forms only")


def test_criterion_6_exponent_normalization():
    cases = [
        (catalog_lookup("harmonic_min"), identity()),
        (catalog_lookup("product"), power_function(2)),
    ]
    for A, delta in cases:
        for c in (0.5, 1.0, 2.0):
            phi = PhiSpec.inverse_of(delta, c=c)
            report = check_quasi_homogeneity(A, phi, PsiSpec.power(c),
                                             grid=G100, tol=1e-9)
            assert report.passed, (A.name, c, report.max_residual)
    announce(6, "scaling verdict invariant under the exponent choice")


def test_criterion_7_ratio_condition_not_vacuous():
    t = GeneratorTriple(f=identity(), g=identity(), h=power_function(2))
    report = validate_triple(t, grid=G100)
    assert not report.ok
    ratio_failures = [c for c in report.failures if "nonincreasing" in c.name]
    assert ratio_failures and ratio_failures[0].witness is not None

    raw = from_triple(t, validate=False)
    agg = check_aggregation(raw, grid=G100, tol=1e-9)
    assert not agg.passed
    assert not agg.monotone_ok
    announce(7, "dropping the ratio condition breaks monotonicity")


def test_criterion_8_order_one_homogeneity(class1_reports):
    for name, (A, report) in class1_reports.items():
        assert report.verdict == CLASS1
        delta = report.delta

        def composite(x, y, ev=A.evaluator, d=delta):
            return d.invert(np.clip(np.asarray(ev(x, y), float), 0.0, 1.0))

        hom = check_homogeneous_order(composite, 1.0, grid=G25, tol=1e-6)
        assert hom.passed, (name, hom.max_residual)
    announce(8, "normalized composites are homogeneous of order 1")
