"""The lam sweep stays in O(n^2) memory.

With a power psi the sweep inverts phi once per lam row and distinct value
of phi(A) on the base grid, and the inversion refines in fixed-size blocks,
so the traced peak stays far below the size of a chunk of the cube. A chunk
of the cube holds at most 2^17 lanes (a 1 MiB float64 slab) whenever one
lam row fits, that is up to n = 361, and one row beyond; A is evaluated on
tiles of at most 2^16 lanes of a chunk, so its temporaries stay at 512 KiB
each whatever the chunk holds. Traced peaks at 2^18-lane chunks evaluated
whole, and with the two-level plan: harmonic_min classify at n = 100,
10.2 -> 3.2 MiB; the n = 150 power-psi sweep, 9.7 -> 4.8 MiB; the n = 400
step-psi sweep, 7.5 -> 3.4 MiB (numpy 2.4, Python 3.11). The bounds leave
about half as much again for other numpy versions.

The numeric inverses whose roots are asked for again keep a memo of the
roots they have refined, at most 2^18 of them (4 MiB): the one inverse a
function keeps, and ``from_triple``'s own f_inv, so that the tiles of a
sweep do not solve the same sections again. Every other numeric inverse,
such as that of an expression phi, keeps none. The classify of a triple
whose f is bisected peaks at 6.9 MiB at n = 200 with ``from_triple``'s
memo, 8.1 MiB without it (numpy 2.4, Python 3.11).

A Class-1 report keeps the memo of its ``delta``'s inverse, so that the
re-verification of its canonical pair solves no root again: while the
report of ``classify(product)`` at n = 400 is held, 0.75 MiB stays traced,
and none once it is dropped. The bound is 1.5 MiB.

The aggregation check holds one difference of its base-grid sample at a
time: its traced peak at n = 400 is 1.1 times the sample (4.0 times when
it held the range excess and both differences at once), and the bound is 2
times.

``distinct``, which sorts the values of phi(A) on the base grid, holds its
argsort order, its index array and one block of sorted values at a time:
on the 641,601 values of product at n = 800 its traced peak is 2.35 times
the input (3.4 times when the sorted copy, the run flags and the ranks were
held whole), and the bound is 2.5 times.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from qhagg import (CLASS1, GeneratorTriple, PhiSpec, PsiSpec, canonical_pair, catalog_lookup,
                   check_aggregation, check_quasi_homogeneity, classify, from_triple, make_grid,
                   unit_function_from_expr)
from qhagg.algebra import AggregationFunction
from qhagg.numerics import distinct

PEAK_LIMIT_MIB = 7
N400_PEAK_LIMIT_MIB = 16
STEP_PEAK_LIMIT_MIB = 5
CLASSIFY_N100_PEAK_LIMIT_MIB = 5
TRIPLE_N200_PEAK_LIMIT_MIB = 14
HELD_REPORT_LIMIT_MIB = 1.5
AGGREGATION_PEAK_LIMIT_SAMPLES = 2
DISTINCT_PEAK_LIMIT_INPUTS = 2.5


def traced_peak(check):
    tracemalloc.start()
    try:
        report = check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_expression_phi_power_psi_sweep_at_n150():
    A, phi, psi = catalog_lookup("product"), PhiSpec.from_expr("x^2"), PsiSpec.power(4.0)
    grid = make_grid(150)
    report, peak = traced_peak(lambda: check_quasi_homogeneity(A, phi, psi, grid=grid))
    assert report.passed
    assert peak < PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_bisected_expression_phi_power_psi_sweep_at_n150():
    # x*x has no closed-form inverse, so each chunk's targets are bisected
    A, phi, psi = catalog_lookup("product"), PhiSpec.from_expr("x*x"), PsiSpec.power(4.0)
    grid = make_grid(150)
    report, peak = traced_peak(lambda: check_quasi_homogeneity(A, phi, psi, grid=grid))
    assert report.passed
    assert peak < PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_class1_classify_at_n400():
    grid = make_grid(400)
    report, peak = traced_peak(lambda: classify(catalog_lookup("product"), grid=grid))
    assert report.verdict == CLASS1
    assert peak < N400_PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_step_psi_sweep_at_n400():
    # a step psi never sorts phi(A), so no (n+1)^2 index array is held
    A, phi, psi = catalog_lookup("drastic"), PhiSpec.from_expr("x^2"), PsiSpec.step_at_one()
    grid = make_grid(400)
    report, peak = traced_peak(lambda: check_quasi_homogeneity(A, phi, psi, grid=grid))
    assert report.passed
    assert peak < STEP_PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_class1_classify_at_n100():
    grid = make_grid(100)
    report, peak = traced_peak(lambda: classify(catalog_lookup("harmonic_min"), grid=grid))
    assert report.verdict == CLASS1
    assert peak < CLASSIFY_N100_PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_bisected_triple_classify_at_n200():
    # f = x*x has no closed-form inverse, so every tile of the sweep inverts
    # f numerically, and f's inverse remembers the roots it has refined
    def unit(text, **flags):
        return unit_function_from_expr(text, increasing=True, **flags)

    A = from_triple(GeneratorTriple(f=unit("x*x", continuous_bijection=True),
                                    g=unit("x"), h=unit("2*x/(1+x)")))
    grid = make_grid(200)
    report, peak = traced_peak(lambda: classify(A, grid=grid))
    assert report.verdict == CLASS1
    assert peak < TRIPLE_N200_PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_a_held_class1_report_at_n400():
    grid = make_grid(400)
    A = catalog_lookup("product")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = classify(A, grid=grid)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        assert check_quasi_homogeneity(A, *canonical_pair(report), grid=grid).passed
        del report
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < HELD_REPORT_LIMIT_MIB * 2 ** 20, f"held {held / 2 ** 20:.2f} MiB"
    assert left < held / 10, f"{left / 2 ** 20:.2f} MiB left after the report was dropped"


def test_aggregation_check_at_n400():
    # A returns a sample made before tracing starts, so the peak is the
    # check's own temporaries
    grid = make_grid(400)
    p = grid.points
    V = p[:, None] * p[None, :]
    A = AggregationFunction(lambda x, y: V, provenance="sampled product")
    report, peak = traced_peak(lambda: check_aggregation(A, grid=grid))
    assert report.passed
    assert peak <= AGGREGATION_PEAK_LIMIT_SAMPLES * V.nbytes, (
        f"traced peak {peak / V.nbytes:.2f} times the sample")


def test_distinct_of_the_n800_product_grid():
    p = make_grid(800).points
    values = (p[:, None] * p[None, :]).ravel()
    (w, at), peak = traced_peak(lambda: distinct(values))
    assert np.array_equal(w[at], values)
    assert peak <= DISTINCT_PEAK_LIMIT_INPUTS * values.nbytes, (
        f"traced peak {peak / values.nbytes:.2f} times the input")
