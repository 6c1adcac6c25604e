"""The lam sweep stays in O(n^2) memory.

With a power psi the sweep inverts phi once per lam row and distinct value
of phi(A) on the base grid, and the inversion refines in fixed-size blocks,
so the traced peak stays far below the size of a chunk of the cube. A chunk
of the cube holds at most 2^18 lanes whenever one lam row fits, so at
n = 400 a sweep holds a few 2 MiB slabs, not a cube's worth.
"""

from __future__ import annotations

import tracemalloc

from qhagg import (CLASS1, PhiSpec, PsiSpec, catalog_lookup, check_quasi_homogeneity,
                   classify, make_grid)

PEAK_LIMIT_MIB = 64
N400_PEAK_LIMIT_MIB = 16


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


def test_class1_classify_at_n400():
    grid = make_grid(400)
    report, peak = traced_peak(lambda: classify(catalog_lookup("product"), grid=grid))
    assert report.verdict == CLASS1
    assert peak < N400_PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


def test_step_psi_sweep_at_n400():
    A, phi, psi = catalog_lookup("drastic"), PhiSpec.from_expr("x^2"), PsiSpec.step_at_one()
    grid = make_grid(400)
    report, peak = traced_peak(lambda: check_quasi_homogeneity(A, phi, psi, grid=grid))
    assert report.passed
    assert peak < N400_PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
