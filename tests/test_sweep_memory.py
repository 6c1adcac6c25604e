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
"""

from __future__ import annotations

import tracemalloc

from qhagg import (CLASS1, PhiSpec, PsiSpec, catalog_lookup, check_quasi_homogeneity,
                   classify, make_grid)

PEAK_LIMIT_MIB = 7
N400_PEAK_LIMIT_MIB = 16
STEP_PEAK_LIMIT_MIB = 5
CLASSIFY_N100_PEAK_LIMIT_MIB = 5


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
