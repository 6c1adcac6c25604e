"""The scaling-law sweep with a bisection-backed phi stays in O(n^2) memory.

With a power psi the sweep inverts phi once per lam row and distinct value
of phi(A) on the base grid, and the inversion refines in fixed-size blocks,
so the traced peak stays far below the size of a chunk of the cube.
"""

from __future__ import annotations

import tracemalloc

from qhagg import PhiSpec, PsiSpec, catalog_lookup, check_quasi_homogeneity, make_grid

PEAK_LIMIT_MIB = 64


def test_expression_phi_power_psi_sweep_at_n150():
    A, phi, psi = catalog_lookup("product"), PhiSpec.from_expr("x^2"), PsiSpec.power(4.0)
    grid = make_grid(150)
    tracemalloc.start()
    try:
        report = check_quasi_homogeneity(A, phi, psi, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
