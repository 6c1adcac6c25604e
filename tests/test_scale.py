"""Class-1 classification at n = 400 stays in O(n^2) memory.

The lam sweep is streamed in chunks, and the diagonal is inverted on the
(n+1)^2 base sample only, so the traced peak stays far below the ~500 MiB
that a single (n+1)^3 float cube takes at this resolution.
"""

from __future__ import annotations

import tracemalloc

import pytest

from qhagg import CLASS1, catalog_lookup, classify, make_grid

PEAK_LIMIT_MIB = 100


@pytest.mark.parametrize("name", ["product", "harmonic_min"])
def test_class1_classify_at_n400(name):
    A, grid = catalog_lookup(name), make_grid(400)
    tracemalloc.start()
    try:
        report = classify(A, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == CLASS1
    assert peak < PEAK_LIMIT_MIB * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
