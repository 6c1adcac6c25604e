"""The power scaling function x^c and homogeneity of order k, pinned to the bit.

SHA-256 of the float64 bytes of ``PsiSpec.power(c)`` on the grid n = 50 for
four exponents; the bits (``float.hex``) of the largest residual and of its
witness of ``check_homogeneous_order`` on the product at three orders, on
the grid n = 20; and the text of one quasi-homogeneity report whose psi is
a power. A change to where x^c is evaluated leaves every outcome as it is.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from qhagg import (PhiSpec, PsiSpec, catalog_lookup, check_homogeneous_order,
                   check_quasi_homogeneity, make_grid)

PSI_POWER = {
    0.25: "873cf0ba2ea43a5991149f48ab4795b7f75914e9605aeca1893afb9052e80e6f",
    1.0: "5431379cc5eba1f7abc5abef5d8ea2d0961ca5a03a1f09a085db1d88920687d0",
    2.0: "14a3aac5e1b78c9a53d435c781be964f5427e78f3685623f022a5f1ba3603518",
    4.0: "fd56d1d3ad5ce56b95516fbee2eb0658416fb7592a14d58d2ba629b9e246b48b",
}

#: k -> (max_residual, witness (lam, x, y)), each as float.hex
HOMOGENEITY = {
    1.0: ("0x1.0000000000000p-2",
          ("0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    2.0: ("0x1.0000000000000p-53",
          ("0x1.4cccccccccccdp-1", "0x1.e666666666666p-1", "0x1.e666666666666p-1")),
    3.0: ("0x1.2ed916872b022p-3",
          ("0x1.4cccccccccccdp-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0")),
}

QH_REPORT = ("quasi-homogeneity psi=power:c=4 phi=x^2: max residual 1.1102230246251565e-16 "
             "at (0.5666666666666667, 0.9666666666666667, 0.9666666666666667) "
             "(grid n=30, tol=1e-09) -> pass")


@pytest.mark.parametrize("c", list(PSI_POWER))
def test_power_psi_bits(c):
    values = PsiSpec.power(c)(make_grid(50).points)
    digest = hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()
    assert digest == PSI_POWER[c]


@pytest.mark.parametrize("k", list(HOMOGENEITY))
def test_homogeneous_order_bits(k):
    report = check_homogeneous_order(catalog_lookup("product"), k, grid=make_grid(20))
    got = (float(report.max_residual).hex(), tuple(float(w).hex() for w in report.witness))
    assert got == HOMOGENEITY[k]


def test_power_psi_report_text():
    report = check_quasi_homogeneity(catalog_lookup("product"), PhiSpec.from_expr("x^2"),
                                     PsiSpec.power(4), grid=make_grid(30))
    assert str(report) == QH_REPORT
