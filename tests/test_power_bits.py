"""The scaling functions psi and homogeneity of order k, pinned to the bit.

SHA-256 of the float64 bytes of ``PsiSpec.power(c)`` on the grid n = 50 for
four exponents, and of the two step indicators there, with their values at
the scalars 0, 0.5 and 1; the bits (``float.hex``) of the largest residual
and of its witness of ``check_homogeneous_order`` on the product at three
orders, on the grid n = 20; and the text of one quasi-homogeneity report
whose psi is a power. A change to where psi is evaluated leaves every
outcome as it is."""

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

#: kind -> (SHA-256 on the grid n = 50, values at the scalars 0, 0.5 and 1)
PSI_STEP = {
    "step0": ("328322237aae59937a69418ff437e7e54cc690b76ddf24f6e03adb37e9ad0665",
              (0.0, 1.0, 1.0)),
    "step1": ("0e3cd33d2fc5dd50ecfe3a92d2af6538b0d01ac87d5b08c573a7a4fb65976fa6",
              (0.0, 0.0, 1.0)),
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


@pytest.mark.parametrize("psi", [PsiSpec.step_at_zero(), PsiSpec.step_at_one()],
                         ids=lambda psi: psi.kind)
def test_step_psi_bits(psi):
    values = psi(make_grid(50).points)
    digest = hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()
    scalars = tuple(psi(x) for x in (0.0, 0.5, 1.0))
    assert all(type(v) is float for v in scalars)
    assert (digest, tuple(v.hex() for v in scalars)) == (
        PSI_STEP[psi.kind][0], tuple(v.hex() for v in PSI_STEP[psi.kind][1]))


@pytest.mark.parametrize("k", list(HOMOGENEITY))
def test_homogeneous_order_bits(k):
    report = check_homogeneous_order(catalog_lookup("product"), k, grid=make_grid(20))
    got = (float(report.max_residual).hex(), tuple(float(w).hex() for w in report.witness))
    assert got == HOMOGENEITY[k]


def test_power_psi_report_text():
    report = check_quasi_homogeneity(catalog_lookup("product"), PhiSpec.from_expr("x^2"),
                                     PsiSpec.power(4), grid=make_grid(30))
    assert str(report) == QH_REPORT
