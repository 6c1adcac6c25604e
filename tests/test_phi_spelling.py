"""The scaling law depends on the function phi, not on how it is spelled.

Each phi is given twice: with the catalog's closed-form inverse and as an
expression, inverted in closed form where x occurs once (x^2) and
numerically where it occurs more often (x*x). Both spellings must give
the same report on every input, including values of A outside [0, 1] and
NaN, where phi is read at A clipped to its domain. The identity spelled
``x`` gives the identity's report to the bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qhagg import PhiSpec, PsiSpec, check_quasi_homogeneity, make_grid
from qhagg.algebra import AggregationFunction

G20 = make_grid(20)

SPELLINGS = {
    "x^2": (PhiSpec.power(2.0), PhiSpec.from_expr("x^2")),
    "x^3": (PhiSpec.power(3.0), PhiSpec.from_expr("x^3")),
    "x^0.5": (PhiSpec.power(0.5), PhiSpec.from_expr("x^0.5")),
    "identity": (PhiSpec.identity(), PhiSpec.from_expr("x*1")),
    # the CLI spells the default --phi this way
    "x": (PhiSpec.identity(), PhiSpec.from_expr("x")),
    "x*x": (PhiSpec.power(2.0), PhiSpec.from_expr("x*x")),
    "x*x*x": (PhiSpec.power(3.0), PhiSpec.from_expr("x*x*x")),
}

PSIS = {"power(1)": PsiSpec.power(1.0), "power(4)": PsiSpec.power(4.0),
        "step1": PsiSpec.step_at_one()}


def _at_half(value):
    # product, except at (0.5, 0.5)
    return lambda x, y: np.where((x == 0.5) & (y == 0.5), value, x * y)


INPUTS = {
    "product": lambda x, y: x * y,
    **{f"seeded eps={eps:g}": (lambda x, y, e=eps: x * y * (1.0 + e * x * (1.0 - x)))
       for eps in (1e-7, 1e-6, 1e-5)},
    "1.5 x y": lambda x, y: 1.5 * x * y,
    "one negative value": _at_half(-0.25),
    "one NaN": _at_half(np.nan),
}


@pytest.mark.parametrize("a_name", INPUTS)
@pytest.mark.parametrize("psi_name", PSIS)
@pytest.mark.parametrize("phi_name", SPELLINGS)
def test_spellings_agree(phi_name, psi_name, a_name):
    A = AggregationFunction(INPUTS[a_name], provenance=a_name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed, numeric = (check_quasi_homogeneity(A, phi, PSIS[psi_name], grid=G20)
                           for phi in SPELLINGS[phi_name])
    assert closed.tol == numeric.tol == 1e-9
    assert closed.passed == numeric.passed
    if not closed.passed:
        assert closed.witness == numeric.witness
    if math.isnan(closed.max_residual):
        assert math.isnan(numeric.max_residual)
    else:
        assert abs(closed.max_residual - numeric.max_residual) <= 1e-12
    if phi_name == "x":
        # the same report to the bit, so the CLI needs no identity of its own
        assert str(closed) == str(numeric)
        assert closed.witness == numeric.witness
        assert (np.float64(closed.max_residual).view(np.int64)
                == np.float64(numeric.max_residual).view(np.int64))
