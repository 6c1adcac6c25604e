"""The boundary-class formula and the catalog's drastic product, pinned to the bit.

``construct.boundary_formula`` is compared, float64 bytes and return type
included, with the nested-``np.where`` spelling kept below as a reference.
Inputs are the shapes the package evaluates it on: the sweep's tiles
(``L*p[None,:,None]`` against ``L*p[None,None,:]``), the base grid, and
0-d scalars. Each comes also with 1.5, -0.0 and NaN among its points.
Sections are the identity, the expression ``x^2``, and the table
closures ``classify`` builds from the sampled grid. Where the reference
raises, the formula must raise the same error.

The catalog's drastic product is compared with the ``min``-based spelling
on the whole [0, 1]^2 cube.
"""

from __future__ import annotations

import numpy as np
import pytest

from qhagg import catalog_lookup, identity, make_grid, unit_function_from_expr
from qhagg.construct import boundary_formula


def reference_boundary_formula(g_ev, h_ev):
    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.where((x < 1.0) & (y < 1.0), 0.0,
                       np.where(x == 1.0, g_ev(y), h_ev(x)))
        return np.where((x == 1.0) & (y == 1.0), 1.0, out)

    return evaluate


def reference_drastic(x, y):
    return np.where((x < 1.0) & (y < 1.0), 0.0, np.minimum(x, y))


def outcome(fn, x, y):
    """Everything observable about one call: return type, dtype, shape and
    bytes (signbit and NaN included), or the error's type and text."""
    try:
        out = fn(x, y)
    except Exception as exc:  # the reference's error is part of the contract
        return type(exc), str(exc)
    arr = np.asarray(out)
    return type(out), arr.dtype.str, arr.shape, arr.tobytes()


EXTRAS = {"none": (), "outside": (1.5, -0.0), "nan": (1.5, -0.0, float("nan"))}


def points(n, extras):
    return np.concatenate([make_grid(n).points, np.array(EXTRAS[extras])])


def sections(kind, q):
    if kind == "identity":
        ev = identity().evaluator
        return ev, ev
    if kind == "x^2":
        ev = unit_function_from_expr("x^2", increasing=True).evaluator
        return ev, ev
    # classify's closures: a table V on the points, read on its last row
    # and column whatever the arguments
    m = len(q)
    V = np.sqrt(np.outer(np.linspace(0.0, 1.0, m), np.linspace(1.0, 0.0, m)))
    V[-1, 1], V[1, -1], V[-1, 2], V[2, -1] = -0.0, -0.0, np.nan, np.nan
    return (lambda y: V[-1]), (lambda x: V[:, -1:])


def inputs(form, q):
    if form == "tiles":
        L = q[:, None, None]
        yield L * q[None, :, None], L * q[None, None, :]
    elif form == "grid":
        yield q[:, None], q[None, :]
    else:
        for x in q.tolist():
            for y in q.tolist():
                yield x, y


@pytest.mark.parametrize("n", [12, 50])
@pytest.mark.parametrize("extras", sorted(EXTRAS))
@pytest.mark.parametrize("form", ["tiles", "grid", "scalars"])
@pytest.mark.parametrize("kind", ["identity", "x^2", "closures"])
def test_boundary_formula_matches_the_reference(n, extras, form, kind):
    q = points(n, extras)
    g_ev, h_ev = sections(kind, q)
    new, ref = boundary_formula(g_ev, h_ev), reference_boundary_formula(g_ev, h_ev)
    for x, y in inputs(form, q):
        assert outcome(new, x, y) == outcome(ref, x, y), (x, y)


@pytest.mark.parametrize("form", ["tiles", "grid", "scalars"])
def test_catalog_drastic_matches_min_spelling_on_the_cube(form):
    A = catalog_lookup("drastic")
    assert (A.provenance, A.name) == ("drastic", "drastic")
    for x, y in inputs(form, make_grid(50).points):
        assert outcome(A.evaluator, x, y) == outcome(reference_drastic, x, y), (x, y)
