"""The lam sweep gives the same report however the cube is chunked.

``verify._sweep`` streams the (n+1)^3 cube in lam-major chunks of about
``SWEEP_CHUNK_LANES`` lanes. Each case runs once with one lam row per
chunk and once with the whole cube in a single chunk; the reports must be
identical, witness included (the first argmax in C order).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qhagg import (AggregationFunction, PhiSpec, PsiSpec, catalog_lookup,
                   check_homogeneous_order, check_quasi_homogeneity, make_grid)
from qhagg import verify
from qhagg.numerics import ext_mul

G = make_grid(12)


def run_chunked(monkeypatch, check, rows: int, grid=G):
    monkeypatch.setattr(verify, "SWEEP_CHUNK_LANES", rows * len(grid) ** 2)
    return check()


def one_row_and_whole(monkeypatch, check, grid=G):
    return (run_chunked(monkeypatch, check, 1, grid),
            run_chunked(monkeypatch, check, len(grid), grid))


def zero_rhs(base):
    return lambda L: np.zeros((len(L), *base.shape))


CASES = {
    "min-scaling": lambda: check_quasi_homogeneity(
        catalog_lookup("min"), PhiSpec.power(2.0), PsiSpec.power(1.0), grid=G),
    "product-scaling": lambda: check_quasi_homogeneity(
        catalog_lookup("product"), PhiSpec.power(2.0), PsiSpec.power(1.0), grid=G),
    "product-own-scaling": lambda: check_quasi_homogeneity(
        catalog_lookup("product"), PhiSpec.power(1.0), PsiSpec.power(2.0), grid=G),
    "min-order": lambda: check_homogeneous_order(catalog_lookup("min"), 2.0, grid=G),
    "product-order": lambda: check_homogeneous_order(catalog_lookup("product"), 1.0, grid=G),
}


@pytest.mark.parametrize("name", CASES)
def test_chunking_leaves_report_unchanged(monkeypatch, name):
    per_row, whole = one_row_and_whole(monkeypatch, CASES[name])
    assert per_row == whole


def test_tie_keeps_first_occurrence(monkeypatch):
    # every lam row but the first holds the maximum 1 at its first lane
    # with x, y > 0, so only the earliest chunk may name the witness
    def positive(x, y):
        return np.where((x > 0.0) & (y > 0.0), 1.0, 0.0)

    base = np.zeros((len(G), len(G)))
    per_row, whole = one_row_and_whole(
        monkeypatch, lambda: verify._sweep(positive, base, zero_rhs, G, 0.5))
    assert per_row == whole
    step = float(G.points[1])
    assert whole.witness == (step, step, step) and whole.max_residual == 1.0


def test_nan_in_later_chunk_beats_larger_finite_residual(monkeypatch):
    # the largest finite residual, 1, sits in the lam = 0 row; the first
    # NaN appears in the row lam = 1/4, at x = y = 1
    def nan_at_quarter(x, y):
        return np.where((x == 0.25) & (y == 0.25), np.nan, 1.0 - (x + y) / 2.0)

    g8 = make_grid(8)
    base = np.zeros((len(g8), len(g8)))
    reports = one_row_and_whole(
        monkeypatch, lambda: verify._sweep(nan_at_quarter, base, zero_rhs, g8, 0.5), g8)
    for report in reports:
        assert math.isnan(report.max_residual)
        assert report.passed is False
        assert report.witness == (0.25, 1.0, 1.0)


def test_phi_of_base_is_evaluated_once_per_sweep(monkeypatch):
    calls = []
    sq = PhiSpec.power(2.0)
    counted = PhiSpec(b=1.0, evaluator=lambda x: calls.append(np.shape(x)) or sq.evaluator(x),
                      inverse=sq.inverse, name="x^2", closed_form=True)
    run_chunked(monkeypatch, lambda: check_quasi_homogeneity(
        catalog_lookup("min"), counted, PsiSpec.power(1.0), grid=G), 1)
    assert calls == [(len(G), len(G))]


def test_bisection_backed_phi_is_independent_of_chunking(monkeypatch):
    # phi = x^3 as an expression has no closed-form inverse, so every lane
    # of the sweep is inverted numerically; since an inversion's result
    # depends on its target alone, the chunking cannot move a digit
    g150 = make_grid(150)
    per_row, whole = one_row_and_whole(monkeypatch, lambda: check_quasi_homogeneity(
        catalog_lookup("harmonic_min"), PhiSpec.from_expr("x^3"), PsiSpec.power(1.0),
        grid=g150), g150)
    assert per_row == whole
    assert whole.passed is False


# ------------------------------------------------- step psi: no cube inversion


def with_nan(A, x0, y0):
    """A with a NaN sample at (x0, y0)."""
    def evaluator(x, y):
        return np.where((x == x0) & (y == y0), np.nan, A.evaluator(x, y))
    return AggregationFunction(evaluator=evaluator, provenance="test", name=f"{A.name}+nan")


STEP_AGGS = {
    "drastic": catalog_lookup("drastic"),
    "flat": catalog_lookup("flat", {"alpha": 0.2, "beta": 0.7}),
    "boundary_only": catalog_lookup("boundary_only", {"g": "x^2", "h": "x"}),
    "product": catalog_lookup("product"),
    # off the base grid, reached only as (lam x, lam y) with lam = x = y = 1/12
    "nan-scaled": with_nan(catalog_lookup("drastic"), 1.0 / 144.0, 1.0 / 144.0),
    "nan-base": with_nan(catalog_lookup("product"), 0.5, 0.25),
}
STEP_PHIS = {
    "x^2": lambda: PhiSpec.from_expr("x^2"),
    "x/(1-x)": lambda: PhiSpec.from_expr("x/(1-x)", b=math.inf),
    "identity": PhiSpec.identity,
}
# an expression phi refuses a NaN argument, so a NaN on the base grid meets
# the identity only
STEP_CASES = [(a, f) for a in STEP_AGGS for f in STEP_PHIS
              if a != "nan-base" or f == "identity"]


def whole_cube_reference(A, phi, psi, g):
    """Max residual and first-argmax witness, every lane inverted as before."""
    p = g.points
    V = np.asarray(A.evaluator(p[:, None], p[None, :]), dtype=float)
    L = p[:, None, None]
    lhs = np.asarray(A.evaluator(L * p[None, :, None], L * p[None, None, :]), dtype=float)
    S = psi(L)
    W = np.asarray(phi.evaluator(V), dtype=float)[None, :, :]
    expected = np.where(S == 1, V[None, :, :],
                        np.asarray(phi.inverse(ext_mul(S, W)), dtype=float))
    resid = np.abs(lhs - expected)
    k, i, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return float(resid[k, i, j]), (float(p[k]), float(p[i]), float(p[j]))


@pytest.mark.parametrize("psi", [PsiSpec.step_at_zero(), PsiSpec.step_at_one()],
                         ids=["step0", "step1"])
@pytest.mark.parametrize("agg,phi_name", STEP_CASES)
def test_step_psi_inverts_phi_at_zero_on_one_lane(monkeypatch, psi, agg, phi_name):
    A, phi = STEP_AGGS[agg], STEP_PHIS[phi_name]()
    sizes = []

    def inverse(y):
        sizes.append(np.size(y))
        return phi.inverse(y)

    counted = PhiSpec(b=phi.b, evaluator=phi.evaluator, inverse=inverse, name=phi.name,
                      closed_form=phi.closed_form)
    max_res, witness = whole_cube_reference(A, phi, psi, G)
    for report in one_row_and_whole(
            monkeypatch, lambda: check_quasi_homogeneity(A, counted, psi, grid=G)):
        assert report.witness == witness
        if math.isnan(max_res):
            assert math.isnan(report.max_residual) and report.passed is False
        else:
            assert report.max_residual == max_res
            assert report.passed is (max_res <= report.tol)
    assert sizes and max(sizes) == 1
