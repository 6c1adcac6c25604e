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

from qhagg import (PhiSpec, PsiSpec, catalog_lookup, check_homogeneous_order,
                   check_quasi_homogeneity, make_grid)
from qhagg import verify

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
