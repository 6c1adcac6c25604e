"""The lam sweep gives the same report however the cube is chunked and tiled.

``verify._sweep`` streams the (n+1)^3 cube in lam-major chunks of about
``SWEEP_CHUNK_LANES`` lanes and evaluates ``fn`` on blocks of x-lines of a
chunk, at most ``SWEEP_TILE_LANES`` lanes each. Each case runs with one lam
row per chunk and with the whole cube in a single chunk, and with one
x-line per tile and a whole chunk per tile; the reports must be identical,
witness included (the first argmax in C order).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qhagg import (AggregationFunction, GeneratorTriple, PhiSpec, PsiSpec, catalog_lookup,
                   check_homogeneous_order, check_quasi_homogeneity, from_triple, make_grid,
                   unit_function_from_expr)
from qhagg import verify
from qhagg.numerics import Grid, distinct, ext_mul

G = make_grid(12)


def run_chunked(monkeypatch, check, rows: int, grid=G, lines: int | None = None):
    """check() with chunks of ``rows`` lam rows and tiles of ``lines`` x-lines
    of such a chunk (default: the whole chunk)."""
    n1 = len(grid)
    monkeypatch.setattr(verify, "SWEEP_CHUNK_LANES", rows * n1 ** 2)
    monkeypatch.setattr(verify, "SWEEP_TILE_LANES", rows * (lines or n1) * n1)
    return check()


def one_row_and_whole(monkeypatch, check, grid=G):
    return (run_chunked(monkeypatch, check, 1, grid),
            run_chunked(monkeypatch, check, len(grid), grid))


#: (lam rows per chunk, x-lines per tile); None is the whole grid
PLANS = ((1, None), (1, 1), (None, 1), (None, None))


def every_plan(monkeypatch, check, grid=G):
    """check()'s reports under each plan of PLANS."""
    n1 = len(grid)
    return [run_chunked(monkeypatch, check, rows or n1, grid, lines) for rows, lines in PLANS]


def zero_rhs(base):
    return lambda L: np.zeros((len(L), *base.shape))


def expression_triple():
    """from_triple of f=x^2, g=x, h=2x/(1+x), all expressions: every
    evaluation of A inverts f numerically, lane by lane."""
    def unit(text, **flags):
        return unit_function_from_expr(text, increasing=True, **flags)
    return from_triple(GeneratorTriple(f=unit("x^2", continuous_bijection=True),
                                       g=unit("x"), h=unit("2*x/(1+x)")))


CASES = {
    "min-scaling": lambda: check_quasi_homogeneity(
        catalog_lookup("min"), PhiSpec.power(2.0), PsiSpec.power(1.0), grid=G),
    "product-scaling": lambda: check_quasi_homogeneity(
        catalog_lookup("product"), PhiSpec.power(2.0), PsiSpec.power(1.0), grid=G),
    "product-own-scaling": lambda: check_quasi_homogeneity(
        catalog_lookup("product"), PhiSpec.power(1.0), PsiSpec.power(2.0), grid=G),
    "min-order": lambda: check_homogeneous_order(catalog_lookup("min"), 2.0, grid=G),
    "product-order": lambda: check_homogeneous_order(catalog_lookup("product"), 1.0, grid=G),
    "triple-scaling": lambda: check_quasi_homogeneity(
        expression_triple(), PhiSpec.from_expr("x^2"), PsiSpec.power(2.0), grid=G),
}


@pytest.mark.parametrize("name", CASES)
def test_chunking_leaves_report_unchanged(monkeypatch, name):
    first, *rest = every_plan(monkeypatch, CASES[name])
    assert all(report == first for report in rest)


def test_tie_keeps_first_occurrence(monkeypatch):
    # every lam row but the first holds the maximum 1 at its first lane
    # with x, y > 0, so only the earliest chunk may name the witness
    def positive(x, y):
        return np.where((x > 0.0) & (y > 0.0), 1.0, 0.0)

    base = np.zeros((len(G), len(G)))
    whole, *rest = every_plan(
        monkeypatch, lambda: verify._sweep(positive, zero_rhs(base), G, 0.5))
    assert all(report == whole for report in rest)
    step = float(G.points[1])
    assert whole.witness == (step, step, step) and whole.max_residual == 1.0


def test_nan_in_later_chunk_beats_larger_finite_residual(monkeypatch):
    # the largest finite residual, 1, sits in the lam = 0 row; the first
    # NaN appears in the row lam = 1/4, at x = y = 1, so in the last tile
    # of its row, while the rows lam = 1/2 and 1 hold NaNs in earlier tiles
    def nan_at_quarter(x, y):
        return np.where((x == 0.25) & (y == 0.25), np.nan, 1.0 - (x + y) / 2.0)

    g8 = make_grid(8)
    base = np.zeros((len(g8), len(g8)))
    reports = every_plan(
        monkeypatch, lambda: verify._sweep(nan_at_quarter, zero_rhs(base), g8, 0.5), g8)
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


# ------------------------------- power psi: one inversion per distinct value


def signed_zero_product():
    """x y, with -0.0 where x = 0 < y and +0.0 elsewhere on the zero set."""
    def evaluator(x, y):
        return np.where((x == 0.0) & (y > 0.0), -0.0, x * y)
    return AggregationFunction(evaluator=evaluator, provenance="test", name="product+-0")


POWER_AGGS = {
    "product": catalog_lookup("product"),
    "min": catalog_lookup("min"),
    "harmonic_min": catalog_lookup("harmonic_min"),
    "signed-zero": signed_zero_product(),
    # off the base grid, reached only as (lam x, lam y) with lam = x = y = 1/12
    "nan-scaled": with_nan(catalog_lookup("product"), 1.0 / 144.0, 1.0 / 144.0),
    "nan-base": with_nan(catalog_lookup("min"), 0.5, 0.25),
}
POWER_PHIS = {
    "x^2": lambda: PhiSpec.from_expr("x^2"),
    "x/(1-x)": lambda: PhiSpec.from_expr("x/(1-x)", b=math.inf),
    "power(2)": lambda: PhiSpec.power(2.0),
}
# an expression phi refuses a NaN argument, so a NaN on the base grid meets
# the closed-form power only
POWER_CASES = [(a, f) for a in POWER_AGGS for f in POWER_PHIS
               if a != "nan-base" or f == "power(2)"]


def counted_inverse(phi, sizes):
    """phi whose inverse records the number of lanes of each call."""
    def inverse(y):
        sizes.append(np.size(y))
        return phi.inverse(y)

    return PhiSpec(b=phi.b, evaluator=phi.evaluator, inverse=inverse, name=phi.name,
                   closed_form=phi.closed_form)


def distinct_count(phi, A, g):
    p = g.points
    W = np.asarray(phi.evaluator(np.asarray(A.evaluator(p[:, None], p[None, :]))))
    return len(distinct(W.ravel())[0])


@pytest.mark.parametrize("psi", [PsiSpec.power(0.5), PsiSpec.power(3.0)],
                         ids=["c=0.5", "c=3"])
@pytest.mark.parametrize("agg,phi_name", POWER_CASES)
def test_power_psi_inverts_each_distinct_base_value_once_per_row(monkeypatch, psi, agg,
                                                                   phi_name):
    A, phi = POWER_AGGS[agg], POWER_PHIS[phi_name]()
    max_res, witness = whole_cube_reference(A, phi, psi, G)
    m = distinct_count(phi, A, G)
    assert m < len(G) ** 2
    for rows in (1, len(G)):
        sizes = []
        report = run_chunked(monkeypatch, lambda: check_quasi_homogeneity(
            A, counted_inverse(phi, sizes), psi, grid=G), rows)
        reference = verify.ResidualReport(
            passed=max_res <= report.tol, max_residual=max_res, witness=witness,
            grid_n=G.n, tol=report.tol, label=report.label)
        if math.isnan(max_res):
            assert math.isnan(report.max_residual)
            assert report == dataclasses.replace(reference, max_residual=report.max_residual)
        else:
            assert report == reference
        assert sizes and max(sizes) <= rows * m


def test_signed_zero_case_puts_both_zeros_in_phi_of_base():
    p = G.points
    V = signed_zero_product().evaluator(p[:, None], p[None, :])
    W = PhiSpec.from_expr("x/(1-x)", b=math.inf).evaluator(V)
    zeros = W[W == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def test_min_at_n100_inverts_rows_times_distinct_values():
    # min takes the 101 grid values on its 10,201 base points; the cube
    # (1,030,301 lanes) streams in 9 chunks of 11 or 12 lam rows, and no
    # chunk inverts more than 101 x 101 lanes
    g100 = make_grid(100)
    phi = PhiSpec.from_expr("x/(1-x)", b=math.inf)
    sizes = []
    report = check_quasi_homogeneity(catalog_lookup("min"), counted_inverse(phi, sizes),
                                     PsiSpec.power(1.0), grid=g100)
    assert distinct_count(phi, catalog_lookup("min"), g100) == 101
    assert sizes and max(sizes) <= 101 * 101
    assert report.passed is False


# --------------------------------- chunk and tile plans at the default budgets

# n = 400 is past n = 361, the last grid whose lam row fits the chunk budget
PLAN_NS = [10, 50, 100, 200, 400]


@pytest.mark.parametrize("n", PLAN_NS)
def test_default_chunk_plan_covers_every_row_once_in_balanced_chunks(n):
    g = make_grid(n)
    n1 = len(g)
    lams = []

    def expected(L):
        lams.append(L[:, 0, 0].copy())
        return np.zeros((len(L), n1, n1))

    verify._sweep(lambda x, y: x, expected, g, 1.0)
    assert np.array_equal(np.concatenate(lams), g.points)
    rows = [len(c) for c in lams]
    assert max(rows) - min(rows) <= 1
    if n1 ** 2 <= verify.SWEEP_CHUNK_LANES:
        assert max(rows) * n1 ** 2 <= verify.SWEEP_CHUNK_LANES
    else:
        assert max(rows) == 1


@pytest.mark.parametrize("n", PLAN_NS)
def test_default_tile_plan_evaluates_every_lam_x_pair_once_within_budget(n):
    # integer points make every product exact, so fn's arguments name the
    # (lam, x) pairs they hold: lam = lam * 1 and x = (lam x) / lam
    g = Grid(points=np.arange(1.0, n + 2.0), n=n)
    hits = np.zeros((n + 1, n + 1), dtype=int)
    lanes = []

    def fn(x, y):
        lam = y[:, 0, 0]
        xs = x[:, :, 0] / lam[:, None]
        assert np.array_equal(xs, np.broadcast_to(xs[:1], xs.shape))
        hits[np.ix_(lam.astype(int) - 1, xs[0].astype(int) - 1)] += 1
        lanes.append(math.prod(np.broadcast_shapes(x.shape, y.shape)))
        return x

    verify._sweep(fn, lambda L: np.zeros((len(L), n + 1, n + 1)), g, 1.0)
    assert (hits == 1).all()
    assert max(lanes) <= verify.SWEEP_TILE_LANES < verify.SWEEP_CHUNK_LANES


# ------------------------------ the residual never overwrites fn's output


def read_only_view(A):
    """A whose output is a read-only broadcast view of A's."""
    def evaluator(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return np.broadcast_to(A.evaluator(x, y), shape)
    return AggregationFunction(evaluator=evaluator, provenance="test", name=f"{A.name}+ro")


def full_copy(A):
    """A whose output is a fresh, writable array of the full broadcast shape."""
    def evaluator(x, y):
        out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)))
        out[...] = A.evaluator(x, y)
        return out
    return AggregationFunction(evaluator=evaluator, provenance="test", name=A.name)


def bumped(x, y):
    return x * y * (1.0 + 0.1 * x * (1.0 - x))


VIEW_AGGS = {
    # (rows, n+1, 1) on the cube and (n+1, 1) on the base grid
    "first": AggregationFunction(evaluator=lambda x, y: x, provenance="test", name="first"),
    # a 0-d array everywhere
    "half": AggregationFunction(evaluator=lambda x, y: np.float64(0.5), provenance="test",
                                name="half"),
    "product-ro": read_only_view(catalog_lookup("product")),
    "min-ro": read_only_view(catalog_lookup("min")),
    # Class-1 diagonal, refuted by the scaling law
    "bumped-ro": read_only_view(AggregationFunction(evaluator=bumped, provenance="test",
                                                    name="bumped")),
}
#: (lam rows per chunk, x-lines per tile); rows None: the default budgets
VIEW_PLANS = ((1, None), (1, 1), (5, None), (5, 1), (None, None))


def order_reference(fn, k, g):
    """Max residual and first-argmax witness of the order-k law, whole cube."""
    p = g.points
    L = p[:, None, None]
    V = np.asarray(fn(p[:, None], p[None, :]), dtype=float)
    lhs = np.asarray(fn(L * p[None, :, None], L * p[None, None, :]), dtype=float)
    resid = np.abs(lhs - np.power(L, k) * V[None, :, :])
    k_, i, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return float(resid[k_, i, j]), (float(p[k_]), float(p[i]), float(p[j]))


def at_each_chunking(monkeypatch, check):
    for rows, lines in VIEW_PLANS:
        if rows is None:
            monkeypatch.undo()
            yield check()
        else:
            yield run_chunked(monkeypatch, check, rows, lines=lines)


@pytest.mark.parametrize("psi", [PsiSpec.power(2.0), PsiSpec.step_at_one(),
                                 PsiSpec.step_at_zero()], ids=["c=2", "step1", "step0"])
@pytest.mark.parametrize("agg", VIEW_AGGS)
def test_view_output_scaling_law_matches_whole_cube(monkeypatch, agg, psi):
    A, phi = VIEW_AGGS[agg], PhiSpec.from_expr("x^2")
    max_res, witness = whole_cube_reference(full_copy(A), phi, psi, G)
    for report in at_each_chunking(monkeypatch, lambda: check_quasi_homogeneity(
            A, phi, psi, grid=G)):
        assert report == verify.ResidualReport(
            passed=max_res <= report.tol, max_residual=max_res, witness=witness,
            grid_n=G.n, tol=report.tol, label=report.label)


@pytest.mark.parametrize("agg", VIEW_AGGS)
def test_view_output_homogeneous_order_matches_whole_cube(monkeypatch, agg):
    fn = VIEW_AGGS[agg].evaluator
    max_res, witness = order_reference(full_copy(VIEW_AGGS[agg]).evaluator, 1.5, G)
    for report in at_each_chunking(monkeypatch, lambda: check_homogeneous_order(
            fn, 1.5, grid=G)):
        assert (report.max_residual, report.witness) == (max_res, witness)


def verdict_of(report):
    return report.verdict, report.witness, report.reason, report.diagnostics


@pytest.mark.parametrize("agg", VIEW_AGGS)
def test_view_output_classify_matches_full_output_whole_cube(monkeypatch, agg):
    A = VIEW_AGGS[agg]
    reference = run_chunked(monkeypatch, lambda: verify.classify(full_copy(A), grid=G),
                            len(G))
    for report in at_each_chunking(monkeypatch, lambda: verify.classify(A, grid=G)):
        assert verdict_of(report) == verdict_of(reference)
    if agg == "bumped-ro":
        assert reference.verdict == verify.NOT_QH and "scaling law" in reference.reason


# --------------------------------------- multipliers that underflow to 0


def test_power_psi_multipliers_that_underflow_take_phi_inv_of_zero(monkeypatch):
    # (1/12)^400 is exactly 0 and (2/12)^400 is subnormal, so the first
    # chunk holds two 0-rows besides rows with tiny nonzero multipliers
    A, phi, psi = catalog_lookup("product"), PhiSpec.from_expr("x^2"), PsiSpec.power(400.0)
    p = G.points
    assert np.count_nonzero(psi(p) == 0.0) == 2 and psi(p[2]) > 0.0

    def expected(lam, v):
        s = psi(lam)
        return v if s == 1.0 else phi.invert(s * phi(v))

    resid = np.array([[[abs(float(A(lam * x, lam * y)) - expected(lam, float(A(x, y))))
                        for y in p] for x in p] for lam in p])
    k, i, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
    for report in one_row_and_whole(monkeypatch, lambda: check_quasi_homogeneity(
            A, phi, psi, grid=G)):
        assert report.max_residual == resid[k, i, j]
        assert report.witness == (float(p[k]), float(p[i]), float(p[j]))
        assert report.passed is False
