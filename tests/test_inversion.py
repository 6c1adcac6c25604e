"""The inversion primitive ``bisect_increasing``: per-lane results, work
counts, reported non-convergence, the bits of its roots, and the
scalar/array return rule shared by every public evaluator; and the
closed-form inverses of expressions, held to its contract at the ends.

Work is counted in lanes passed to the inverted function, not timed, so
these tests are deterministic.
"""

from __future__ import annotations

import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import counted_refine, strip_inverse

from qhagg import (CLASS1, NOT_QH, ContractError, DomainError, GeneratorTriple, PhiSpec, PsiSpec,
                   UnitFunction, aggregation_from_combiner, bisect_increasing, canonical_pair,
                   catalog_lookup, check_quasi_homogeneity, classify, diagonal, from_triple,
                   invert_monotone, make_grid, numerics, power_function, unit_function_from_expr,
                   validate_triple)
from qhagg.exprparse import eval_expr, parse_expr
from qhagg.numerics import _BRACKET_TABLE, _REFINE_BLOCK, distinct


class Counted:
    """Elementwise function wrapper that counts the lanes it evaluates."""

    def __init__(self, fn):
        self.fn, self.lanes = fn, 0

    def __call__(self, x):
        self.lanes += np.size(x)
        return self.fn(x)


def square(x):
    return np.asarray(x, dtype=float) ** 2


def jump(x):
    # x/2 below 1/2, x/2 + 1/2 from 1/2 on: the values (1/4, 3/4) are skipped
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5, 0.5 * x, 0.5 * x + 0.5)


class TestPerLane:
    @pytest.mark.parametrize("fn", [
        square,
        lambda x: np.power(x, 1.7),
        unit_function_from_expr("2*x/(1+x)", continuous_bijection=True).evaluator,
    ])
    def test_each_lane_equals_its_target_inverted_alone(self, fn):
        rng = np.random.default_rng(7)
        y = np.concatenate([rng.uniform(size=300), rng.choice(rng.uniform(size=5), 100),
                            [0.0, 1.0, 1e-14, np.nan]])
        batch = bisect_increasing(fn, y)
        alone = np.array([bisect_increasing(fn, float(t)) for t in y])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64))

    @pytest.mark.filterwarnings("error")
    def test_roots_far_below_two_to_the_minus_sixty(self):
        # x^0.05 maps [0, 2^-60] onto [0, 0.125]: targets below 2.5e-4 have
        # roots near 1e-72 and below, which the table still brackets
        def steep(t):
            return np.power(t, 0.05)

        y = np.random.default_rng(0).uniform(size=10**5)
        x = bisect_increasing(steep, y)
        assert not np.isnan(x).any()
        assert float(np.max(np.abs(steep(x) - y))) <= 1e-12
        assert float(np.min(x)) < 1e-72
        # lanes above 0.125 come out the same in a batch that needs no
        # points below 2^-60, and tiny lanes the same without the rest
        high, low = y > 0.125, y < 1e-3
        assert np.array_equal(bisect_increasing(steep, y[high]), x[high])
        assert np.array_equal(bisect_increasing(steep, y[low]), x[low])
        # below steep(2^-1072) the bracket is subnormal, and still quiet
        tiny = bisect_increasing(steep, np.array([1e-20, 1e-30]))
        assert np.all((tiny >= 0.0) & (tiny <= 2.0 ** -1072))

    def test_tiny_target_is_accurate_in_x(self):
        # x^2 is within 1e-12 of 1e-14 on all of [0, 1e-6]; the bracket
        # rule still pins the root 1e-7
        assert abs(bisect_increasing(square, 1e-14) - 1e-7) <= 2.0 ** -44


class TestWorkCount:
    def test_identical_targets_are_solved_once(self):
        fn = Counted(square)
        x = bisect_increasing(fn, np.full(10**5, 0.3))
        assert fn.lanes < 1000
        assert np.all(x == x[0]) and abs(x[0] ** 2 - 0.3) <= 1e-12

    def test_distinct_targets_take_few_lanes_each(self):
        y = np.random.default_rng(3).uniform(size=10**5)
        fn = Counted(square)
        x = bisect_increasing(fn, y)
        assert fn.lanes <= 10 * y.size
        assert float(np.max(np.abs(square(x) - y))) <= 1e-12


class TestNonConvergence:
    def test_target_inside_a_jump_is_nan(self):
        inside, regular = Counted(jump), Counted(jump)
        assert math.isnan(bisect_increasing(inside, 0.5))
        bisect_increasing(regular, 0.1)
        # the bracket reaches adjacent floats in about 50 halvings and the
        # lane stops there, well before the 200-round cap
        assert inside.lanes - regular.lanes < 100
        x = bisect_increasing(jump, np.array([0.1, 0.5, 0.9]))
        assert math.isnan(x[1])
        np.testing.assert_allclose(x[[0, 2]], [0.2, 0.8], atol=1e-12)

    def test_nan_target_does_not_hold_the_batch(self):
        y = np.linspace(0.0, 1.0, 1001)
        y[500] = np.nan
        fn = Counted(square)
        x = bisect_increasing(fn, y)
        assert math.isnan(x[500])
        assert np.isfinite(np.delete(x, 500)).all()
        assert fn.lanes < 10 * y.size

    def test_jumping_phi_declared_bijective_is_refuted_with_witness(self):
        phi = PhiSpec.from_unit_function(
            UnitFunction(evaluator=jump, continuous_bijection=True, name="jump"))
        g = make_grid(20)
        report = check_quasi_homogeneity(catalog_lookup("min"), phi, PsiSpec.power(1.0),
                                         grid=g)
        assert report.passed is False
        assert math.isnan(report.max_residual)
        assert report.witness is not None
        assert all(v in set(g.points.tolist()) for v in report.witness)


class TestBlocksAndEndpointScreen:
    @pytest.mark.parametrize("fn", [square, lambda x: np.power(x, 1.7)],
                             ids=["x^2", "x^1.7"])
    def test_lanes_across_block_boundaries_equal_their_targets_alone(self, fn):
        rng = np.random.default_rng(11)
        y = rng.uniform(size=3 * _REFINE_BLOCK + 17)
        dup = rng.choice(y.size, 16, replace=False)
        y[dup[:8]] = y[dup[8:]]
        y[dup[8:10]] = np.nan
        y[dup[10]], y[dup[11]] = 0.0, 1.0
        targets, at = distinct(y[(y > 0.0) & (y < 1.0)])
        assert targets.size > 3 * _REFINE_BLOCK
        # lanes whose targets sit on either side of each block boundary
        edges = [k for b in (1, 2, 3) for k in (b * _REFINE_BLOCK - 1, b * _REFINE_BLOCK)]
        inner = np.flatnonzero((y > 0.0) & (y < 1.0))
        picked = {int(inner[np.flatnonzero(at == k)[0]]) for k in edges}
        picked |= set(dup.tolist())
        for i in rng.permutation(y.size).tolist():
            if len(picked) == 200:
                break
            picked.add(i)
        lanes = sorted(picked)
        batch = bisect_increasing(fn, y)
        alone = np.array([bisect_increasing(fn, float(y[i])) for i in lanes])
        assert np.array_equal(batch[lanes].view(np.int64), alone.view(np.int64))

    def test_endpoint_targets_call_fn_on_the_bracket_table_only(self):
        fn = Counted(square)
        y = np.tile([0.0, 1.0, -1e-13, 1.0 + 1e-13], 10**4)
        x = bisect_increasing(fn, y)
        assert fn.lanes == len(_BRACKET_TABLE)
        assert np.array_equal(x, np.tile([0.0, 1.0, 0.0, 1.0], 10**4))


def sqrt4(x):
    # x^(1/16): targets below 2^(-60/16) splice in the deep table
    return np.sqrt(np.sqrt(np.sqrt(np.sqrt(x))))


def recorded_memos(monkeypatch):
    """The memo of every inverse ``inverse_evaluator`` builds from here on."""
    made = []

    class Recorded(numerics._RootMemo):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(numerics, "_RootMemo", Recorded)
    return made


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def kept_inverse(fn):
    """A numeric inverse of ``fn`` that remembers its roots, as the one a
    UnitFunction keeps and the ``f_inv`` of ``from_triple`` do."""
    return numerics.inverse_evaluator(UnitFunction(fn, continuous_bijection=True),
                                      remember=True)


class TestRootMemo:
    """A numeric inverse that remembers keeps the roots it has refined,
    across calls. A root depends on its target alone, so a remembered root
    has the bits of a fresh one."""

    def test_overlapping_batches_keep_their_bits(self):
        rng = np.random.default_rng(5)
        inverse = kept_inverse(sqrt4)
        shallow = rng.uniform(0.5, 1.0, 3000)
        deep = rng.uniform(0.0, 0.05, 1000)
        assert deep.max() < sqrt4(2.0 ** -60)  # 0.074: these reach the deep table
        batches = [
            shallow,
            np.concatenate([shallow[:2000], deep[:500], [np.nan, 0.0, 1.0]]),
            # remembered deep roots, in a batch with no deep target to refine
            np.concatenate([deep[:500], shallow[1000:], rng.uniform(0.5, 1.0, 100)]),
            np.concatenate([deep, [np.nan], shallow[::7]]).reshape(-1, 1),
        ]
        for y in batches:
            assert np.array_equal(bits(inverse(y)), bits(bisect_increasing(sqrt4, y)))

    def test_a_repeated_batch_refines_no_lane(self, monkeypatch):
        lanes = counted_refine(monkeypatch)
        inverse = kept_inverse(square)
        y = np.random.default_rng(6).uniform(size=5000)
        first = inverse(y)
        assert lanes[0] == y.size
        again = inverse(np.concatenate([y[::-1], y[:100]]))
        assert lanes[0] == y.size
        assert np.array_equal(bits(again), bits(np.concatenate([first[::-1], first[:100]])))
        # targets are matched by ==: one ulp away is a new target
        inverse(np.nextafter(y, 2.0))
        assert lanes[0] == 2 * y.size

    def test_nan_is_never_remembered(self, monkeypatch):
        memos, lanes = recorded_memos(monkeypatch), counted_refine(monkeypatch)
        inverse = kept_inverse(jump)
        # 0.3 and 0.5 lie inside the jump, so their roots are NaN
        y = np.array([0.1, 0.3, np.nan, 0.5, 0.9, np.nan])
        for _ in range(2):
            x = inverse(y)
            assert np.isnan(x[1:4]).all() and not np.isnan(x[[0, 4]]).any()
        (memo,) = memos
        keys, roots = memo.items()
        assert np.array_equal(keys, [0.1, 0.9])
        assert not np.isnan(roots).any()
        # the second call refines the two jump targets only
        assert lanes[0] == 4 + 2

    def test_a_kept_memo_adds_every_new_root(self, monkeypatch):
        memos, lanes = recorded_memos(monkeypatch), counted_refine(monkeypatch)
        inverse = kept_inverse(square)
        (memo,) = memos
        y = np.random.default_rng(8).uniform(size=1000)
        sizes = []
        # a call that mostly misses adds its roots as one that mostly hits does
        for batch in (y[:10], y[100:400], y[400:700], y[50:200], y[:1000]):
            inverse(batch)
            sizes.append(len(memo))
        assert sizes == [10, 310, 610, 660, 1000]
        # each target was refined once
        assert lanes[0] == y.size
        keys, roots = memo.items()
        assert np.array_equal(keys, np.sort(y))
        assert np.array_equal(bits(roots), bits(bisect_increasing(square, keys)))

    def test_the_memo_never_outgrows_its_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MEMO_CAP", 100)
        memos = recorded_memos(monkeypatch)
        inverse = kept_inverse(square)
        (memo,) = memos
        y = np.random.default_rng(9).uniform(size=1000)
        sizes = []
        for batch in (y[:60], y[:90], y[:150], y[60:180], y):
            assert np.array_equal(bits(inverse(batch)), bits(bisect_increasing(square, batch)))
            keys, roots = memo.items()
            assert len(memo) == keys.size == roots.size <= 100
            assert np.all(np.diff(keys) > 0.0)
            sizes.append(len(memo))
        # new roots fill the memo up to the cap, the smallest targets first
        assert sizes == [60, 90, 100, 100, 100]
        smallest_new = np.setdiff1d(y[:150], y[:90])[:10]  # setdiff1d sorts
        assert np.array_equal(keys, np.sort(np.concatenate([y[:90], smallest_new])))

    def test_invert_keeps_one_inverse_across_calls(self, monkeypatch):
        lanes = counted_refine(monkeypatch)
        u = unit_function_from_expr("x*x", continuous_bijection=True)
        assert u.inverse is None
        y = np.random.default_rng(10).uniform(size=2000)
        first = u.invert(y)
        assert lanes[0] == y.size
        again = u.invert(y)
        assert lanes[0] == y.size
        assert np.array_equal(bits(again), bits(first))
        assert np.array_equal(bits(first), bits(bisect_increasing(u.evaluator, y)))

    def test_a_scalar_invert_first_does_not_stop_the_memo_growing(self, monkeypatch):
        lanes = counted_refine(monkeypatch)
        u = unit_function_from_expr("x*x", continuous_bijection=True)
        u.invert(0.5)
        # phi = sqrt and psi = id scale the product
        phi, psi, grid = PhiSpec.inverse_of(u), PsiSpec.power(1.0), make_grid(60)
        assert check_quasi_homogeneity(catalog_lookup("product"), phi, psi, grid=grid).passed
        lanes[0] = 0
        assert check_quasi_homogeneity(catalog_lookup("product"), phi, psi, grid=grid).passed
        assert lanes[0] == 0

    def test_invert_still_refuses_an_undeclared_function(self):
        with pytest.raises(ContractError) as info:
            unit_function_from_expr("x*x").invert(0.25)
        assert str(info.value) == (
            "invert_monotone requires a function declared continuous_bijection")


def shifted(x):
    # x - 1/2: the targets +0.0 and -0.0 lie strictly between fn(0) and fn(1)
    return np.asarray(x, dtype=float) - 0.5


def run_kept(monkeypatch, fn, batches):
    """Invert each batch with one kept inverse of ``fn``; each result has the
    bits of a bare call, and each distinct target strictly between fn(0) and
    fn(1) (+0.0 and -0.0 are one) is refined exactly once. The memo is returned."""
    memos, lanes = recorded_memos(monkeypatch), counted_refine(monkeypatch)
    inverse = kept_inverse(fn)
    (memo,) = memos
    refined = 0
    for y in batches:
        before = lanes[0]
        x = inverse(y)
        refined += lanes[0] - before
        assert np.array_equal(bits(x), bits(bisect_increasing(fn, y)))
    y = np.concatenate(batches)
    inner = y[(y > fn(0.0)) & (y < fn(1.0))]
    assert refined == np.unique(inner + 0.0).size
    return memo


@pytest.mark.filterwarnings("error")
class TestHashedMemo:
    """A kept memo looks every lane up in its hash table before anything is
    sorted, and sorts and refines only the lanes it misses."""

    def test_targets_that_share_a_home_slot(self, monkeypatch):
        # a multiplier of 0 sends every target to the first slot
        monkeypatch.setattr(numerics, "_HASH_MUL", np.uint64(0))
        rng = np.random.default_rng(20)
        y = rng.uniform(size=300)
        memo = run_kept(monkeypatch, square, [y[:100], y[50:200], rng.permutation(y),
                                              np.repeat(y[::3], 3)])
        assert len(memo) == y.size

    def test_growth_and_rehash_over_fifty_batches(self, monkeypatch):
        rng = np.random.default_rng(21)
        seen, batches = np.empty(0), []
        for _ in range(50):
            new = rng.uniform(size=int(rng.integers(1, 400)))
            old = rng.choice(seen, int(rng.integers(0, 300))) if seen.size else seen
            batches.append(rng.permutation(np.concatenate([new, old, new[:20]])))
            seen = np.concatenate([seen, new])
        memo = run_kept(monkeypatch, sqrt4, batches)
        assert len(memo) == np.unique(seen).size

    def test_signed_zeros_are_one_target(self, monkeypatch):
        memo = run_kept(monkeypatch, shifted, [np.array([0.0, 0.25]), np.array([-0.0]),
                                               np.array([-0.0, 0.0, -0.25, 0.25])])
        keys, roots = memo.items()
        assert keys.tolist() == [-0.25, 0.0, 0.25] and roots.tolist() == [0.25, 0.5, 0.75]

    def test_deep_targets(self, monkeypatch):
        rng = np.random.default_rng(22)
        deep = rng.uniform(0.0, 0.05, 500)
        assert deep.max() < sqrt4(2.0 ** -60)
        shallow = rng.uniform(0.5, 1.0, 500)
        # remembered deep targets in batches whose misses are all shallow, and back
        run_kept(monkeypatch, sqrt4, [deep[:300], np.concatenate([deep[:300], shallow]),
                                      np.concatenate([shallow[::2], deep]), deep[::-1]])

    def test_a_memo_written_once_builds_no_table(self, monkeypatch):
        # every hash, to file a target or to look one up, is counted
        memos, lanes, probed = recorded_memos(monkeypatch), counted_refine(monkeypatch), []
        home = numerics._RootMemo._home

        def counted(self, t):
            probed.append(self)
            return home(self, t)

        monkeypatch.setattr(numerics._RootMemo, "_home", counted)
        inverse = kept_inverse(square)
        y = np.random.default_rng(23).uniform(size=2000)
        x = inverse(y)
        (memo,) = memos
        assert lanes[0] == len(memo) == y.size and probed == []
        # asked again, the memo builds its table and refines no lane
        assert np.array_equal(bits(inverse(y[::-1])), bits(x[::-1]))
        assert lanes[0] == y.size and probed and set(probed) == {memo}
        assert np.array_equal(bits(x), bits(bisect_increasing(square, y)))
        # a classify whose delta is not asked again probes f_inv's memo only
        memos.clear()
        _, A = bisected_triple()
        classify(A, grid=make_grid(20))
        f_inv, delta = memos
        assert len(delta) > 0 and delta not in probed and f_inv in probed

    def test_the_kept_memo_is_compact(self, monkeypatch):
        # the bisected triple at n = 200 remembers about 50,000 sections
        memos = recorded_memos(monkeypatch)
        _, A = bisected_triple()
        tracemalloc.start()
        try:
            classify(A, grid=make_grid(200))
            memo = memos[0]
            size, held = len(memo), tracemalloc.get_traced_memory()[0]
            memo.__dict__.clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size > 40_000
        assert held <= 40 * size


class TestOnePath:
    """Each inverse is reached one way: only an inverse whose roots are asked
    for again keeps a root memo, every PhiSpec of a function reads the one
    inverse it keeps, and an absent closed form is never sampled."""

    def test_a_call_without_memo_keeps_nothing_between_calls(self, monkeypatch):
        memos, lanes = recorded_memos(monkeypatch), counted_refine(monkeypatch)
        y = np.random.default_rng(12).uniform(size=3000)
        first = bisect_increasing(square, y)
        assert lanes[0] == y.size
        again = bisect_increasing(square, y)
        assert lanes[0] == 2 * y.size
        assert np.array_equal(bits(again), bits(first))
        # neither call built a memo
        assert memos == []

    @pytest.mark.parametrize("make", [
        lambda: validate_triple(bisected_generators()),
        lambda: PhiSpec.from_expr("x*x").invert(np.linspace(0.0, 1.0, 50)),
        lambda: PhiSpec.from_expr("x*x/(1-x)", b=math.inf).invert(np.linspace(0.0, 9.0, 50)),
        lambda: bisect_increasing(square, np.linspace(0.0, 1.0, 50)),
    ], ids=["validate_triple", "from_expr", "from_expr b=inf", "bisect_increasing"])
    def test_an_inverse_whose_roots_are_not_asked_for_again_builds_no_memo(self, monkeypatch,
                                                                             make):
        memos, lanes = recorded_memos(monkeypatch), counted_refine(monkeypatch)
        make()
        assert lanes[0] > 0 and memos == []

    def test_a_bare_call_holds_no_copy_of_its_targets(self):
        # 10^5 targets are 0.76 MiB: distinct's index and order arrays and the
        # sorted targets stay traced, a memo's keys and roots or an index
        # array as long as the targets would add to them
        y = np.random.default_rng(15).uniform(size=10 ** 5)
        tracemalloc.start()
        try:
            bisect_increasing(square, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * 2 ** 20

    def test_a_second_phi_of_one_function_refines_no_lane(self, monkeypatch):
        lanes = counted_refine(monkeypatch)
        u = unit_function_from_expr("x*x", continuous_bijection=True)
        assert u.inverse is None
        A, psi, grid = catalog_lookup("product"), PsiSpec.power(2.0), make_grid(60)
        runs, reports = [], []
        for _ in range(2):
            lanes[0] = 0
            reports.append(check_quasi_homogeneity(A, PhiSpec.from_unit_function(u), psi,
                                                   grid=grid))
            runs.append(lanes[0])
        assert runs[0] > 0 and runs[1] == 0
        first, again = reports
        # refuted (phi = x^2 scales the product with psi = power(4)), so the
        # witness is compared too
        assert not first.passed and str(again) == str(first)
        assert again.witness == first.witness
        assert bits([again.max_residual]).tolist() == bits([first.max_residual]).tolist()

    def test_a_phi_and_invert_share_their_roots(self, monkeypatch):
        lanes = counted_refine(monkeypatch)
        u = unit_function_from_expr("x*x", continuous_bijection=True)
        y = np.random.default_rng(13).uniform(size=500)
        first = PhiSpec.from_unit_function(u).invert(y)
        assert lanes[0] == y.size
        assert np.array_equal(bits(u.invert(y)), bits(first))
        assert lanes[0] == y.size

    @pytest.mark.parametrize("make", [
        lambda: PhiSpec.from_unit_function(
            unit_function_from_expr("x*x", continuous_bijection=True)),
        lambda: PhiSpec.from_expr("x*x"),
        lambda: PhiSpec.from_expr("x*x/(1-x)", b=math.inf),
    ], ids=["from_unit_function", "from_expr", "from_expr b=inf"])
    def test_a_patched_bisection_sees_every_numeric_phi(self, monkeypatch, make):
        calls, bisect = [], numerics.bisect_increasing

        def recorded(fn, y, **kwargs):
            calls.append(np.size(y))
            return bisect(fn, y, **kwargs)

        monkeypatch.setattr(numerics, "bisect_increasing", recorded)
        phi = make()
        y = np.random.default_rng(14).uniform(size=50)
        assert np.isfinite(phi.invert(y)).all()
        assert calls == [50]

    def test_pinned_inverse_of_no_formula_is_none_and_never_samples(self):
        fn = Counted(square)
        assert numerics.pinned_inverse(None, fn) is None
        assert fn.lanes == 0


def bisected_generators():
    """The triple of expressions f=x*x, g=x, h=2x/(1+x): x occurs twice in
    f, so f inverts numerically."""
    return GeneratorTriple(f=unit_function_from_expr("x*x", continuous_bijection=True),
                           g=unit_function_from_expr("x", increasing=True),
                           h=unit_function_from_expr("2*x/(1+x)", increasing=True))


def bisected_triple():
    """The bisected triple and from_triple of it, unvalidated: f and the
    diagonal invert numerically."""
    t = bisected_generators()
    return t, from_triple(t, validate=False)


def expr2d_mean():
    """mean(x^2, x): an aggregation function whose diagonal is a bijection,
    refuted by the scaling law."""
    return aggregation_from_combiner("mean", unit_function_from_expr("x^2"),
                                     unit_function_from_expr("x"))


def report_key(r):
    """A classification report by value, its floats by their bits."""
    return (r.verdict, r.witness and bits(r.witness).tolist(), r.reason,
            {k: bits([v]).tolist() for k, v in r.diagnostics.items()}, str(r))


class TestDiagonalReuse:
    """A Class-1 report's ``delta`` keeps one inverse: the re-verification of
    its canonical pair reads the roots ``classify`` solved, with the bits a
    fresh inverse gives. Each ``classify`` builds its own ``delta``, so
    nothing of the diagonal is kept with A."""

    @pytest.mark.parametrize("make, n, lanes_per_pass", [
        (lambda: catalog_lookup("product"), 100, [3328, 0, 3328]),
        (lambda: catalog_lookup("harmonic_min"), 100, [4930, 0, 4930]),
        # the second classify reads the roots of f's inverse that A keeps,
        # and solves only its own delta again
        (lambda: bisected_triple()[1], 40, [3322, 0, 1523]),
    ], ids=["product", "harmonic_min", "bisected triple"])
    def test_a_reverification_refines_no_lane(self, monkeypatch, make, n, lanes_per_pass):
        lanes, A, grid = counted_refine(monkeypatch), make(), make_grid(n)
        runs = []

        def counted(step):
            lanes[0] = 0
            out = step()
            runs.append(lanes[0])
            return out

        first = counted(lambda: classify(A, grid=grid))
        assert first.verdict == CLASS1
        assert counted(lambda: check_quasi_homogeneity(
            A, *canonical_pair(first), grid=grid).passed)
        again = counted(lambda: classify(A, grid=grid))
        assert runs == lanes_per_pass
        assert again.delta is not first.delta
        assert report_key(again) == report_key(first)

    @pytest.mark.parametrize("make", [
        lambda: catalog_lookup("product"),
        lambda: bisected_triple()[1],
    ], ids=["product", "bisected triple"])
    def test_a_coarser_classify_first_does_not_stop_the_memo_growing(self, monkeypatch, make):
        # the n = 20 classify leaves a few roots in the memo of the triple's
        # f inverse, which A keeps; the n = 100 sweep's tiles still add theirs
        lanes, A, grid = counted_refine(monkeypatch), make(), make_grid(100)
        classify(A, grid=make_grid(20))
        r = classify(A, grid=grid)
        lanes[0] = 0
        assert check_quasi_homogeneity(A, *canonical_pair(r), grid=grid).passed
        assert lanes[0] == 0

    @pytest.mark.parametrize("make, verdict", [
        (lambda: bisected_triple()[1], CLASS1),
        (expr2d_mean, NOT_QH),
    ], ids=["bisected triple", "expr2d mean"])
    def test_warm_and_fresh_reports_are_equal(self, make, verdict):
        grid, A = make_grid(30), make()
        first = classify(A, grid=grid)
        if first.verdict == CLASS1:
            assert check_quasi_homogeneity(A, *canonical_pair(first), grid=grid).passed
        warm, fresh = classify(A, grid=grid), classify(make(), grid=grid)
        assert warm.verdict == verdict
        assert report_key(warm) == report_key(fresh) == report_key(first)

    def test_a_patched_bisection_sees_every_inversion_warm_or_cold(self, monkeypatch):
        calls, bisect = [], numerics.bisect_increasing

        def recorded(fn, y, **kwargs):
            calls.append(np.size(y))
            return bisect(fn, y, **kwargs)

        monkeypatch.setattr(numerics, "bisect_increasing", recorded)
        A, grid = catalog_lookup("product"), make_grid(20)
        r = classify(A, grid=grid)
        assert calls
        sweeps = []
        # the report's delta is warm; a declared copy keeps an inverse of its own
        for delta in (r.delta, r.delta.declared()):
            calls.clear()
            assert check_quasi_homogeneity(A, PhiSpec.inverse_of(delta), PsiSpec.power(1.0),
                                           grid=grid).passed
            sweeps.append(list(calls))
        assert sweeps[0] == sweeps[1] and sweeps[0]

    def test_the_function_is_still_collected(self):
        _, A = bisected_triple()
        grid = make_grid(20)
        r = classify(A, grid=grid)
        assert check_quasi_homogeneity(A, *canonical_pair(r), grid=grid).passed
        ref = weakref.ref(A)
        del A, r
        gc.collect()
        assert ref() is None

    def test_validation_shares_no_memo_with_the_function(self, monkeypatch):
        # validate_triple and from_triple each build their own inverse of t.f,
        # so validation leaves no roots in the memo the sweep's tiles grow
        lanes, grid, runs = counted_refine(monkeypatch), make_grid(40), []
        for validate_first in (False, True):
            t, A = bisected_triple()
            if validate_first:
                assert validate_triple(t).ok
            lanes[0] = 0
            runs.append((str(classify(A, grid=grid)), lanes[0]))
        assert runs[0] == runs[1]


class TestDistinct:
    def test_sorted_values_and_index_rebuild_the_array(self):
        values = np.array([0.5, -0.0, 0.25, np.nan, 0.5, 0.0, 1.0, np.nan, 0.25])
        w, at = distinct(values)
        assert np.array_equal(w[:4], [0.0, 0.25, 0.5, 1.0])
        assert np.isnan(w[4:]).all() and len(w) == 6  # each NaN is its own value
        assert np.array_equal(w[at], values, equal_nan=True)

    def test_empty(self):
        w, at = distinct(np.array([]))
        assert w.size == 0 and at.size == 0 and at.dtype == np.intp


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


#: 10^5 seeded targets in [0, 1), the smallest near 6.9e-6
TARGETS = np.random.default_rng(2024).uniform(size=10**5)

_EDGE_RNG = np.random.default_rng(33)

#: seeded targets on [0, inf] for an unbounded phi: 0, inf, NaN, subnormals
#: and huge values, 5,000 uniform in [0, 1), and 5,000 with binary exponents
#: from -1074 to 1023 (``ldexp`` is exact, so no libm enters the targets)
UNBOUNDED_TARGETS = np.concatenate([
    [0.0, math.inf, math.nan, 5e-324, 1e-310, 2.0 ** -1022, 1e-300, 1.0, 1e300,
     1.7976931348623157e308],
    _EDGE_RNG.uniform(size=5000),
    np.ldexp(_EDGE_RNG.uniform(0.5, 1.0, 5000), _EDGE_RNG.integers(-1073, 1024, 5000)),
])


class TestRootBits:
    """SHA-256 of the roots, bit for bit. Every function here is built from
    IEEE-exact operations only (products, quotients, square roots), so the
    roots do not depend on the platform's libm."""

    @pytest.mark.parametrize("fn, digest", [
        (lambda x: x * x, "ac6f94d09afd533e1580fff7984b3fe3805e3e64af15cf528efcf1e765d5b335"),
        (np.sqrt, "419e2c67aab8a0b65e8c2b78f099999a771765ffef1fe420d856512c701f8005"),
        (lambda x: x * x * x, "f5d218bbd9376a61b8b73625914cd5b469b2b1fee76a6e9b08a03b82b67b3d7f"),
        # x^(1/16): targets below 2^(-60/16) splice in the deep table
        (lambda x: np.sqrt(np.sqrt(np.sqrt(np.sqrt(x)))),
         "ff8b72162b28fa0c3f2d409cfd556b8c1454a5124c82b75aa1ae8ff4248a518a"),
    ], ids=["x*x", "sqrt", "x*x*x", "sqrt^4"])
    def test_bisect_increasing_roots(self, fn, digest):
        assert _sha256(bisect_increasing(fn, TARGETS)) == digest

    def test_deep_table_is_reached(self):
        assert float(TARGETS.min()) < 2.0 ** (-60 / 16)

    def test_unbounded_phi_inverse(self):
        phi = PhiSpec.from_expr("x/(1-x)", b=float("inf"))
        assert (_sha256(phi.invert(TARGETS))
                == "baa7860090a8196dc514aa3fb59087f3838fce6a438ebb5b88ee5a1c9c932bab")

    @pytest.mark.parametrize("text, closed, digest", [
        ("x/(1-x)", False,
         "97e45e5a671ca5adf594a0d1b795de93cac93340c2fd99a99f0b879033b06c92"),
        ("x*x/(1-x)", False,
         "9a7028bd33200f9a51f90e593a598df753a50c4c0b67e83d98a176cb806efa2f"),
        ("x/(1-x)+x*x", False,
         "278cce424bb61a01aff1bcc4ba8e3e1af0f3560dfea9aceaba1728e82164a1a5"),
        ("1/(1-x)-1", True,
         "4892b42a162dec5eefd7e9a55f9a968b93a36b683dd1a80530604ea66de4c1d7"),
    ], ids=["x/(1-x)", "x*x/(1-x)", "x/(1-x)+x*x", "1/(1-x)-1 closed form"])
    def test_unbounded_phi_inverse_at_the_edges(self, text, closed, digest):
        assert (parse_expr(text).inverse is not None) == closed
        phi = PhiSpec.from_expr(text, b=math.inf)
        assert _sha256(phi.inverse(UNBOUNDED_TARGETS)) == digest

    @pytest.mark.parametrize("fn", [
        lambda x: x / (1.0 - x),
        lambda x: x * x / (1.0 - x) + x,
    ], ids=["x/(1-x)", "x*x/(1-x)+x"])
    def test_an_infinite_end_is_bisected_through_v_over_one_plus_v(self, fn):
        def unbounded(x):
            with np.errstate(divide="ignore"):
                return fn(np.asarray(x, dtype=float))

        def bounded(v):
            v = np.asarray(v, dtype=float)
            with np.errstate(invalid="ignore"):
                return np.where(np.isinf(v), 1.0, v / (1.0 + v))

        roots = bisect_increasing(unbounded, UNBOUNDED_TARGETS)
        assert roots[1] == 1.0 and np.isnan(roots).sum() == 1
        expected = bisect_increasing(lambda x: bounded(unbounded(x)), bounded(UNBOUNDED_TARGETS))
        assert np.array_equal(bits(roots), bits(expected))


#: 10^4 seeded targets in [0, 1): half uniform, half log-uniform down to 1e-30
BOUND_TARGETS = np.concatenate([np.random.default_rng(0).uniform(size=5000),
                                10.0 ** np.random.default_rng(1).uniform(-30.0, 0.0, 5000)])


class TestBracketBound:
    """Every root of a numeric inverse lies within 2^-44 of the true root
    (the width of its final bracket), give or take the rounding of the
    closed-form root it is compared with. The scaling law holds closed-form
    and numeric inverses to one tolerance on the strength of this bound."""

    @pytest.mark.parametrize("text, b, to_target, root", [
        ("x^2", None, lambda t: t, np.sqrt),
        ("x^3", None, lambda t: t, np.cbrt),
        ("x^0.5", None, lambda t: t, np.square),
        ("x/(1-x)", float("inf"), lambda t: t / (1.0 - t), lambda y: y / (1.0 + y)),
    ], ids=["x^2", "x^3", "x^0.5", "x/(1-x), b=inf"])
    def test_root_within_the_bracket_width(self, text, b, to_target, root):
        phi = PhiSpec.from_expr(text, b=b)
        y = to_target(BOUND_TARGETS)
        exact = root(y)
        assert np.all(np.abs(phi.invert(y) - exact) <= 2.0 ** -44 + np.spacing(exact))

    @pytest.mark.parametrize("text, mp_phi", [
        ("x^20", lambda x: x ** 20),
        ("x^0.05", lambda x: x ** 0.05),
        ("(x+x^5)/2", lambda x: (x + x ** 5) / 2),
        ("(1024^x-1)/1023", lambda x: (1024 ** x - 1) / 1023),
    ], ids=["x^20", "x^0.05", "(x+x^5)/2", "(1024^x-1)/1023"])
    def test_root_within_the_bracket_width_by_mpmath(self, text, mp_phi):
        """Steep phis, and phis with no usable closed form. The true root
        lies within 2^-44 of a root r exactly when phi(r - 2^-44) <= y <=
        phi(r + 2^-44), which mpmath decides at 200 bits."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2)
        y = np.concatenate([rng.uniform(size=150), 10.0 ** rng.uniform(-30.0, 0.0, 150)])
        roots = PhiSpec.from_expr(text).invert(y)
        with mpmath.workprec(200):
            half = mpmath.mpf(2) ** -44
            for target, r in zip(y.tolist(), roots.tolist()):
                lo, hi = max(mpmath.mpf(r) - half, 0), min(mpmath.mpf(r) + half, 1)
                assert mp_phi(lo) <= target <= mp_phi(hi), (target, r)


    @pytest.mark.parametrize("text, root", [("x^2", np.sqrt), ("x^3", np.cbrt),
                                            ("x^0.5", np.square)],
                             ids=["x^2", "x^3", "x^0.5"])
    def test_root_within_the_bracket_width_bisected(self, text, root):
        """The same targets through bisection: the closed-form inverse stripped."""
        phi = PhiSpec.from_unit_function(
            strip_inverse(unit_function_from_expr(text, continuous_bijection=True)))
        exact = root(BOUND_TARGETS)
        assert np.all(np.abs(phi.invert(BOUND_TARGETS) - exact) <= 2.0 ** -44 + np.spacing(exact))

    @pytest.mark.parametrize("text, mp_phi", [
        ("x^20", lambda x: x ** 20),
        ("x^0.05", lambda x: x ** 0.05),
    ], ids=["x^20", "x^0.05"])
    def test_root_within_the_bracket_width_by_mpmath_bisected(self, text, mp_phi):
        phi = PhiSpec.from_unit_function(
            strip_inverse(unit_function_from_expr(text, continuous_bijection=True)))
        assert_roots_within_the_bracket_by_mpmath(phi.invert, mp_phi)

    @pytest.mark.parametrize("text, mp_phi", [
        ("x^2", lambda x: x ** 2),
        ("x^3", lambda x: x ** 3),
        ("x^0.5", lambda x: mpmath_sqrt(x)),
    ], ids=["x^2", "x^3", "x^0.5"])
    def test_closed_form_root_within_the_bracket_width_by_mpmath(self, monkeypatch, text,
                                                                 mp_phi):
        phi = PhiSpec.from_expr(text)
        monkeypatch.setattr(numerics, "bisect_increasing", refuse_to_bisect)
        assert_roots_within_the_bracket_by_mpmath(phi.invert, mp_phi)


def mpmath_sqrt(x):
    import mpmath
    return mpmath.sqrt(x)


def refuse_to_bisect(fn, y):
    raise AssertionError("bisect_increasing was called")


def assert_roots_within_the_bracket_by_mpmath(invert, mp_phi):
    """As ``test_root_within_the_bracket_width_by_mpmath``, for any inverse."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2)
    y = np.concatenate([rng.uniform(size=150), 10.0 ** rng.uniform(-30.0, 0.0, 150)])
    roots = invert(y)
    with mpmath.workprec(200):
        half = mpmath.mpf(2) ** -44
        for target, r in zip(y.tolist(), roots.tolist()):
            lo, hi = max(mpmath.mpf(r) - half, 0), min(mpmath.mpf(r) + half, 1)
            assert mp_phi(lo) <= target <= mp_phi(hi), (target, r)


class TestClosedForm:
    """Expressions in which x occurs once invert in closed form, held to
    the contract of ``bisect_increasing`` at the ends of [0, 1]."""

    def test_scaling_law_and_triple_need_no_bisection(self, monkeypatch):
        monkeypatch.setattr(numerics, "bisect_increasing", refuse_to_bisect)
        report = check_quasi_homogeneity(catalog_lookup("product"), PhiSpec.from_expr("x^2"),
                                         PsiSpec.power(4), grid=make_grid(30))
        assert report.passed
        A = from_triple(GeneratorTriple(
            f=unit_function_from_expr("x^2", continuous_bijection=True),
            g=unit_function_from_expr("x", increasing=True),
            h=unit_function_from_expr("2*x/(1+x)", increasing=True)))
        p = make_grid(20).points
        assert np.isfinite(A(p[:, None], p[None, :])).all()

    def test_an_undeclared_bijection_still_refuses(self):
        u = unit_function_from_expr("x^2")
        assert u.inverse is None
        with pytest.raises(ContractError):
            u.invert(0.25)

    def test_one_minus_x_gets_no_inverse(self):
        assert unit_function_from_expr("1-x").inverse is None
        with pytest.raises(ContractError):
            unit_function_from_expr("1-x", continuous_bijection=True)

    @pytest.mark.parametrize("n", [100, 1])
    def test_a_formula_on_the_wrong_branch_is_not_attached(self, n):
        # 1-(x-1)^2 increases on [0, 1], but the formula's square root
        # takes x - 1 >= 0, so the inverse it gives is 2 - x; a validation
        # grid of its two ends alone does not let it through either
        u = unit_function_from_expr("1-(x-1)^2", continuous_bijection=True, grid=make_grid(n))
        assert u.inverse is None
        assert abs(u.invert(0.75) - 0.5) <= 2.0 ** -44

    @pytest.mark.parametrize("make, top", [
        (lambda: unit_function_from_expr("x^2", continuous_bijection=True).invert, 1.0),
        (lambda: PhiSpec.from_expr("2*x^2").invert, 2.0),
    ], ids=["unit function", "phi b=2"])
    def test_ends_are_exact_and_beyond_them_is_a_domain_error(self, make, top):
        invert = make()
        y = np.array([0.0, -1e-13, top, top + 1e-13])
        assert np.array_equal(invert(y), [0.0, 0.0, 1.0, 1.0])
        for bad in (-1e-3, top + 0.5):
            with pytest.raises(DomainError) as info:
                invert(np.array([0.5 * top, bad]))
            assert str(info.value) == (
                f"target {bad!r} is not bracketed by [0.0, 1.0] (no solution within tol)")

    def test_unbounded_phi_maps_inf_to_one(self):
        phi = PhiSpec.from_expr("1/(1-x)-1", b=float("inf"))
        y = np.array([0.0, 1.0, 3.0, np.inf, np.nan])
        assert np.array_equal(phi.invert(y), [0.0, 0.5, 0.75, 1.0, np.nan], equal_nan=True)
        with pytest.raises(DomainError):
            phi.invert(-1.0)

    def test_the_catalog_power_extrapolates(self):
        assert power_function(2).invert(2.25) == 1.5


_BISECTED = UnitFunction(evaluator=power_function(2).evaluator, continuous_bijection=True,
                         name="x^2 (no closed form)")
_EXPR_BIJECTION = unit_function_from_expr("2*x/(1+x)", continuous_bijection=True)

#: every public elementwise evaluator, as a function of one argument
EVALUATORS = {
    "bisect_increasing": lambda v: bisect_increasing(lambda x: x * x, v),
    "invert_monotone closed form": lambda v: invert_monotone(power_function(2), v),
    "invert_monotone bisection": lambda v: invert_monotone(_BISECTED, v),
    "UnitFunction": power_function(2),
    "UnitFunction expression": _EXPR_BIJECTION,
    "UnitFunction.invert closed form": power_function(2).invert,
    "UnitFunction.invert bisection": _EXPR_BIJECTION.invert,
    "AggregationFunction": lambda v: catalog_lookup("product")(v, v),
    "AggregationFunction(v, 0.5)": lambda v: catalog_lookup("min")(v, 0.5),
    "PsiSpec power": PsiSpec.power(2.0),
    "PsiSpec step0": PsiSpec.step_at_zero(),
    "PsiSpec step1": PsiSpec.step_at_one(),
    "PhiSpec identity": PhiSpec.identity(),
    "PhiSpec.invert identity": PhiSpec.identity().invert,
    "PhiSpec power": PhiSpec.power(2.0),
    "PhiSpec.invert power": PhiSpec.power(2.0).invert,
    "PhiSpec expression": PhiSpec.from_expr("x^2"),
    "PhiSpec.invert expression": PhiSpec.from_expr("x^2").invert,
    "PhiSpec.invert expression bisection": PhiSpec.from_expr("x*x").invert,
    "PhiSpec.invert unbounded closed form": PhiSpec.from_expr("1/(1-x)-1", b=float("inf")).invert,
    "PhiSpec unbounded": PhiSpec.from_expr("x/(1-x)", b=float("inf")),
    "PhiSpec.invert unbounded": PhiSpec.from_expr("x/(1-x)", b=float("inf")).invert,
    "PhiSpec inverse_of": PhiSpec.inverse_of(power_function(2)),
    "PhiSpec.invert inverse_of": PhiSpec.inverse_of(power_function(2)).invert,
    "diagonal": diagonal(catalog_lookup("product")),
    "eval_expr": lambda v: eval_expr(parse_expr("x^2"), v),
}


class TestReturnType:
    """A scalar in gives a Python float out; an array in gives a float64
    array of the same shape."""

    @pytest.mark.parametrize("name", list(EVALUATORS))
    @pytest.mark.parametrize("scalar", [0.25, np.float64(0.25), np.array(0.25)],
                             ids=["float", "float64", "0-d"])
    def test_scalar_in_float_out(self, name, scalar):
        assert type(EVALUATORS[name](scalar)) is float

    @pytest.mark.parametrize("name", list(EVALUATORS))
    @pytest.mark.parametrize("shape", [(5,), (2, 3), (0,)])
    def test_array_in_array_of_its_shape_out(self, name, shape):
        v = np.linspace(0.0, 0.75, int(np.prod(shape))).reshape(shape)
        out = EVALUATORS[name](v)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == shape
