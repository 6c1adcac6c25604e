"""Scalar toolkit: unit grids, increase checks, inversion.

Every evaluator in this package is elementwise: it accepts a float or a
numpy array and returns a value of the same shape, by the one rule of
``elementwise``, which the helpers here follow too. Each one-variable
section is sampled by that rule and checked for increase by ``first_fall``.
Numeric inverses are built here; ``UnitFunction.invert`` owns their
contract and the one inverse a function keeps, so no flag is read here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: ``bisect_increasing`` refines a lane for at most this many rounds; a lane
#: still open then returns NaN. Bisection alone narrows a bracket to 2**-200
#: of its width in that many rounds.
MAX_BISECT_ITER = 200

#: Residual target of every numerical inversion: ``bisect_increasing``
#: refines a lane until ``|fn(x) - y|`` is within it.
INV_TOL = 1e-12


def elementwise(out, *inputs):
    """The return rule of every elementwise evaluator: a Python float when
    every input is a scalar (0-d included), else ``out`` as a float array
    of the inputs' broadcast shape.
    """
    shape = np.broadcast(*inputs).shape
    if not shape:
        return float(out)
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


@dataclass(frozen=True)
class Grid:
    """Uniform sample points {i/n : 0 <= i <= n} with exact endpoints."""

    points: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.n + 1


def make_grid(n: int) -> Grid:
    """Uniform grid with n+1 points; endpoints are exactly 0.0 and 1.0.

    Exact endpoints matter: the discontinuous canonical classes live
    precisely on the boundary of the unit square, so it must be sampled
    without offset. n is read as an integer (``operator.index``), so a
    float, even an integral one, is refused.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"grid resolution must be an integer, got {n!r}") from None
    if n < 1:
        raise DomainError(f"grid resolution must be >= 1, got {n}")
    return Grid(points=np.arange(n + 1) / n, n=n)


DEFAULT_GRID_N = 100


def default_grid() -> Grid:
    return make_grid(DEFAULT_GRID_N)


def first_witness(values, violation) -> tuple[int, ...] | None:
    """Index of the first offending sample in C order, or None.

    ``violation`` is a boolean mask shaped like ``values``. Non-finite
    samples count as violations whatever the mask says, so a NaN never
    passes a check by failing every comparison. On a grid sampled as
    ``V[i, j] = A(x_i, y_j)`` C order runs through y fastest.
    """
    bad = np.asarray(violation) | ~np.isfinite(values)
    if not bad.any():
        return None
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))


def first_fall(points, values, *, strict=False, tol=0.0) -> tuple[float, ...] | None:
    """First step ``(x_i, x_i+1, v_i, v_i+1)`` of a sampled section that falls
    below -tol (with ``strict``: does not rise), or None; a non-finite step fails."""
    d = np.diff(values)
    w = first_witness(d, d <= 0.0 if strict else d < -tol)
    return None if w is None else (float(points[w[0]]), float(points[w[0] + 1]),
                                   float(values[w[0]]), float(values[w[0] + 1]))


#: Bracket table for ``bisect_increasing`` on [0, 1]: 64 uniform steps plus
#: the powers 2^-k down to 2^-60, so that power-like functions get brackets
#: as tight near 0 as elsewhere.
_BRACKET_TABLE = np.concatenate([[0.0], np.exp2(-np.arange(60.0, 6.0, -1.0)),
                                 np.arange(1.0, 65.0) / 64.0])
_BRACKET_TABLE.setflags(write=False)

#: Every eighth power 2^-k from 2^-1072 to 2^-64, spliced in between the
#: first two points of ``_BRACKET_TABLE`` for a batch with a target below
#: fn(2^-60): functions so steep at 0 (x^0.05) that a root sits far below
#: 2^-60 then get a tight bracket too. A batch without one never samples
#: these points, which are mostly subnormal and slow to compute with.
_DEEP_TABLE = np.exp2(-np.arange(1072.0, 63.0, -8.0))
_DEEP_TABLE.setflags(write=False)

#: A lane has converged once its bracket is at most this wide (and its
#: residual is within INV_TOL).
_X_TOL = 2.0 ** -44

#: ``bisect_increasing`` refines its sorted distinct targets in blocks of
#: this many lanes, so that a round's working arrays stay in cache.
_REFINE_BLOCK = 1 << 14


#: ``distinct`` reads its sorted values in blocks of this many lanes, so
#: that no sorted copy, flag or rank array as long as the input is held
_RANK_BLOCK = 1 << 13


def distinct(values):
    """Sorted distinct values ``w`` of a 1-d array, and the index ``at`` of
    each entry among them: ``w[at]`` rebuilds the array, up to the sign of
    zero. Each NaN is a value of its own. Built on argsort for memory:
    ``np.unique(values, return_inverse=True)`` peaks at 5.4 times the input,
    this at 2.35 (the 641,601 values of product at n = 800, tracemalloc).
    """
    order = np.argsort(values)
    at = np.empty(values.size, dtype=np.intp)
    parts = [values[:0]]
    top, last = -1, None
    for b in range(0, values.size, _RANK_BLOCK):
        ys = values[order[b:b + _RANK_BLOCK]]
        first = np.empty(ys.size, dtype=bool)
        first[0] = b == 0 or ys[0] != last
        np.not_equal(ys[1:], ys[:-1], out=first[1:])
        parts.append(ys[first])
        rank = np.cumsum(first)
        rank += top
        at[order[b:b + _RANK_BLOCK]] = rank
        top, last = rank[-1], ys[-1]
    del order  # free it before the distinct values are joined
    return np.concatenate(parts), at


#: A kept root memo holds at most this many roots: 4 MiB of targets and roots,
#: and a 2 MiB hash table. Classifying a bisected triple at n = 400 remembers
#: 202,952; a cap of 2^15 there made the sweep nearly twice as slow.
_MEMO_CAP = 1 << 18

#: ``_RootMemo`` hashes a target's bits by this odd multiplier (Fibonacci hashing).
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


class _RootMemo:
    """Roots of one function, remembered across calls of ``bisect_increasing``.

    Kept only by inverses whose roots are asked for again (``inverse_evaluator``).
    ``keys`` holds distinct targets as added and ``roots`` their roots; never
    NaN, at most ``_MEMO_CAP``. Both are rows of a store, which ``add`` only
    appends to and which grows by an eighth at a time. ``recall`` first files
    new targets in a hash table with linear probing, whose int32 slots index
    ``keys`` (-1 when empty), at most a third full, or half at the cap: 16 to
    18 B per root in the store and 12 to 24 B in the table. No entry is ever
    deleted, so a lookup probes on until it meets its target or an empty
    slot. Targets hash by their bits, a zero as +0.0, and compare by ``==``
    as in ``distinct``.
    """

    def __init__(self):
        self.keys = self.roots = np.empty(0)
        self._store = np.empty((2, 0))
        self._slots, self._held = np.empty(0, dtype=np.int32), 0

    def __len__(self):
        return self.keys.size

    def items(self):
        """The remembered targets, sorted, and their roots."""
        order = np.argsort(self.keys)
        return self.keys[order], self.roots[order]

    def _home(self, t):
        # the top bits of each target's bits, a zero as +0.0, times _HASH_MUL
        h = (t + 0.0).view(np.uint64)
        return np.right_shift(np.multiply(h, _HASH_MUL, out=h),
                              np.uint64(65 - self._slots.size.bit_length()), out=h).view(np.intp)

    def _find(self, t):
        """The entry in ``keys`` of each target of ``t``; -1 for one not remembered."""
        slots, keys, mask = self._slots, self.keys, self._slots.size - 1
        h = self._home(t)
        at = slots[h]
        lane = np.flatnonzero((at >= 0) & (keys.take(at) != t))
        while lane.size:  # a lane whose slot holds another target moves on a slot
            h[lane] = s = (h[lane] + 1) & mask
            at[lane] = k = slots[s]
            lane = lane[(k >= 0) & (keys.take(k) != t[lane])]
        return at

    def recall(self, ys):
        """File the targets added since the last call, then overwrite each target
        of ``ys`` that is remembered by its root, in place, and return the
        ascending indices of the rest."""
        size = 1 << (min(3 * len(self), 2 * _MEMO_CAP) - 1).bit_length()
        if size > self._slots.size:  # a new table, at least three times the memo
            self._slots, self._held = np.full(size, -1, np.int32), 0
        new, self._held = np.arange(self._held, len(self), dtype=np.int32), len(self)
        h = self._home(self.keys[new])
        while new.size:  # each entry takes the first free slot from its home on
            free = self._slots[h] < 0
            self._slots[h[free]] = new[free]
            keep = self._slots[h] != new  # of entries that meet at a free slot, one took it
            new, h = new[keep], (h[keep] + 1) & (self._slots.size - 1)
        hit = np.zeros(ys.size, dtype=bool)
        for b in range(0, ys.size, _REFINE_BLOCK):
            t, h = ys[b:b + _REFINE_BLOCK], hit[b:b + _REFINE_BLOCK]
            at = self._find(t)
            np.copyto(t, self.roots.take(at), where=np.greater_equal(at, 0, out=h))
        return np.flatnonzero(~hit)

    def add(self, keys, roots):
        """Append sorted distinct targets absent from the memo, and their roots:
        every one whose root is not NaN, the smallest first, up to the cap."""
        solved = ~np.isnan(roots)
        if not solved.all():
            keys, roots = keys[solved], roots[solved]
        n = len(self)
        m = min(n + keys.size, _MEMO_CAP)
        if m > self._store.shape[1]:  # a new store, larger by an eighth or more
            store = np.empty((2, min(max(m, n + n // 8), _MEMO_CAP)))
            store[:, :n] = self._store[:, :n]
            self._store = store
        self._store[0, n:m], self._store[1, n:m] = keys[:m - n], roots[:m - n]
        self.keys, self.roots = self._store[:, :m]


def bisect_increasing(fn, y, *, memo=None):
    """Solve fn(x) = y on [0, 1] for a nondecreasing elementwise fn.

    Accepts scalar or array ``y``. Each distinct target is solved once per
    call, and a lane's result depends on its target alone, never on the
    rest of the batch. ``fn`` is sampled on a fixed table that brackets
    every target (``_BRACKET_TABLE``, plus ``_DEEP_TABLE`` when some
    target to refine lies below fn(2^-60)); Chandrupatla's interpolation,
    falling back to bisection, then refines each bracket until
    ``|fn(x) - y| <= INV_TOL`` and the bracket is at most 2^-44 wide.
    Targets at or beyond an endpoint image (within INV_TOL) are returned
    as that endpoint, which keeps inverses exact where the function may
    have zero slope. Only the targets strictly between the endpoint images
    are sorted and refined, in blocks of ``_REFINE_BLOCK`` lanes.

    ``memo``, the ``_RootMemo`` an inverse of ``inverse_evaluator`` may keep,
    carries roots of ``fn`` across calls. Once it holds a root, each lane is
    looked up in it before any sorting, and only the lanes it misses are
    sorted and refined; every root the call refines is added, within the
    memo's cap. A root depends on its target alone, so a remembered root has
    the bits a fresh one would have. A call without ``memo`` does no memo work.

    ``fn(1)`` may be inf, as for an unbounded phi: the targets are checked
    against fn(0) and inf, then ``fn`` and they alike are read through
    v/(1 + v), with inf -> 1, so that every bracket is finite.

    A lane that cannot converge returns NaN: a NaN target, a target inside
    a jump of ``fn`` (its bracket shrinks to adjacent floats), or one still
    open after MAX_BISECT_ITER rounds.

    Raises DomainError if some y lies outside [fn(0) - INV_TOL, fn(1) + INV_TOL].
    """
    if np.size(y) == 0:
        return np.array(y, dtype=float)
    xs = _BRACKET_TABLE
    fs = elementwise(fn(xs), xs)  # a constant fn is read as a constant sample
    f_lo, f_hi = fs[0], fs[-1]
    if f_hi == np.inf:
        fn, fs = (lambda x, f=fn: _bounded(f(x))), _bounded(fs)

    def solve(flat):
        inner = (flat > f_lo) & (flat < f_hi)  # fn's own ends: a target read as 1 refines to 1
        flat = _bounded(flat) if f_hi == np.inf else flat
        # a memo that holds roots gives the remembered targets theirs; the rest are refined
        roots = flat[inner] if memo else None
        miss = memo.recall(roots) if memo else None
        targets, at = distinct(flat[inner] if miss is None else roots[miss])
        fresh = targets if memo is None else targets.copy()
        xs_, fs_ = xs, fs
        if fresh.size and fresh[0] < fs[1]:
            xs_ = np.concatenate([xs[:1], _DEEP_TABLE, xs[1:]])
            fs_ = np.concatenate([fs[:1], np.asarray(fn(_DEEP_TABLE), dtype=float), fs[1:]])
        for b in range(0, fresh.size, _REFINE_BLOCK):
            fresh[b:b + _REFINE_BLOCK] = _refine(fn, fresh[b:b + _REFINE_BLOCK], xs_, fs_)
        if memo is not None:
            memo.add(targets, fresh)
        out = np.full(flat.shape, np.nan)
        if miss is None:
            out[inner] = fresh[at]
        else:
            roots[miss] = fresh[at]
            out[inner] = roots
        return out

    return _solve_between(y, f_lo, f_hi, solve)


def _bounded(v):
    # [0, inf] -> [0, 1], increasing, with inf -> 1
    v = np.asarray(v, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(v), 1.0, v / (1.0 + v))


def _solve_between(y, f_lo, f_hi, solve):
    """The contract at the ends of every inverse on [0, 1] of a nondecreasing
    f with endpoint images f_lo = f(0) and f_hi = f(1): a target at or beyond
    an end, within INV_TOL, is returned as that endpoint, exactly, and one
    further out raises DomainError. ``solve`` maps the flat targets to a new
    array that holds the root of each target strictly between the ends.
    """
    y_arr = np.asarray(y, dtype=float)
    flat = y_arr.ravel()
    bad = (flat < f_lo - INV_TOL) | (flat > f_hi + INV_TOL)
    if bad.any():
        raise DomainError(
            f"target {float(flat[np.argmax(bad)])!r} is not bracketed by [0.0, 1.0] "
            "(no solution within tol)"
        )
    out = solve(flat)
    out[flat >= f_hi] = 1.0
    out[flat <= f_lo] = 0.0
    return elementwise(out.reshape(y_arr.shape), y)


def pinned_inverse(formula, fn):
    """``formula``, a closed-form inverse of the nondecreasing ``fn``, held to
    the contract of ``bisect_increasing`` at the ends fn(0) and fn(1) (which
    may be inf), its roots clipped to [0, 1]; or None, without sampling ``fn``,
    for a ``formula`` of None, and None unless it returns each point of the
    bracket table from its value within 2^-44, the bound a numeric root is
    held to: a formula that picks another branch than fn's, or gives NaN, is
    never used. ``fn`` is sampled where bisection would sample it.
    """
    if formula is None:
        return None
    xs = _BRACKET_TABLE
    fs = elementwise(fn(xs), xs)
    f_lo, f_hi = float(fs[0]), float(fs[-1])

    def solve(flat):
        # a new array even where the formula returns its argument
        with np.errstate(all="ignore"):
            return np.clip(formula(flat), 0.0, 1.0)

    def inverse(y):
        return _solve_between(y, f_lo, f_hi, solve)

    # a table that falls somewhere holds targets beyond the ends
    if np.all(np.diff(fs) >= 0.0) and np.all(np.abs(inverse(fs) - xs) <= _X_TOL):
        return inverse
    return None


def _refine(fn, y, xs, fs):
    """Chandrupatla's bracketed root finder, lane by lane.

    Each target y starts from the table bracket fs[j-1] <= y < fs[j].
    Lanes leave the active set as they converge or fail (NaN), so every
    round evaluates ``fn`` on the open lanes only.
    """
    out = np.full(y.shape, np.nan)
    j = np.clip(np.searchsorted(fs, y, side="right"), 1, len(fs) - 1)
    lane = np.arange(y.size)
    # x1 is the newest point, x2 the other end of the bracket, x3 the
    # point dropped last; f* are residuals fn(x*) - y
    x1, f1, x2, f2 = xs[j - 1], fs[j - 1] - y, xs[j], fs[j] - y
    # a subnormal bracket overflows _X_TOL / |dx|, which only caps tl at 0.5
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = f1 / (f1 - f2)  # first step: linear interpolation
        for rnd in range(MAX_BISECT_ITER + 1):
            dx = x2 - x1
            adx = np.abs(dx)
            a1, a2 = np.abs(f1), np.abs(f2)
            near1 = a1 <= a2
            # not np.minimum(a1, a2): a NaN f1 with f2 == 0 is done, at x2
            best = np.where(near1, a1, a2)
            done = (best == 0.0) | ((best <= INV_TOL) & (adx <= _X_TOL))
            d = np.flatnonzero(done)
            out[lane[d]] = np.where(near1[d], x1[d], x2[d])
            tl = np.minimum(0.5, 0.5 * _X_TOL / adx)
            x = x1 + np.clip(t, tl, 1.0 - tl) * dx
            # a NaN residual or a bracket of adjacent floats cannot improve
            keep = ~done & ~np.isnan(f1) & (x != x1) & (x != x2)
            if rnd == MAX_BISECT_ITER or not keep.any():
                break
            if not keep.all():
                lane, y, x, x1, f1, x2, f2 = (v[keep] for v in (lane, y, x, x1, f1, x2, f2))
            f = np.asarray(fn(x), dtype=float) - y
            same = (f > 0.0) == (f1 > 0.0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
            # inverse quadratic interpolation where it is well conditioned
            xi = (x1 - x2) / (x3 - x2)
            f12, f32 = f1 - f2, f3 - f2
            ph = f12 / f32
            iqi = (1.0 - np.sqrt(1.0 - xi) < ph) & (ph < np.sqrt(xi))
            al = (x3 - x1) / (x2 - x1)
            t = np.where(iqi, f1 / f12 * f3 / f32
                         - al * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
    return out


def inverse_evaluator(f, *, remember=False):
    """Elementwise inverse of a unit-interval function: its closed form when
    it carries one, else ``bisect_increasing`` on [0, 1].

    Every numeric inverse in this package is built here. ``f`` is a
    UnitFunction. ``bisect_increasing`` is looked up when the inverse is
    called, not when it is built. With ``remember``, a numeric inverse keeps
    its own ``_RootMemo``, which builds its hash table when the inverse is
    called again and from then on looks every lane up before anything is
    sorted: for the inverses whose roots are asked for again, the one a
    UnitFunction keeps and ``from_triple``'s f_inv, which every tile of a
    sweep calls on the same sections.
    """
    if f.inverse is not None:
        return f.inverse
    ev, memo = f.evaluator, _RootMemo() if remember else None
    return lambda y: bisect_increasing(ev, y, memo=memo)
