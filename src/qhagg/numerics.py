"""Scalar toolkit: extended-nonnegative arithmetic, unit grids, inversion.

Every evaluator in this package is elementwise: it accepts a float or a
numpy array and returns a value of the same shape. The helpers here follow
the same convention.

Extended arithmetic uses the host float infinity together with the
convention ``0 * inf = inf * 0 = 0`` (and ``1/inf = 0``), which is what the
codomain endpoint of an unbounded scaling bijection requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError

INF = float("inf")

#: Bisection runs at most this many rounds; the bracket width then reaches
#: 2**-200, far below double precision, so convergence is unconditional.
MAX_BISECT_ITER = 200

#: Default residual target for numerical inversion.
DEFAULT_INV_TOL = 1e-12


def _is_scalar(x) -> bool:
    return np.ndim(x) == 0


def ext_mul(a, b):
    """Product on [0, inf] with ``0 * inf = 0``.

    Elementwise on arrays; ordinary IEEE product except that a zero factor
    wins against infinity.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a_arr * b_arr
    out = np.where((a_arr == 0.0) | (b_arr == 0.0), 0.0, out)
    if _is_scalar(a) and _is_scalar(b):
        return float(out)
    return out


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

    def __iter__(self):
        return iter(self.points.tolist())

    @property
    def interior(self) -> np.ndarray:
        """Points with 0 < x < 1."""
        return self.points[1:-1]


def make_grid(n: int) -> Grid:
    """Uniform grid with n+1 points; endpoints are exactly 0.0 and 1.0.

    Exact endpoints matter: the discontinuous canonical classes live
    precisely on the boundary of the unit square, so it must be sampled
    without offset.
    """
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


def interval_at(points, w) -> tuple[float, float] | None:
    """Grid interval (points[i], points[i+1]) of a first_witness index into np.diff."""
    return None if w is None else (float(points[w[0]]), float(points[w[0] + 1]))


def bisect_increasing(fn, y, tol: float = DEFAULT_INV_TOL, lo: float = 0.0, hi: float = 1.0):
    """Solve fn(x) = y on [lo, hi] for a nondecreasing elementwise fn.

    Accepts scalar or array ``y``; the loop runs until every element
    satisfies ``|fn(x) - y| <= tol`` or MAX_BISECT_ITER rounds elapse.
    Values hitting an endpoint image exactly are returned as that endpoint,
    which keeps inverses exact where the function may have zero slope.

    Raises DomainError if some y lies outside [fn(lo) - tol, fn(hi) + tol].
    """
    scalar = _is_scalar(y)
    y_arr = np.asarray(y, dtype=float)
    if y_arr.size == 0:
        return y_arr.copy()

    f_lo = np.asarray(fn(np.full(y_arr.shape, lo)), dtype=float)
    f_hi = np.asarray(fn(np.full(y_arr.shape, hi)), dtype=float)
    below = y_arr < f_lo - tol
    above = y_arr > f_hi + tol
    if bool(np.any(below)) or bool(np.any(above)):
        bad = y_arr[below | above].ravel()[0]
        raise DomainError(
            f"target {bad!r} is not bracketed by [{lo}, {hi}] (no solution within tol)"
        )

    at_lo = y_arr == f_lo
    at_hi = y_arr == f_hi

    lo_arr = np.full(y_arr.shape, lo, dtype=float)
    hi_arr = np.full(y_arr.shape, hi, dtype=float)
    mid = 0.5 * (lo_arr + hi_arr)
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo_arr + hi_arr)
        f_mid = np.asarray(fn(mid), dtype=float)
        resid = np.abs(f_mid - y_arr)
        if float(np.max(np.where(at_lo | at_hi, 0.0, resid))) <= tol:
            break
        go_up = f_mid <= y_arr
        lo_arr = np.where(go_up, mid, lo_arr)
        hi_arr = np.where(go_up, hi_arr, mid)

    out = np.where(at_lo, lo, np.where(at_hi, hi, mid))
    return float(out) if scalar else out


def invert_monotone(f, y, tol: float = DEFAULT_INV_TOL):
    """Inverse of a unit-interval function declared a continuous bijection.

    ``f`` is any object with ``evaluator``/``inverse``/``continuous_bijection``
    attributes (a UnitFunction). A closed-form inverse is used when present
    (and ``tol`` is then ignored); otherwise the value is located by
    bisection on [0, 1].
    """
    inverse = getattr(f, "inverse", None)
    if inverse is not None:
        out = inverse(np.asarray(y, dtype=float))
        return float(out) if _is_scalar(y) else np.asarray(out, dtype=float)
    if not getattr(f, "continuous_bijection", False):
        raise ContractError(
            "invert_monotone requires a function declared continuous_bijection"
        )
    return bisect_increasing(f.evaluator, y, tol=tol)
