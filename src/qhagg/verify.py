"""Numerical verification and classification.

Everything here is evidence on a grid: a passing check certifies the
property at the sampled points within the stated tolerance, nothing more.
Verdicts therefore always record the grid resolution and tolerance used.
Functions designed to defeat sampling are out of scope.

The central predicate is the scaling law

    A(lam*x, lam*y) = phi_inv( psi(lam) * phi(A(x, y)) )

for a scaling function psi on [0,1] and a continuous increasing bijection
phi: [0,1] -> [0,b], b possibly infinite (the product is then taken with
the 0*inf = 0 convention). The admissible psi are exactly the monotone
multiplicative functions on [0,1]: the powers x^c and the two step
indicators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import AggregationFunction, UnitFunction, identity, power_function
from .construct import boundary_formula, flat_formula, triple_of
from .errors import ContractError, DomainError
from .exprparse import eval_expr, parse_expr
from .numerics import (Grid, default_grid, distinct, elementwise, first_fall, first_witness,
                       inverse_evaluator, make_grid, pinned_inverse, tolerance)

__all__ = [
    "PsiSpec",
    "PhiSpec",
    "AggregationReport",
    "ResidualReport",
    "MultiplicativeReport",
    "DiagonalReport",
    "PsiRecovery",
    "ClassificationReport",
    "CLASS1",
    "CLASS2",
    "CLASS3",
    "NOT_QH",
    "check_aggregation",
    "check_quasi_homogeneity",
    "check_multiplicative",
    "check_homogeneous_order",
    "recover_psi",
    "diagonal_bijection_check",
    "classify",
    "canonical_pair",
    "fit_power_exponent",
]


# ------------------------------------------------------------------- psi

#: the two step indicators, by kind; the power kind is ``power_function(c)``
_STEPS = {
    "step0": lambda x: np.where(x > 0.0, 1.0, 0.0),
    "step1": lambda x: np.where(x == 1.0, 1.0, 0.0),
}


@dataclass(frozen=True)
class PsiSpec:
    """One of the three admissible scaling functions.

    power : psi(x) = x^c by ``power_function(c)``, which checks c
    step0 : 0 at x = 0, 1 on (0, 1]   (step at zero)
    step1 : 0 on [0, 1), 1 at x = 1   (step at one)

    Each variant is increasing, multiplicative and fixes psi(0)=0,
    psi(1)=1.
    """

    kind: str
    c: float = 1.0

    def __post_init__(self):
        if self.kind == "power":
            power_function(self.c)
        elif self.kind not in _STEPS:
            raise DomainError(f"unknown psi kind {self.kind!r}")

    @staticmethod
    def power(c: float) -> "PsiSpec":
        return PsiSpec("power", float(c))

    @staticmethod
    def step_at_zero() -> "PsiSpec":
        return PsiSpec("step0")

    @staticmethod
    def step_at_one() -> "PsiSpec":
        return PsiSpec("step1")

    def __call__(self, lam):
        ev = power_function(self.c).evaluator if self.kind == "power" else _STEPS[self.kind]
        return elementwise(ev(np.asarray(lam, dtype=float)), lam)

    def describe(self) -> str:
        if self.kind == "power":
            return f"power:c={self.c:g}"
        return self.kind


# ------------------------------------------------------------------- phi


@dataclass(frozen=True, eq=False)
class PhiSpec:
    """A continuous increasing bijection [0, 1] -> [0, b], phi(0) = 0.

    ``b`` may be ``inf``; the inverse is then total on [0, inf] with
    phi_inv(inf) = 1. The checks read phi on [0, 1] alike for every
    spelling.
    """

    b: float
    evaluator: Callable
    inverse: Callable
    name: str = "phi"

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError(f"phi must have positive codomain endpoint, got b={self.b}")

    def __call__(self, x):
        return elementwise(self.evaluator(np.asarray(x, dtype=float)), x)

    def invert(self, y):
        return elementwise(self.inverse(np.asarray(y, dtype=float)), y)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity() -> "PhiSpec":
        return PhiSpec.from_unit_function(identity())

    @staticmethod
    def from_unit_function(u: UnitFunction) -> "PhiSpec":
        """Use a declared continuous bijection of [0, 1] directly (b = 1), with
        the one inverse u keeps (``u.invert``), which ``inverse_of`` shares."""
        if not u.continuous_bijection:
            raise ContractError(
                f"phi must be a declared continuous bijection, got {u!r}")
        return PhiSpec(b=1.0, evaluator=u.evaluator, inverse=u.invert, name=u.name)

    @staticmethod
    def power(c: float) -> "PhiSpec":
        return PhiSpec.from_unit_function(power_function(c))

    @staticmethod
    def inverse_of(u: UnitFunction, c: float = 1.0) -> "PhiSpec":
        """phi(x) = (u_inv(x))^c for a declared bijection u (b = 1).

        The canonical scaling pair of a bijective-diagonal function is
        psi = power(c), phi = (diagonal_inv)^c; with c = 1 this is the
        normalized pair (psi = id, phi = diagonal_inv). phi is p o u_inv and
        phi_inv is u o p_inv, where p is ``power_function(c)``, the one home
        of x^c, its inverse and the exponent rules, or ``identity()`` for
        c = 1, which computes no power pass. phi_inv gives NaN for a target
        below 0 or NaN, for every c and u, and never reads u there. u_inv is
        the one inverse u keeps (``u.invert``), so every PhiSpec of one u,
        whatever its c, shares one root memo.
        """
        if not u.continuous_bijection:
            raise ContractError(
                f"inverse_of needs a declared continuous bijection, got {u!r}")
        p = identity() if c == 1.0 else power_function(c)

        def inverse(y, ue=u.evaluator, pi=p.inverse):
            # one reduction: a sweep's targets, all >= 0, take no mask pass
            if not y.size or y.min() >= 0.0:
                return ue(pi(y))
            keep = y >= 0.0  # False at NaN too, so u never reads those lanes
            out = np.full(y.shape, np.nan)
            out[keep] = ue(pi(y[keep]))
            return out

        return PhiSpec(b=1.0, evaluator=lambda x, pe=p.evaluator, ui=u.invert: pe(ui(x)),
                       inverse=inverse, name=p.name.replace("x", f"({u.name})^-1", 1))

    @staticmethod
    def from_expr(text: str, *, b: float | None = None,
                  grid: Grid | None = None) -> "PhiSpec":
        """Expression-backed phi, validated eagerly on the grid.

        The expression must satisfy phi(0) = 0 exactly and increase
        strictly. ``b`` is None or inf. With None, b is the expression's
        value at 1. With inf, the expression is read on [0, 1) and phi(1) is
        the point at infinity, and phi_inv(inf) = 1. The inverse is the
        expression's closed form when it has one that
        ``numerics.pinned_inverse`` accepts. Otherwise it is bisection.
        """
        unbounded = b is not None
        if unbounded and b != float("inf"):
            raise DomainError(f"phi expression {text!r}: b must be None or inf, got {b!r}")
        expr = parse_expr(text)
        g = grid or default_grid()
        pts = g.points
        sample_pts = pts[:-1] if unbounded else pts
        vals = np.asarray(eval_expr(expr, sample_pts), dtype=float)
        if vals[0] != 0.0:
            raise ContractError(
                f"phi expression {text!r}: phi(0) must be 0, got {float(vals[0])!r}")
        w = first_fall(sample_pts, vals, strict=True)
        if w is not None:
            raise ContractError(
                f"phi expression {text!r} is not strictly increasing on ({w[0]!r}, {w[1]!r})")

        if unbounded:
            def evaluator(x, e=expr):
                x = np.asarray(x, dtype=float)
                inner = np.asarray(eval_expr(e, np.where(x == 1.0, 0.0, x)), dtype=float)
                return np.where(x == 1.0, np.inf, inner)
        else:
            def evaluator(x, e=expr):
                return np.asarray(eval_expr(e, x), dtype=float)

        u = UnitFunction(evaluator, inverse=pinned_inverse(expr.inverse, evaluator))
        return PhiSpec(b=b if unbounded else float(vals[-1]), evaluator=evaluator,
                       inverse=inverse_evaluator(u), name=text)


# ----------------------------------------------------------------- reports


@dataclass(frozen=True, kw_only=True)
class _Report:
    """Grid evidence: a witness and its reason, on a grid n at tolerance tol."""

    witness: tuple | None = None
    reason: str = ""
    grid_n: int = 0
    tol: float = 0.0


@dataclass(frozen=True)
class AggregationReport(_Report):
    """Boundary values, range and monotonicity of A on the grid; witness: the first violation."""

    passed: bool
    boundary_ok: bool
    monotone_ok: bool
    range_ok: bool
    max_violation: float

    def __str__(self):
        lines = [
            f"boundary A(0,0)=0 and A(1,1)=1: {'ok' if self.boundary_ok else 'FAIL'}",
            f"values within [0,1]: {'ok' if self.range_ok else 'FAIL'}",
            f"nondecreasing in each argument: {'ok' if self.monotone_ok else 'FAIL'}",
        ]
        if not self.passed:
            lines.append(f"first violation: {self.reason}")
        lines.append(f"max violation {self.max_violation!r} "
                     f"(grid n={self.grid_n}, tol={self.tol:g})")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResidualReport(_Report):
    """Max-residual sweep result; witness is the argmax point."""

    passed: bool
    max_residual: float
    label: str = ""

    def __str__(self):
        head = f"{self.label}: " if self.label else ""
        return (f"{head}max residual {self.max_residual!r} at {self.witness} "
                f"(grid n={self.grid_n}, tol={self.tol:g}) -> "
                f"{'pass' if self.passed else 'FAIL'}")


@dataclass(frozen=True)
class MultiplicativeReport(_Report):
    """psi(lam*x) = psi(lam)*psi(x) on grid pairs; witness: the first failing (lam, x)."""

    passed: bool
    max_residual: float

    def __str__(self):
        text = (f"multiplicativity psi(lam*x) = psi(lam)*psi(x): max residual "
                f"{self.max_residual!r} (grid n={self.grid_n}, tol={self.tol:g}) -> "
                f"{'pass' if self.passed else 'FAIL'}")
        return text if self.passed else f"{text}\nfirst violation: {self.reason}"


@dataclass(frozen=True)
class DiagonalReport(_Report):
    """Endpoints, strict increase and the largest step of a sampled diagonal section."""

    passed: bool
    endpoints_ok: bool
    strictly_increasing_ok: bool
    continuity_ok: bool
    max_jump: float
    max_jump_at: tuple

    def __str__(self):
        text = (
            f"diagonal bijection check (grid n={self.grid_n}, tol={self.tol:g}): "
            f"endpoints={'ok' if self.endpoints_ok else 'FAIL'}, "
            f"strict increase={'ok' if self.strictly_increasing_ok else 'FAIL'}, "
            f"continuity heuristic={'ok' if self.continuity_ok else 'FAIL'} "
            f"(max jump {self.max_jump!r} on {self.max_jump_at})"
        )
        return text if self.passed else f"{text}\nfirst violation: {self.reason}"


# ------------------------------------------------------------------ checks


def check_aggregation(A: AggregationFunction, grid: Grid | None = None,
                      tol: float = 1e-9) -> AggregationReport:
    """Boundary values, range, and monotonicity in each argument on the grid.

    Failures carry the first witness pair in deterministic grid order
    (x-direction violations scanned before y-direction).
    """
    tol = tolerance(tol)
    g = grid or default_grid()
    return _aggregation_report(_sample(A.evaluator, g.points), g, tol)


def _sample(fn, p) -> np.ndarray:
    """fn on the base grid: ``V[i, j] = fn(p[i], p[j])``, always (n+1, n+1),
    even where fn returns a constant or a single broadcast axis."""
    return np.broadcast_to(np.asarray(fn(p[:, None], p[None, :]), dtype=float),
                           (len(p), len(p)))


def _aggregation_report(V: np.ndarray, g: Grid, tol: float) -> AggregationReport:
    """The check of ``check_aggregation`` on a sample V of the base grid.

    A passing sample costs one temporary of its size at a time: each
    difference is dropped once its minimum is read, and masks are built
    only for a witness. ``0.0 - x`` rather than ``-x``, so that no -0.0
    reaches ``max_violation``.
    """
    p = g.points
    dev00 = abs(float(V[0, 0]))
    dev11 = abs(float(V[-1, -1]) - 1.0)
    boundary_ok = dev00 <= tol and dev11 <= tol

    range_excess = max(float(np.max(V)) - 1.0, 0.0 - float(np.min(V)))
    range_ok = range_excess <= tol

    worst_decrease = max(0.0 - float(np.min(np.diff(V, axis=0), initial=0.0)),
                         0.0 - float(np.min(np.diff(V, axis=1), initial=0.0)))
    monotone_ok = worst_decrease <= tol

    def at(i, j):
        return (float(p[i]), float(p[j]), float(V[i, j]))

    witness = None
    reason = ""
    if not boundary_ok:
        k, want = (0, 0) if dev00 > tol else (-1, 1)
        witness = (at(k, k),)
        reason = f"A({want},{want})={witness[0][2]!r}, expected {want}"
    elif not range_ok:
        witness = (at(*first_witness(V, np.maximum(V - 1.0, -V) > tol)),)
        reason = "A({!r},{!r})={!r} outside [0,1]".format(*witness[0])
    elif not monotone_ok:
        # the whole x-direction is scanned before the y-direction
        dx, dy = np.diff(V, axis=0), np.diff(V, axis=1)
        w = first_witness(dx, dx < -tol)
        axis, (i, j) = ("x", w) if w is not None else ("y", first_witness(dy, dy < -tol))
        witness = (at(i, j), at(i + 1, j) if axis == "x" else at(i, j + 1))
        reason = "decreasing in {}: A({!r},{!r})={!r} < A({!r},{!r})={!r}".format(
            axis, *witness[1], *witness[0])

    # a non-finite sample is a range violation of unbounded size
    max_violation = (max(dev00, dev11, max(range_excess, 0.0), max(worst_decrease, 0.0))
                     if np.isfinite(V).all() else np.inf)
    passed = boundary_ok and range_ok and monotone_ok
    return AggregationReport(passed=passed, boundary_ok=boundary_ok,
                             monotone_ok=monotone_ok, range_ok=range_ok,
                             max_violation=max_violation, witness=witness,
                             reason=reason, grid_n=g.n, tol=tol)


def check_quasi_homogeneity(A: AggregationFunction, phi: PhiSpec, psi: PsiSpec,
                            grid: Grid | None = None, tol: float = 1e-9) -> ResidualReport:
    """Max residual of the scaling law over the grid cubed.

    residual(lam, x, y) = |A(lam x, lam y) - phi_inv(psi(lam) * phi(A(x, y)))|

    phi is read at A(x, y) clipped to [0, 1], its domain; a NaN stays NaN
    through phi and phi_inv and is reported with its witness. ``tol``
    holds for every spelling of phi: a numeric inverse's roots lie within
    2^-44 of the true ones. Each lam row takes one of three rules:
    a row whose multiplier psi(lam) is exactly 1 takes A(x, y) itself,
    never the round trip phi_inv(phi(A(x, y))): that identity is a contract
    of phi, checked separately, and inverting would only add noise to the
    residual of the scaling law. A row whose multiplier is exactly 0 takes
    phi_inv(0), inverted on one lane; so a step psi never inverts phi on
    the cube. Any other row inverts phi once per distinct value of A on
    the base grid.
    """
    tol = tolerance(tol)
    g = grid or default_grid()
    return _sweep(A.evaluator, _scaling_rhs(phi, psi, _sample(A.evaluator, g.points)), g, tol,
                  f"quasi-homogeneity psi={psi.describe()} phi={phi.name}")


def _phi_on_domain(phi: PhiSpec, v: np.ndarray) -> np.ndarray:
    """phi(clip(v, 0, 1)), with NaN lanes kept NaN and never passed to phi."""
    v = np.clip(v, 0.0, 1.0)
    nan = np.isnan(v)
    return np.where(nan, np.nan, phi.evaluator(np.where(nan, 0.0, v)))


def _scaling_rhs(phi: PhiSpec, psi: PsiSpec, V: np.ndarray):
    """``expected(lam) = phi_inv(psi(lam) * phi(V))`` by the row rule of
    ``check_quasi_homogeneity``.

    phi_inv(0) is computed once, here; the distinct values of V, and phi
    of them, once on the first chunk with a multiplier strictly between 0
    and 1, so a step psi never sorts them. psi is nondecreasing, so in a
    chunk the 0-rows form a prefix and the 1-rows a suffix.
    """
    zero = elementwise(phi.inverse(np.zeros(1)), np.zeros(1))

    @functools.cache
    def phi_of_base():
        w, at = distinct(V.ravel())
        return _phi_on_domain(phi, w), at

    def expected(L):
        S = np.asarray(psi(L[:, 0, 0]), dtype=float)
        z, u = np.searchsorted(S, 0.0, side="right"), np.searchsorted(S, 1.0)
        if z < u:
            w, at = phi_of_base()
            # invert before the slab is allocated, so it never coexists with
            # phi_inv's temporaries; every multiplier here lies in (0, 1), so
            # no zero meets an infinite phi
            T = S[z:u, None] * w[None, :]
            inv = elementwise(phi.inverse(T), T)
            del T
        Y = np.empty((len(S), *V.shape))
        Y[:z] = zero
        if z < u:
            # mode="clip" writes straight into Y; the default "raise" buffers
            # a copy of the output first (every index in ``at`` is valid)
            np.take(inv, at, axis=1, out=Y[z:u].reshape(u - z, V.size), mode="clip")
        Y[u:] = V
        return Y

    return expected


#: Lanes per chunk of the lam sweep: 2^17, a 1 MiB float64 slab. A chunk
#: is the unit of ``expected``, and so of the inversions behind it: one
#: call per chunk, which solves each distinct target of the chunk once.
#: A chunk holds at least one lam row, so from n = 362 on, where a row
#: outgrows the budget, the slab grows as O(n^2), never as O(n^3).
SWEEP_CHUNK_LANES = 1 << 17

#: Lanes per call of the evaluator inside a chunk: half a chunk, 2^16
#: (512 KiB per float64 temporary). A tile is a block of x-lines of the
#: chunk, at least one, so the evaluator's temporaries stay in a core's L2
#: cache whatever the chunk holds. Derived from the chunk budget, not tuned
#: on its own: the evaluator's temporaries then never outweigh the slab.
SWEEP_TILE_LANES = SWEEP_CHUNK_LANES // 2


def _spread(total: int, width: int):
    """``ceil(total / width)`` consecutive ranges covering range(total),
    each at most ``width`` long (at least one) and differing by at most one."""
    parts = -(-total // max(1, width))
    return [(c * total // parts, (c + 1) * total // parts) for c in range(parts)]


def _sweep(fn, expected, g: Grid, tol: float, label: str = "") -> ResidualReport:
    """Max of ``|fn(lam x, lam y) - expected(lam)|`` over the grid cubed.

    ``expected`` maps a column of lam values, shaped (rows, 1, 1), to the
    expected slab of the cube: a fresh, full (rows, n+1, n+1) array, which
    the sweep overwrites with the residual. ``fn``'s output is only read;
    it may be a broadcast or read-only view.
    The sweep has two levels. The cube is streamed in lam-major chunks of
    at most SWEEP_CHUNK_LANES lanes whenever one lam row fits, with the
    rows spread evenly, so chunk sizes differ by at most one row and no
    short tail chunk pays for a whole inversion call; ``expected`` runs
    once per chunk. Inside a chunk, ``fn`` runs on blocks of x-lines of at
    most SWEEP_TILE_LANES lanes, also spread evenly, and each block's
    residual is written into its part of the slab before the next block
    is evaluated. The witness is the first argmax in C order, as over the
    whole cube: a chunk is scanned once all of its blocks are written, its
    maximum replaces the running one only when strictly larger, and a NaN
    maximum wins and ends the scan. Every evaluator, numeric inversions
    included, gives the same report for any chunking and tiling.
    """
    p = g.points
    n1 = len(p)
    max_res, witness = -1.0, None
    for k0, k1 in _spread(n1, SWEEP_CHUNK_LANES // n1 ** 2):
        L = p[k0:k1, None, None]
        resid = expected(L)
        Ly = L * p[None, None, :]
        for i0, i1 in _spread(n1, SWEEP_TILE_LANES // ((k1 - k0) * n1)):
            lhs = np.asarray(fn(L * p[None, i0:i1, None], Ly), dtype=float)
            part = resid[:, i0:i1, :]
            np.subtract(lhs, part, out=part)
            np.abs(part, out=part)
            # so that lhs never coexists with the next tile's temporaries
            del lhs, part
        k, i, j = np.unravel_index(int(np.argmax(resid)), resid.shape)
        chunk_max = float(resid[k, i, j])
        del resid
        if chunk_max > max_res or np.isnan(chunk_max):
            max_res, witness = chunk_max, (float(p[k0 + k]), float(p[i]), float(p[j]))
            if np.isnan(chunk_max):
                break
    return ResidualReport(passed=max_res <= tol, max_residual=max_res, witness=witness,
                          grid_n=g.n, tol=tol, label=label)


def check_multiplicative(psi, grid: Grid | None = None,
                         tol: float = 1e-12) -> MultiplicativeReport:
    """Verify psi(lam * x) = psi(lam) * psi(x) over all grid pairs.

    Accepts a PsiSpec, a UnitFunction, or any elementwise callable.
    """
    tol = tolerance(tol)
    g = grid or default_grid()
    p = g.points
    P = p[:, None] * p[None, :]
    F = elementwise(psi(p), p)
    lhs = elementwise(psi(P), P)
    rhs = F[:, None] * F[None, :]
    resid = np.abs(lhs - rhs)
    w = first_witness(resid, resid > tol)
    witness = None if w is None else (float(p[w[0]]), float(p[w[1]]))
    reason = "" if w is None else "psi({0!r}*{1!r})={2!r} != psi({0!r})*psi({1!r})={3!r}".format(
        *witness, float(lhs[w]), float(rhs[w]))
    return MultiplicativeReport(passed=w is None, max_residual=float(np.max(resid)),
                                witness=witness, reason=reason, grid_n=g.n, tol=tol)


def check_homogeneous_order(F, k: float, grid: Grid | None = None,
                            tol: float = 1e-6) -> ResidualReport:
    """Verify F(lam x, lam y) = lam^k F(x, y) over the grid cubed.

    ``F`` is an AggregationFunction or any elementwise bivariate callable
    (for example a composite like diagonal_inv o A); lam^k is ``power_function(k)``.
    """
    tol = tolerance(tol)
    p, g = power_function(k), grid or default_grid()
    base = _sample(F, g.points)
    return _sweep(F, lambda L: p.evaluator(L) * base, g, tol, f"homogeneity of order {k:g}")


# ------------------------------------------------------------ psi recovery


def fit_power_exponent(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares exponent of y = x^c on log-log axes (no intercept).

    Returns (c, max absolute deviation of x^c from y on the given points).
    All inputs must be positive.
    """
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    denom = float(np.dot(lx, lx))
    if denom == 0.0:
        raise DomainError("cannot fit an exponent on the point x=1 alone")
    c = float(np.dot(lx, ly) / denom)
    resid = float(np.max(np.abs(np.power(xs, c) - ys)))
    return c, resid


#: A power fit reads lam in [0.1, 0.9] only (the endpoints are forced and
#: the log fit is singular at 0). It accepts y = x^c when x^c lies within
#: POWER_FIT_TOL of every sample and ``power_function`` accepts c.
POWER_FIT_TOL = 1e-6


def _fit_window(p: np.ndarray) -> np.ndarray:
    return (p >= 0.1) & (p <= 0.9)


def _power_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, str]:
    """The power-fit rule of psi recovery and of section labels:
    (c, residual, why not), where ``why not`` is "" for an accepted fit."""
    c, resid = fit_power_exponent(xs, ys)
    if not resid <= POWER_FIT_TOL:
        return c, resid, f"power fit residual {resid:g} above {POWER_FIT_TOL:g}"
    try:
        power_function(c)
    except DomainError as e:
        return c, resid, str(e)
    return c, resid, ""


@dataclass(frozen=True)
class PsiRecovery:
    """psi sampled on the grid's lam, its fitted form (None if no rule fits) and why."""

    lam: np.ndarray
    samples: np.ndarray
    fitted: PsiSpec | None
    max_fit_residual: float
    note: str
    grid_n: int

    def __str__(self):
        if self.fitted is None:
            return f"psi recovery: no fit ({self.note})"
        return (f"psi recovery: {self.fitted.describe()} "
                f"(max fit residual {self.max_fit_residual!r})")


def recover_psi(A: AggregationFunction, phi: PhiSpec,
                grid: Grid | None = None) -> PsiRecovery:
    """Sample psi(lam) = phi(A(lam, lam)) / phi(1) and fit its form.

    For unbounded phi the ratio is taken pointwise with the 1/inf = 0
    convention: finite phi-values over phi(1) = inf give 0, and the
    infinite value itself gives 1. The fit follows the rule of POWER_FIT_TOL;
    an ambiguous fit or a NaN sample gives no fit, never a forced one.
    """
    g = grid or default_grid()
    p = g.points
    W = _phi_on_domain(phi, A(p, p))
    if np.isinf(phi.b):
        samples = np.where(np.isnan(W), np.nan, np.isinf(W).astype(float))
    else:
        samples = W / float(phi.b)

    mask = _fit_window(p)
    s = samples[mask]
    fitted, resid = None, float("nan")
    if s.size == 0:
        note = "grid too coarse for an interior fit"
    elif np.isnan(s).any():
        note = f"NaN diagonal at lam={float(p[mask][np.isnan(s)][0])!r}"
    elif np.all(s == 0.0):
        fitted, resid, note = PsiSpec.step_at_one(), 0.0, "interior samples constant 0"
    elif np.all(s == 1.0):
        fitted, resid, note = PsiSpec.step_at_zero(), 0.0, "interior samples constant 1"
    elif np.any(s <= 0.0):
        note = "mixed zero and positive interior samples"
    else:
        c, resid, note = _power_fit(p[mask], s)
        if not note:
            fitted, note = PsiSpec.power(c), "power fit"
    return PsiRecovery(p, samples, fitted, resid, note, g.n)


# ------------------------------------------------------- diagonal and class


def diagonal_bijection_check(delta: UnitFunction, grid: Grid | None = None,
                             tol: float = 1e-9) -> DiagonalReport:
    """Grid evidence that a diagonal section is an increasing bijection.

    Endpoints within ``tol``, strictly increasing samples, and a largest
    adjacent jump at most 10/n. The jump bound is a continuity heuristic,
    not a proof: it admits Lipschitz-like sections while catching unit
    jumps. A declared continuous_bijection flag on the input is evidence
    enough to skip nothing here; checks always run.
    """
    tol = tolerance(tol)
    g = grid or default_grid()
    return _diagonal_report(delta(g.points), g, tol)


def _diagonal_report(d: np.ndarray, g: Grid, tol: float) -> DiagonalReport:
    """The check of ``diagonal_bijection_check`` on a sample d of the diagonal."""
    p = g.points
    endpoints_ok = abs(float(d[0])) <= tol and abs(float(d[-1]) - 1.0) <= tol
    first_flat = first_fall(p, d, strict=True)
    strict_ok = first_flat is None
    diffs = np.diff(d)
    jmax = int(np.argmax(diffs))
    max_jump = float(diffs[jmax])
    max_jump_at = (float(p[jmax]), float(p[jmax + 1]))
    continuity_ok = max_jump <= 10.0 / g.n

    witness, reason = None, ""
    if not strict_ok:
        witness = first_flat
        why = "diagonal is not strictly increasing"
    elif not endpoints_ok:
        witness = (0.0, 1.0, float(d[0]), float(d[-1]))
        why = "diagonal endpoints are not (0, 1)"
    elif not continuity_ok:
        witness = (*max_jump_at, float(d[jmax]), float(d[jmax + 1]))
        why = "diagonal jumps beyond the continuity heuristic"
    if witness is not None:
        x1, x2, d1, d2 = witness
        reason = f"{why}: delta({x1!r})={d1!r}, delta({x2!r})={d2!r}"

    return DiagonalReport(passed=endpoints_ok and strict_ok and continuity_ok,
                          endpoints_ok=endpoints_ok,
                          strictly_increasing_ok=strict_ok,
                          continuity_ok=continuity_ok,
                          max_jump=max_jump, max_jump_at=max_jump_at,
                          witness=witness, reason=reason, grid_n=g.n, tol=tol)


CLASS1 = "Class1"
CLASS2 = "Class2"
CLASS3 = "Class3"
NOT_QH = "NotQuasiHomogeneous"


@dataclass(frozen=True)
class ClassificationReport(_Report):
    """Verdict plus recovered parameters or a counterexample witness.

    witness is present exactly when the verdict is NotQuasiHomogeneous; it
    is a (lam, x, y, residual) tuple for scaling-law and class-formula
    failures, and for diagonal failures (lam, x) name the offending
    adjacent diagonal points (y repeats x). ``reason`` says which check
    produced it. ``diagnostics`` holds per-check residual maxima.
    """

    verdict: str
    delta: UnitFunction | None = None
    alpha: float | None = None
    beta: float | None = None
    g: UnitFunction | None = None
    h: UnitFunction | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.verdict == NOT_QH) != (self.witness is not None):
            raise AssertionError(
                "witness must be present exactly for NotQuasiHomogeneous verdicts")

    #: diagnostics keys that measure a residual against the tolerance
    #: (diagonal_max_jump is a gap measurement, not a violation)
    _RESIDUAL_KEYS = ("aggregation", "class2_formula", "class3_formula", "scaling_law")

    @property
    def is_quasi_homogeneous(self) -> bool:
        return self.verdict != NOT_QH

    @property
    def max_residual(self) -> float:
        vals = [self.diagnostics[k] for k in self._RESIDUAL_KEYS
                if k in self.diagnostics]
        return max(vals, default=0.0)

    def __str__(self):
        """Verdict line, ``reason:`` if any, then the diagnostics by key. A
        section is ``x^c (fitted)`` if the power-fit rule accepts it on
        make_grid(grid_n), else ``(sampled)``."""
        p = make_grid(max(self.grid_n, 1)).points
        xs = p[_fit_window(p)]

        def label(u):
            ys = u(xs)
            if xs.size and np.all(ys > 0.0):
                c, _, why_not = _power_fit(xs, ys)
                if not why_not:
                    return "x (fitted)" if abs(c - 1.0) < 1e-9 else f"x^{c:g} (fitted)"
            return "(sampled)"

        if self.verdict == CLASS1:
            head = f"{CLASS1} delta={label(self.delta)}"
        elif self.verdict == CLASS2:
            head = f"{CLASS2} alpha={self.alpha:g} beta={self.beta:g}"
        elif self.verdict == CLASS3:
            head = f"{CLASS3} g={label(self.g)} h={label(self.h)}"
        else:
            lam, x, y, res = self.witness
            head = f"{NOT_QH} witness=(lam={lam!r}, x={x!r}, y={y!r}, residual={res!r})"
        lines = [head, f"reason: {self.reason}"] if self.reason else [head]
        lines += [f"diagnostic {k}: {self.diagnostics[k]!r}" for k in sorted(self.diagnostics)]
        return "\n".join(lines)


def classify(A: AggregationFunction, grid: Grid | None = None,
             tol: float = 1e-6) -> ClassificationReport:
    """Decide which canonical class the function belongs to, or refute.

    Decision procedure, in order:

    1. Not an aggregation function on the grid: NotQuasiHomogeneous with
       the monotonicity/boundary witness.
    2. Diagonal constant 1 on interior points: read alpha = A(0,1),
       beta = A(1,0) and verify the flat-class formula everywhere.
    3. Diagonal constant 0 on interior points: read g = A(1,.), h = A(.,1)
       and verify the boundary-class formula everywhere.
    4. Otherwise the diagonal must be an increasing bijection and A must
       satisfy the scaling law with the normalized pair psi = id,
       phi = diagonal_inv, in forward form
       A(lam x, lam y) = diagonal(lam * diagonal_inv(A(x, y))). Its
       residual is reported as ``scaling_law``, in units of A.

    Branches 2 and 3 are mutually exclusive and both preclude a bijective
    diagonal, so at most one branch can succeed. Witnesses are reported in
    deterministic grid order. The verdict is evidence relative to the grid
    and tolerance recorded in the report. A is sampled once, on the base
    grid, and every check reads that sample, the diagonal included.

    ``delta`` is ``diagonal(A)``: A's declared diagonal when A has one
    (``AggregationFunction.diagonal``), else A's evaluator on (x, x).
    A Class-1 report's ``delta`` keeps the roots its inverse solved for the
    scaling law, up to ``numerics._MEMO_CAP`` of them (4 MiB), so that
    re-verifying ``canonical_pair(report)`` reuses them; they are freed
    with the report. Each call builds its own ``delta``.
    """
    tol = tolerance(tol)
    g = grid or default_grid()
    if g.n < 2:
        raise DomainError(
            "classification needs interior grid points; use a grid with n >= 2")
    p = g.points

    V = _sample(A.evaluator, p)
    agg = _aggregation_report(V, g, tol)
    diagnostics = {"aggregation": agg.max_violation}
    report = functools.partial(ClassificationReport, diagnostics=diagnostics, grid_n=g.n,
                               tol=tol)
    if not agg.passed:
        w = agg.witness[-1]
        return report(verdict=NOT_QH, witness=(1.0, w[0], w[1], agg.max_violation),
                      reason=f"not an aggregation function: {agg.reason}")

    def scaling_law(found, refuted):
        """None if A meets the scaling law with the canonical pair of the
        candidate report ``found``, else the refutation."""
        qh = _sweep(A.evaluator, _scaling_rhs(*canonical_pair(found), V), g, tol)
        diagnostics["scaling_law"] = qh.max_residual
        if not qh.passed:
            return report(verdict=NOT_QH, witness=(*qh.witness, qh.max_residual),
                          reason=refuted)
        return None

    t, d = triple_of(A), V.diagonal()
    if np.all(np.abs(d[1:-1] - 1.0) <= tol):
        alpha, beta = float(V[0, -1]), float(V[-1, 0])
        found, formula = report(verdict=CLASS2, alpha=alpha, beta=beta), flat_formula(alpha, beta)
        level, law, form = 1, "step-at-zero", "flat-class"
    elif np.all(np.abs(d[1:-1]) <= tol):
        found = report(verdict=CLASS3, g=t.g, h=t.h)
        # read on the grid only: g = A(1, .) and h = A(., 1) are V's last row and column
        formula = boundary_formula(lambda y: V[-1], lambda x: V[:, -1:])
        level, law, form = 0, "step-at-one", "boundary-class"
    else:
        dbc = _diagonal_report(d, g, tol)
        diagnostics["diagonal_max_jump"] = dbc.max_jump
        if not dbc.passed:
            x1, x2, d1, d2 = dbc.witness
            return report(verdict=NOT_QH, witness=(x1, x2, x2, abs(d2 - d1)), reason=dbc.reason)
        found = report(verdict=CLASS1, delta=t.f.declared(
            increasing=True, strictly_increasing=True, continuous_bijection=True))
        return scaling_law(found, "diagonal is bijective but the scaling law with "
                                   "psi = id, phi = diagonal_inv fails") or found

    key = f"{found.verdict.lower()}_formula"
    resid = np.abs(V - formula(p[:, None], p[None, :]))
    diagnostics[key] = float(np.max(resid))
    if diagnostics[key] <= tol:
        return found
    i, j = first_witness(resid, resid > tol)
    return (scaling_law(found, f"interior diagonal is {level} but the {law} scaling law fails")
            or report(verdict=NOT_QH, witness=(1.0, float(p[i]), float(p[j]), float(resid[i, j])),
                      reason=f"interior diagonal is {level} but the {form} formula fails"))


def canonical_pair(report: ClassificationReport) -> tuple[PhiSpec, PsiSpec]:
    """The class's canonical (phi, psi) for re-verifying the scaling law.

    Class 1 uses the normalized pair (diagonal_inv, identity power); the
    two discontinuous classes use any increasing bijection (identity here)
    with their step scaling. A Class-1 pair inverts the report's own
    ``delta``, whose one kept inverse ``classify`` already filled, so a
    re-verification on ``classify``'s grid refines no diagonal root again.
    """
    if report.verdict == CLASS1:
        return PhiSpec.inverse_of(report.delta), PsiSpec.power(1.0)
    if report.verdict == CLASS2:
        return PhiSpec.identity(), PsiSpec.step_at_zero()
    if report.verdict == CLASS3:
        return PhiSpec.identity(), PsiSpec.step_at_one()
    raise DomainError("no canonical scaling pair for a refuted function")
