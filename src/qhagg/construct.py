"""Builders for quasi-homogeneous aggregation functions.

Three construction routes:

* ``from_triple`` realizes the generator-triple formula

      A(x, y) = 0                        at (0, 0)
               f(y * f_inv(h(x / y)))    when x <= y, y != 0
               f(x * f_inv(g(y / x)))    when y <= x, x != 0

  (ties evaluate the x<=y branch; both branches agree on ties).
* ``class_flat`` builds the family that is 1 on (0,1]^2 with boundary
  constants alpha, beta.
* ``class_boundary`` builds the family that is 0 on [0,1)^2 with boundary
  sections g, h.

``triple_of`` recovers the canonical triple (diagonal and boundary
sections) from any aggregation function; whether that triple actually
regenerates the function is a classification question, not a construction
error.

The built-in catalog (``catalog_lookup``) names members of all three classes.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .algebra import AggregationFunction, UnitFunction, diagonal, identity, unit_function_from_expr
from .errors import ContractError, DomainError
from .numerics import Grid, default_grid, distinct, first_fall, first_witness, inverse_evaluator

__all__ = [
    "GeneratorTriple",
    "ConditionCheck",
    "TripleValidationReport",
    "validate_triple",
    "from_triple",
    "class_flat",
    "class_boundary",
    "triple_of",
    "catalog_lookup",
    "catalog_names",
    "catalog_describe",
]


@dataclass(frozen=True, eq=False)
class GeneratorTriple:
    """(f, g, h): an increasing bijection plus two increasing sections.

    Construction is permissive; ``validate_triple`` measures the actual
    conditions (endpoints, monotonicity, and the nonincreasing ratios
    f_inv(h(x))/x and f_inv(g(x))/x on (0, 1]) on a grid.
    """

    f: UnitFunction
    g: UnitFunction
    h: UnitFunction

    def __repr__(self):
        return f"GeneratorTriple(f={self.f.name}, g={self.g.name}, h={self.h.name})"


@dataclass(frozen=True)
class ConditionCheck:
    """One condition of ``validate_triple``: passed, or its witness and detail."""

    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        extra = f" witness={self.witness}" if self.witness is not None else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{extra}{detail}"


@dataclass(frozen=True)
class TripleValidationReport:
    """Every condition of a generator triple, measured on a grid n at tolerance tol."""

    conditions: tuple[ConditionCheck, ...]
    grid_n: int
    tol: float

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def __str__(self):
        lines = [str(c) for c in self.conditions]
        lines.append(f"triple: {'valid' if self.ok else 'INVALID'} "
                     f"(grid n={self.grid_n}, tol={self.tol:g})")
        return "\n".join(lines)


def validate_triple(t: GeneratorTriple, grid: Grid | None = None,
                    tol: float = 1e-9) -> TripleValidationReport:
    """Measure every sufficiency condition of the triple construction.

    Failures are data (each with a witness grid point), not exceptions.
    The nonincreasing-ratio conditions are read on (0, 1] only, as the ratio
    may diverge as x -> 0: at consecutive grid points, then, if those hold,
    at every ratio x/y, 0 < x <= y, at which the formula reads g and h.
    """
    g = grid or default_grid()
    p = g.points

    def endpoint(name, x, value, target):
        ok = abs(float(value) - target) <= tol
        return ConditionCheck(name, ok, None if ok else (x, float(value)))

    def check(name, w, detail=""):
        return ConditionCheck(name, w is None, None if w is None else w[:2], detail)

    fv = t.f(p)
    checks = [endpoint("f(0)=0", 0.0, fv[0], 0.0), endpoint("f(1)=1", 1.0, fv[-1], 1.0),
              check("f strictly increasing", first_fall(p, fv, strict=True))]
    f_bijective_evidence = all(c.passed for c in checks)

    for label, u in (("g", t.g), ("h", t.h)):
        uv = u(p)
        checks.append(endpoint(f"{label}(1)=1", 1.0, uv[-1], 1.0))
        checks.append(check(f"{label} increasing", first_fall(p, uv, tol=tol)))

    # ratio conditions need f_inv; without bijection evidence they are
    # reported failed rather than computed on a non-invertible f
    f_inv = inverse_evaluator(t.f) if f_bijective_evidence else None
    xs = p[1:]  # (0, 1]
    ts = distinct((xs[:, None] / xs)[np.triu_indices(xs.size)])[0]  # x/y, 0 < x <= y

    def rise(u, at):
        # a rise of the ratio is a fall of its negation, which is exact
        ratio = np.asarray(f_inv(np.clip(u(at), 0.0, 1.0)), dtype=float) / at
        return first_fall(at, -ratio, tol=tol)

    for label, u in (("h", t.h), ("g", t.g)):
        name = f"f_inv({label}(x))/x nonincreasing on (0,1]"
        if f_inv is None:
            checks.append(ConditionCheck(name, False, None, detail="not evaluated: "
                                         "f is not an increasing bijection on the grid"))
            continue
        w = rise(u, xs) or rise(u, ts)
        checks.append(check(name, w, "" if w is None else f"ratio rises {-w[2]!r} -> {-w[3]!r}"))

    return TripleValidationReport(tuple(checks), g.n, tol)


def from_triple(t: GeneratorTriple, *, validate: bool = True) -> AggregationFunction:
    """Aggregation function generated by the triple.

    By contract the result satisfies A(x, 1) = h(x), A(1, y) = g(y) and
    A(x, x) = f(x). With ``validate=False`` the raw formula is built even
    for invalid triples; that is how one demonstrates the ratio conditions
    are not vacuous (the raw formula then fails monotonicity). Validation
    runs ``validate_triple`` with its defaults.

    The result declares its diagonal, x -> f(x * f_inv(h(1))) and 0 at 0,
    which is the formula on (x, x) bit for bit and f for a valid triple;
    f_inv(h(1)) is solved on the first diagonal call, so building A
    evaluates no section. A lane whose f_inv root is NaN is NaN in A, and
    f is not called on it.
    """
    if validate:
        report = validate_triple(t)
        if not report.ok:
            raise ContractError(
                "invalid generator triple:\n" + str(report), report=report)

    f_ev, g_ev, h_ev = t.f.evaluator, t.g.evaluator, t.h.evaluator
    f_inv = inverse_evaluator(t.f, remember=True)

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # pick the branch first, so that f_inv runs once per lane and each
        # section only on its own lanes
        upper = (x <= y) & (y != 0.0)
        big, r = np.where(upper, y, x), np.where(upper, x, y)
        # the ratio, in place; only the (0, 0) lane has big = 0, and it
        # keeps r = 0 (masked out below)
        np.divide(r, big, out=r, where=big != 0.0)
        np.clip(r, 0.0, 1.0, out=r)
        # r becomes the section, branch by branch (a mask index copies)
        r[upper] = h_ev(r[upper])
        lower = ~upper
        r[lower] = g_ev(r[lower])
        np.clip(r, 0.0, 1.0, out=r)
        np.multiply(big, f_inv(r), out=big)
        return np.where((x == 0.0) & (y == 0.0), 0.0, f_of(big))

    def f_of(big):
        # f, except on lanes whose f_inv root is NaN: those stay NaN, a
        # witness for the checks, where an expression f would raise
        nan = np.isnan(big)
        if not nan.any():
            return f_ev(big)
        out = np.full(big.shape, np.nan)
        out[~nan] = f_ev(big[~nan])
        return out

    @functools.cache
    def scale():
        # x / x is exactly 1 for x != 0, so A(x, x) = f(x * scale()); a
        # lane's root depends on its target alone, so one root serves all;
        # t.h reads h(1) by the elementwise rule, so a scalar h is an array too
        return f_inv(np.clip(t.h(np.ones(1)), 0.0, 1.0))[0]

    def diag(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.0, 0.0, f_of(np.asarray(x * scale())))

    return AggregationFunction(
        evaluator=evaluate,
        provenance="triple-generated",
        name=f"triple(f={t.f.name}, g={t.g.name}, h={t.h.name})",
        diagonal=diag,
    )


def flat_formula(alpha: float, beta: float):
    """Evaluator of the flat class: 1 on (0,1]^2, alpha on x = 0, beta on y = 0."""

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.where((x > 0.0) & (y > 0.0), 1.0, np.where(x == 0.0, alpha, beta))
        return np.where((x == 0.0) & (y == 0.0), 0.0, out)

    return evaluate


def boundary_formula(g_ev, h_ev):
    """Evaluator of the boundary class: 0 on [0,1)^2, g on x = 1, h on y = 1."""

    def evaluate(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gy = np.where(y == 1.0, 1.0, g_ev(y))
        hx = h_ev(x)
        # h everywhere, then the x = 1 row, then the zero interior
        out = np.empty(np.broadcast_shapes(x.shape, gy.shape, np.shape(hx)))
        np.copyto(out, hx)
        np.copyto(out, gy, where=x == 1.0)
        np.copyto(out, 0.0, where=(x < 1.0) & (y < 1.0))
        return out

    return evaluate


def class_flat(alpha: float, beta: float) -> AggregationFunction:
    """The scaling-indifferent family: 1 on (0,1]^2, alpha/beta on the axes.

    Quasi-homogeneous with the step-at-zero scaling for every increasing
    bijection of [0, 1].
    """
    if not (0.0 <= alpha <= 1.0) or not (0.0 <= beta <= 1.0):
        raise DomainError(f"alpha and beta must lie in [0, 1], got ({alpha}, {beta})")
    return AggregationFunction(
        evaluator=flat_formula(float(alpha), float(beta)),
        provenance="class-2",
        name=f"flat(alpha={alpha:g}, beta={beta:g})",
    )


def class_boundary(g: UnitFunction, h: UnitFunction,
                   grid: Grid | None = None) -> AggregationFunction:
    """The boundary-supported family: 0 on [0,1)^2, sections g, h on the edges.

    Requires g, h declared increasing with g(1) = h(1) = 1; violations are
    rejected here (sampled on the grid), not deferred to later checks.
    """
    if not g.increasing or not h.increasing:
        raise ContractError("class_boundary requires g and h declared increasing")
    gd = grid or default_grid()
    for label, u in (("g", g), ("h", h)):
        vals = u(gd.points)
        end = float(vals[-1])
        if abs(end - 1.0) > 1e-12:
            raise ContractError(f"class_boundary requires {label}(1)=1, got {end!r}")
        w = first_fall(gd.points, vals)
        if w is not None:
            raise ContractError(f"class_boundary: {label} decreases on ({w[0]!r}, {w[1]!r})")
        if first_witness(vals, (vals < 0.0) | (vals > 1.0)) is not None:
            raise ContractError(f"class_boundary: {label} leaves [0, 1] on the grid")
    return AggregationFunction(
        evaluator=boundary_formula(g.evaluator, h.evaluator),
        provenance="class-3",
        name=f"boundary(g={g.name}, h={h.name})",
    )


def triple_of(A: AggregationFunction) -> GeneratorTriple:
    """Canonical triple of A: diagonal plus the two boundary sections.

    Never fails. f is ``diagonal(A)``, so A's declared diagonal when it has
    one, and carries no declared flags; g and h are declared
    increasing, as every section of an aggregation function is. For a
    function with a bijective diagonal generated by some triple, this
    recovers it (f = A(x,x), g = A(1, .), h = A(., 1)); otherwise
    classification decides what the sections mean.
    """
    a_ev = A.evaluator

    def g_eval(y):
        y = np.asarray(y, dtype=float)
        return a_ev(np.ones_like(y), y)

    def h_eval(x):
        x = np.asarray(x, dtype=float)
        return a_ev(x, np.ones_like(x))

    label = A.name or A.provenance
    return GeneratorTriple(
        f=diagonal(A),
        g=UnitFunction(evaluator=g_eval, increasing=True, name=f"{label}(1,.)"),
        h=UnitFunction(evaluator=h_eval, increasing=True, name=f"{label}(.,1)"),
    )


# ----------------------------------------------------------------- catalog


def _harmonic_min(x, y):
    # ties go to the min branch: 2x*x/(x+x) equals x only up to rounding,
    # and exact ties keep the 101-point monotonicity check at tolerance 0.
    # On [0, 1]^2, x < y implies x + y > 0; the one 0/0 lane, (0, 0), takes y.
    # Arrays, so that Python floats divide by numpy's rules: (0.0, 0.0) is a
    # NaN, not a ZeroDivisionError
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        harm = 2.0 * x * y / (x + y)
    return np.where(x < y, harm, y)


def _same(x):
    # the diagonal of an idempotent member, A(x, x) = x; a new array, never
    # x itself, since bisection samples a read-only table through it
    return np.array(x, dtype=float)


def _named(evaluator, name: str, diagonal=None) -> AggregationFunction:
    return AggregationFunction(evaluator, provenance=name, name=name, diagonal=diagonal)


def _build_drastic(params):
    ident = identity().evaluator
    return _named(boundary_formula(ident, ident), "drastic")


def _build_flat(params):
    try:
        alpha, beta = float(params["alpha"]), float(params["beta"])
    except (TypeError, ValueError):
        raise DomainError(f"flat needs numbers alpha and beta, got "
                          f"{params['alpha']!r} and {params['beta']!r}") from None
    return class_flat(alpha, beta)


def _build_boundary(params):
    # the expression is checked for range here, monotonicity by class_boundary
    g = unit_function_from_expr(params["g"]).declared(increasing=True)
    h = unit_function_from_expr(params["h"]).declared(increasing=True)
    return class_boundary(g, h)


_CATALOG = {
    "min": ("minimum of the two arguments", (), lambda params: _named(np.minimum, "min", _same)),
    "max": ("maximum of the two arguments", (), lambda params: _named(np.maximum, "max", _same)),
    "product": ("ordinary product x*y", (),
                lambda params: _named(lambda x, y: x * y, "product")),
    "drastic": ("0 when both arguments are below 1, else min", (), _build_drastic),
    "harmonic_min": ("harmonic mean below the diagonal, min above", (),
                     lambda params: _named(_harmonic_min, "harmonic_min", _same)),
    "flat": ("constant 1 on (0,1]^2 with boundary constants alpha, beta",
             ("alpha", "beta"), _build_flat),
    "boundary_only": ("0 on [0,1)^2 with boundary sections g, h",
                      ("g", "h"), _build_boundary),
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_describe() -> list[tuple[str, str, tuple[str, ...]]]:
    """(name, description, param keys) rows in stable order."""
    return [(name, desc, keys) for name, (desc, keys, _) in _CATALOG.items()]


def catalog_lookup(name: str, params: dict | None = None) -> AggregationFunction:
    """Named aggregation functions with public, CLI-facing identifiers."""
    if not isinstance(name, str) or name not in _CATALOG:
        raise DomainError(f"unknown catalog entry {name!r}; choose from {catalog_names()}")
    if not isinstance(params or {}, Mapping):
        raise DomainError(f"catalog params must be a mapping, got {params!r}")
    _, keys, builder = _CATALOG[name]
    params = dict(params or {})
    missing = [k for k in keys if k not in params]
    if missing:
        raise DomainError(f"catalog entry {name!r} requires params {missing}")
    extra = [k for k in params if k not in keys]
    if extra:
        raise DomainError(f"catalog entry {name!r} got unknown params {extra}")
    return builder(params)
