"""Core semantic types: unit-interval functions, aggregation functions,
diagonal sections, and the built-in catalog.

A UnitFunction carries *declared* structural flags next to its evaluator.
Declarations are contracts, not measurements: numerical checks (module
``verify``) establish or refute them on grids, and inversion refuses to run
on functions not declared continuous bijections.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import exprparse
from .errors import ContractError, DomainError
from .numerics import Grid, default_grid, elementwise, first_witness, interval_at, invert_monotone

__all__ = [
    "UnitFunction",
    "AggregationFunction",
    "identity",
    "power_function",
    "bounded_rational",
    "unit_function_from_expr",
    "aggregation_from_combiner",
    "COMBINERS",
    "diagonal",
    "catalog_lookup",
    "catalog_names",
    "catalog_describe",
]


@dataclass(frozen=True, eq=False)
class UnitFunction:
    """A scalar function on [0, 1] with declared structure.

    evaluator : elementwise callable [0,1] -> [0,1]
    increasing / strictly_increasing / continuous_bijection : declared flags
        (continuous_bijection implies fixed endpoints 0 and 1)
    inverse : optional closed-form inverse evaluator
    """

    evaluator: Callable
    increasing: bool = False
    strictly_increasing: bool = False
    continuous_bijection: bool = False
    inverse: Callable | None = None
    name: str = ""

    def __call__(self, x):
        return elementwise(self.evaluator(np.asarray(x, dtype=float)), x)

    def invert(self, y):
        """Preimage under this function; requires the bijection declaration.

        Uses the closed-form inverse when available, bisection otherwise.
        """
        return invert_monotone(self, y)

    def declared(self, **flags) -> "UnitFunction":
        """Copy with declaration flags re-established after external checks."""
        return dataclasses.replace(self, **flags)

    def __repr__(self):
        return f"UnitFunction({self.name or 'anonymous'})"


def identity() -> UnitFunction:
    return UnitFunction(
        evaluator=lambda x: np.asarray(x, dtype=float),
        increasing=True,
        strictly_increasing=True,
        continuous_bijection=True,
        inverse=lambda y: np.asarray(y, dtype=float),
        name="x",
    )


def power_function(c: float) -> UnitFunction:
    """x^c on [0, 1]; a continuous bijection for every c > 0."""
    if not c > 0:
        raise DomainError(f"power exponent must be positive, got {c}")
    inv_c = 1.0 / c
    return UnitFunction(
        evaluator=lambda x, c=c: np.power(x, c),
        increasing=True,
        strictly_increasing=True,
        continuous_bijection=True,
        inverse=lambda y, e=inv_c: np.power(y, e),
        name=f"x^{c:g}",
    )


def bounded_rational() -> UnitFunction:
    """2x/(1+x): a continuous bijection of [0, 1] with inverse y/(2-y)."""
    return UnitFunction(
        evaluator=lambda x: 2.0 * x / (1.0 + x),
        increasing=True,
        strictly_increasing=True,
        continuous_bijection=True,
        inverse=lambda y: y / (2.0 - y),
        name="2x/(1+x)",
    )


def _check_samples(name: str, values: np.ndarray, points: np.ndarray, *,
                   increasing: bool, strictly: bool, bijection: bool) -> None:
    w = first_witness(values, (values < 0.0) | (values > 1.0))
    if w is not None:
        raise ContractError(
            f"{name}: value {float(values[w])!r} at x={float(points[w])!r} "
            f"falls outside [0, 1]"
        )
    diffs = np.diff(values)
    for wanted, bad, claim in ((increasing or bijection, diffs < 0.0, "increasing but decreases"),
                               (strictly or bijection, diffs <= 0.0,
                                "strictly increasing but is flat")):
        w = interval_at(points, first_witness(diffs, bad)) if wanted else None
        if w is not None:
            raise ContractError(f"{name}: declared {claim} on ({w[0]!r}, {w[1]!r})")
    if bijection and (values[0] != 0.0 or values[-1] != 1.0):
        raise ContractError(
            f"{name}: declared continuous_bijection but endpoints are "
            f"({float(values[0])!r}, {float(values[-1])!r}), expected (0.0, 1.0)"
        )


def unit_function_from_expr(text: str, *, increasing: bool = False,
                            strictly_increasing: bool = False,
                            continuous_bijection: bool = False,
                            grid: Grid | None = None) -> UnitFunction:
    """Build a UnitFunction from expression text, validating eagerly.

    The expression is sampled on ``grid`` (default 101 points); range
    violations and violations of any declared flag are rejected with a
    witness point. Expression functions carry no closed-form inverse.
    """
    tree = exprparse.parse_expr(text)
    g = grid or default_grid()
    values = np.asarray(exprparse.eval_expr(tree, g.points), dtype=float)
    _check_samples(f"expression {text!r}", values, g.points,
                   increasing=increasing, strictly=strictly_increasing,
                   bijection=continuous_bijection)
    return UnitFunction(
        evaluator=lambda x, t=tree: exprparse.eval_expr(t, x),
        increasing=increasing or continuous_bijection,
        strictly_increasing=strictly_increasing or continuous_bijection,
        continuous_bijection=continuous_bijection,
        inverse=None,
        name=text,
    )


# ------------------------------------------------------------- aggregation


@dataclass(frozen=True, eq=False)
class AggregationFunction:
    """A bivariate evaluator on the unit square.

    The defining contract (A(0,0)=0, A(1,1)=1, nondecreasing in each
    argument) is checked, not assumed, for external inputs; see
    ``verify.check_aggregation``.
    """

    evaluator: Callable
    provenance: str
    name: str = ""

    def __call__(self, x, y):
        out = self.evaluator(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return elementwise(out, x, y)

    def __repr__(self):
        return f"AggregationFunction({self.name or self.provenance})"


def diagonal(A: AggregationFunction) -> UnitFunction:
    """The diagonal section x -> A(x, x).

    No declared flags are inherited; they must be re-established by checks
    (the diagonal of an aggregation function need not be a bijection).
    """
    return UnitFunction(
        evaluator=lambda x: A.evaluator(np.asarray(x, float), np.asarray(x, float)),
        name=f"diag({A.name or A.provenance})",
    )


COMBINERS: dict[str, Callable] = {
    "min": np.minimum,
    "max": np.maximum,
    "product": lambda a, b: a * b,
    "mean": lambda a, b: (a + b) / 2.0,
    "bounded_sum": lambda a, b: np.minimum(1.0, a + b),
}


def aggregation_from_combiner(combiner: str, u: UnitFunction, v: UnitFunction,
                              *, validate: bool = True) -> AggregationFunction:
    """A(x, y) = combiner(u(x), v(y)) for a named bivariate combiner.

    With ``validate`` (the default) the result is checked on the default
    grid and rejected with a witness if it is not an aggregation function.
    """
    if not isinstance(combiner, str) or combiner not in COMBINERS:
        raise DomainError(
            f"unknown combiner {combiner!r}; choose from {sorted(COMBINERS)}"
        )
    comb = COMBINERS[combiner]
    A = AggregationFunction(
        evaluator=lambda x, y: comb(u.evaluator(x), v.evaluator(y)),
        provenance="external expression",
        name=f"{combiner}({u.name or 'u'}, {v.name or 'v'})",
    )
    if validate:
        from .verify import check_aggregation

        report = check_aggregation(A, tol=0.0)
        if not report.passed:
            raise ContractError(
                f"{A.name or A.provenance} is not an aggregation function: "
                f"{report.reason}", report=report)
    return A


# ----------------------------------------------------------------- catalog


def _drastic(x, y):
    return np.where((x < 1.0) & (y < 1.0), 0.0, np.minimum(x, y))


def _harmonic_min(x, y):
    # ties go to the min branch: 2x*x/(x+x) equals x only up to rounding,
    # and exact ties keep the 101-point monotonicity check at tolerance 0
    den = x + y
    safe = np.where(den == 0.0, 1.0, den)
    with np.errstate(invalid="ignore"):
        harm = 2.0 * x * y / safe
    return np.where(x < y, harm, y)


def _require(params: dict, name: str, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in params]
    if missing:
        raise DomainError(f"catalog entry {name!r} requires params {missing}")
    extra = [k for k in params if k not in keys]
    if extra:
        raise DomainError(f"catalog entry {name!r} got unknown params {extra}")


def _build_min(params):
    return AggregationFunction(np.minimum, provenance="min", name="min")


def _build_max(params):
    return AggregationFunction(np.maximum, provenance="max", name="max")


def _build_product(params):
    return AggregationFunction(lambda x, y: x * y, provenance="product", name="product")


def _build_drastic(params):
    return AggregationFunction(_drastic, provenance="drastic", name="drastic")


def _build_harmonic(params):
    return AggregationFunction(_harmonic_min, provenance="harmonic_min",
                               name="harmonic_min")


def _build_flat(params):
    from .construct import class_flat

    _require(params, "flat", ("alpha", "beta"))
    try:
        alpha, beta = float(params["alpha"]), float(params["beta"])
    except (TypeError, ValueError):
        raise DomainError(f"flat needs numbers alpha and beta, got "
                          f"{params['alpha']!r} and {params['beta']!r}") from None
    return class_flat(alpha, beta)


def _build_boundary(params):
    from .construct import class_boundary

    _require(params, "boundary_only", ("g", "h"))
    g = unit_function_from_expr(params["g"], increasing=True)
    h = unit_function_from_expr(params["h"], increasing=True)
    return class_boundary(g, h)


_CATALOG = {
    "min": ("minimum of the two arguments", (), _build_min),
    "max": ("maximum of the two arguments", (), _build_max),
    "product": ("ordinary product x*y", (), _build_product),
    "drastic": ("0 when both arguments are below 1, else min", (), _build_drastic),
    "harmonic_min": ("harmonic mean below the diagonal, min above", (),
                     _build_harmonic),
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
    if not keys and params:
        raise DomainError(f"catalog entry {name!r} takes no params, got {sorted(params)}")
    return builder(params)
