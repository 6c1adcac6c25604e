"""Core semantic types: unit-interval functions, aggregation functions
and diagonal sections.

A UnitFunction carries *declared* structural flags next to its evaluator.
An AggregationFunction may declare the closed form of its diagonal, which
``diagonal`` reads in place of the evaluator on (x, x).
Declarations are contracts, not measurements: numerical checks (module
``verify``) establish or refute them on grids. ``UnitFunction.invert``
(``invert_monotone``) refuses a function that is not declared a continuous
bijection and carries no closed-form inverse, and reads the one inverse the
function keeps, which its PhiSpecs share. ``numerics.inverse_evaluator``,
which builds that one and those of triples and expression phis, does not.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import exprparse
from .errors import ContractError, DomainError
from .numerics import (Grid, default_grid, elementwise, first_fall, first_witness,
                       inverse_evaluator, pinned_inverse)

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
    "invert_monotone",
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
        """Preimage of y, by the closed-form inverse if present, else bisection,
        through the one inverse the function keeps (``_kept_inverse``)."""
        if self.inverse is None and not self.continuous_bijection:
            raise ContractError("invert_monotone requires a function declared continuous_bijection")
        return elementwise(self._kept_inverse(np.asarray(y, dtype=float)), y)

    @functools.cached_property
    def _kept_inverse(self) -> Callable:
        # read through invert only, so PhiSpec.inverse_of and from_unit_function
        # share its memo; validate_triple and from_triple build their own, so the
        # work of classifying A does not depend on whether its triple was validated
        return inverse_evaluator(self, remember=True)

    def declared(self, **flags) -> "UnitFunction":
        """Copy with declaration flags re-established after external checks."""
        return dataclasses.replace(self, **flags)

    def __repr__(self):
        return f"UnitFunction({self.name or 'anonymous'})"


invert_monotone = UnitFunction.invert


def _bijection(evaluator, inverse, name: str) -> UnitFunction:
    """A closed-form continuous bijection of [0, 1] with its inverse."""
    return UnitFunction(evaluator, increasing=True, strictly_increasing=True,
                        continuous_bijection=True, inverse=inverse, name=name)


def identity() -> UnitFunction:
    return _bijection(lambda x: np.asarray(x, dtype=float),
                      lambda y: np.asarray(y, dtype=float), "x")


def power_function(c: float) -> UnitFunction:
    """x^c on [0, 1]; a continuous bijection for every finite c > 0. Its inverse
    extends past 1, and gives NaN for a negative target, which has no preimage."""
    if not c > 0:
        raise DomainError(f"power exponent must be positive, got {c}")
    if c == np.inf:
        raise DomainError(f"power exponent must be finite, got {c}")
    return _bijection(lambda x, c=c: np.power(x, c),
                      lambda y, e=1.0 / c: np.power(np.where(y < 0.0, np.nan, y), e), f"x^{c:g}")


def bounded_rational() -> UnitFunction:
    """2x/(1+x): a continuous bijection of [0, 1] with inverse y/(2-y). Its
    inverse gives NaN at and past 2, the supremum of 2x/(1+x) on [0, inf)."""
    def inverse(y):
        y = np.where(y < 2.0, y, np.nan)
        return y / (2.0 - y)

    return _bijection(lambda x: 2.0 * x / (1.0 + x), inverse, "2x/(1+x)")


def _check_samples(name: str, values: np.ndarray, points: np.ndarray,
                   u: UnitFunction) -> None:
    w = first_witness(values, (values < 0.0) | (values > 1.0))
    if w is not None:
        raise ContractError(
            f"{name}: value {float(values[w])!r} at x={float(points[w])!r} "
            f"falls outside [0, 1]"
        )
    for wanted, strict, claim in ((u.increasing, False, "increasing but decreases"),
                                  (u.strictly_increasing, True,
                                   "strictly increasing but is flat")):
        w = first_fall(points, values, strict=strict) if wanted else None
        if w is not None:
            raise ContractError(f"{name}: declared {claim} on ({w[0]!r}, {w[1]!r})")
    if u.continuous_bijection and (values[0] != 0.0 or values[-1] != 1.0):
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
    witness point. A declared bijection is also declared (strictly)
    increasing, and carries the expression's closed-form inverse when it
    has one that ``numerics.pinned_inverse`` accepts (see ``exprparse``);
    any other is inverted by bisection.
    """
    expr = exprparse.parse_expr(text)
    u = UnitFunction(
        evaluator=lambda x, e=expr: exprparse.eval_expr(e, x),
        increasing=increasing or continuous_bijection,
        strictly_increasing=strictly_increasing or continuous_bijection,
        continuous_bijection=continuous_bijection,
        name=text,
    )
    g = grid or default_grid()
    _check_samples(f"expression {text!r}", u(g.points), g.points, u)
    if continuous_bijection:
        u = dataclasses.replace(u, inverse=pinned_inverse(expr.inverse, u.evaluator))
    return u


# ------------------------------------------------------------- aggregation


@dataclass(frozen=True, eq=False)
class AggregationFunction:
    """A bivariate evaluator on the unit square.

    The defining contract (A(0,0)=0, A(1,1)=1, nondecreasing in each
    argument) is checked, not assumed, for external inputs; see
    ``verify.check_aggregation``.

    diagonal : optional closed form of x -> A(x, x), equal to
        ``evaluator(x, x)`` bit for bit on [0, 1] and never returning its
        argument; read through ``diagonal(A)`` only, as ``inverse`` is read
        through ``UnitFunction.invert``. The idempotent catalog members
        declare x, a triple-generated function f(x * f_inv(h(1)))
    """

    evaluator: Callable
    provenance: str
    name: str = ""
    diagonal: Callable | None = None

    def __call__(self, x, y):
        out = self.evaluator(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return elementwise(out, x, y)

    def __repr__(self):
        return f"AggregationFunction({self.name or self.provenance})"


def diagonal(A: AggregationFunction) -> UnitFunction:
    """The diagonal section x -> A(x, x): A's declared closed form when it
    has one (``AggregationFunction.diagonal``: the idempotent catalog members
    and every triple-generated function), else A's evaluator on (x, x).

    No declared flags are inherited; they must be re-established by checks
    (the diagonal of an aggregation function need not be a bijection).
    Each call builds a new section, so nothing solved for it, such as the
    roots of its inverse, is kept with A.
    """
    ev = A.diagonal
    if ev is None:
        def ev(x):
            return A.evaluator(np.asarray(x, float), np.asarray(x, float))
    return UnitFunction(evaluator=ev, name=f"diag({A.name or A.provenance})")


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
        # verify imports this module and construct, so neither can import it at the top
        from .verify import check_aggregation

        report = check_aggregation(A, tol=0.0)
        if not report.passed:
            raise ContractError(
                f"{A.name or A.provenance} is not an aggregation function: "
                f"{report.reason}", report=report)
    return A

