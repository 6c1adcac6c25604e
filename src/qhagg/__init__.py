"""Quasi-homogeneous aggregation functions on the unit square.

Aggregation functions A: [0,1]^2 -> [0,1] (increasing, A(0,0)=0,
A(1,1)=1) satisfying the scaling law

    A(lam*x, lam*y) = phi_inv( psi(lam) * phi(A(x, y)) )

fall into exactly three classes: the bijective-diagonal functions
generated by a triple (f, g, h), the functions constant 1 on (0,1]^2
with boundary constants, and the functions constant 0 on [0,1)^2 with
boundary sections. This package constructs members of all three classes,
verifies the defining properties numerically on grids, recovers the
scaling pair (phi, psi), and classifies arbitrary inputs.

On glibc, importing the package fixes the allocator's trim and mmap
thresholds, so that freed array buffers stay in the heap (see ``heap``).
"""

from .algebra import (
    AggregationFunction,
    UnitFunction,
    aggregation_from_combiner,
    bounded_rational,
    diagonal,
    identity,
    invert_monotone,
    power_function,
    unit_function_from_expr,
)
from .construct import (
    GeneratorTriple,
    TripleValidationReport,
    catalog_describe,
    catalog_lookup,
    catalog_names,
    class_boundary,
    class_flat,
    from_triple,
    triple_of,
    validate_triple,
)
from .errors import (
    ContractError,
    DomainError,
    EvalError,
    ExprError,
    ParseError,
    QhaggError,
)
from .exprparse import Expr, eval_expr, parse_expr
from .heap import keep_freed_buffers
from .numerics import (
    Grid,
    bisect_increasing,
    default_grid,
    make_grid,
)
from .verify import (
    CLASS1,
    CLASS2,
    CLASS3,
    NOT_QH,
    ClassificationReport,
    PhiSpec,
    PsiSpec,
    canonical_pair,
    check_aggregation,
    check_homogeneous_order,
    check_multiplicative,
    check_quasi_homogeneity,
    classify,
    diagonal_bijection_check,
    fit_power_exponent,
    recover_psi,
)

keep_freed_buffers()

__version__ = "0.1.0"

__all__ = [
    "AggregationFunction", "UnitFunction",
    "aggregation_from_combiner", "bounded_rational", "catalog_describe",
    "catalog_lookup", "catalog_names", "diagonal", "identity",
    "power_function", "unit_function_from_expr",
    "GeneratorTriple", "TripleValidationReport", "class_boundary",
    "class_flat", "from_triple", "triple_of", "validate_triple",
    "ContractError", "DomainError", "EvalError", "ExprError", "ParseError",
    "QhaggError",
    "Expr", "eval_expr", "parse_expr",
    "Grid", "bisect_increasing", "default_grid",
    "invert_monotone", "make_grid",
    "CLASS1", "CLASS2", "CLASS3", "NOT_QH", "ClassificationReport",
    "PhiSpec", "PsiSpec", "canonical_pair", "check_aggregation",
    "check_homogeneous_order", "check_multiplicative",
    "check_quasi_homogeneity", "classify", "diagonal_bijection_check",
    "fit_power_exponent", "recover_psi",
    "__version__",
]
