"""``PhiSpec.inverse_of(u, c)``, the canonical phi = (u_inv)^c, pinned to the bit.

SHA-256 of the float64 bytes of ``phi(p)``, ``phi.invert(p)`` and
``phi.invert([-0.25, 1.5])`` on the grid n = 50, for four exponents and
three bijections u: the Class-1 diagonal of the product, the catalog power
x^2 (closed-form inverse) and the expression ``x*x`` (bisected inverse).
The targets -0.25 and 1.5 lie outside phi's range; where an expression
refuses the NaN preimage of -0.25, the error's type and text are pinned
instead. A change to how the pair is composed leaves every outcome as it is.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from qhagg import (PhiSpec, catalog_lookup, classify, make_grid, power_function,
                   unit_function_from_expr)

BIJECTIONS = {
    "product-delta": lambda: classify(catalog_lookup("product")).delta,
    "power(2)": lambda: power_function(2),
    "expr(x*x)": lambda: unit_function_from_expr("x*x", continuous_bijection=True),
}

#: (u, c) -> outcomes of phi(p), phi.invert(p), phi.invert([-0.25, 1.5])
PINNED = {
    ("product-delta", 0.5): (
        "793729652975d5d5419672d09be0e343070ef7b28077a195baa157ca7f188e4d",
        "3d21ea7b14d79f46c0d5bda29874566088839b3349d41927f34369630b2ef3fa",
        "aba0aab4acda521b9fbdd1148e342ab76f77ba3fae5609228536f140762fbdf7",
    ),
    ("product-delta", 1.0): (
        "f1b5797e2da7cdde9e8311c8afbca920e025ef87084f85c22a5a4abcac37d836",
        "14a3aac5e1b78c9a53d435c781be964f5427e78f3685623f022a5f1ba3603518",
        "8f49c456f0778d7aad5bf9c1239bbab6a2bd0202b4f837add23c32536de35e60",
    ),
    ("product-delta", 2.0): (
        "d6487ee3dffa2c45f0f2b549e65937702abfe183157b2ffd4c7b31ea21f85249",
        "bae3918b25538acf35f4bc60c32a5044fffb8f8b9e7088e99bd49b32afec8f58",
        "227259f58f1c371f810602770515655a6407516ff2d02eefd5ba7594aa4c92a4",
    ),
    ("product-delta", 3.7): (
        "56b7bf83764a376bdbdbf48018934773497be8eeef3c679ddc8cc2408bd1d96d",
        "595b682688ce906a093f4ff00f6bbf29ec5f0b74759dbdc5930f5fe075b63a17",
        "372e1b529113eb945dceb7b0a38560bb92c43f7d523d19b912143d58a71ea00b",
    ),
    ("power(2)", 0.5): (
        "0250c0257c9829d03afa0fd1c164a305d03e905d777b78e06157dfc34a8acb19",
        "3d21ea7b14d79f46c0d5bda29874566088839b3349d41927f34369630b2ef3fa",
        "aba0aab4acda521b9fbdd1148e342ab76f77ba3fae5609228536f140762fbdf7",
    ),
    ("power(2)", 1.0): (
        "19241d5561d35fad0b957e409dc6c88071815781ddc60dba643f1ad8d5eb66c1",
        "14a3aac5e1b78c9a53d435c781be964f5427e78f3685623f022a5f1ba3603518",
        "8f49c456f0778d7aad5bf9c1239bbab6a2bd0202b4f837add23c32536de35e60",
    ),
    ("power(2)", 2.0): (
        "bae3918b25538acf35f4bc60c32a5044fffb8f8b9e7088e99bd49b32afec8f58",
        "bae3918b25538acf35f4bc60c32a5044fffb8f8b9e7088e99bd49b32afec8f58",
        "227259f58f1c371f810602770515655a6407516ff2d02eefd5ba7594aa4c92a4",
    ),
    ("power(2)", 3.7): (
        "d6d0b6df71b3b65dffbe50be2a2b5cc4a41c5217e29b6af2e1461c6911d842bd",
        "595b682688ce906a093f4ff00f6bbf29ec5f0b74759dbdc5930f5fe075b63a17",
        "372e1b529113eb945dceb7b0a38560bb92c43f7d523d19b912143d58a71ea00b",
    ),
    ("expr(x*x)", 0.5): (
        "793729652975d5d5419672d09be0e343070ef7b28077a195baa157ca7f188e4d",
        "3d21ea7b14d79f46c0d5bda29874566088839b3349d41927f34369630b2ef3fa",
        ("EvalError", "expression evaluated to a non-finite value"),
    ),
    ("expr(x*x)", 1.0): (
        "f1b5797e2da7cdde9e8311c8afbca920e025ef87084f85c22a5a4abcac37d836",
        "14a3aac5e1b78c9a53d435c781be964f5427e78f3685623f022a5f1ba3603518",
        "8f49c456f0778d7aad5bf9c1239bbab6a2bd0202b4f837add23c32536de35e60",
    ),
    ("expr(x*x)", 2.0): (
        "d6487ee3dffa2c45f0f2b549e65937702abfe183157b2ffd4c7b31ea21f85249",
        "bae3918b25538acf35f4bc60c32a5044fffb8f8b9e7088e99bd49b32afec8f58",
        ("EvalError", "expression evaluated to a non-finite value"),
    ),
    ("expr(x*x)", 3.7): (
        "56b7bf83764a376bdbdbf48018934773497be8eeef3c679ddc8cc2408bd1d96d",
        "595b682688ce906a093f4ff00f6bbf29ec5f0b74759dbdc5930f5fe075b63a17",
        ("EvalError", "expression evaluated to a non-finite value"),
    ),
}


def outcome(fn, x):
    """SHA-256 of the float64 bytes of fn(x), or the error's type and text."""
    try:
        out = fn(x)
    except Exception as exc:  # a refused target is part of the contract
        return type(exc).__name__, str(exc)
    return hashlib.sha256(np.ascontiguousarray(out, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("u_name, c", list(PINNED), ids=[f"{u}-c={c:g}" for u, c in PINNED])
def test_inverse_of_bits(u_name, c):
    phi = PhiSpec.inverse_of(BIJECTIONS[u_name](), c)
    p = make_grid(50).points
    got = (outcome(phi, p), outcome(phi.invert, p), outcome(phi.invert, [-0.25, 1.5]))
    assert got == PINNED[u_name, c]
