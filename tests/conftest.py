"""Shared fixtures and the documented random-triple families.

Triple families used by the soundness and round-trip suites:

* f is x^c with c drawn uniformly from [0.5, 2] (closed-form inverse);
* g and h are drawn from: the identity, 2x/(1+x), x^a with a <= 1, and
  convex combinations of those with the identity.

Not every combination satisfies the nonincreasing-ratio conditions (for
example x^a needs a <= c, and 2x/(1+x) needs c >= 1), so candidates are
drawn and kept only if validate_triple accepts them. Seeds are fixed, so
the sampled population is deterministic.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from qhagg import (
    GeneratorTriple,
    UnitFunction,
    bounded_rational,
    identity,
    make_grid,
    numerics,
    power_function,
    validate_triple,
)

# Hypothesis's pytest plugin imports this module to report a falsifying
# example, and its libcst import warns that mypy_extensions.TypedDict is
# deprecated; under -W error that warning ended the run in an INTERNALERROR
# instead of the report. Import it here, ignoring that one warning only.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:  # without libcst the plugin skips the report's patch
    pass


def convex_with_identity(u: UnitFunction, w: float) -> UnitFunction:
    """w*x + (1-w)*u(x); increasing whenever u is."""
    return UnitFunction(
        evaluator=lambda x, uu=u.evaluator, ww=w: ww * np.asarray(x, float) + (1.0 - ww) * np.asarray(uu(x), float),
        increasing=True,
        name=f"{w:g}*x+{1 - w:g}*({u.name})",
    )


def draw_section(rng: np.random.Generator, c: float) -> UnitFunction:
    kind = rng.integers(0, 4)
    if kind == 0:
        return identity()
    if kind == 1:
        return bounded_rational()
    if kind == 2:
        return power_function(float(rng.uniform(0.05, min(1.0, c))))
    base = bounded_rational() if rng.integers(0, 2) else power_function(
        float(rng.uniform(0.05, min(1.0, c))))
    return convex_with_identity(base, float(rng.uniform(0.0, 1.0)))


def random_valid_triples(count: int, seed: int = 20240915,
                         grid_n: int = 100) -> list[GeneratorTriple]:
    rng = np.random.default_rng(seed)
    grid = make_grid(grid_n)
    out: list[GeneratorTriple] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 100 * count:
            raise RuntimeError("rejection sampling failed to find valid triples")
        c = float(rng.uniform(0.5, 2.0))
        t = GeneratorTriple(f=power_function(c),
                            g=draw_section(rng, c),
                            h=draw_section(rng, c))
        if validate_triple(t, grid=grid).ok:
            out.append(t)
    return out


@pytest.fixture(scope="session")
def triples_50():
    return random_valid_triples(50)


def strip_inverse(u: UnitFunction) -> UnitFunction:
    """Copy without the closed-form inverse, forcing the bisection path."""
    return UnitFunction(evaluator=u.evaluator, increasing=u.increasing,
                        strictly_increasing=u.strictly_increasing,
                        continuous_bijection=u.continuous_bijection,
                        inverse=None, name=u.name + "|bisect")


def counted_refine(monkeypatch):
    """A one-element list holding the lanes ``numerics._refine`` is given
    from here on."""
    lanes, refine = [0], numerics._refine

    def counted(fn, y, xs, fs):
        lanes[0] += y.size
        return refine(fn, y, xs, fs)

    monkeypatch.setattr(numerics, "_refine", counted)
    return lanes


def interior_step(threshold: float = 0.5) -> UnitFunction:
    """0 below the threshold, 1 from it on; not multiplicative."""
    return UnitFunction(
        evaluator=lambda x, t=threshold: np.where(np.asarray(x, float) >= t, 1.0, 0.0),
        increasing=True,
        name=f"step@{threshold:g}",
    )
