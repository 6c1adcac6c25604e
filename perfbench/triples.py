"""Seeded random generator triples for the ``triple-expr`` workload.

Families (the ones ``tests/conftest.py`` documents):

* f is x^c with c drawn uniformly from [0.5, 2], with its closed-form
  inverse removed so that every evaluation of f_inv bisects;
* g and h are drawn from the identity, 2x/(1+x), x^a with a in
  [0.05, min(1, c)], and convex mixes of the last two with the identity.

Candidates are kept only if ``validate_triple`` accepts them. The same
seed always yields the same triples.
"""

from __future__ import annotations

import numpy as np

import qhagg


def _convex_with_identity(u: qhagg.UnitFunction, w: float) -> qhagg.UnitFunction:
    """w*x + (1-w)*u(x); increasing whenever u is."""
    return qhagg.UnitFunction(
        evaluator=lambda x, uu=u.evaluator, ww=w: (
            ww * np.asarray(x, float) + (1.0 - ww) * np.asarray(uu(x), float)),
        increasing=True,
        name=f"{w:g}*x+{1 - w:g}*({u.name})",
    )


def _draw_section(rng: np.random.Generator, c: float) -> qhagg.UnitFunction:
    kind = rng.integers(0, 4)
    if kind == 0:
        return qhagg.identity()
    if kind == 1:
        return qhagg.bounded_rational()
    if kind == 2:
        return qhagg.power_function(float(rng.uniform(0.05, min(1.0, c))))
    base = qhagg.bounded_rational() if rng.integers(0, 2) else qhagg.power_function(
        float(rng.uniform(0.05, min(1.0, c))))
    return _convex_with_identity(base, float(rng.uniform(0.0, 1.0)))


def _strip_inverse(u: qhagg.UnitFunction) -> qhagg.UnitFunction:
    return qhagg.UnitFunction(evaluator=u.evaluator, increasing=u.increasing,
                              strictly_increasing=u.strictly_increasing,
                              continuous_bijection=u.continuous_bijection,
                              inverse=None, name=u.name + "|bisect")


def random_valid_triples(count: int, seed: int, wrap=lambda u: u,
                         grid_n: int = 100) -> list[tuple[qhagg.GeneratorTriple, float]]:
    """``count`` (triple, c) pairs accepted by ``validate_triple``.

    ``wrap`` is applied to each unit function before validation, so a
    tracer can observe the evaluations that validation makes.
    """
    rng = np.random.default_rng(seed)
    grid = qhagg.make_grid(grid_n)
    out = []
    for _ in range(100 * count):
        c = float(rng.uniform(0.5, 2.0))
        t = qhagg.GeneratorTriple(f=wrap(_strip_inverse(qhagg.power_function(c))),
                                  g=wrap(_draw_section(rng, c)),
                                  h=wrap(_draw_section(rng, c)))
        if qhagg.validate_triple(t, grid=grid).ok:
            out.append((t, c))
            if len(out) == count:
                return out
    raise RuntimeError(f"seed {seed}: rejection sampling found only {len(out)} valid triples")
