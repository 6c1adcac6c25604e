"""Spans around calls into the qhagg layers, recorded from outside.

``Tracer.install`` replaces each public function listed in ``SITES`` with a
wrapper at every module attribute it is looked up through (for example
``bisect_increasing`` is bound in ``numerics``, ``verify``, ``construct``
and the package namespace), and ``agg``/``unit`` wrap the evaluators of the
inputs the benchmark builds. Nothing under ``src/`` changes. A wrapper
records a span (name, start, end, parent, job id, counts, and the peak of
``tracemalloc`` memory above the level at entry); spans stay in memory until
``layer_metrics`` turns them into per-layer numbers. Self time is a span's
duration minus the durations of its direct children.

A site whose function no longer exists is recorded in ``absent`` and the
metrics that depend on it are left out rather than reported as zero.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
import tracemalloc

import numpy as np

MIB = float(1 << 20)

#: (function name, span name, modules it is looked up through; "" = package)
SITES = (
    ("bisect_increasing", "numerics.bisect", ("numerics", "verify", "construct", "")),
    ("invert_monotone", "numerics.invert_monotone", ("numerics", "")),
    ("check_quasi_homogeneity", "verify.sweep", ("verify", "")),
    ("check_homogeneous_order", "verify.sweep", ("verify", "")),
    ("check_aggregation", "verify.check_aggregation", ("verify", "")),
    ("diagonal_bijection_check", "verify.diagonal_check", ("verify", "")),
    ("classify", "verify.classify", ("verify", "")),
    ("parse_expr", "exprparse.parse", ("exprparse", "verify", "")),
    ("eval_expr", "exprparse.eval", ("exprparse", "verify", "")),
    ("validate_triple", "construct.validate_triple", ("construct", "")),
    ("from_triple", "construct.from_triple", ("construct", "cli", "")),
    ("catalog_lookup", "algebra.catalog_lookup", ("algebra", "cli", "")),
    ("main", "cli.main", ("cli",)),
    ("cmd_check", "cli.cmd_check", ("cli",)),
    ("cmd_grid", "cli.cmd_grid", ("cli",)),
    ("build_aggregation", "cli.build_aggregation", ("cli",)),
)

INVERT = frozenset({"numerics.bisect", "numerics.invert_monotone"})
EVAL = frozenset({"algebra.eval", "construct.triple_eval"})

#: metric -> wrapped functions' spans it is computed from (left out if any is absent)
SOURCES = {
    "numerics.invert.calls": ("numerics.bisect",),
    "numerics.invert.targets": ("numerics.bisect",),
    "numerics.invert.fn_lanes": ("numerics.bisect",),
    "numerics.invert.amplification": ("numerics.bisect",),
    "numerics.invert.self_s": ("numerics.bisect", "numerics.invert_monotone"),
    "numerics.invert.fn_s": ("numerics.bisect", "numerics.invert_monotone"),
    "numerics.invert.peak_mib": ("numerics.bisect", "numerics.invert_monotone"),
    "verify.sweep.s": ("verify.sweep",),
    "verify.sweep.lanes": ("verify.sweep",),
    "verify.sweep.peak_mib": ("verify.sweep",),
    "verify.classify.self_s": ("verify.classify",),
    "verify.check_aggregation.s": ("verify.check_aggregation",),
    "verify.diagonal_check.s": ("verify.diagonal_check",),
    "verify.base_grid_evals": ("verify.classify",),
    "construct.validate_triple.s": ("construct.validate_triple",),
    "exprparse.eval.s": ("exprparse.eval",),
    "exprparse.eval.lanes": ("exprparse.eval",),
    "exprparse.parse.s": ("exprparse.parse",),
    "cli.self_s": ("cli.main",),
}


class Span:
    __slots__ = ("name", "parent", "job", "attrs", "start", "end", "base", "seen", "peak")

    def __init__(self, name, parent, job, attrs, base):
        self.name, self.parent, self.job, self.attrs = name, parent, job, attrs
        self.base = self.seen = base
        self.start = self.end = 0.0
        self.peak = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._missing_spans: set[str] = set()

    # -- spans -------------------------------------------------------------

    def enter(self, name, attrs=None) -> int:
        cur, peak = tracemalloc.get_traced_memory()
        stack = self._stack
        if stack:
            top = self.spans[stack[-1]]
            top.seen = max(top.seen, peak)
        tracemalloc.reset_peak()
        s = Span(name, stack[-1] if stack else -1, self.job, attrs, cur)
        idx = len(self.spans)
        self.spans.append(s)
        stack.append(idx)
        s.start = time.perf_counter()
        return idx

    def exit(self, idx: int) -> None:
        s = self.spans[idx]
        s.end = time.perf_counter()
        peak = max(s.seen, tracemalloc.get_traced_memory()[1])
        s.peak = peak - s.base
        self._stack.pop()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.seen = max(parent.seen, peak)

    def wrap(self, fn, name, attrs=None, post=None):
        """``attrs(args, kwargs) -> dict`` and ``post(span, result) -> result``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(self.spans[idx], result)
                return result
            finally:
                self.exit(idx)

        return traced

    # -- input evaluators --------------------------------------------------

    def agg(self, A):
        """Copy of an AggregationFunction whose evaluator records spans."""
        name = "construct.triple_eval" if A.provenance == "triple-generated" else "algebra.eval"

        def attrs(args, kwargs):
            shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
            return {"kind": "agg", "lanes": int(np.prod(shape)), "shape": shape}

        return dataclasses.replace(A, evaluator=self.wrap(A.evaluator, name, attrs))

    def unit(self, u):
        """Copy of a UnitFunction whose evaluator (and inverse) record spans."""
        ev = self.wrap(u.evaluator, "algebra.eval", _unit_attrs)
        inv = u.inverse and self.wrap(u.inverse, "algebra.eval", _unit_attrs)
        return dataclasses.replace(u, evaluator=ev, inverse=inv)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        tracemalloc.start()
        pkg = importlib.import_module("qhagg")
        importlib.import_module("qhagg.cli")
        for fname, span, modules in SITES:
            found = False
            for modname in modules:
                mod = importlib.import_module(f"qhagg.{modname}") if modname else pkg
                original = getattr(mod, fname, None)
                if original is None:
                    self.absent.append(f"qhagg{'.' + modname if modname else ''}.{fname}")
                    continue
                found = True
                self._patches.append((mod, fname, original))
                setattr(mod, fname, self._wrapper_for(fname, span, original))
            if not found:
                self._missing_spans.add(span)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()
        tracemalloc.stop()

    def _wrapper_for(self, fname, span, original):
        if fname == "bisect_increasing":
            def bisect(fn, y, *args, **kwargs):
                counted = self.wrap(fn, "numerics.invert.fn", _unit_attrs)
                idx = self.enter(span, {"targets": int(np.size(y))})
                try:
                    return original(counted, y, *args, **kwargs)
                finally:
                    self.exit(idx)
            return functools.wraps(original)(bisect)
        if span in ("verify.sweep", "verify.classify"):
            return self.wrap(original, span, post=_record_grid)
        if fname == "eval_expr":
            return self.wrap(original, span, lambda a, k: {"lanes": int(np.size(a[1]))})
        if fname == "build_aggregation":
            return self.wrap(original, span, post=lambda s, A: self.agg(A))
        return self.wrap(original, span)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict]:
        """(per-layer metrics, per-job breakdown) from the recorded spans."""
        spans = self.spans
        dur = [s.end - s.start for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child[s.parent] += dur[i]
        own = [d - c for d, c in zip(dur, child)]

        inside_invert = [False] * len(spans)
        classify_of = [-1] * len(spans)
        outer_invert = []
        for i, s in enumerate(spans):
            p = s.parent
            up_invert = p >= 0 and inside_invert[p]
            if s.name in INVERT and not up_invert:
                outer_invert.append(i)
            inside_invert[i] = up_invert or s.name in INVERT
            classify_of[i] = i if s.name == "verify.classify" else (classify_of[p] if p >= 0 else -1)

        def of(names):
            names = {names} if isinstance(names, str) else names
            return [i for i, s in enumerate(spans) if s.name in names]

        invert, bisect = of(INVERT), of("numerics.bisect")
        # a call that raised has no report, hence no grid size
        sweep = [i for i in of("verify.sweep") if spans[i].attrs]
        classify = [i for i in of("verify.classify") if spans[i].attrs]
        alg, expr_eval = of("algebra.eval"), of("exprparse.eval")
        fn_spans = of("numerics.invert.fn")
        targets = sum(spans[i].attrs["targets"] for i in bisect)
        fn_lanes = sum(spans[i].attrs["lanes"] for i in fn_spans)
        invert_self = sum(own[i] for i in invert)

        # evaluations of A on the (n+1)^2 grid made by classify itself; the
        # inversion also evaluates A on (n+1)^2 lanes, but along the diagonal
        base_evals = {i: 0 for i in classify}
        for i in of(EVAL):
            c = classify_of[i]
            if c in base_evals and not inside_invert[i] and spans[i].attrs["kind"] == "agg" \
                    and spans[i].attrs["shape"] == (spans[c].attrs["grid_n"] + 1,) * 2:
                base_evals[c] += 1

        m = {
            "numerics.invert.calls": len(bisect),
            "numerics.invert.targets": targets,
            "numerics.invert.fn_lanes": fn_lanes,
            "numerics.invert.amplification": fn_lanes / targets if targets else 0.0,
            "numerics.invert.self_s": invert_self,
            "numerics.invert.fn_s": sum(dur[i] for i in outer_invert) - invert_self,
            "numerics.invert.peak_mib": max((spans[i].peak for i in invert), default=0) / MIB,
            "verify.sweep.s": sum(own[i] for i in sweep),
            "verify.sweep.lanes": sum((spans[i].attrs["grid_n"] + 1) ** 3 for i in sweep),
            "verify.sweep.peak_mib": max((spans[i].peak for i in sweep), default=0) / MIB,
            "verify.classify.self_s": sum(own[i] for i in classify),
            "verify.check_aggregation.s": sum(dur[i] for i in of("verify.check_aggregation")),
            "verify.diagonal_check.s": sum(dur[i] for i in of("verify.diagonal_check")),
            "verify.base_grid_evals": (statistics.fmean(base_evals.values())
                                       if base_evals else 0.0),
            "algebra.eval.s": sum(own[i] for i in alg),
            "algebra.eval.lanes": sum(spans[i].attrs["lanes"] for i in alg),
            "construct.triple_eval.self_s": sum(own[i] for i in of("construct.triple_eval")),
            "construct.validate_triple.s": sum(dur[i] for i in of("construct.validate_triple")),
            "exprparse.eval.s": sum(dur[i] for i in expr_eval),
            "exprparse.eval.lanes": sum(spans[i].attrs["lanes"] for i in expr_eval),
            "exprparse.parse.s": sum(dur[i] for i in of("exprparse.parse")),
            "cli.self_s": sum(own[i] for i, s in enumerate(spans) if s.name.startswith("cli.")),
        }
        for name, needs in SOURCES.items():
            if any(n in self._missing_spans for n in needs):
                del m[name]

        jobs = {spans[i].job: {"s": dur[i], "invert_s": 0.0, "targets": 0, "fn_lanes": 0}
                for i in of("job")}
        for i in outer_invert:
            if spans[i].job in jobs:
                jobs[spans[i].job]["invert_s"] += dur[i]
        for i in bisect:
            if spans[i].job in jobs:
                jobs[spans[i].job]["targets"] += spans[i].attrs["targets"]
        for i in fn_spans:
            if spans[i].job in jobs:
                jobs[spans[i].job]["fn_lanes"] += spans[i].attrs["lanes"]
        for rec in jobs.values():
            rec["invert_share"] = rec["invert_s"] / rec["s"] if rec["s"] else 0.0
            rec["amplification"] = rec["fn_lanes"] / rec["targets"] if rec["targets"] else 0.0
        return m, jobs


def _unit_attrs(args, kwargs):
    return {"kind": "unit", "lanes": int(np.size(args[0]))}


def _record_grid(span, report):
    span.attrs = {"grid_n": report.grid_n}
    return report
