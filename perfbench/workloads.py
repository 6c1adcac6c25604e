"""Job lists, input builders and expected outcomes of the three workloads.

* ``classify-catalog``: library ``classify`` at n = 100 on closed-form
  catalog members of all three classes. The Class-1 jobs spend their time
  inverting the diagonal on (n+1)^3 lanes (``numerics``) and in the
  ``verify`` sweep; the Class-2 and Class-3 jobs skip inversion.
* ``triple-expr``: ``validate_triple``, ``from_triple`` and ``classify`` at
  n = 50 on triples whose ``f`` has no closed-form inverse, so the inversion
  runs nested inside every evaluation of A, plus two refuted inputs. Every
  Class-1 verdict is re-verified through ``canonical_pair``. Only this
  workload takes its inputs from the seed.
* ``cli-check``: a fixed script of ``python -m qhagg`` child processes; the
  only workload that exercises ``cli`` (start-up, argparse, rendering, CSV).

An expected outcome pins the verdict (class, alpha/beta, fitted section
labels) or the exit code and ``RESULT`` token. A refutation must carry a
witness whose coordinates lie on the grid; residual values and witness
coordinates are deliberately not pinned.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qhagg

import triples

ROOT = Path(__file__).resolve().parents[1]
TMP_DIR = ROOT / "perfbench" / "out" / "tmp"

WORKLOADS = ("classify-catalog", "triple-expr", "cli-check")

#: grid sizes of each workload; ``tiny`` ones are for the self-test
GRIDS = {
    "classify-catalog": {"full": {"classify": 100}, "tiny": {"classify": 10}},
    "triple-expr": {"full": {"classify": 50, "validate": 100, "random_triples": 3},
                    "tiny": {"classify": 8, "validate": 100, "random_triples": 3}},
    "cli-check": {"full": {"qh": 100, "qh_step": 200, "agg": 400, "classify": 200,
                           "csv": 300},
                  "tiny": {"qh": 10, "qh_step": 20, "agg": 40, "classify": 20,
                           "csv": 30}},
}

CHILD_TIMEOUT_S = 150


@dataclass
class Job:
    id: str
    run: Callable[[], dict]
    expect: dict
    n: int
    meta: dict = field(default_factory=dict)


class Plain:
    """Instrumentation hooks that leave the inputs untouched (untraced runs)."""

    def agg(self, A):
        return A

    def unit(self, u):
        return u


# ----------------------------------------------------------------- checks


def power_label(c: float) -> str:
    return "x" if abs(c - 1.0) < 1e-9 else f"x^{c:g}"


def section_label(section, grid) -> str:
    """'x^c' when the section is a power on [0.1, 0.9], else 'sampled'."""
    pts = grid.points
    xs = pts[(pts >= 0.1) & (pts <= 0.9)]
    ys = np.asarray(section.evaluator(xs), dtype=float)
    if xs.size and np.all(ys > 0.0):
        c, resid = qhagg.fit_power_exponent(xs, ys)
        if resid <= 1e-6 and c > 0:
            return power_label(c)
    return "sampled"


def on_grid(v: float, n: int) -> bool:
    k = round(v * n)
    return 0 <= k <= n and v == k / n


def problems(outcome: dict, job: Job) -> list[str]:
    """Differences between an outcome and the job's expectation."""
    if "error" in outcome:
        return [f"raised {outcome['error']}"]
    out = []
    for key, want in job.expect.items():
        if key == "witness_on_grid":
            w = outcome.get("witness")
            if not w:
                out.append("refutation without a witness")
            elif not all(on_grid(float(v), job.n) for v in w[:3]):
                out.append(f"witness {w[:3]} is off the n={job.n} grid")
        elif key == "reason_prefix":
            if not str(outcome.get("reason", "")).startswith(want):
                out.append(f"reason {outcome.get('reason')!r} does not start with {want!r}")
        elif outcome.get(key) != want:
            out.append(f"{key}: got {outcome.get(key)!r}, expected {want!r}")
    return out


# -------------------------------------------------------------- library


def classify_job(A, grid, reverify: bool = False) -> dict:
    r = qhagg.classify(A, grid=grid)
    out = {"verdict": r.verdict}
    if r.verdict == qhagg.CLASS1:
        out["delta"] = section_label(r.delta, grid)
        if reverify:
            phi, psi = qhagg.canonical_pair(r)
            out["reverify"] = qhagg.check_quasi_homogeneity(A, phi, psi, grid=grid).passed
    elif r.verdict == qhagg.CLASS2:
        out["alpha"], out["beta"] = r.alpha, r.beta
    elif r.verdict == qhagg.CLASS3:
        out["g"], out["h"] = section_label(r.g, grid), section_label(r.h, grid)
    else:
        out["witness"] = [float(v) for v in r.witness]
        out["reason"] = r.reason
    return out


CATALOG_JOBS = (
    ("product", {}, {"verdict": "Class1", "delta": "x^2"}),
    ("harmonic_min", {}, {"verdict": "Class1", "delta": "x"}),
    ("min", {}, {"verdict": "Class1", "delta": "x"}),
    ("max", {}, {"verdict": "Class1", "delta": "x"}),
    ("flat", {"alpha": 0.2, "beta": 0.7}, {"verdict": "Class2", "alpha": 0.2, "beta": 0.7}),
    ("drastic", {}, {"verdict": "Class3", "g": "x", "h": "x"}),
    ("boundary_only", {"g": "x^2", "h": "x"}, {"verdict": "Class3", "g": "x^2", "h": "x"}),
)

REFUTED = {"verdict": qhagg.NOT_QH, "witness_on_grid": True}


def build_classify_catalog(seed, sizes, inst) -> list[Job]:
    grid = qhagg.make_grid(sizes["classify"])
    return [Job(name, lambda A=inst.agg(qhagg.catalog_lookup(name, params)): classify_job(A, grid),
                expect, grid.n)
            for name, params, expect in CATALOG_JOBS]


def _checked_triple(t) -> qhagg.GeneratorTriple:
    report = qhagg.validate_triple(t)
    if not report.ok:
        raise RuntimeError(f"benchmark input {t!r} is not a valid triple:\n{report}")
    return t


def build_triple_expr(seed, sizes, inst) -> list[Job]:
    grid = qhagg.make_grid(sizes["classify"])
    uf = qhagg.unit_function_from_expr

    def job(name, A, expect, **meta):
        A = inst.agg(A)
        return Job(name, lambda: classify_job(A, grid, reverify=True), expect, grid.n, meta)

    expr = _checked_triple(qhagg.GeneratorTriple(
        f=inst.unit(uf("x^2", continuous_bijection=True)),
        g=inst.unit(uf("x", increasing=True)),
        h=inst.unit(uf("2*x/(1+x)", increasing=True))))
    jobs = [job("expr:f=x^2,g=x,h=2x/(1+x)", qhagg.from_triple(expr, validate=False),
                {"verdict": "Class1", "delta": "x^2", "reverify": True})]
    for i, (t, c) in enumerate(triples.random_valid_triples(
            sizes["random_triples"], seed, wrap=inst.unit, grid_n=sizes["validate"])):
        jobs.append(job(f"random{i}", qhagg.from_triple(t, validate=False),
                        {"verdict": "Class1", "delta": power_label(c), "reverify": True},
                        triple=repr(t), c=c))
    bad = qhagg.GeneratorTriple(f=inst.unit(uf("x", continuous_bijection=True)),
                                g=inst.unit(uf("x", increasing=True)),
                                h=inst.unit(uf("x^2", increasing=True)))
    jobs.append(job("invalid:f=x,g=x,h=x^2", qhagg.from_triple(bad, validate=False),
                    {**REFUTED, "reason_prefix": "not an aggregation function"}))
    mean = qhagg.aggregation_from_combiner("mean", inst.unit(uf("x^2")), inst.unit(uf("x")))
    jobs.append(job("expr2d:mean(x^2,x)", mean, REFUTED))
    return jobs


# ------------------------------------------------------------------- cli

#: (id, argv with {n} for the grid and {out} for the CSV path, grid key, expectation)
CLI_JOBS = (
    ("qh:product", "check --fn product --mode qh --psi power:c=4 --phi x^2 --grid {n}", "qh",
     {"exit": 0, "result": "pass"}),
    ("qh:min-refuted", "check --fn min --mode qh --psi power:c=1 --phi x/(1-x) --phi-b inf "
     "--grid {n}", "qh", {"exit": 1, "result": "fail", "witness_on_grid": True}),
    ("qh:drastic", "check --fn drastic --mode qh --psi step1 --phi x^2 --grid {n}", "qh_step",
     {"exit": 0, "result": "pass"}),
    ("qh:flat", "check --fn flat --alpha 0.2 --beta 0.7 --mode qh --psi step0 --grid {n}",
     "qh_step", {"exit": 0, "result": "pass"}),
    ("agg:harmonic_min", "check --fn harmonic_min --mode agg --grid {n}", "agg",
     {"exit": 0, "result": "pass"}),
    ("classify:drastic", "check --fn drastic --mode classify --grid {n}", "classify",
     {"exit": 0, "result": "pass", "first_line": "Class3 g=x (fitted) h=x (fitted)"}),
    ("grid:harmonic_min", "grid --fn harmonic_min --n {n} --out {out}", "csv",
     {"exit": 0, "result": None, "header_ok": True}),
)

_AT_WITNESS = re.compile(r"max residual \S+ at \(([^)]*)\)")
_CLASSIFY_WITNESS = re.compile(r"witness=\(lam=([^,]+), x=([^,]+), y=([^,]+),")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_cli_output(code: int, stdout: str) -> dict:
    lines = stdout.splitlines()
    out = {"exit": code, "result": None, "first_line": lines[0] if lines else ""}
    for line in lines:
        if line.startswith("RESULT "):
            out["result"] = line.split()[1]
    m = _AT_WITNESS.search(stdout) or _CLASSIFY_WITNESS.search(stdout)
    if m:
        parts = m.groups() if m.re is _CLASSIFY_WITNESS else m.group(1).split(",")
        out["witness"] = [float(v) for v in parts]
    return out


def _read_csv(path: Path, n: int) -> dict:
    data = path.read_bytes()
    path.unlink()
    lines = data.decode("utf-8").splitlines()
    return {"header_ok": bool(lines) and lines[0] == "x,y,value" and len(lines) == (n + 1) ** 2 + 1,
            "bytes": len(data), "rows": max(len(lines) - 1, 0)}


def run_cli_child(argv: list[str], env: dict) -> tuple[int, str]:
    p = subprocess.run([sys.executable, "-m", "qhagg", *argv], env=env, cwd=ROOT,
                       capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return p.returncode, p.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qhagg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def cli_job(argv: list[str], n: int, out_path: Path | None, runner) -> dict:
    code, stdout = runner(argv)
    out = parse_cli_output(code, stdout)
    if out_path is not None:
        out.update(_read_csv(out_path, n) if out_path.exists() else {"header_ok": False})
    return out


def build_cli_check(seed, sizes, inst, runner=None) -> list[Job]:
    """``runner(argv) -> (exit code, stdout)``; default is a child process."""
    import qhagg.cli  # noqa: F401  (makes qhagg.cli available to in-process runs)

    if runner is None:
        env = child_env()
        runner = lambda argv: run_cli_child(argv, env)  # noqa: E731
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    jobs = []
    for jid, template, key, expect in CLI_JOBS:
        n = sizes[key]
        out_path = TMP_DIR / f"grid-{os.getpid()}.csv" if "{out}" in template else None
        argv = template.format(n=n, out=out_path).split()
        jobs.append(Job(jid, lambda a=argv, n=n, o=out_path: cli_job(a, n, o, runner),
                        expect, n, {"argv": argv}))
    return jobs


BUILDERS = {
    "classify-catalog": build_classify_catalog,
    "triple-expr": build_triple_expr,
    "cli-check": build_cli_check,
}


def build(workload: str, seed: int, tiny: bool, inst=None, **kwargs) -> list[Job]:
    sizes = GRIDS[workload]["tiny" if tiny else "full"]
    return BUILDERS[workload](seed, sizes, inst or Plain(), **kwargs)
