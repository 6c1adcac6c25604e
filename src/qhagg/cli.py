"""Command-line front end: evaluate, check, classify, export grids.

Exit codes are a stable contract: 0 = pass, 1 = property failure (a check
that ran and refuted the property, or an I/O failure), 2 = usage, parse or
validation error, or a grid too large to allocate. Machine-readable lines
(``RESULT ...``) carry no timestamps and use shortest round-trip float
formatting, so identical invocations are byte-identical.

``main`` returns the exit code and never ends the process, so it can be
called in process. A ``qhagg`` process enters through ``run``, which flushes
both streams after ``main`` returns and ends with ``os._exit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

import numpy as np

from . import verify
from .algebra import AggregationFunction, aggregation_from_combiner, unit_function_from_expr
from .construct import GeneratorTriple, catalog_describe, catalog_lookup, from_triple
from .errors import QhaggError
from .numerics import DEFAULT_GRID_N, make_grid
from .verify import PhiSpec, PsiSpec

# ----------------------------------------------------------- function specs


def _parse_triple_item(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise QhaggError(f"triple items look like f=EXPR, got {item!r}")
    key, text = item.split("=", 1)
    if key not in ("f", "g", "h") or not text:
        raise QhaggError(f"triple items are f=..., g=..., h=..., got {item!r}")
    return key, text


#: spec flags, each with the one spec flag it qualifies
_SPEC_FLAG_OWNER = {"alpha": "fn", "beta": "fn", "g": "fn", "h": "fn",
                    "ux": "expr2d", "vy": "expr2d"}


def spec_from_args(args) -> dict:
    """Normalize CLI flags into a function-spec dictionary.

    The same dictionaries, JSON-encoded, form the spec-file format:
    one object with a ``kind`` of catalog, triple, flat, boundary or
    expr2d (see README for the field list of each kind). The parser
    admits exactly one of --fn, --triple, --expr2d and --spec-file; a
    flag that qualifies another of them is refused.
    """
    for key, owner in _SPEC_FLAG_OWNER.items():
        if getattr(args, key) is not None and getattr(args, owner) is None:
            raise QhaggError(f"--{key} applies only to --{owner}")
    if args.spec_file is not None:
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise QhaggError(f"cannot read spec file {args.spec_file}: {exc}")
        if not isinstance(spec, dict) or "kind" not in spec:
            raise QhaggError("spec file must be a JSON object with a 'kind' field")
        return spec

    if args.fn is not None:
        params = {key: getattr(args, key) for key, owner in _SPEC_FLAG_OWNER.items()
                  if owner == "fn" and getattr(args, key) is not None}
        return {"kind": "catalog", "name": args.fn, "params": params}

    if args.triple is not None:
        items = dict(_parse_triple_item(item) for item in args.triple)
        missing = [k for k in ("f", "g", "h") if k not in items]
        if missing:
            raise QhaggError(f"--triple is missing {missing}")
        return {"kind": "triple", **items}

    u = args.ux if args.ux is not None else "x"
    v = args.vy if args.vy is not None else "x"
    return {"kind": "expr2d", "combiner": args.expr2d, "u": u, "v": v}


def build_aggregation(spec: dict, *, validate: bool = True) -> AggregationFunction:
    """Materialize a function-spec dictionary.

    ``validate=False`` builds raw formulas without eager construction
    checks; the check command uses it so that invalid inputs are reported
    as check failures (exit 1) rather than rejected up front.
    """
    kind = spec.get("kind")

    def field(key):
        if key not in spec:
            raise QhaggError(f"{kind} spec is missing the {key!r} field")
        return spec[key]

    if kind == "catalog":
        return catalog_lookup(spec.get("name", ""), spec.get("params") or {})
    if kind == "triple":
        t = GeneratorTriple(
            f=unit_function_from_expr(field("f"), continuous_bijection=True),
            g=unit_function_from_expr(field("g"), increasing=True),
            h=unit_function_from_expr(field("h"), increasing=True),
        )
        return from_triple(t, validate=validate)
    if kind == "flat":
        return catalog_lookup("flat", {"alpha": field("alpha"), "beta": field("beta")})
    if kind == "boundary":
        return catalog_lookup("boundary_only", {"g": spec.get("g", "x"),
                                                "h": spec.get("h", "x")})
    if kind == "expr2d":
        u = unit_function_from_expr(spec.get("u", "x"))
        v = unit_function_from_expr(spec.get("v", "x"))
        return aggregation_from_combiner(field("combiner"), u, v, validate=validate)
    raise QhaggError(f"unknown function-spec kind {kind!r}")


def parse_psi(text: str) -> PsiSpec:
    """Flag grammar: ``power:c=<num> | step0 | step1``."""
    if text == "step0":
        return PsiSpec.step_at_zero()
    if text == "step1":
        return PsiSpec.step_at_one()
    if text.startswith("power:c="):
        try:
            return PsiSpec.power(float(text[len("power:c="):]))
        except ValueError:
            pass
    raise QhaggError(f"psi must be 'power:c=<num>', 'step0' or 'step1', got {text!r}")


# ---------------------------------------------------------------- commands


def cmd_eval(args) -> int:
    A = build_aggregation(spec_from_args(args))
    if not (0.0 <= args.x <= 1.0) or not (0.0 <= args.y <= 1.0):
        raise QhaggError(f"arguments must lie in [0, 1], got ({args.x}, {args.y})")
    print(f"{A(args.x, args.y):.17g}")
    return 0


def cmd_check(args) -> int:
    if args.tol is not None and not args.tol >= 0.0:
        raise QhaggError(f"--tol must be a number >= 0, got {args.tol!r}")
    A = build_aggregation(spec_from_args(args), validate=False)
    grid = make_grid(args.grid)
    # the default tolerances live in the library
    tol = {} if args.tol is None else {"tol": args.tol}

    if args.mode == "agg":
        report = verify.check_aggregation(A, grid=grid, **tol)
        passed, residual = report.passed, report.max_violation
    elif args.mode == "qh":
        if args.psi is None:
            raise QhaggError("--mode qh requires --psi")
        b = None if args.phi_b is None else float(args.phi_b)  # "inf", the one value admitted
        psi, phi = parse_psi(args.psi), PhiSpec.from_expr(args.phi, b=b)
        report = verify.check_quasi_homogeneity(A, phi, psi, grid=grid, **tol)
        passed, residual = report.passed, report.max_residual
    else:
        report = verify.classify(A, grid=grid, **tol)
        passed, residual = report.is_quasi_homogeneous, report.max_residual
    print(report)
    print(f"RESULT {'pass' if passed else 'fail'} max_residual={residual!r}")
    return 0 if passed else 1


def cmd_grid(args) -> int:
    A = build_aggregation(spec_from_args(args))
    p = make_grid(args.n).points
    V = verify._sample(A.evaluator, p)
    if not args.out:
        _write_csv(sys.stdout, p, V)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_csv(fh, p, V)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_csv(fh, p, V) -> None:
    """``x,y,value`` lines with y fastest, written one row of V at a time."""
    labels = [repr(x) for x in p.tolist()]
    fh.write("x,y,value\n")
    for x, row in zip(labels, V.tolist()):
        fh.write("".join([f"{x},{y},{v!r}\n" for y, v in zip(labels, row)]))


def cmd_catalog(args) -> int:
    for name, desc, keys in catalog_describe():
        params = f" (params: {', '.join(keys)})" if keys else ""
        print(f"{name}: {desc}{params}")
    return 0


def load_grid_csv(path: str) -> AggregationFunction:
    """Re-ingest a dumped grid as a tabulated aggregation function.

    Defined exactly at the dumped sample points; shortest round-trip float
    formatting makes the tabulated values agree with the source bit for
    bit. At a point the dump does not hold the table is NaN, which a check
    reports as a witness. A malformed header or row raises QhaggError.
    """
    table: dict[tuple[float, float], float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,y,value":
            raise QhaggError(f"unexpected CSV header {header!r} in {path}")
        for lineno, line in enumerate(fh, start=2):
            try:
                xs, ys, vs = line.strip().split(",")
                table[(float(xs), float(ys))] = float(vs)
            except ValueError:
                raise QhaggError(f"{path} line {lineno}: expected x,y,value, "
                                 f"got {line.strip()!r}") from None

    def lookup(x, y):
        return table.get((float(x), float(y)), np.nan)

    return AggregationFunction(evaluator=np.vectorize(lookup, otypes=[float]),
                               provenance="tabulated", name=f"csv:{path}")


# ------------------------------------------------------------------ parser


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--fn", help="catalog entry name (see the catalog command)")
    which.add_argument("--triple", nargs=3, metavar=("f=EXPR", "g=EXPR", "h=EXPR"),
                       help="generator triple, e.g. --triple f=x g=x h=2*x/(1+x)")
    which.add_argument("--expr2d", metavar="COMBINER",
                       help="combine two unit expressions: min, max, product, mean, bounded_sum")
    which.add_argument("--spec-file", help="JSON function-spec file (see README)")
    p.add_argument("--alpha", type=float, help="flat-class boundary constant A(0, y)")
    p.add_argument("--beta", type=float, help="flat-class boundary constant A(x, 0)")
    p.add_argument("--g", help="boundary-class section A(1, y) as an expression")
    p.add_argument("--h", help="boundary-class section A(x, 1) as an expression")
    p.add_argument("--ux", help="expression u(x) for --expr2d (default x)")
    p.add_argument("--vy", help="expression v(y) for --expr2d (default x)")


def build_parser() -> argparse.ArgumentParser:
    # flags are never abbreviated, so _attach_dash_values matches them exactly
    parser = argparse.ArgumentParser(
        prog="qhagg", allow_abbrev=False,
        description="Construct, verify and classify quasi-homogeneous "
                    "aggregation functions on the unit square.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate A(x, y)", allow_abbrev=False)
    _add_spec_flags(p_eval)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--y", type=float, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run a property check", allow_abbrev=False)
    _add_spec_flags(p_check)
    p_check.add_argument("--mode", choices=("agg", "qh", "classify"), required=True)
    p_check.add_argument("--psi", help="scaling function: power:c=<num> | step0 | step1")
    p_check.add_argument("--phi", default="x",
                         help="scaling bijection as an expression (default x)")
    p_check.add_argument("--phi-b", dest="phi_b", default=None, choices=("inf",),
                         help="'inf' to read the phi expression on [0,1) with phi(1)=inf")
    p_check.add_argument("--grid", type=int, default=DEFAULT_GRID_N, metavar="N",
                         help="grid resolution (N+1 points per axis, default %(default)s)")
    p_check.add_argument("--tol", type=float, default=None,
                         help="tolerance (default 1e-9; 1e-6 for classify)")
    p_check.set_defaults(func=cmd_check)

    p_grid = sub.add_parser("grid", help="dump A on a grid as CSV", allow_abbrev=False)
    _add_spec_flags(p_grid)
    p_grid.add_argument("--n", type=int, default=DEFAULT_GRID_N,
                        help="grid resolution (default %(default)s)")
    p_grid.add_argument("--out", help="output path (default stdout)")
    p_grid.set_defaults(func=cmd_grid)

    p_cat = sub.add_parser("catalog", help="list catalog entries", allow_abbrev=False)
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def _attach_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Join a value that begins with one '-' (``-1e-3``, ``-x+2*x``) to the one-value
    option before it as ``--flag=value``; argparse would read it as an option."""
    subs = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s: a for p in (parser, *subs.values()) for s, a in p._option_string_actions.items()}
    out: list[str] = []
    for tok in argv:
        action = options.get(out[-1]) if out else None
        if (action is not None and action.nargs is None and tok[:1] == "-"
                and tok[1:2] not in ("", "-") and tok not in options):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(parser, sys.argv[1:] if argv is None else argv))
    for key, value in vars(args).items():
        if value == []:  # argparse drops the value '--' of --flag=--, leaving []
            parser.error(f"argument --{key.replace('_', '-')}: expected one argument")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: an I/O failure. Point stdout at devnull,
        # so that the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except QhaggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid too large to sample: numpy refuses the request up front
        print(f"error: grid too large: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry point: ``main()``, then flush stdout and stderr and
    end the process at once with main's exit code.

    The hard exit skips the interpreter's teardown, which frees every
    object and module just before the process ends anyway: about 11 ms a
    process with numpy and qhagg imported (17 ms against 6 ms for a bare
    interpreter). It skips ``atexit`` handlers too, and output still
    buffered in streams other than these two; qhagg writes ``--out``
    files through ``with`` blocks that close before ``main`` returns. A
    ``SystemExit`` from argparse, or an exception that ``main`` does not
    turn into an exit code, leaves through the interpreter's normal exit.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
