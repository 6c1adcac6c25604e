"""The CLI's exit-code contract under generated argv.

``cli.main`` is called in-process on argv drawn from the real vocabulary
(subcommands, spec flags, modes, ``--psi``/``--phi`` spellings, grids of
at most 8) plus junk values, some beginning with '-', in both the spaced
and the ``--flag=value`` spelling. Every call returns or exits 0, 1 or 2,
raises nothing else, and writes no traceback to stderr.
"""

import json
import re

from conftest import run_cli
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qhagg import catalog_names

JUNK = st.sampled_from(["", "-", "--", "-x", "-1e-3", "-inf", "inf", "nan", "-h", "x^",
                        "1/0", "(x", "abc", "=", "1e999", "0x10", "-0.5", "2"])


def mostly(real, junk=JUNK):
    """``real`` five times in six, ``junk`` otherwise."""
    return st.integers(0, 5).flatmap(lambda k: junk if k == 0 else real)


def choice(*values):
    """One of ``values`` five times in six, junk otherwise."""
    return mostly(st.sampled_from(values))


NUMBERS = mostly(st.floats(0.0, 1.0).map(repr), st.floats().map(repr) | JUNK)
# grids come from a bounded range or the fixed junk list, never from free
# text: a free integer would ask for a grid of any size
SIZES = mostly(st.integers(1, 8).map(str), st.integers(-2, 0).map(str) | JUNK)
EXPRS = mostly(st.sampled_from(["x", "x^2", "2*x/(1+x)", "-x+2*x", "x/(1-x)", "0.5", "1-x"]),
               st.text("x0123456789.+-*/^() ", max_size=12) | JUNK)
PSIS = choice("power:c=2", "power:c=0.5", "power:c=-1", "power:c=x", "step0", "step1")
# placeholders for paths under the test's tmp_path; no other value holds '@'
OUT = st.sampled_from(["@out", "@dir"])
SPEC_FILES = {
    "@triple": {"kind": "triple", "f": "x^2", "g": "x", "h": "2*x/(1+x)"},
    "@flat": {"kind": "flat", "alpha": 0.2, "beta": 0.7},
    "@null": {"kind": "boundary", "g": None},
    "@list": [1, 2],
    "@nokind": {"f": "x"},
}


@st.composite
def spec(draw):
    """The pieces of one function spec, with the flags it needs."""
    kind = draw(st.sampled_from(["fn", "triple", "expr2d", "spec-file"]))
    if kind == "fn":
        name = draw(choice(*catalog_names()))
        needs = {"flat": ["--alpha", "--beta"], "boundary_only": ["--g", "--h"]}.get(name, [])
        return [("--fn", name)] + [(f, draw(EXPRS if f in ("--g", "--h") else NUMBERS))
                                   for f in needs]
    if kind == "triple":
        items = [draw(mostly(EXPRS.map(lambda e, k=k: f"{k}={e}"))) for k in "fgh"]
        return [("--triple", *items)]
    if kind == "expr2d":
        pieces = [("--expr2d", draw(choice("min", "max", "product", "mean", "bounded_sum")))]
        return pieces + [(f, draw(EXPRS)) for f in ("--ux", "--vy") if draw(st.booleans())]
    return [("--spec-file", draw(choice(*SPEC_FILES, "@badjson", "@missing")))]


def flag(name, values):
    return st.tuples(st.just(name), values)


EXTRAS = (spec().map(lambda pieces: pieces[0]) | flag("--mode", choice("agg", "qh", "classify"))
          | flag("--alpha", NUMBERS) | flag("--g", EXPRS) | flag("--vy", EXPRS)
          | flag("--x", NUMBERS) | flag("--tol", NUMBERS) | flag("--psi", PSIS)
          | flag("--phi", EXPRS) | flag("--phi-b", choice("inf"))
          | flag("--grid", SIZES) | flag("--n", SIZES) | flag("--out", OUT)
          | JUNK.map(lambda t: (t,)))


@st.composite
def argvs(draw):
    command = draw(choice("eval", "check", "grid", "catalog"))
    pieces = [] if command == "catalog" else draw(spec())
    if command == "eval":
        pieces += [("--x", draw(NUMBERS)), ("--y", draw(NUMBERS))]
    if command == "check":
        mode = draw(choice("agg", "qh", "classify"))
        pieces += [("--mode", mode), ("--grid", draw(SIZES))]
        if mode == "qh":
            pieces += [("--psi", draw(PSIS))]
            pieces += [("--phi", draw(EXPRS))] if draw(st.booleans()) else []
            pieces += [("--phi-b", draw(choice("inf")))] if draw(st.booleans()) else []
        pieces += [("--tol", draw(NUMBERS))] if draw(st.booleans()) else []
    if command == "grid":
        pieces += [("--n", draw(SIZES))]
        pieces += [("--out", draw(OUT))] if draw(st.booleans()) else []
    pieces += draw(st.lists(EXTRAS, max_size=2)) if draw(st.booleans()) else []
    argv = [command]
    for piece in draw(st.permutations(pieces)):
        joined = len(piece) == 2 and draw(st.booleans())
        argv += [f"{piece[0]}={piece[1]}"] if joined else list(piece)
    return argv


def run_main(tmp_path, argv):
    """(exit code, stderr) of ``cli.main`` on argv with its placeholders
    replaced by paths under tmp_path."""
    for key, content in SPEC_FILES.items():
        (tmp_path / key[1:]).write_text(json.dumps(content), encoding="utf-8")
    (tmp_path / "badjson").write_text("{", encoding="utf-8")
    paths = {key: str(tmp_path / key[1:])
             for key in [*SPEC_FILES, "@badjson", "@missing", "@out"]}
    paths["@dir"] = str(tmp_path)
    res = run_cli(*[re.sub(r"@\w+", lambda m: paths[m[0]], tok) for tok in argv])
    return res.returncode, res.stderr


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_argv_exits_0_1_or_2_without_a_traceback(tmp_path, argv):
    code, err = run_main(tmp_path, argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
