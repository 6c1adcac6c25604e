import json
import shlex
import subprocess
import sys

import numpy as np
import pytest
from test_cli_golden import GOLDEN

from qhagg import catalog_lookup, classify, cli, make_grid
from qhagg.cli import build_aggregation, load_grid_csv


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qhagg", *args],
                          capture_output=True, text=True)


class TestEval:
    def test_harmonic_min(self):
        res = run_cli("eval", "--fn", "harmonic_min", "--x", "0.3", "--y", "0.6")
        assert res.returncode == 0
        assert float(res.stdout) == pytest.approx(0.4, abs=1e-12)

    def test_drastic_interior_is_zero(self):
        res = run_cli("eval", "--fn", "drastic", "--x", "0.5", "--y", "0.9")
        assert res.returncode == 0
        assert float(res.stdout) == 0.0

    def test_min_corner(self):
        res = run_cli("eval", "--fn", "min", "--x", "1", "--y", "1")
        assert res.returncode == 0
        assert float(res.stdout) == 1.0

    def test_seventeen_significant_digits(self):
        res = run_cli("eval", "--fn", "harmonic_min", "--x", "0.3", "--y", "0.6")
        mantissa = res.stdout.strip().replace(".", "").lstrip("0")
        assert len(mantissa) == 17

    def test_out_of_range_point(self):
        res = run_cli("eval", "--fn", "min", "--x", "1.5", "--y", "0")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_bad_expression_reports_position(self):
        res = run_cli("eval", "--expr2d", "mean", "--ux", "2*/x", "--x", "0", "--y", "0")
        assert res.returncode == 2
        assert "offset 2" in res.stderr

    def test_unknown_catalog_entry(self):
        res = run_cli("eval", "--fn", "nope", "--x", "0", "--y", "0")
        assert res.returncode == 2

    def test_spec_required(self):
        res = run_cli("eval", "--x", "0", "--y", "0")
        assert res.returncode == 2

    @pytest.mark.parametrize("argv, stray, owner", [
        (["--triple", "f=x", "g=x", "h=x", "--alpha", "0.3"], "alpha", "fn"),
        (["--triple", "f=x", "g=x", "h=x", "--ux", "x^2"], "ux", "expr2d"),
        (["--expr2d", "min", "--alpha", "0.2"], "alpha", "fn"),
        (["--expr2d", "min", "--g", "x^2"], "g", "fn"),
        (["--fn", "flat", "--alpha", "0.2", "--beta", "0.7", "--vy", "x"], "vy", "expr2d"),
        (["--fn", "min", "--ux", "x"], "ux", "expr2d"),
        (["--spec-file", "unread.json", "--h", "x"], "h", "fn"),
        (["--spec-file", "unread.json", "--ux", "x"], "ux", "expr2d"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_flag_of_another_spec_kind_is_refused(self, capsys, argv, stray, owner):
        assert cli.main(["eval", *argv, "--x", "0.5", "--y", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --{stray} applies only to --{owner}\n"


class TestCheck:
    def test_drastic_step1_passes(self):
        res = run_cli("check", "--fn", "drastic", "--mode", "qh",
                      "--psi", "step1", "--phi", "x")
        assert res.returncode == 0
        assert "RESULT pass max_residual=0.0" in res.stdout

    def test_classify_product(self):
        res = run_cli("check", "--fn", "product", "--mode", "classify",
                      "--grid", "50")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "Class1 delta=x^2 (fitted)"
        assert "RESULT pass" in res.stdout

    def test_classify_flat(self):
        res = run_cli("check", "--fn", "flat", "--alpha", "0.2", "--beta", "0.7",
                      "--mode", "classify", "--grid", "50")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "Class2 alpha=0.2 beta=0.7"

    def test_classify_drastic(self):
        res = run_cli("check", "--fn", "drastic", "--mode", "classify",
                      "--grid", "50")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "Class3 g=x (fitted) h=x (fitted)"

    def test_classify_refuted(self):
        res = run_cli("check", "--expr2d", "bounded_sum", "--mode", "classify",
                      "--grid", "50")
        assert res.returncode == 1
        assert res.stdout.startswith("NotQuasiHomogeneous witness=")
        assert "RESULT fail" in res.stdout

    def test_invalid_triple_fails_aggregation_check(self):
        res = run_cli("check", "--triple", "f=x", "g=x", "h=x^2",
                      "--mode", "agg", "--grid", "50")
        assert res.returncode == 1
        assert "RESULT fail" in res.stdout
        assert "decreasing in y" in res.stdout

    def test_valid_triple_passes_aggregation_check(self):
        res = run_cli("check", "--triple", "f=x", "g=x", "h=2*x/(1+x)",
                      "--mode", "agg", "--grid", "50")
        assert res.returncode == 0
        assert "RESULT pass" in res.stdout

    def test_qh_mode_requires_psi(self):
        res = run_cli("check", "--fn", "min", "--mode", "qh")
        assert res.returncode == 2

    def test_bad_psi_grammar(self):
        res = run_cli("check", "--fn", "min", "--mode", "qh", "--psi", "power:2")
        assert res.returncode == 2

    def test_power_psi_flag(self):
        res = run_cli("check", "--fn", "min", "--mode", "qh",
                      "--psi", "power:c=1", "--phi", "x", "--grid", "50")
        assert res.returncode == 0

    def test_phi_expression_and_unbounded(self):
        res = run_cli("check", "--fn", "drastic", "--mode", "qh",
                      "--psi", "step1", "--phi", "x^2", "--grid", "50")
        assert res.returncode == 0
        res = run_cli("check", "--fn", "drastic", "--mode", "qh",
                      "--psi", "step1", "--phi", "x/(1-x)", "--phi-b", "inf",
                      "--grid", "50")
        assert res.returncode == 0

    def test_every_phi_is_an_expression_and_its_label_echoes_the_text(self, capsys):
        # the identity too: a padded ' x ' reads as x, labelled as typed,
        # like a padded ' x^2 '
        outs = []
        for phi, c in (("x", 2), (" x ", 2), ("x^2", 4), (" x^2 ", 4)):
            assert cli.main(["check", "--fn", "product", "--mode", "qh", "--psi", f"power:c={c}",
                             "--phi", phi, "--grid", "20"]) == 0
            outs.append(capsys.readouterr().out)
        for bare, padded in (outs[:2], outs[2:]):
            assert padded == bare.replace(" phi=x", " phi= x").replace(": max", " : max")
        assert "phi= x : max" in outs[1] and "phi= x^2 : max" in outs[3]

    def test_failing_check_exits_one(self):
        res = run_cli("check", "--fn", "product", "--mode", "qh",
                      "--psi", "power:c=1", "--phi", "x", "--grid", "50")
        assert res.returncode == 1
        assert "RESULT fail" in res.stdout

    @pytest.mark.parametrize("mode,n", [("agg", "10000000"), ("qh", "5000000")])
    def test_oversized_grid_is_a_usage_error(self, mode, n):
        # numpy refuses the (n+1)^2 sample up front, without allocating it
        res = run_cli("check", "--fn", "min", "--mode", mode, "--psi", "power:c=1",
                      "--grid", n)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: grid too large")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("mode", ["agg", "qh", "classify"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf", "-1e-300"])
    def test_nan_or_negative_tol_is_a_usage_error(self, capsys, mode, tol):
        assert cli.main(["check", "--fn", "product", "--mode", mode, "--psi", "power:c=1",
                         "--grid", "10", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must be a number >= 0, got {float(tol)!r}\n"

    @pytest.mark.parametrize("tol, residual", [("0", "0.0"), ("-0.0", "0.0"), ("inf", "0.0")])
    def test_zero_and_infinite_tol_are_accepted(self, capsys, tol, residual):
        assert cli.main(["check", "--fn", "product", "--mode", "agg", "--grid", "10",
                         f"--tol={tol}"]) == 0
        assert capsys.readouterr().out.endswith(f"RESULT pass max_residual={residual}\n")


CLASSIFY_CASES = [case[0] for case in GOLDEN if "--mode classify" in case[0]]


@pytest.mark.parametrize("args", CLASSIFY_CASES)
def test_check_classify_prints_the_library_report(capsys, args):
    """``check --mode classify`` prints ``str(classify(...))`` and then the
    RESULT line, nothing else."""
    ns = cli.build_parser().parse_args(["check", *shlex.split(args)])
    A = build_aggregation(cli.spec_from_args(ns), validate=False)
    tol = {} if ns.tol is None else {"tol": ns.tol}
    report = classify(A, grid=make_grid(ns.grid), **tol)
    verdict = "pass" if report.is_quasi_homogeneous else "fail"
    expected = f"{report}\nRESULT {verdict} max_residual={report.max_residual!r}\n"
    assert cli.main(["check", *shlex.split(args)]) == (0 if verdict == "pass" else 1)
    assert capsys.readouterr().out == expected


class TestGrid:
    def test_min_n2(self):
        res = run_cli("grid", "--fn", "min", "--n", "2")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 9
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == [0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.5, 1.0]

    def test_flat_n1_rows(self):
        res = run_cli("grid", "--fn", "flat", "--alpha", "0.2", "--beta", "0.7",
                      "--n", "1")
        rows = [tuple(map(float, line.split(",")))
                for line in res.stdout.strip().splitlines()[1:]]
        assert rows == [(0.0, 0.0, 0.0), (0.0, 1.0, 0.2),
                        (1.0, 0.0, 0.7), (1.0, 1.0, 1.0)]

    def test_harmonic_full_grid_in_range(self):
        res = run_cli("grid", "--fn", "harmonic_min", "--n", "100")
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 1 + 101 * 101
        values = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_lexicographic_order(self):
        res = run_cli("grid", "--fn", "min", "--n", "3")
        rows = [tuple(map(float, line.split(",")[:2]))
                for line in res.stdout.strip().splitlines()[1:]]
        assert rows == sorted(rows)

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "dump.csv"
        res = run_cli("grid", "--fn", "product", "--n", "20", "--out", str(out))
        assert res.returncode == 0
        table = load_grid_csv(str(out))
        A = catalog_lookup("product")
        p = make_grid(20).points
        for x in p:
            for y in p:
                assert table(float(x), float(y)) == A(float(x), float(y))

    def test_unwritable_path(self, tmp_path):
        res = run_cli("grid", "--fn", "min", "--n", "1",
                      "--out", str(tmp_path / "no" / "dir" / "f.csv"))
        assert res.returncode == 1

    def test_determinism(self):
        a = run_cli("grid", "--fn", "harmonic_min", "--n", "30")
        b = run_cli("grid", "--fn", "harmonic_min", "--n", "30")
        assert a.stdout == b.stdout
        c = run_cli("check", "--fn", "product", "--mode", "classify", "--grid", "30")
        d = run_cli("check", "--fn", "product", "--mode", "classify", "--grid", "30")
        assert c.stdout == d.stdout

    def test_oversized_grid_is_a_usage_error(self, tmp_path):
        out = tmp_path / "huge.csv"
        res = run_cli("grid", "--fn", "min", "--n", "10000000", "--out", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error: grid too large")
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv,spec,n", [
        (["--fn", "harmonic_min"], {"kind": "catalog", "name": "harmonic_min"}, 7),
        (["--fn", "product"], {"kind": "catalog", "name": "product"}, 13),
        (["--fn", "flat", "--alpha", "0.2", "--beta", "0.7"],
         {"kind": "flat", "alpha": 0.2, "beta": 0.7}, 9),
        (["--triple", "f=x^2", "g=x", "h=2*x/(1+x)"],
         {"kind": "triple", "f": "x^2", "g": "x", "h": "2*x/(1+x)"}, 11),
    ], ids=["harmonic_min", "product", "flat", "triple"])
    def test_csv_text_is_the_scalar_by_scalar_dump(self, tmp_path, argv, spec, n):
        p = make_grid(n).points
        V = np.asarray(build_aggregation(spec).evaluator(p[:, None], p[None, :]))
        lines = ["x,y,value"]
        for i in range(len(p)):
            for j in range(len(p)):
                lines.append(f"{float(p[i])!r},{float(p[j])!r},{float(V[i, j])!r}")
        text = "\n".join(lines) + "\n"
        res = run_cli("grid", *argv, "--n", str(n))
        assert res.returncode == 0 and res.stdout == text
        out = tmp_path / "dump.csv"
        res = run_cli("grid", *argv, "--n", str(n), "--out", str(out))
        assert res.returncode == 0 and res.stdout == ""
        assert out.read_bytes() == text.encode("utf-8")

    def test_a_closed_stdout_is_an_io_failure_not_a_traceback(self):
        # the reader takes one line of a dump of several MiB and closes the
        # pipe; a capsys stdout has no file descriptor, so this runs apart
        proc = subprocess.Popen([sys.executable, "-m", "qhagg", "grid", "--fn", "product",
                                 "--n", "300"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "x,y,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""


class TestValuesBeginningWithADash:
    """A value that begins with '-' reaches its flag in the spaced spelling,
    as it does in the --flag=value one."""

    def test_negative_point_reaches_the_range_check(self, capsys):
        assert cli.main(["eval", "--fn", "min", "--x", "-1e-3", "--y", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: arguments must lie in [0, 1], got (-0.001, 0.0)\n"

    @pytest.mark.parametrize("tol", ["-1e-3", "-inf"])
    def test_negative_tol_reaches_the_tol_check(self, capsys, tol):
        assert cli.main(["check", "--fn", "product", "--mode", "agg", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must be a number >= 0, got {float(tol)!r}\n"

    def test_expression_with_a_leading_minus(self, capsys):
        assert cli.main(["eval", "--expr2d", "min", "--ux", "-x+2*x",
                         "--x", "0.5", "--y", "0.5"]) == 0
        assert capsys.readouterr().out == "0.5\n"

    @pytest.mark.parametrize("flag, argv", [
        ("--x", ["--fn", "min", "--x=--", "--y", "0"]),
        ("--spec-file", ["--spec-file=--", "--x", "0", "--y", "0"]),
    ], ids=["--x=--", "--spec-file=--"])
    def test_a_lone_double_dash_value_is_a_usage_error(self, capsys, flag, argv):
        # argparse drops the '--' of --flag=--; the flag gets no value
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected one argument" in err
        assert "Traceback" not in err

    def test_help_flag_stays_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--fn", "min", "--x", "-h"])
        assert exc.value.code == 2
        assert "argument --x: expected one argument" in capsys.readouterr().err


class TestAbbreviatedFlags:
    """A flag has one spelling: an abbreviation is refused, whichever way its
    value is spelled."""

    @pytest.mark.parametrize("flags", [
        ["--to", "-1e-3"],
        ["--to=-1e-3"],
        ["--gr", "4", "--to", "1e-3"],
    ], ids=["spaced", "joined", "positive"])
    def test_abbreviation_is_an_unrecognized_argument(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--fn", "product", "--mode", "agg", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {' '.join(flags)}\n" in captured.err
        assert "Traceback" not in captured.err


class TestCatalogCommand:
    def test_lists_entries(self):
        res = run_cli("catalog")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("min:")
        assert any("params: alpha, beta" in line for line in lines)


class TestSpecFiles:
    def test_triple_spec_file(self, tmp_path):
        spec = {"kind": "triple", "f": "x", "g": "x", "h": "2*x/(1+x)"}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec))
        res = run_cli("eval", "--spec-file", str(path), "--x", "0.3", "--y", "0.6")
        assert res.returncode == 0
        assert float(res.stdout) == pytest.approx(0.4, abs=1e-12)

    def test_expr2d_spec_file(self, tmp_path):
        spec = {"kind": "expr2d", "combiner": "mean", "u": "x", "v": "x"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        res = run_cli("eval", "--spec-file", str(path), "--x", "0.2", "--y", "0.6")
        assert res.returncode == 0
        assert float(res.stdout) == pytest.approx(0.4, abs=1e-12)

    def test_flat_and_boundary_kinds(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": "flat", "alpha": 0.2, "beta": 0.7}))
        res = run_cli("eval", "--spec-file", str(path), "--x", "0", "--y", "0.5")
        assert float(res.stdout) == 0.2
        path.write_text(json.dumps({"kind": "boundary", "g": "x^2", "h": "x"}))
        res = run_cli("eval", "--spec-file", str(path), "--x", "1", "--y", "0.5")
        assert float(res.stdout) == 0.25

    def test_malformed_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        res = run_cli("eval", "--spec-file", str(path), "--x", "0", "--y", "0")
        assert res.returncode == 2

    def test_missing_spec_file(self):
        res = run_cli("eval", "--spec-file", "/nonexistent.json",
                      "--x", "0", "--y", "0")
        assert res.returncode == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "triple", "f": "x"},
        {"kind": "expr2d"},
        {"kind": "flat"},
        {"kind": "catalog", "name": "flat", "params": {"alpha": "a", "beta": 0.5}},
        {"kind": "triple", "f": 1, "g": "x", "h": "x"},
        {"kind": "catalog", "name": "min", "params": [1]},
        {"kind": "flat", "alpha": None, "beta": 0.5},
        {"kind": "expr2d", "combiner": "min", "u": 3},
        {"kind": "expr2d", "combiner": ["min"]},
        {"kind": "catalog", "name": ["min"]},
        {"kind": "boundary", "g": None},
        {"kind": "boundary", "g": 1},
        {"kind": "catalog", "name": "boundary_only", "params": {"g": None, "h": "x"}},
    ], ids=json.dumps)
    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys, spec):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["check", "--mode", "agg", "--spec-file", str(path),
                         "--grid", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        {"kind": "boundary", "g": None},
        {"kind": "catalog", "name": "boundary_only", "params": {"g": None, "h": "x"}},
    ], ids=json.dumps)
    def test_null_section_is_named(self, tmp_path, capsys, spec):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["check", "--mode", "agg", "--spec-file", str(path),
                         "--grid", "10"]) == 2
        assert capsys.readouterr().err == (
            "error: expression must be a string, got None (at offset 0)\n")


PSI_GRAMMAR = "psi must be 'power:c=<num>', 'step0' or 'step1', got {!r}"
POINT = ["--x", "0.5", "--y", "0.5"]
CHECK_SPEC_FILE = ["check", "--mode", "agg", "--spec-file"]


class TestUsageErrorLines:
    """Each usage error exits 2 with one exact stderr line and no stdout; a
    spec file, where given, is written first and its path ends the argv."""

    @pytest.mark.parametrize("argv, spec, line", [
        (["check", "--fn", "product", "--mode", "qh"], None, "--mode qh requires --psi"),
        *[(["check", "--fn", "product", "--mode", "qh", "--psi", psi], None,
           PSI_GRAMMAR.format(psi)) for psi in ("power:c=abc", "power", "step2")],
        (["eval", *POINT, "--triple", "fx", "g=x", "h=x"], None,
         "triple items look like f=EXPR, got 'fx'"),
        (["eval", *POINT, "--triple", "q=x", "g=x", "h=x"], None,
         "triple items are f=..., g=..., h=..., got 'q=x'"),
        (["eval", *POINT, "--triple", "f=", "g=x", "h=x"], None,
         "triple items are f=..., g=..., h=..., got 'f='"),
        (["eval", *POINT, "--triple", "f=x", "g=x", "g=x"], None,
         "--triple is missing ['h']"),
        (CHECK_SPEC_FILE, "[]", "spec file must be a JSON object with a 'kind' field"),
        (CHECK_SPEC_FILE, "{}", "spec file must be a JSON object with a 'kind' field"),
        (CHECK_SPEC_FILE, '{"kind": "nope"}', "unknown function-spec kind 'nope'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_one_error_line(self, tmp_path, capsys, argv, spec, line):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(spec)
            argv = [*argv, str(path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"
