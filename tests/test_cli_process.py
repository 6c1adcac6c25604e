"""A ``qhagg`` process prints what ``cli.main`` prints.

Each argv runs twice: as ``python -m qhagg ARGV`` in a child process, and
as ``cli.main(ARGV)`` in this one. The exit code, stdout and stderr must
be identical, on every exit path (a pass, a refutation, a library error,
an argparse usage error, ``--help``). A dump of several MiB written to a
regular file must arrive whole, byte for byte as ``--out`` writes it.
``cli.run``, the process entry point, ends the process with main's code
and leaves an argparse ``SystemExit`` to the interpreter's normal exit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from qhagg import cli

#: argparse wraps help and usage at the terminal width; pin it for both runs
COLUMNS = "80"

ARGVS = {
    "check-pass": ["check", "--fn", "product", "--mode", "agg", "--grid", "4"],
    "check-refuted": ["check", "--triple", "f=x", "g=x", "h=x^2", "--mode", "agg",
                      "--grid", "4"],
    "qhagg-error": ["eval", "--fn", "min", "--x", "-1e-3", "--y", "0"],
    "usage-error": ["check", "--fn", "product", "--grid", "4"],
    "help": ["--help"],
    "catalog": ["catalog"],
    "grid-stdout": ["grid", "--fn", "product", "--n", "4"],
}

EXIT_CODES = {"check-pass": 0, "check-refuted": 1, "qhagg-error": 2, "usage-error": 2,
              "help": 0, "catalog": 0, "grid-stdout": 0}


def child_env() -> dict:
    return {**os.environ, "COLUMNS": COLUMNS}


def in_process(argv, capsys) -> tuple[int, str, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", list(ARGVS))
def test_the_process_prints_what_main_prints(case, capsys, monkeypatch):
    argv = ARGVS[case]
    child = subprocess.run([sys.executable, "-m", "qhagg", *argv], env=child_env(),
                           capture_output=True, text=True)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code, out, err = in_process(argv, capsys)
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)
    assert code == EXIT_CODES[case]


def test_a_large_dump_to_a_regular_file_arrives_whole(tmp_path):
    # about 4.2 MB, far past any stream buffer: every byte must reach the
    # file before the process ends
    argv = [sys.executable, "-m", "qhagg", "grid", "--fn", "harmonic_min", "--n", "300"]
    redirected, written = tmp_path / "stdout.csv", tmp_path / "out.csv"
    with open(redirected, "wb") as fh:
        assert subprocess.run(argv, stdout=fh, env=child_env()).returncode == 0
    assert subprocess.run([*argv, "--out", str(written)], env=child_env()).returncode == 0
    data = redirected.read_bytes()
    assert len(data) > 4_000_000
    assert data == written.read_bytes()


@pytest.mark.parametrize("case", ["check-pass", "check-refuted", "qhagg-error"])
def test_run_ends_the_process_with_mains_code(case, monkeypatch, capsys):
    ended = []
    monkeypatch.setattr(sys, "argv", ["qhagg", *ARGVS[case]])
    monkeypatch.setattr(os, "_exit", ended.append)
    cli.run()
    assert ended == [EXIT_CODES[case]]


def test_a_usage_error_leaves_run_through_the_normal_exit(monkeypatch, capsys):
    ended = []
    monkeypatch.setattr(sys, "argv", ["qhagg", *ARGVS["usage-error"]])
    monkeypatch.setattr(os, "_exit", ended.append)
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 2 and ended == []
