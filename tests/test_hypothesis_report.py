"""A failing Hypothesis property is reported as a failure under -W error.

The tier-1 suite runs with every warning an error. When a property fails,
Hypothesis's pytest plugin imports its patch writer, whose dependencies
raised a DeprecationWarning that ended the run in an INTERNALERROR (exit 3)
and hid the falsifying example; ``conftest.py`` imports it up front.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_deliberately_fails(n):
    assert n < 5
'''


def test_a_failing_property_exits_1_and_prints_its_example(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_failing.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error",
                          "-p", "no:cacheprovider", "test_failing.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_deliberately_fails(" in run.stdout
