"""Freed array buffers stay in the heap, so repeated sweeps do not fault.

On glibc, importing qhagg fixes the allocator's trim and mmap thresholds.
A classify of a triple whose f is inverted by bisection then runs on pages
that earlier runs left mapped; with glibc's default thresholds the same
call faults about 5,000 pages back in every time.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from qhagg import heap

GLIBC = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")

SCRIPT = """
import resource
import qhagg

uf = qhagg.unit_function_from_expr
A = qhagg.from_triple(qhagg.GeneratorTriple(
    f=uf("x*x", continuous_bijection=True), g=uf("x", increasing=True),
    h=uf("2*x/(1+x)", increasing=True)))
grid = qhagg.make_grid(50)
for _ in range(2):
    qhagg.classify(A, grid=grid)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert qhagg.classify(A, grid=grid).verdict == qhagg.CLASS1
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def run_faults(**tuning) -> int:
    env = {k: v for k, v in os.environ.items() if k not in heap.TUNING_ENV}
    env.update(tuning)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    p = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                       text=True, check=True, timeout=120)
    return int(p.stdout.split()[-1])


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set on glibc only")
def test_repeated_classify_reuses_heap_pages():
    assert run_faults() < 500


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set on glibc only")
def test_top_pad_in_the_environment_keeps_the_thresholds():
    # glibc's own default top pad; setting it at all switches off the
    # dynamic mmap threshold, so every slab would be a fresh mapping
    assert run_faults(MALLOC_TOP_PAD_=str(128 * 1024)) < 500


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set on glibc only")
@pytest.mark.parametrize("name, value, both_set", [
    ("MALLOC_TOP_PAD_", "131072", True),
    ("MALLOC_MMAP_MAX_", "65536", True),
    ("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0", True),
    ("MALLOC_MMAP_THRESHOLD_", "131072", False),
    ("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0:glibc.malloc.trim_threshold=131072", False),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072", False),
])
def test_only_a_threshold_the_environment_sets_is_skipped(monkeypatch, name, value, both_set):
    for var in heap.TUNING_ENV:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv(name, value)
    assert heap.keep_freed_buffers() is both_set


@pytest.mark.skipif(not GLIBC, reason="the thresholds are set on glibc only")
def test_allocator_tuning_in_the_environment_is_left_alone(monkeypatch):
    for name in heap.TUNING_ENV:
        monkeypatch.delenv(name, raising=False)
    assert heap.keep_freed_buffers() is True
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", str(128 * 1024))
    assert heap.keep_freed_buffers() is False
