"""Self-test of the benchmark at tiny grids.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at tiny grids, and
checks that the last output line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; that every metric named in
``BENCHMARK.json`` is produced with its unit; and that no job failed
(``failed_frac`` is 0). It also checks that the benchmark refuses to run,
without printing a result, in a copy that holds only ``BENCHMARK.json``
and the benchmark's own files. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, wanted: list[dict]) -> list[str]:
    p = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny")
    if p.returncode != 0:
        return [f"exit {p.returncode}: {p.stderr[-500:]}"]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"failed_frac is not 0: {res['failed']}/{res['attempted']} jobs failed")
    names = {m["name"] for m in wanted}
    if set(res["metrics"]) != names:
        errors.append(f"metrics {sorted(set(res['metrics']) ^ names)} missing or extra")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: got {got}, expected a number in {m['unit']}")
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / "perfbench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        p = run(bare, "--workload", "classify-catalog", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        return [f"without sources: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [(f"{w['name']} trace {t}",
               lambda w=w["name"], t=t: check_result(w, t, bench["per_layer" if t else "end_to_end"]))
              for w in bench["workloads"] for t in (0, 1)]
    checks.append(("refuses without qhagg sources", check_refuses_without_sources))
    failed = False
    for label, check in checks:
        errors = check()
        print(f"{'ok  ' if not errors else 'FAIL'} {label}")
        for e in errors:
            print(f"     {e}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
