"""qhagg benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout that holds ``src/qhagg``::

    python3 perfbench/run.py --workload classify-catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload once, as a table

Each workload runs in fresh child interpreters (``worker.py``), one thread
each. ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics of a separate traced pass.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a result file with the
full record and its provenance is written under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("classify-catalog", "triple-expr", "cli-check")

#: a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 160

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

#: per-layer metrics reported on every workload
PER_LAYER = {
    "numerics.invert.calls": "count",
    "numerics.invert.targets": "count",
    "numerics.invert.fn_lanes": "count",
    "numerics.invert.amplification": "ratio",
    "numerics.invert.self_s": "s",
    "numerics.invert.fn_s": "s",
    "numerics.invert.peak_mib": "MiB",
    "verify.sweep.s": "s",
    "verify.sweep.lanes": "count",
    "verify.sweep.peak_mib": "MiB",
    "verify.classify.self_s": "s",
    "verify.check_aggregation.s": "s",
    "verify.base_grid_evals": "count",
    "algebra.eval.s": "s",
    "algebra.eval.lanes": "count",
    "exprparse.eval.s": "s",
    "exprparse.eval.lanes": "count",
    "exprparse.parse.s": "s",
    "trace.overhead_frac": "ratio",
}

#: per-layer metrics of layers that only some workloads reach; they go to
#: the result file, since on the other workloads they would read a constant 0
WORKLOAD_LAYER = {
    "verify.diagonal_check.s": "s",
    "construct.triple_eval.self_s": "s",
    "construct.validate_triple.s": "s",
    "cli.process.s": "s",
    "cli.startup.s": "s",
    "cli.self_s": "s",
    "cli.grid.bytes": "B",
    "cli.grid.rows_per_s": "rows/s",
}


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, seconds: float, tiny: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode] + (["--tiny"] if tiny else [])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # its own session, so that a worker that runs over is stopped together
    # with the qhagg processes it started
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError(f"{workload} {mode} worker ran over {WORKER_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited {p.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def provenance(seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qhagg").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True)
        commit = p.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    record = {"workload": workload, "provenance": provenance(seed, seconds, trace, tiny)}
    if trace:
        res = worker(workload, seed, "trace", seconds, tiny)
        units = {**PER_LAYER, **WORKLOAD_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layer"].items()
                   if k in units}
    else:
        res = worker(workload, seed, "measure", seconds, tiny)
        # interference on a shared machine only ever adds time, so a pass
        # time is taken at its best; the medians go to the result file
        walls = [p["wall_s"] for p in res["passes"]]
        cpus = [p["cpu_s"] for p in res["passes"]]
        values = {
            "setup_s": statistics.median(res["setup_samples_s"]),
            "wall_s": min(walls),
            "cpu_s": min(cpus),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        res.update(wall_median_s=statistics.median(walls), cpu_median_s=statistics.median(cpus))
    record["provenance"].update(numpy=res["numpy"], grids=res["grids"],
                                passes=len(res["passes"]),
                                setup_samples=len(res.get("setup_samples_s", ())))
    record.update(res)
    record["failed_frac"] = res["failed"] / res["attempted"]
    record["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=repr) + "\n")
    record["file"] = str((OUT_DIR / name).relative_to(ROOT))
    return record


def report(rec: dict) -> None:
    prov = rec["provenance"]
    print(f"workload {rec['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
          f"passes {prov['passes']}  grids {prov['grids']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {rec['failed_frac']:.6g} fraction  "
          f"({rec['failed']}/{rec['attempted']} jobs)")
    for jid, job in rec["jobs"].items():
        status = "ok" if not job["problems"] else "FAILED: " + "; ".join(job["problems"][:3])
        print(f"    job {jid:30s} {job['median_s']:9.4f} s  {status}")
    print(f"  result file {rec['file']}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: every workload, as a table)")
    p.add_argument("--seed", type=int, default=1, help="input seed (triple-expr uses it)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the untraced passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced pass")
    p.add_argument("--tiny", action="store_true",
                   help="tiny grids, for the benchmark's own self-test")
    args = p.parse_args()

    if not (ROOT / "src" / "qhagg" / "__init__.py").is_file():
        print(f"error: no qhagg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace, args.tiny)
                   for w in ([args.workload] if args.workload else WORKLOADS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    failed = sum(r["failed"] for r in records)
    metrics = {(name if args.workload else f"{r['workload']}.{name}"): m
               for r in records for name, m in r["metrics"].items()
               if args.workload is None or name in END_TO_END or name in PER_LAYER}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
