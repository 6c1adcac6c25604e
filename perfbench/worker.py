"""One workload in a fresh interpreter; prints one JSON object.

Modes:

* ``setup``: import qhagg and build every input, report the time taken;
* ``measure``: set up, then run the job list in whole passes until
  ``--seconds`` have passed, with tracing off, and between the passes
  time further set-ups in fresh interpreters (``setup`` mode);
* ``trace``: one untraced pass, then one pass with every layer wrapped
  (see ``spans.py``), and the per-layer metrics.

``run.py`` starts this script; it is not meant to be run by hand.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import qhagg  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: set-ups in fresh interpreters besides the measuring one's own
SETUP_SAMPLES = 10


def cpu_now() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_pass(jobs, tracer=None) -> dict:
    """Run every job once; time the pass and each job, and check outcomes."""
    times, outcomes = {}, {}
    c0, t0 = cpu_now(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
            span = tracer.enter("job")
        tj = time.perf_counter()
        try:
            outcomes[job.id] = job.run()
        except Exception as exc:  # any exception is a failed job, reported below
            outcomes[job.id] = {"error": f"{type(exc).__name__}: {exc}"}
        times[job.id] = time.perf_counter() - tj
        if tracer is not None:
            tracer.exit(span)
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    problems = {job.id: workloads.problems(outcomes[job.id], job) for job in jobs}
    return {"wall": wall, "cpu": cpu, "times": times, "outcomes": outcomes,
            "problems": {k: v for k, v in problems.items() if v}}


def summarize(passes, jobs) -> dict:
    return {
        "attempted": len(jobs) * len(passes),
        "failed": sum(len(p["problems"]) for p in passes),
        "passes": [{"wall_s": p["wall"], "cpu_s": p["cpu"]} for p in passes],
        "jobs": {job.id: {"median_s": statistics.median(p["times"][job.id] for p in passes),
                          "pass_s": [p["times"][job.id] for p in passes],
                          "n": job.n, "expect": job.expect, "meta": job.meta,
                          "outcome": passes[-1]["outcomes"][job.id],
                          "problems": [pr for p in passes for pr in p["problems"].get(job.id, [])]}
                 for job in jobs},
    }


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-check" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_sample(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", "setup"] + (["--tiny"] if args.tiny else [])
    p = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args) -> dict:
    jobs = workloads.build(args.workload, args.seed, args.tiny)
    # cli-check's inputs are argument lists; its set-up is the bare import
    setup_s = IMPORT_S if args.workload == "cli-check" else time.perf_counter() - T0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    passes, setups = [], [setup_s]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(jobs))
        # further set-ups in fresh interpreters, spread between the passes so
        # that they meet the same spells of interference as the passes do
        share = min(1.0, (time.perf_counter() - start) / args.seconds)
        while len(setups) < 1 + round(SETUP_SAMPLES * share):
            setups.append(setup_sample(args))
    return {"setup_samples_s": setups, "peak_rss_mib": peak_rss_mib(args.workload),
            **summarize(passes, jobs)}


def trace(args) -> dict:
    extra, passes = {}, []
    if args.workload == "cli-check":
        child_jobs = workloads.build(args.workload, args.seed, args.tiny)
        child = run_pass(child_jobs)
        passes.append(child)
        env = workloads.child_env()
        startup = []
        for _ in range(3):
            t = time.perf_counter()
            workloads.run_cli_child(["catalog"], env)
            startup.append(time.perf_counter() - t)
        extra["cli.process.s"] = statistics.median(child["times"].values())
        extra["cli.startup.s"] = statistics.median(startup)
        kwargs = {"runner": workloads.run_cli_inprocess}
    else:
        kwargs = {}

    jobs = workloads.build(args.workload, args.seed, args.tiny, **kwargs)
    plain = run_pass(jobs)
    passes.append(plain)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        span = tracer.enter("setup")
        traced_jobs = workloads.build(args.workload, args.seed, args.tiny, inst=tracer, **kwargs)
        tracer.exit(span)
        traced = run_pass(traced_jobs, tracer)
    finally:
        tracer.uninstall()
    passes.append(traced)
    layer, per_job = tracer.layer_metrics()
    layer["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0

    for job in jobs:
        out = plain["outcomes"][job.id]
        if "bytes" in out:
            extra["cli.grid.bytes"] = out["bytes"]
            extra["cli.grid.rows_per_s"] = out["rows"] / plain["times"][job.id]
    return {"layer": {**layer, **extra}, "absent": tracer.absent, "trace_jobs": per_job,
            "untraced_wall_s": plain["wall"], "traced_wall_s": traced["wall"],
            **summarize(passes, jobs)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    out = trace(args) if args.mode == "trace" else measure(args)
    out.update(python=platform.python_version(), numpy=np.__version__,
               qhagg=qhagg.__version__,
               grids=workloads.GRIDS[args.workload]["tiny" if args.tiny else "full"])
    print(json.dumps(out, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
