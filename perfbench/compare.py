"""Spread of one set of result files, or the change between two sets.

    python3 perfbench/compare.py DIR            # median, quartiles, spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR

DIR holds the result files ``run.py`` writes (``perfbench/out`` by
default). For each workload and end-to-end metric of the untraced runs it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. Given two directories, it
also prints the change of the median against each metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path) -> dict:
    """{(workload, metric): [values]} of the untraced, full-size runs."""
    values = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        prov = rec.get("provenance", {})
        if prov.get("trace") or prov.get("tiny"):
            continue
        for name, m in rec["metrics"].items():
            values[rec["workload"], name].append(m["value"])
    return values


def stats(vals: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    bench = ROOT / "BENCHMARK.json"
    bounds = ({m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}
              if bench.exists() else {})
    for key in sorted(sets[0]):
        workload, metric = key
        med, q1, q3, spread = stats(sets[0][key])
        line = (f"{workload:17s} {metric:13s} n={len(sets[0][key]):2d} median={med:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")
        if metric in bounds:
            line += f" (bound {bounds[metric]})"
        if len(sets) == 2 and key in sets[1]:
            med2, _, _, spread2 = stats(sets[1][key])
            change = med2 / med - 1.0
            verdict = "worse beyond bound" if metric in bounds and change > bounds[metric] else "ok"
            line += f" | new median={med2:.6g} spread={spread2:.3f} change={change:+.3f} {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
