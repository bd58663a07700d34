"""Fold per-run result files into one summary for committing.

    python3 perfbench/summarize.py LABEL perfbench/results/BENCH_*.json

Writes perfbench/BENCH_<LABEL>.json: per workload, the seeds, the attempted
and failed counts, and for every metric its median and quartiles over the
untraced runs (end-to-end) and the traced runs (per-layer), and the same for
the raw stage seconds of the untraced process (see speed.py).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / out["median"]
                   if out["median"] else None)
    return out


def summarize(paths: list[str]) -> dict:
    runs: dict[str, dict[int, list[dict]]] = {}
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        runs.setdefault(report["workload"], {}).setdefault(report["trace"], []).append(report)
    summary = {}
    for workload, by_trace in sorted(runs.items()):
        entry = {}
        for trace, reports in sorted(by_trace.items()):
            reports.sort(key=lambda r: r["seed"])
            metrics = {}
            for report in reports:
                for name, value in report["result"]["metrics"].items():
                    metrics.setdefault(name, (value["unit"], []))[1].append(value["value"])
            raw = {}
            for report in reports:
                for name, value in report["untraced"]["raw"].items():
                    raw.setdefault(name, []).append(value)
            entry["traced" if trace else "untraced"] = {
                "seeds": [r["seed"] for r in reports],
                "attempted": [r["result"]["attempted"] for r in reports],
                "failed": [r["result"]["failed"] for r in reports],
                "correct": all(r["result"]["correct"] for r in reports),
                "metrics": {name: dict(unit=unit, **spread(values))
                            for name, (unit, values) in metrics.items()},
                "raw_seconds": {name: spread(values) for name, values in raw.items()},
            }
        entry["versions"] = reports[-1]["untraced"]["versions"]
        summary[workload] = entry
    return summary


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    out = os.path.join(HERE, f"BENCH_{argv[0]}.json")
    with open(out, "w") as fh:
        json.dump(summarize(argv[1:]), fh, indent=1)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
