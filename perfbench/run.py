"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-300 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. With `--trace 0` it times SETUPS fresh
set-up processes (interpreter start-up, imports and input generation; the
median is `setup_s`), then one process that repeats whole rounds of the
workload for at least `--seconds` of timed stages and reports the
end-to-end metrics. Every time is adjusted to a fixed machine speed, sampled
while it runs (speed.py). With `--trace 1` it runs the rounds twice, untraced and
traced, each in its own process, and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is the result object;
a copy with more detail goes to perfbench/results/BENCH_*.json, and the
traced run's spans to perfbench/results/SPANS_*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep-300", "segments-2000", "cold-oracle")
SETUPS = 5
DEADLINE_S = 170.0
# One BLAS thread (at most nproc): steadier figures on a shared machine.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}

END_TO_END = [("wall_s", "s"), ("solve_s", "s"), ("verify_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


class Failed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> str:
    """Run a worker to completion within the deadline; returns its stdout."""
    env = dict(os.environ, **BLAS_ENV)
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise Failed(f"worker {args[:2]} ran past the deadline")
    if proc.returncode != 0:
        raise Failed(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def timed_setup(meter, workload: str, seed: int, directory: str, deadline: float):
    """One set-up process, from start to exit, as (raw, adjusted) seconds;
    the machine's speed is sampled here while it runs (see speed.py)."""
    argv = ["setup", workload, "--seed", str(seed), "--dir", directory]
    _, raw, adjusted = meter.time(lambda: child(argv, deadline), inline=False)
    return raw, adjusted


def rounds(workload, seed, directory, seconds, trace, deadline) -> dict:
    argv = ["run", workload, "--seed", str(seed), "--dir", directory,
            "--seconds", str(seconds)] + (["--trace"] if trace else [])
    return json.loads(child(argv, deadline).strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    sys.path.insert(0, HERE)
    import speed

    meter = speed.Meter()
    deadline = time.monotonic() + DEADLINE_S
    samples = []
    for _ in range(1 if trace else SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        samples.append(timed_setup(meter, workload, seed, work, deadline))
    plain = rounds(workload, seed, work, seconds, False, deadline)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_samples": samples, "untraced": plain}
    runs = [plain]
    if trace:
        traced = rounds(workload, seed, work, seconds, True, deadline)
        report["traced"] = traced
        runs.append(traced)
        metrics = {name: {"value": traced["layers"][name], "unit": unit}
                   for name, unit in layer_units()}
        overhead = traced["adjusted"]["wall_s"] - plain["adjusted"]["wall_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = dict(plain, **plain["adjusted"],
                      setup_s=statistics.median(adjusted for _, adjusted in samples))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    problems = [p for r in runs for p in r["problems"]]
    report["result"] = {
        "correct": not problems,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": metrics,
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return report


def layer_units():
    from tracing import LAYER_METRICS

    return [(name, unit) for name, unit, _ in LAYER_METRICS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "pepcert", "__init__.py")):
        print(f"no pepcert sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Failed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
