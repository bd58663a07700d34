"""One benchmark process for one workload.

    python3 perfbench/worker.py setup WORKLOAD --seed N --dir DIR
    python3 perfbench/worker.py run WORKLOAD --seed N --dir DIR --seconds S [--trace]

`setup` imports pepcert from the checkout's `src` and writes the workload's
inputs to DIR (its whole lifetime is one set-up sample). `run` reads them,
repeats whole rounds until the rounds have taken S seconds, checks every
output, and prints one JSON object as its last line. Every pepcert command is
run in-process through `pepcert.cli.main`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")

# README's desk-scale sweep, its segmented schedule scaled to what fits in
# memory, and a doubling schedule that reaches N=400 in few solves.
SWEEPS = {
    "sweep-300": ["sweep", "300"],
    "segments-2000": ["sweep", "2000", "--segment", "3:60:1",
                      "--segment", "60:1000:94", "--segment", "1000:2000:500"],
}
COLD_SETUP = ["sweep", "400", "--segment", "3:20:1", "--segment", "20:40:20",
              "--segment", "40:80:40", "--segment", "80:160:80",
              "--segment", "160:320:160", "--segment", "320:400:80"]
COLD_N, ORACLE_N = 300, 400
# Per round the solve stage runs once and the verify stage PASSES times;
# verify_s is the median pass. Every stage is timed with a speed.Meter.
PASSES = {"sweep-300": 6, "segments-2000": 10, "cold-oracle": 4}
WORKLOADS = (*SWEEPS, "cold-oracle")

# exit codes the README documents: 3 verification failure, 4 file corruption
EXIT_FAILED, EXIT_CORRUPT = 3, 4
BUMP = 1e-6
CROSS_TOL = 1e-12  # documented tolerance of the stored-block cross check


def schedule(argv: list[str]) -> list[int]:
    """N values a `pepcert sweep` command line covers."""
    segments = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--segment"]
    if not segments:
        return list(range(3, int(argv[1]) + 1))
    values = set()
    for spec in segments:
        start, stop, stride = map(int, spec.split(":"))
        values.update(range(start, stop + 1, stride))
    return sorted(values)


def cert_path(directory: str, n: int) -> str:
    return os.path.join(directory, f"cert_N{n:05d}.txt")


def invoke(cli, argv: list[str]):
    """Run one pepcert command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- set-up


def setup(workload: str, seed: int, directory: str) -> None:
    from pepcert import cli

    rng = random.Random(seed)
    plan = {"workload": workload, "seed": seed}
    if workload in SWEEPS:
        order = schedule(SWEEPS[workload])
        rng.shuffle(order)
        plan["verify_order"] = order
    else:
        certs = os.path.join(directory, "certs")
        code, _, err = invoke(cli, COLD_SETUP + ["--outdir", certs])
        if code != 0:
            raise SystemExit(f"set-up sweep failed ({code}): {err}")
        plan["setup_certs"] = [cert_path(certs, n) for n in schedule(COLD_SETUP)]
        plan["oracle_cert"] = cert_path(certs, ORACLE_N)
        plan["controls"] = make_controls(plan["oracle_cert"], directory, rng)
    with open(os.path.join(directory, "plan.json"), "w") as fh:
        json.dump(plan, fh)


def make_controls(source: str, directory: str, rng: random.Random) -> list[dict]:
    """Corrupted copies of a valid file, each with the exit code it must get."""
    from checker import drop_blocks, edit_entry, parse

    with open(source) as fh:
        text = fh.read()
    cert = parse(text)
    n = cert["N"]
    # an entry whose bump is at least ten times the cross-check tolerance
    big = [k for k, a in enumerate(cert["a"]) if BUMP * a >= 10 * CROSS_TOL]
    bumped = rng.choice(big)
    negative = rng.randrange(n - 1)
    cut = int(len(text) * rng.uniform(0.25, 0.75))
    controls = {
        "bumped-a": (edit_entry(text, "a", bumped, lambda v: repr(v * (1 + BUMP))),
                     EXIT_CORRUPT),
        "truncated": (text[:cut], EXIT_CORRUPT),
        "negative-d": (drop_blocks(edit_entry(text, "d", negative, lambda v: repr(-v))),
                       EXIT_FAILED),
        # fixed position: this control must not depend on the seed
        "nan-a": (edit_entry(text, "a", n // 2, lambda v: "nan"), EXIT_CORRUPT),
    }
    out = []
    for name, (body, expect) in controls.items():
        path = os.path.join(directory, f"control_{name}.txt")
        with open(path, "w") as fh:
            fh.write(body)
        out.append({"name": name, "path": path, "expect": expect})
    return out


# ---------------------------------------------------------------- rounds


class Round:
    """Operations of one round with their outcomes, and its stage times."""

    def __init__(self):
        self.ops: list[tuple[str, bool]] = []
        self.problems: list[str] = []
        # solve_s and verify_s, each as (raw, adjusted) seconds (see speed.py)
        self.times: dict[str, tuple[float, float]] = {}

    def op(self, name: str, ok: bool) -> bool:
        self.ops.append((name, ok))
        return ok

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def passes(meter, ops: list[tuple], count: int, rnd: Round) -> tuple[float, float]:
    """Run the operations `count` times, pass after pass, and judge every
    result. Returns the median pass as (raw, adjusted) seconds.

    `ops` holds (name, call, judge): call() runs the operation and returns its
    result, judge(result, rnd, name) records the outcome."""
    times, results = [], []

    def one_pass():
        return [call() for _, call, _ in ops]

    for _ in range(count):
        outcome, raw, adjusted = meter.time(one_pass)
        times.append((raw, adjusted))
        results.append(outcome)
    for outcome in results:
        for (name, _, judge), result in zip(ops, outcome):
            judge(result, rnd, name)
    return (statistics.median(t[0] for t in times), statistics.median(t[1] for t in times))


def solve_stage(pkg, meter, argv: list[str], rundir: str, rnd: Round, judge) -> str:
    """Run `argv` (a solve or sweep command) once into a fresh directory and
    time it as solve_s. judge((outdir, result), rnd, name) records the run.
    Returns the directory."""
    outdir = os.path.join(rundir, "solve")
    result, raw, adjusted = meter.time(lambda: invoke(pkg.cli, argv + ["--outdir", outdir]))
    rnd.times["solve_s"] = (raw, adjusted)
    judge((outdir, result), rnd, argv[0])
    return outdir


def judge_verify(expect_n: int | None = None):
    def judge(result, rnd: Round, name: str) -> None:
        code, out, _ = result
        if rnd.op(name, code == 0):
            rnd.expect("verdict CERTIFIED" in out, f"{name}: no CERTIFIED verdict")
            if expect_n is not None:
                rnd.expect(out.startswith(f"N {expect_n}\n"), f"{name}: wrong N")
    return judge


def judge_exit(expect: int):
    def judge(result, rnd: Round, name: str) -> None:
        rnd.op(name, result[0] == expect)
    return judge


def sweep_round(pkg, meter, plan: dict, rundir: str, rnd: Round) -> list[str]:
    """`pepcert sweep` into a fresh directory, then `pepcert verify` on each
    file in the seeded order. Returns the certificates to check."""
    argv = SWEEPS[plan["workload"]]
    expected = schedule(argv)
    names = [os.path.basename(cert_path("", n)) for n in expected]

    def judge_sweep(result, rnd: Round, name: str) -> None:
        outdir, (code, out, _) = result
        if rnd.op(name, code == 0):
            rnd.expect(f"{len(expected)} certificates written" in out, "sweep summary line")
            rnd.expect(sorted(os.listdir(outdir)) == names, "sweep file set")

    outdir = solve_stage(pkg, meter, argv, rundir, rnd, judge_sweep)
    ops = [(f"verify {n}", functools.partial(invoke, pkg.cli, ["verify", cert_path(outdir, n)]),
            judge_verify(n)) for n in plan["verify_order"]]
    rnd.times["verify_s"] = passes(meter, ops, PASSES[plan["workload"]], rnd)
    return [cert_path(outdir, n) for n in expected]


def slack_check(pkg, path: str):
    """slack_psd_check on a certificate file, as a library caller would."""
    try:
        cf = pkg.certfile.read_certificate(path)
        cert = pkg.recursion.derive_full(pkg.certfile.params_from_file(cf), cf.d)
        return pkg.verifier.slack_psd_check(cert)
    except Exception as exc:  # an escaped exception is a failed operation
        return f"{type(exc).__name__}: {exc}"


def judge_slack(result, rnd: Round, name: str) -> None:
    rnd.op(name, result is True)


def cold_round(pkg, meter, plan: dict, rundir: str, rnd: Round) -> list[str]:
    """Cold `pepcert solve 300`; `verify --oracle` and slack_psd_check on its
    file and on the set-up's N=400 file; then the negative controls."""

    def judge_solve(result, rnd: Round, name: str) -> None:
        outdir, (code, out, _) = result
        if rnd.op(name, code == 0):
            rnd.expect("converged True" in out and f"wrote {cert_path(outdir, COLD_N)}" in out,
                       "solve output")

    outdir = solve_stage(pkg, meter, ["solve", str(COLD_N)], rundir, rnd, judge_solve)
    verified = [cert_path(outdir, COLD_N), plan["oracle_cert"]]
    ops = [(f"verify --oracle {path}",
            functools.partial(invoke, pkg.cli, ["verify", path, "--oracle"]),
            judge_verify()) for path in verified]
    ops += [(f"slack_psd_check {path}", functools.partial(slack_check, pkg, path),
             judge_slack) for path in verified]
    ops += [(f"control {c['name']}", functools.partial(invoke, pkg.cli, ["verify", c["path"]]),
             judge_exit(c["expect"])) for c in plan["controls"]]
    rnd.times["verify_s"] = passes(meter, ops, PASSES["cold-oracle"], rnd)
    return verified


def _contents(paths: list[str]) -> dict[str, str]:
    out = {}
    for path in filter(os.path.isfile, paths):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_certificates(paths: list[str], seed: int, rnd: Round) -> None:
    """Every certificate must pass the independent checker."""
    import checker

    for path in paths:
        try:
            cert = checker.check_file(path, seed)
            rnd.expect(os.path.basename(path) == f"cert_N{cert['N']:05d}.txt",
                       f"{path} holds N={cert['N']}")
        except (checker.Rejected, OSError) as exc:
            rnd.problems.append(f"checker rejected {path}: {exc}")


def check_controls(controls: list[dict], seed: int, rnd: Round) -> None:
    """The checker itself must reject every corrupted copy."""
    import checker

    for control in controls:
        try:
            checker.check_file(control["path"], seed)
            rnd.problems.append(f"checker accepted control {control['name']}")
        except checker.Rejected:
            pass


def run(workload: str, seed: int, directory: str, seconds: float, trace: bool) -> dict:
    import pepcert
    import pepcert.cli  # noqa: F401  (binds pepcert.cli for attribute access)
    import speed
    import tracing

    with open(os.path.join(directory, "plan.json")) as fh:
        plan = json.load(fh)
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer, pepcert)
    body = sweep_round if workload in SWEEPS else cold_round
    meter = speed.Meter()
    rounds: list[Round] = []
    peak_mb = None
    first_files = None
    measured = 0.0
    while not rounds or measured < seconds:
        rundir = os.path.join(directory, f"round{len(rounds)}{'-traced' if trace else ''}")
        rnd = Round()
        start = time.perf_counter()
        produced = body(pepcert, meter, plan, rundir, rnd)
        measured += time.perf_counter() - start
        if peak_mb is None:
            # high-water mark of the timed stages, before any checking
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # identical invocations must write byte-identical files
        files = _contents(produced)
        first_files = first_files or files
        rnd.expect(files == first_files, "repeated solves wrote different files")
        check_certificates(produced, seed, rnd)
        if "controls" in plan:
            check_controls(plan["controls"], seed, rnd)
        shutil.rmtree(rundir, ignore_errors=True)
        rounds.append(rnd)
    result = {
        "rounds": len(rounds),
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(1 for r in rounds for _, ok in r.ops if not ok),
        "failed_ops": sorted({name for r in rounds for name, ok in r.ops if not ok}),
        "problems": [p for r in rounds for p in r.problems][:20],
        "peak_rss_mb": peak_mb,
    }
    for index, kind in enumerate(("raw", "adjusted")):
        times = {key: [r.times[key][index] for r in rounds] for key in ("solve_s", "verify_s")}
        times["wall_s"] = [a + b for a, b in zip(times["solve_s"], times["verify_s"])]
        result[kind] = {key: statistics.median(values) for key, values in times.items()}
    result["speed_samples"] = len(meter.samples)
    result["speed_median_s"] = statistics.median(meter.samples)
    result["speed_by_stage_s"] = meter.stages
    if "setup_certs" in plan:
        final = Round()
        check_certificates(plan["setup_certs"], seed, final)
        result["problems"] += final.problems
    if trace:
        spans = tracer.spans
        result["layers"] = tracing.layers(spans, len(rounds))
        result["spans"] = len(spans)
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"SPANS_{workload}_seed{seed}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": spans}, fh)
    result["versions"] = versions()
    return result


def versions() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pepcert", "__init__.py")):
        print(f"no pepcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(args.dir, exist_ok=True)
    if args.phase == "setup":
        setup(args.workload, args.seed, args.dir)
        return 0
    result = run(args.workload, args.seed, args.dir, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
