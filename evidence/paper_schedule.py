"""The paper's headline evidence: a certificate at every size of the README's
`--segment` schedule up to N=20160, each checked by the verifier.

    PYTHONPATH=src python evidence/paper_schedule.py [--out FILE]

The schedule is the README's `pepcert sweep 20160 --segment 3:2240:1
--segment 2240:8960:320 --segment 8960:20160:1600`: 2266 sizes, every N up
to 2240, then strides of 320 and 1600, as in the paper. `solver.sweep`
solves them, and each certificate file is written to a temporary directory,
as `pepcert sweep` writes it. Every file is then read back and checked in
this one process, as `pepcert verify --oracle` checks it: the parse, the
balanced rate parameters, `derive_full` and the stored-block cross-check,
positivity of (a, b, c, d), the delta gate, `oracle_check` against its
tolerance, and `slack_psd_check`. One more check ties the stepsize to the
lower bound: the envelope of the quadratic and Huber rates, on the grid
0.1, 0.101, ..., 1.99 with alpha(N) added, takes its minimum r(N) there, to
the balance tolerance `rates.BALANCE_TOL`.

The summary (default `evidence/paper_schedule.csv`) has one row per N:
`alpha` and `r` as stored, `sup_eps` and `delta` of the derived eps, the
smallest and largest entry of each of a, b, c and d, the factored and chord
steps of the solve, its seconds and the check's, the oracle deviation over
its tolerance, the slack check's result, and the envelope's minimum minus
r. Times depend on the machine; the header names it. A size that fails a
check is written like any other, its failures are listed on stderr, and the
exit status is 1. `demos/06_paper_schedule_summary.py` renders the summary
without the solver.
"""

import argparse
import os
import platform
import sys
import tempfile
import time

import numpy as np
import scipy

from pepcert import (BALANCE_TOL, certificate_file, default_path, lower_bound_envelope,
                     oracle_check, oracle_scale, slack_psd_check, sweep, write_certificate)
from pepcert.cli import ORACLE_TOL, _parser, _read_checked, _sweep_sizes
from pepcert.recursion import DELTA_TOL
from pepcert.solver import RESIDUAL_TOL

README_SCHEDULE = ["sweep", "20160", "--segment", "3:2240:1", "--segment", "2240:8960:320",
                   "--segment", "8960:20160:1600"]
SIZES = _sweep_sizes(_parser().parse_args(README_SCHEDULE))
GRID = 0.1 + 1e-3 * np.arange(1891)
COLUMNS = ("N", "alpha", "r", "sup_eps", "delta",
           "a_min", "a_max", "b_min", "b_max", "c_min", "c_max", "d_min", "d_max",
           "factored", "chord", "solve_s", "check_s", "oracle_ratio", "slack", "envelope_gap")
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "paper_schedule.csv")


def solve_all(outdir):
    """Solve the schedule and write each file; returns {N: (factored, chord, seconds)}."""
    steps = {}
    start = time.perf_counter()
    for report in sweep(SIZES):
        seconds = time.perf_counter() - start
        n = report.params.N
        steps[n] = (report.iterations, report.chord_steps, seconds)
        write_certificate(certificate_file(report.cert), default_path(outdir, n))
        start = time.perf_counter()
    return steps


def check_file(path, factored, chord, solve_s):
    """Check the file at `path`; returns its summary row, with the solve's
    steps and seconds, and the names of the checks it fails."""
    start = time.perf_counter()
    cf, cert = _read_checked(path)
    ratio = oracle_check(cert) / (ORACLE_TOL * oracle_scale(cert))
    slack = slack_psd_check(cert)
    check_s = time.perf_counter() - start
    params = cert.params
    sup = float(np.max(np.abs(cert.eps)))
    gap = float(np.min(lower_bound_envelope(params.N, np.append(GRID, params.alpha)))) - params.r
    failed = [name for name, ok in (
        ("positive", cert.positive), ("sup_eps", sup <= RESIDUAL_TOL),
        ("delta", max(cert.delta, cf.delta) <= DELTA_TOL), ("oracle", ratio <= 1.0),
        ("slack", slack is True), ("envelope", abs(gap) <= BALANCE_TOL)) if not ok]
    extremes = [f(getattr(cert, name)) for name in "abcd" for f in (np.min, np.max)]
    row = [str(params.N), repr(params.alpha), repr(params.r), f"{sup:.3e}", f"{cert.delta:.3e}",
           *(f"{x:.3e}" for x in extremes), str(factored), str(chord), f"{solve_s:.4f}",
           f"{check_s:.4f}", f"{ratio:.3e}", str(slack), f"{gap:.2e}"]
    return ",".join(row), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    failures = []
    rows = []
    with tempfile.TemporaryDirectory() as outdir:
        steps = solve_all(outdir)
        solve_total = sum(seconds for _, _, seconds in steps.values())
        begin = time.perf_counter()
        for n in SIZES:
            row, failed = check_file(default_path(outdir, n), *steps[n])
            rows.append(row)
            failures += [f"N={n}: {name}" for name in failed]
        check_total = time.perf_counter() - begin
    header = [
        "# pepcert certificates for the README --segment schedule to N=20160, each checked",
        "# in-process as `pepcert verify --oracle` checks it; written by evidence/paper_schedule.py",
        f"# {len(SIZES)} sizes: solves {solve_total:.1f} s (writing the files excluded), "
        f"checks {check_total:.1f} s; {os.cpu_count()} CPUs, {platform.machine()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}",
        ",".join(COLUMNS),
    ]
    with open(args.out, "w") as fh:
        fh.write("\n".join(header + rows) + "\n")
    print(f"{len(rows)} rows written to {args.out}; solves {solve_total:.1f} s, "
          f"checks {check_total:.1f} s")
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
