"""The paper's headline evidence: a certificate at every size of the README's
`--segment` schedule up to N=20160, each checked by the verifier as it is
solved.

    PYTHONPATH=src python evidence/paper_schedule.py [--out FILE]

The schedule is the README's `pepcert sweep 20160 --segment 3:2240:1
--segment 2240:8960:320 --segment 8960:20160:1600`: 2266 sizes, every N up
to 2240, then strides of 320 and 1600, as in the paper. One pass over
`solver.sweep` solves them, and each certificate is checked in this process
as it arrives. The checks are those of `verifier.verdict` with the oracle,
which `pepcert verify --oracle` applies to a file: positivity of (a, b, c,
d), the delta gate on the recomputed delta and on the one a file's header
would store, and `oracle_check` against its tolerance. Three more are the
evidence's own, which `verify` does not make: the solver's `sup|eps|` gate,
`slack_psd_check`, and a check that ties the stepsize to the lower bound:
the envelope of the quadratic and Huber rates, on the grid 0.1, 0.101, ...,
1.99 with alpha(N) added, takes its minimum r(N) there, to the balance
tolerance `rates.BALANCE_TOL`. No certificate file is written: `pepcert
sweep` writes the same certificates, and `tests/test_paper_schedule.py`
checks that a certificate written to a file and read back gives the same
row.

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
import time

import numpy as np
import scipy

from pepcert import BALANCE_TOL, lower_bound_envelope, slack_psd_check, sweep, verdict
from pepcert.cli import _parser, _sweep_sizes
from pepcert.solver import RESIDUAL_TOL

README_SCHEDULE = ["sweep", "20160", "--segment", "3:2240:1", "--segment", "2240:8960:320",
                   "--segment", "8960:20160:1600"]
SIZES = _sweep_sizes(_parser().parse_args(README_SCHEDULE))
GRID = 0.1 + 1e-3 * np.arange(1891)
COLUMNS = ("N", "alpha", "r", "sup_eps", "delta",
           "a_min", "a_max", "b_min", "b_max", "c_min", "c_max", "d_min", "d_max",
           "factored", "chord", "solve_s", "check_s", "oracle_ratio", "slack", "envelope_gap")
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "paper_schedule.csv")


def summary_row(cert, factored, chord, solve_s):
    """Check `cert`; returns its summary row, a list of fields in COLUMNS
    order with the solve's steps and seconds, and the names of the checks it
    fails, those of `verdict` first, then the evidence's own."""
    start = time.perf_counter()
    checks = verdict(cert, cert.delta, oracle=True)
    slack = slack_psd_check(cert)
    check_s = time.perf_counter() - start
    (dev, tol), _ = checks["oracle"]
    params = cert.params
    gap = float(np.min(lower_bound_envelope(params.N, np.append(GRID, params.alpha)))) - params.r
    checks.update(sup_eps=(cert.residual_sup, cert.residual_sup <= RESIDUAL_TOL),
                  slack=(slack, slack is True), envelope=(gap, abs(gap) <= BALANCE_TOL))
    failed = [name for name, (_, ok) in checks.items() if not ok]
    extremes = [f(getattr(cert, name)) for name in "abcd" for f in (np.min, np.max)]
    row = [str(params.N), repr(params.alpha), repr(params.r), f"{cert.residual_sup:.3e}",
           f"{cert.delta:.3e}", *(f"{x:.3e}" for x in extremes), str(factored), str(chord),
           f"{solve_s:.4f}", f"{check_s:.4f}", f"{dev / tol:.3e}", str(slack), f"{gap:.2e}"]
    return row, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    failures = []
    rows = []
    solve_total = 0.0
    begin = clock = time.perf_counter()
    for report in sweep(SIZES):
        solve_s = time.perf_counter() - clock
        row, failed = summary_row(report.cert, report.iterations, report.chord_steps, solve_s)
        rows.append(",".join(row))
        failures += [f"N={report.cert.params.N}: {name}" for name in failed]
        solve_total += solve_s
        clock = time.perf_counter()
    check_total = clock - begin - solve_total
    header = [
        "# pepcert certificates for the README --segment schedule to N=20160, each checked",
        "# in-process as it is solved, with no file written; by evidence/paper_schedule.py",
        f"# {len(SIZES)} sizes: solves {solve_total:.1f} s, checks {check_total:.1f} s; "
        f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}",
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
