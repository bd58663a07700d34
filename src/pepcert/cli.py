"""Command-line front end.

Subcommands: rates, solve, sweep, verify, plotdata, envelope.

Exit codes: 0 verified/converged, 1 usage error or an array that cannot be
allocated, 2 non-convergence, 3 verification failure, 4 file corruption, 5
output could not be written: a file, a directory or standard output (a
closed pipe, a full device). `main` alone maps each failure's type to its
code and one stderr line; a sweep keeps the files it wrote before. Files go
to --outdir, the working directory by default, in the layout of `certfile`,
whose `read_checked` is the read of `verify` and `plotdata`; `rates` and
`envelope` never load orjson. `solve N` is a sweep of the one size N, and
`segment_sizes` reads the sizes of `sweep --segment`. `sweep` starts no
other process: it writes each size's file, then prints its row, before it
solves the next size. The library checks the values it is given; its
ValueError is one usage line. The gates are fixed: a solve converges at
max_i |eps_i| <= 1e-13 and delta <= 1e-11, and verify prints the checks of
`verifier.verdict` and certifies a file that passes all of them: a, b, c and
d positive, delta, recomputed and as stored, at most 1e-11 and, with
--oracle, the coefficient deviation within the oracle's tolerance. Identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import certfile, solver
from .rates import huber_rate, lower_bound_envelope, quadratic_rate, solve_rate_params
from .verifier import verdict

# solver.sweep is looked up on the module at each call, and it calls
# solver.gauss_newton through the module, so a replacement of either (a
# monkeypatch, a tracer) takes effect; scipy (its top-level package and
# compiled LAPACK module, never scipy.linalg) loads at a solve's first step

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY_FAIL = 3
EXIT_CORRUPT = 4
EXIT_WRITE = 5

MAX_GRID_POINTS = 10**6  # envelope --grid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _checked(fn, *args):
    # the library checks the values it is given: its ValueError is the usage line
    try:
        return fn(*args)
    except ValueError as exc:
        raise _UsageError(str(exc))


def cmd_rates(args) -> int:
    params = _checked(solve_rate_params, args.N)
    gap = abs(quadratic_rate(params.N, params.alpha) - huber_rate(params.N, params.alpha))
    print(f"N {params.N}")
    print(f"alpha {params.alpha!r}")
    print(f"r {params.r!r}")
    print(f"balance_residual {gap:.3e}")
    return EXIT_OK


def cmd_solve(args) -> int:
    # the sweep checks N and solves its rate pair before the cold solve
    report = next(_checked(solver.sweep, [args.N]))
    cert = report.cert
    path = args.out or certfile.default_path(args.outdir, args.N)
    certfile.write_certificate(certfile.certificate_file(cert), path)
    print(f"N {cert.params.N}")
    print(f"alpha {cert.params.alpha!r}")
    print(f"r {cert.params.r!r}")
    print(f"iterations {report.iterations}")
    print(f"residual_sup {cert.residual_sup:.3e}")
    print(f"delta {cert.delta:.3e}")
    print(f"positive {cert.positive}")
    print("converged True")
    print(f"wrote {path}")
    return EXIT_OK


def segment_sizes(specs) -> list[int]:
    """The sizes START:STOP:STRIDE specs cover, stops inclusive, merged and
    sorted, the specs given in any order; ValueError for a bad spec."""
    sizes = set()
    for spec in specs:
        try:
            start, stop, stride = (int(part) for part in spec.split(":"))
        except ValueError:
            raise ValueError(f"bad segment {spec!r}, expected START:STOP:STRIDE") from None
        if stop < start:
            raise ValueError(f"segment stop {stop} below start {start}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        sizes.update(range(start, stop + 1, stride))
    return sorted(sizes)


def cmd_sweep(args) -> int:
    sizes = (_checked(segment_sizes, args.segment) if args.segment
             else list(range(3, args.N_MAX + 1)))
    # the sweep checks the sizes and solves every rate pair before any solve
    reports = _checked(solver.sweep, sizes)
    # each row is printed once its file is on disk, before the next size is
    # solved, so an aborted sweep keeps the file of every row it printed
    outdir = args.outdir
    print(f"{'N':>6} {'alpha':>20} {'r':>14} {'iters':>5} {'sup|eps|':>10} {'delta':>10}")
    for report in reports:
        cert = report.cert
        params = cert.params
        certfile.write_certificate(certfile.certificate_file(cert),
                                   certfile.default_path(outdir, params.N))
        print(f"{params.N:>6} {params.alpha:>20.16f} {params.r:>14.6e} "
              f"{report.iterations:>5} {cert.residual_sup:>10.2e} {cert.delta:>10.2e}")
    print(f"{len(sizes)} certificates written to {outdir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cert, header_delta = certfile.read_checked(args.file)
    checks = verdict(cert, header_delta, args.oracle)
    params = cert.params
    (positive, _), ((delta, _), _) = checks["positive"], checks["delta"]
    print(f"N {params.N}\ndelta {delta:.6e}\npositive {positive}\n"
          f"bound {params.r!r} + {delta / 2:.3e} = {params.r + delta / 2.0!r}")
    (header_delta, gate), header_ok = checks["header_delta"]
    if not header_ok:
        print(f"header delta {header_delta:.3e} exceeds {gate:.0e}", file=sys.stderr)
    if args.oracle:
        (dev, tol), _ = checks["oracle"]
        print(f"oracle_deviation {dev:.3e} (tolerance {tol:.3e})")
    ok = all(passed for _, passed in checks.values())
    print("verdict " + ("CERTIFIED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_plotdata(args) -> int:
    # every file is read, derived and checked before anything is written
    curves = []
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.files]
    for path, stem in zip(args.files, stems):
        if stems.count(stem) > 1:
            raise _UsageError(f"{stem}_*.dat would be written for more than one input file")
        cert, _ = certfile.read_checked(path)
        for name in ("a", "b", "c", "d"):
            vec = getattr(cert, name)
            top = float(np.max(vec))
            if not top > 0.0:
                raise _UsageError(f"vector {name} in {path} has max {top!r}; cannot rescale")
            curves.append((f"{stem}_{name}.dat", vec / top))
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    for name, values in curves:
        out = os.path.join(outdir, name)
        with open(out, "w") as fh:
            m = len(values)
            for i, v in enumerate(values.tolist()):
                fh.write(f"{i / (m - 1)!r} {v!r}\n")
        print(f"wrote {out}")
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise _UsageError(f"bad grid spec {spec!r}, expected lo:hi:step")
    if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:
        raise _UsageError(f"bad grid spec {spec!r}")
    n = np.floor((hi - lo) / step + 1e-9) + 1
    if not n <= MAX_GRID_POINTS:  # also catches an infinite count
        raise _UsageError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
    return lo + step * np.arange(int(n))


def cmd_envelope(args) -> int:
    grid = _parse_grid(args.grid)
    vals = _checked(lower_bound_envelope, args.N, grid)
    imin = int(np.argmin(vals))
    for i, (al, v) in enumerate(zip(grid, vals)):
        mark = " *" if i == imin else ""
        print(f"{al:.6f} {v:.16e}{mark}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="pepcert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="stepsize/rate pair for one N")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("solve", help="solve one certificate and write its file")
    p.add_argument("N", type=int)
    p.add_argument("--out", help="output file path")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="continuation sweep, one file per N")
    p.add_argument("N_MAX", type=int)
    p.add_argument("--segment", action="append", metavar="START:STOP:STRIDE",
                   help="explicit schedule segment (repeatable, overrides "
                        "N_MAX); e.g. 3:2240:1 2240:8960:320")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="re-derive and check a certificate file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="also run the coefficient-matching oracle")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plotdata", help="emit normalized a,b,c,d curves")
    p.add_argument("files", nargs="+")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("envelope", help="lower-bound envelope over a stepsize grid")
    p.add_argument("N", type=int)
    p.add_argument("--grid", default="0.1:1.99:0.01", help="lo:hi:step")
    p.set_defaults(func=cmd_envelope)
    parser.commands = sub.choices  # each command word's own parser
    return parser


@functools.cache
def _parser() -> _Parser:
    # built on first use, not at import, so the cmd_* functions it binds are
    # the module attributes of that moment
    return build_parser()


def main(argv=None) -> int:
    # the one map from a failure's type to its exit code and stderr line;
    # any other exception, a bug or Ctrl-C, escapes
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        # a command word goes straight to its own parser; the top-level one
        # runs only for a missing or unknown command, or to print its help
        if argv and argv[0] in parser.commands:
            args = parser.commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size past the address space fails at once
        print(f"usage error: does not fit in memory: {str(exc) or 'MemoryError'}",
              file=sys.stderr)
        return EXIT_USAGE
    except solver.NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except certfile.CertificateFormatError as exc:
        print(f"corrupt certificate: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as exc:  # a failed read is a CertificateFormatError
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE


def entry():
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # stdout cannot take what is buffered (its reader is gone, its device
        # is full): exit 5, and send the rest to devnull so that the
        # interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code != EXIT_WRITE:  # else main has printed the one line
            print(f"cannot write output: {exc}", file=sys.stderr)
        code = EXIT_WRITE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
