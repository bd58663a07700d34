"""Command-line front end.

Subcommands: rates, solve, sweep, verify, plotdata, envelope.

Exit codes: 0 verified/converged, 1 usage error, a solve or sweep whose
arrays cannot be allocated too, 2 non-convergence, 3 verification failure,
4 file corruption, 5 output could not be written, a closed standard output
too (a sweep keeps the files it wrote before). Files go to --outdir, the
working directory by default, in the layout of `certfile`: orjson renders
its block numbers and parses the header and `d`, `verify` and `plotdata`
parse a stored a, b, c or eps block only when it is not the rendering of
the vector derived from `d`, and `rates` and `envelope` never load orjson.
`solve N` is a sweep of the one size N. `sweep` starts no other process:
it writes each size's file, then prints its row, before it solves the next
size. The library checks the values it is given; its ValueError is one
usage line. The gates are fixed: a solve converges at max_i |eps_i| <=
1e-13 and delta <= 1e-11, and verify certifies a file whose delta,
recomputed and as stored, is at most 1e-11 and, with --oracle, whose
coefficient deviation is within the oracle's tolerance. Identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import certfile, solver
from .rates import huber_rate, lower_bound_envelope, quadratic_rate, solve_rate_params
from .recursion import DELTA_TOL
from .verifier import oracle_check

# solver.sweep is looked up on the module at each call, and it calls
# solver.gauss_newton through the module, so a replacement of either (a
# monkeypatch, a tracer) takes effect; scipy
# (its top-level package and compiled LAPACK module, never scipy.linalg)
# loads only when a solve takes its first step

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY_FAIL = 3
EXIT_CORRUPT = 4
EXIT_WRITE = 5

MAX_GRID_POINTS = 10**6  # envelope --grid


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


@contextlib.contextmanager
def _writing():
    # an OSError from creating a directory or writing a file exits 5
    try:
        yield
    except OSError as exc:
        raise _WriteError(exc) from exc


@contextlib.contextmanager
def _in_memory(what):
    # a size past the address space fails its first allocation at once, so
    # it is reported as one usage line, not a traceback
    try:
        yield
    except MemoryError as exc:
        raise _UsageError(f"{what} does not fit in memory: {str(exc) or 'MemoryError'}")


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
    try:
        with _in_memory(f"N={args.N}"):
            # the sweep checks N and solves its rate pair before the cold solve
            report = next(_checked(solver.sweep, [args.N]))
    except solver.NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    cert = report.cert
    path = args.out or certfile.default_path(args.outdir, args.N)
    with _writing():
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


def _parse_segment(spec: str):
    try:
        start, stop, stride = (int(part) for part in spec.split(":"))
    except ValueError:
        raise _UsageError(f"bad segment {spec!r}, expected START:STOP:STRIDE")
    if stop < start:
        raise _UsageError(f"segment stop {stop} below start {start}")
    if stride < 1:
        raise _UsageError(f"stride must be >= 1, got {stride}")
    return start, stop, stride


def _sweep_sizes(args) -> list[int]:
    """The sizes a sweep covers: 3..N_MAX, or the merged and sorted values
    of the --segment specs (stops inclusive), given in any order."""
    if not args.segment:
        return list(range(3, args.N_MAX + 1))
    return sorted({n for start, stop, stride in map(_parse_segment, args.segment)
                   for n in range(start, stop + 1, stride)})


def cmd_sweep(args) -> int:
    with _in_memory("the sweep"):
        sizes = _sweep_sizes(args)
        # the sweep checks the sizes and solves every rate pair before any solve
        reports = _checked(solver.sweep, sizes)
    # each row is printed once its file is on disk, before the next size is
    # solved, so an aborted sweep keeps the file of every row it printed
    outdir = args.outdir
    print(f"{'N':>6} {'alpha':>20} {'r':>14} {'iters':>5} {'sup|eps|':>10} {'delta':>10}")
    try:
        with _in_memory("the sweep"):
            for report in reports:
                cert = report.cert
                params = cert.params
                with _writing():
                    certfile.write_certificate(certfile.certificate_file(cert),
                                               certfile.default_path(outdir, params.N))
                print(f"{params.N:>6} {params.alpha:>20.16f} {params.r:>14.6e} "
                      f"{report.iterations:>5} {cert.residual_sup:>10.2e} {cert.delta:>10.2e}")
    except solver.NonConvergence as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    print(f"{len(sizes)} certificates written to {outdir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cf, cert = certfile.read_checked(args.file)
    params, is_cert, delta = cert.params, cert.positive, cert.delta
    print(f"N {params.N}")
    print(f"delta {delta:.6e}")
    print(f"positive {is_cert}")
    print(f"bound {params.r!r} + {delta / 2:.3e} = {params.r + delta / 2.0!r}")
    # the header's delta is gated too: a file may not claim a larger error
    # than the gate, even when its d shows a smaller one
    if cf.delta > DELTA_TOL:
        print(f"header delta {cf.delta:.3e} exceeds {DELTA_TOL:.0e}", file=sys.stderr)
    ok = is_cert and max(delta, cf.delta) <= DELTA_TOL
    if args.oracle:
        with np.errstate(over="ignore", invalid="ignore"):  # NaN data fails the gate
            dev, tol = oracle_check(cert)
        print(f"oracle_deviation {dev:.3e} (tolerance {tol:.3e})")
        ok = ok and dev <= tol
    print("verdict " + ("CERTIFIED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_plotdata(args) -> int:
    # every file is read, derived and checked before anything is written
    curves = []
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.files]
    for path, stem in zip(args.files, stems):
        if stems.count(stem) > 1:
            raise _UsageError(f"{stem}_*.dat would be written for more than one input file")
        _, cert = certfile.read_checked(path)
        for name in ("a", "b", "c", "d"):
            vec = getattr(cert, name)
            top = float(np.max(vec))
            if not top > 0.0:
                raise _UsageError(f"vector {name} in {path} has max {top!r}; cannot rescale")
            curves.append((f"{stem}_{name}.dat", vec / top))
    outdir = args.outdir
    with _writing():
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
    if args.N < 1:
        raise _UsageError("N must be >= 1")
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
    return parser


@functools.cache
def _parser() -> _Parser:
    # built on first use, not at import, so the cmd_* functions it binds are
    # the module attributes of that moment
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except certfile.CertificateFormatError as exc:
        print(f"corrupt certificate: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except _WriteError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout's reader is gone: exit 5, and send what is still buffered
        # to devnull so that the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {exc}", file=sys.stderr)
        code = EXIT_WRITE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
