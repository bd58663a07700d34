"""Continuation sweep: certificates for every N up to a cap.

The residual system has N+1 equations in N-1 unknowns. The solver's Newton
step solves only N-1 of them, eps_1 .. eps_{N-1}, yet the other two, eps_0
and eps_N, end at rounding level too (about 1e-16, at most 1.5e-15 here),
and the gate checks all N+1: that is the nontrivial numerical evidence,
since a generic overdetermined quadratic system has no solution at all.
Certificate shapes vary smoothly with N, so each solve is warm-started by
extrapolating the four previous solutions with a cubic in 1/N. In a sweep to
N = 300 every size takes one factored Newton step; N = 3..30 add 1 to 5 chord
steps that reuse its factorization, and every N >= 31 needs none.
"""

import os
import tempfile

import numpy as np

from pepcert import sweep
from pepcert.certfile import (certificate_file, default_path, read_certificate,
                              write_certificate)

outdir = os.path.join(tempfile.gettempdir(), "pepcert_demo_sweep")
n_max = 60

print(f"sweeping N = 3..{n_max} (certificates written to {outdir})\n")
print(f"{'N':>4} {'iters':>5} {'sup|eps|':>10} {'|eps_0|':>10} {'|eps_N|':>10} "
      f"{'delta':>10} {'r(N)':>12}")
iters = []
ends = []
# the sweep only yields reports; each file is written as its report arrives
for rep in sweep(range(3, n_max + 1)):
    cert = rep.cert
    write_certificate(certificate_file(cert), default_path(outdir, cert.params.N))
    iters.append(rep.iterations + rep.chord_steps)
    # the two equations the Newton step leaves out
    eps0, epsN = abs(cert.eps[0]), abs(cert.eps[-1])
    ends.append(max(eps0, epsN))
    if cert.params.N % 6 == 0 or cert.params.N == 3:
        print(f"{cert.params.N:>4} {iters[-1]:>5} {cert.residual_sup:>10.2e} {eps0:>10.2e} "
              f"{epsN:>10.2e} {cert.delta:>10.2e} {cert.params.r:>12.6e}")

print(f"\niteration counts across the sweep: min {min(iters)}, max {max(iters)}")
print(f"eps_0 and eps_N, never solved for, reach at most {max(ends):.2e}")
print("warm starts keep Newton in its quadratic-convergence basin.\n")

# the files are self-contained: d is the source of truth, everything else
# re-derivable (and re-derived by `pepcert verify`)
sample = read_certificate(default_path(outdir, n_max))
print(f"stored certificate for N={sample.N}: delta = {sample.delta:.2e}, "
      f"len(d) = {len(sample.d)}")

# a strided continuation works too; extrapolation bridges the gaps
strided = list(sweep([*range(3, 31), 60, 90, 120]))
print("\nstrided schedule 3..30 dense then every 30th:")
for rep in strided[-4:]:
    print(f"  N={rep.cert.params.N:>3}: {rep.iterations + rep.chord_steps} iterations, "
          f"sup|eps| = {rep.cert.residual_sup:.2e}")
