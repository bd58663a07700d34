"""From a candidate vector d to a full certificate.

A certificate for the rate bound is a nonnegative multiplier matrix with a
very rigid shape, parameterized by a single positive vector d of length N-1:
the remaining data (c affine in d; a and b quadratic in d, via a backward
recursion) is forced, and N+1 residuals eps measure how far the multiplier
identity is from closing. d certifies the rate exactly when eps vanishes and
everything stays positive.
"""

import numpy as np

from pepcert import derive_full, gauss_newton, solve_rate_params

n = 6
params = solve_rate_params(n)
print(f"N={n}: alpha={params.alpha:.12f}, r={params.r:.6e}\n")

# an arbitrary positive guess is well-formed but certifies nothing
guess = np.full(n - 1, 0.4)
cert = derive_full(params, guess)
print("arbitrary d =", guess)
print("  c   =", np.array2string(cert.c, precision=5))
print("  a   =", np.array2string(cert.a, precision=5))
print("  b   =", np.array2string(cert.b, precision=5))
print("  eps =", np.array2string(cert.eps, precision=5))
print(f"  sup |eps| = {np.max(np.abs(cert.eps)):.3e}  (far from zero)\n")

# each residual component is an exactly quadratic polynomial in d: values at
# t = 0, 1, 2 along any line predict t = 3 with no truncation error
rng = np.random.default_rng(7)
direction = rng.standard_normal(n - 1)
r0, r1, r2, r3 = (derive_full(params, guess + t * direction).eps for t in range(4))
pred = r0 - 3 * r1 + 3 * r2
print("quadratic structure along a random line (predicted vs actual at t=3):")
print("  predicted:", np.array2string(pred, precision=8))
print("  actual:   ", np.array2string(r3, precision=8))
print(f"  max gap = {np.max(np.abs(pred - r3)):.2e}\n")

# solving eps(d) = 0 produces the genuine certificate
report = gauss_newton(params, guess)
print(f"after {report.iterations + report.chord_steps} Gauss-Newton steps:")
print("  d   =", np.array2string(report.cert.d, precision=10))
print(f"  sup |eps| = {report.cert.residual_sup:.3e}")
print(f"  all of a, b, c, d positive: {report.cert.positive}")
