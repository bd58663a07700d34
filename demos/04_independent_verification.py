"""Independent verification of a certificate.

Trust nothing about the solver: expand the weighted sum of interpolation
inequalities symbolically over the basis (x0 - xstar, g_0, ..., g_N) and
match it, coefficient by coefficient, against the target rate expression.
The match must hold for ANY d (the residual terms absorb the mismatch), so
this checks every equation of the elimination at once; perturbing any derived
entry breaks it immediately.

`oracle_check` takes that maximum in O(N) from the pattern of the
multiplier matrix, and `slack_psd_check` bounds the slack's distance from a
rank-one square in O(N) from its factors; neither forms an (N+2)^2 array.
"""

import dataclasses

import numpy as np

from pepcert import (
    derive_full,
    gauss_newton,
    oracle_check,
    slack_psd_check,
    solve_rate_params,
    verifier,
)

n = 12
params = solve_rate_params(n)
cert = gauss_newton(params, np.full(n - 1, 0.3)).cert

# the coefficient match holds for a certificate or not; a
# one-part-in-a-thousand bump of one multiplier (a_2, at matrix position
# (3, 4)) is loudly visible
arbitrary = derive_full(params, np.full(n - 1, 0.8))
bumped = cert.a.copy()
bumped[2] += 1e-3
broken = dataclasses.replace(cert, a=bumped)
print(f"{'max coefficient deviation at':<30} {'O(N)':>10}")
for label, c in (("the certificate", cert), ("a non-certificate d", arbitrary),
                 ("a_2 bumped by 1e-3", broken)):
    print(f"{label:<30} {oracle_check(c)[0]:>10.3e}")
print(f"(scaled tolerance {oracle_check(cert)[1]:.3e})")
print("the identity is structural; eps absorbs the failure to certify\n")

# the slack term is a perfect square: rank-one PSD Gram. The O(N) check's
# bounds on E = G - r v v^T, which it takes from the slack's factors
# without forming G
entry, frob = verifier._slack_bounds(cert)
v = np.concatenate(([1.0], -cert.c / (2.0 * params.r)))
print(f"O(N) bounds: max|E| <= {entry:.1e} (tolerance "
      f"{verifier.SLACK_ENTRY_TOL * max(1.0, params.r * np.max(np.abs(v)) ** 2):.1e}), "
      f"||E||_F <= {frob:.1e} (tolerance {verifier.RANK_TAU * params.r * (v @ v):.1e}); "
      f"slack_psd_check {slack_psd_check(cert)}")

# and the bound this certificate proves
print(f"\ndelta-certificate: positive={cert.positive}, delta={cert.delta:.2e}")
print(f"implied worst-case bound: r + delta/2 = {params.r + cert.delta / 2.0!r}")
print(f"versus r(N)             : {params.r!r}")
