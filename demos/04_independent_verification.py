"""Independent verification of a certificate.

Trust nothing about the solver: expand the weighted sum of interpolation
inequalities symbolically over the basis (x0 - xstar, g_0, ..., g_N) and
match it, coefficient by coefficient, against the target rate expression.
The match must hold for ANY d (the residual terms absorb the mismatch), so
this checks every equation of the elimination at once; perturbing any derived
entry breaks it immediately.

`oracle_check` takes the same maximum in O(N) from the pattern of the
multiplier matrix; the dense reference below builds the matrix and both
(N+2)^2 coefficient grams.
"""

import dataclasses

import numpy as np

from pepcert import (
    aggregate,
    assemble_lambda,
    derive_full,
    gauss_newton,
    oracle_check,
    oracle_scale,
    rhs_with_errors,
    slack_gram,
    slack_psd_check,
    solve_rate_params,
    verifier,
)

n = 12
params = solve_rate_params(n)
report = gauss_newton(params, np.full(n - 1, 0.3))
cert = derive_full(params, report.d)

# multiplier matrix: one dense row, two off-diagonals, a rank-one-ish block
lam = assemble_lambda(cert)
print(f"multiplier matrix for N={n}: shape {lam.shape}, "
      f"{np.count_nonzero(lam)} nonzeros, "
      f"min entry {lam[lam > 0].min():.3e}")
print(f"last column sums to {lam[:, -1].sum():.16f} (must be 1)\n")


def dense_deviation(c):
    fcoef, gram = aggregate(assemble_lambda(c), c.params.alpha)
    target_f, target_gram = rhs_with_errors(c)
    return max(np.abs(fcoef - target_f).max(), np.abs(gram - target_gram).max())


# the coefficient match, certificate or not, from the dense reference and
# from the O(N) oracle side by side
arbitrary = derive_full(params, np.full(n - 1, 0.8))
# sensitivity: a one-part-in-a-thousand bump of one multiplier (a_2, at
# matrix position (3, 4)) is loudly visible
bumped = cert.a.copy()
bumped[2] += 1e-3
broken = dataclasses.replace(cert, a=bumped)
print(f"{'max coefficient deviation at':<30} {'dense':>10} {'O(N)':>10}")
for label, c in (("the certificate", cert), ("a non-certificate d", arbitrary),
                 ("a_2 bumped by 1e-3", broken)):
    print(f"{label:<30} {dense_deviation(c):>10.3e} {oracle_check(c):>10.3e}")
print(f"(scaled tolerance {1e-10 * oracle_scale(cert):.3e})")
print("the identity is structural; eps absorbs the failure to certify\n")

# the slack term is a perfect square: rank-one PSD Gram. The dense SVD of
# its gram beside the O(N) check's bounds on E = G - r v v^T, which it
# takes from the slack's factors without forming G
svals = np.linalg.svd(slack_gram(cert), compute_uv=False)
print(f"slack Gram singular values: {svals[0]:.3e}, {svals[1]:.3e}, ... "
      f"(ratio {svals[1] / svals[0]:.1e})")
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
