"""Independent certificate verification by symbolic aggregation.

Quadratic expressions of the interpolation inequalities are expanded over the
basis (h, g_0, ..., g_N) with h = x_0 - x_star, dimension N+2: iterates are
eliminated through x_k = x_0 - alpha * sum_{l<k} g_l, and the reference point
enters only through h (its gradient is zero). An aggregate holds

    value = sum_i fcoef[i] * f_i  +  v^T gram v

where the f-index order is (star, 0, ..., N), v is the basis column, and gram
is stored symmetric (a cross term <u, w> contributes (u w^T + w u^T)/2).

The decisive check: the multiplier matrix built from derived certificate data
must aggregate to exactly the rate expression plus the residual error terms,
coefficient by coefficient, for any admissible (alpha, r) and any d.
`oracle_check` compares every coefficient in O(N) time and memory: the
matrix's pattern (the star row c, the a and b bands, and the block d_i c_j)
makes each entry class of both grams a closed form in prefix and suffix sums
of (a, b, c, d), and the block's deviation factors through c. The target's
gram holds the rank-one slack r ||h - (1/2r) sum c_i g_i||^2, and
`slack_psd_check` confirms its gram is r v v^T of numerical rank one by a
Weyl bound on ||G - r v v^T||_F, without an SVD, through the factors
`_slack_factors` returns, in O(N) time and memory. Neither check builds an
(N+2)^2 array; the dense O(N^2) expansion they are tested against lives
with the tests, in tests/dense_reference.py.
"""

from __future__ import annotations

import numpy as np

from .recursion import FullCertificate

__all__ = ["oracle_check", "slack_psd_check"]

# oracle_check's tolerance, relative to the aggregate's coefficient scale
ORACLE_TOL = 1e-10

# slack_psd_check: entrywise tolerance, and the Frobenius bound that implies
# sigma_2 <= 1e-10 sigma_1, since tau / (1 - tau) = 1e-10
SLACK_ENTRY_TOL = 1e-12
RANK_TAU = 1e-10 / (1.0 + 1e-10)


def oracle_check(cert: FullCertificate) -> tuple[float, float]:
    """(deviation, tolerance): the max coefficient deviation between the
    aggregated multiplier expansion and the target expansion, in O(N) time
    and memory, and the bound it passes at, ORACLE_TOL * max(1, ||c||^2 / r),
    since the aggregate's entries grow like c_i c_j / 2r. A NaN deviation
    passes no comparison.

    The elimination identity makes the deviation ~0 for every d and every
    admissible (alpha, r), certificate or not; a nonzero value localizes a
    transcription error. It is the maximum that comparing the dense
    aggregate of the multiplier matrix with the dense target entry by entry
    gives, taken from (a, b, c, d, eps) alone, without the recursion. With od_k = 1 +
    sum_{l<k} d_l, and rows_j, cols_j the sums of the multiplier matrix's
    row and column of index j, the aggregate's gram is
    - c_j / 2 on the h row and 0 at (h, h), as the target's is: these agree
      identically and are not compared;
    - alpha b_j - (rows_j + cols_j) / 2 on the diagonal, against
      -c_j^2 / 4r, plus eps_N / 2 at g_0;
    - ((1 - alpha) a_i - alpha c_{i+1} od_i + b_i) / 2 at (i, i+1), against
      -c_i c_{i+1} / 4r;
    - c_j (d_i - alpha od_{i+1}) / 2 at (i, j) for every j >= i+2, against
      -c_i c_j / 4r, a deviation of |c_j| / 2 * |d_i - alpha od_{i+1} +
      c_i / 2r|: its maximum over j takes one suffix maximum of |c|, so the
      result is exact, not a bound.
    The f-coefficients are rows - cols against the target's eps_i, with
    1 - sum_{i<N} eps_i at star and -1 at N.
    """
    N, alpha, r = cert.params.N, cert.params.alpha, cert.params.r
    a, c, d, eps = cert.a, cert.c, cert.d, cert.eps
    az = np.zeros(N + 1)
    az[:N] = a
    bz = np.zeros(N + 1)
    bz[: N - 1] = cert.b
    # column j of the matrix holds c_j * above[j] outside its band entries:
    # above[j] = 1 + sum_{i <= j-2} d_i, which is od_{j-1}
    above = np.ones(N + 1)
    above[2:] += np.cumsum(d)
    suffc = np.cumsum(c[::-1])[::-1]  # sum_{k >= j} c_k
    rows = az.copy()
    rows[1:] += bz[:N]
    rows[: N - 1] += d * suffc[2:]
    cols = c * above
    cols[1:] += az[:N]
    cols += bz
    four_r = 4.0 * r
    diag = alpha * bz - 0.5 * (rows + cols) + c * c / four_r
    diag[0] -= eps[N] / 2.0
    sup = (0.5 * ((1.0 - alpha) * a - alpha * c[1:] * above[1:] + bz[:N])
           + c[:N] * c[1:] / four_r)
    cmax = np.maximum.accumulate(np.abs(c[::-1]))[::-1]  # max_{k >= j} |c_k|
    block = cmax[2:] * np.abs(d - alpha * above[2:] + c[: N - 1] / (2.0 * r))
    deviations = [
        # f-coefficients in the order (star, 0, ..., N): the star row sums
        # to sum c, the star column is zero, and row N is zero
        abs(np.sum(c) - (1.0 - np.sum(eps[:N]))),
        np.max(np.abs(rows[:N] - cols[:N] - eps[:N])),
        abs(1.0 - cols[N]),
        np.max(np.abs(diag)),
        np.max(np.abs(sup)),
        0.5 * np.max(block),
    ]
    tolerance = ORACLE_TOL * max(1.0, float(np.dot(c, c) / r))
    return float(np.max(deviations)), tolerance  # np.max, unlike max, keeps a NaN


def _slack_factors(
    cert: FullCertificate,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The slack term r ||h - (1/2r) sum c_i g_i||^2 as factors (hh, w, x, y):
    hh = r on h h, w = -c / 2 on the h row and the g block x y^T, with
    x = c / 4r and y = c. The one assembly of the slack, which
    `slack_psd_check` checks as it stands."""
    r, c = cert.params.r, cert.c
    return r, -0.5 * c, c / (4.0 * r), c


def _slack_bounds(cert: FullCertificate) -> tuple[float, float]:
    """Upper bounds on max |E| and ||E||_F for E = G - r v v^T, with G the
    slack's factors and v = (1, u), u = -c / 2r, in O(N) time and memory.

    The h row of E is w - r u, and its g block is x y^T - r u u^T =
    x p^T - q u^T with p = y + 2 r u and q = 2 r x + r u. So the block's
    entries are at most max|x| max|p| + max|q| max|u| and its Frobenius
    norm at most ||x|| ||p|| + ||q|| ||u||; E holds the h row twice and
    hh - r once. Each bound is at least the deviation of the matrices the
    computed factors span, up to the rounding of the N^2 products x_i y_j."""
    r = cert.params.r
    hh, w, x, y = _slack_factors(cert)
    u = -cert.c / (2.0 * r)
    ru = r * u
    row = np.abs(w - ru)
    p = y + 2.0 * ru
    q = 2.0 * r * x + ru
    entry = np.max([abs(hh - r), np.max(row),
                    np.max(np.abs(x)) * np.max(np.abs(p))
                    + np.max(np.abs(q)) * np.max(np.abs(u))])
    norm = np.linalg.norm
    block = norm(x) * norm(p) + norm(q) * norm(u)
    # hypot, not the root of a sum of squares, which overflows from
    # c^2 / r ~ 1e170
    frob = np.hypot(block, np.hypot(np.sqrt(2.0) * norm(row), hh - r))
    return float(entry), float(frob)


def slack_psd_check(cert: FullCertificate) -> bool:
    """Confirm the slack Gram G is the rank-one PSD matrix r v v^T for the
    coefficient vector v of the linear form h - (1/2r) sum c_i g_i.

    A perfect square by construction; the check guards assembly bugs. Every
    entry of E = G - r v v^T must be within 1e-12 of max(1, max |r v v^T|),
    and ||E||_F <= RANK_TAU r ||v||^2. By Weyl's inequality the latter gives
    sigma_2(G) <= ||E||_F and sigma_1(G) >= r ||v||^2 - ||E||_F > 0, so
    sigma_2 <= 1e-10 sigma_1: the numerical rank is one, without an SVD.

    G is the slack's factors, and both quantities are bounded in O(N) time
    and memory by `_slack_bounds`, with no (N+2)^2 array. Non-finite or
    overflowing data gives False; no comparison passes a NaN.
    """
    r = cert.params.r
    with np.errstate(over="ignore", invalid="ignore"):
        u = -cert.c / (2.0 * r)
        size = r * (1.0 + u @ u)  # r ||v||^2
        if not np.isfinite(size):
            return False
        scale = max(1.0, r * np.max(np.abs(u), initial=1.0) ** 2)
        entry, frob = _slack_bounds(cert)
    return bool(entry <= SLACK_ENTRY_TOL * scale and frob <= RANK_TAU * size)
