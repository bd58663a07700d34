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
of (a, b, c, d), and the block's deviation factors through c. The dense
reference stays beside it for tests and demos: `assemble_lambda` builds the
(N+2) x (N+2) matrix, `aggregate` sums lam_ij * Q_ij over any such matrix
from its row and column sums and one cumulative sum down its columns, in
O(N^2), and `rhs_with_errors` expands the target, whose gram holds the
rank-one slack r ||h - (1/2r) sum c_i g_i||^2 through `slack_gram`, its one
expansion. `slack_psd_check` confirms that matrix is r v v^T of numerical
rank one by a Weyl bound on ||G - r v v^T||_F, without an SVD. It checks
the slack through the factors `_slack_factors` returns, from which
`slack_gram` builds the dense matrix, in O(N) time and memory; only a gram
passed in explicitly is checked densely, in O(N^2).
"""

from __future__ import annotations

import numpy as np

from .recursion import FullCertificate

__all__ = [
    "assemble_lambda",
    "aggregate",
    "rhs_with_errors",
    "oracle_check",
    "oracle_scale",
    "slack_gram",
    "slack_psd_check",
]

# slack_psd_check: entrywise tolerance, and the Frobenius bound that implies
# sigma_2 <= 1e-10 sigma_1, since tau / (1 - tau) = 1e-10
SLACK_ENTRY_TOL = 1e-12
RANK_TAU = 1e-10 / (1.0 + 1e-10)


def assemble_lambda(cert: FullCertificate) -> np.ndarray:
    """Multiplier matrix from certificate data, (N+2) x (N+2) with rows and
    columns indexed (star, 0, ..., N).

    Row star carries (0, c_0, ..., c_N); a_i sits one step right of the
    diagonal, b_i one step left; the block entry at (i, j) for j >= i+2 is
    d_i * c_j. Row N and the star column stay zero.
    """
    N = cert.params.N
    lam = np.zeros((N + 2, N + 2))
    lam[0, 1:] = cert.c
    lam[1:N, 1:] = np.triu(np.outer(cert.d, cert.c), k=2)  # keeps j >= i+2 only
    rows = np.arange(N)
    lam[1 + rows, 2 + rows] = cert.a
    rows = np.arange(N - 1)
    lam[2 + rows, 1 + rows] = cert.b
    return lam


def aggregate(entries: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Sum of w[p, q] * Q_pq over a whole (N+2) x (N+2) multiplier matrix w,
    in closed form; N is read from the shape.

    With w in matrix positions (star at 0), g_star = 0 and
    x_p - x_star = h - alpha sum_{l<p-1} g_l for p >= 1:
    - fcoef = row sums - column sums of w;
    - the cross terms are -sum_q <g_q, sum_p w_pq (x_p - x_q)>, and for
      q >= 1 that inner sum has the coefficient -w[0, q] on h and
      alpha (sum_{p<=m} w_pq - [m >= q] cols_q) on g_{m-1}: a cumulative sum
      down the columns of w;
    - the squared terms -1/2 sum w_pq ||g_p - g_q||^2 are
      -1/2 (diag(rows + cols) - w - w^T) restricted to the g block.
    Diagonal entries cancel, as Q_pp = 0. Returns (fcoef, gram); gram is
    exactly symmetric, as it is built as (half + half^T) / 2 less a diagonal.
    One (N+2)^2 work array beside gram.
    """
    w = np.asarray(entries, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"entries must be a square (N+2, N+2) array, got {w.shape}")
    size = w.shape[0]
    rows, cols = w.sum(axis=1), w.sum(axis=0)
    # the gram is the symmetric part of `half`, less diag(rows + cols) / 2 on
    # the g block; first the cross terms below the h row
    half = np.cumsum(w, axis=0)
    np.subtract(half, cols, out=half, where=np.tri(size, dtype=bool))
    half *= -alpha
    half += w  # the <g_p, g_q> part of the squared terms
    half[0] = w[0]  # the cross terms on the h row
    half[:, 0] = 0.0  # g_star = 0
    gram = half + half.T
    del half
    gram.flat[size + 1 :: size + 1] -= (rows + cols)[1:]
    gram *= 0.5
    return rows - cols, gram


def rhs_with_errors(cert: FullCertificate) -> tuple[np.ndarray, np.ndarray]:
    """Target expansion: f_star - f_N plus the rate term minus the rank-one
    slack, plus the residual error terms.

    The gram is the rate term r ||h||^2 less the slack,
    r e_h e_h^T - slack_gram(cert), so the dense reference matches against
    the very matrix `slack_psd_check` checks. The error terms contribute eps_i
    on f_i - f_star for i < N and eps_N / 2 on ||g_0||^2. Returns (fcoef,
    gram); gram is exactly symmetric, as slack_gram is."""
    N, r = cert.params.N, cert.params.r
    eps = cert.eps
    fcoef = np.zeros(N + 2)
    fcoef[0] = 1.0 - float(np.sum(eps[:N]))
    fcoef[1 : 1 + N] = eps[:N]
    fcoef[1 + N] = -1.0
    gram = slack_gram(cert)
    np.negative(gram, out=gram)
    gram[0, 0] += r
    gram[1, 1] += eps[N] / 2.0
    return fcoef, gram


def oracle_scale(cert: FullCertificate) -> float:
    """Natural magnitude of the aggregate coefficients: entries grow like
    c_i c_j / (2 r), so deviations are measured against max(1, ||c||^2 / r)."""
    return max(1.0, float(np.dot(cert.c, cert.c) / cert.params.r))


def oracle_check(cert: FullCertificate) -> float:
    """Max coefficient deviation between the aggregated multiplier expansion
    and the target expansion, in O(N) time and memory.

    The elimination identity makes this ~0 for every d and every admissible
    (alpha, r), certificate or not; a nonzero value localizes a transcription
    error. It is the maximum that comparing `aggregate(assemble_lambda(cert),
    alpha)` with `rhs_with_errors(cert)` entry by entry gives, taken from
    (a, b, c, d, eps) alone, without the recursion. With od_k = 1 +
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
    return float(np.max(deviations))  # np.max, unlike max, keeps a NaN


def _slack_factors(
    cert: FullCertificate,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The slack term r ||h - (1/2r) sum c_i g_i||^2 as factors (hh, w, x, y):
    hh = r on h h, w = -c / 2 on the h row and the g block x y^T, with
    x = c / 4r and y = c. The one assembly of the slack: `slack_gram`
    expands it densely and `slack_psd_check` checks it as it stands."""
    r, c = cert.params.r, cert.c
    return r, -0.5 * c, c / (4.0 * r), c


def slack_gram(cert: FullCertificate) -> np.ndarray:
    """Gram matrix of the slack term, the dense expansion of its factors:
    r on h h, w_i on h g_i and the g block x y^T, stored symmetric as
    (x y^T + y x^T) / 2, so the gram is exactly symmetric."""
    hh, w, x, y = _slack_factors(cert)
    gram = np.empty((len(w) + 1,) * 2)
    block = gram[1:, 1:]
    np.outer(x, y, out=block)
    block += block.T  # numpy buffers the overlapping operand
    block *= 0.5
    gram[0, 1:] = w
    gram[1:, 0] = w
    gram[0, 0] = hh
    return gram


def _slack_bounds(cert: FullCertificate) -> tuple[float, float]:
    """Upper bounds on max |E| and ||E||_F for E = G - r v v^T, with G the
    slack's factors and v = (1, u), u = -c / 2r, in O(N) time and memory.

    The h row of E is w - r u, as the dense route computes it, and its g
    block is x y^T - r u u^T = x p^T - q u^T with p = y + 2 r u and
    q = 2 r x + r u. So the block's entries are at most
    max|x| max|p| + max|q| max|u| and its Frobenius norm at most
    ||x|| ||p|| + ||q|| ||u||; E holds the h row twice and hh - r once.
    Each bound is at least the deviation of the matrices the computed
    factors span, up to the rounding of the N^2 products x_i y_j."""
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


def slack_psd_check(cert: FullCertificate, gram: np.ndarray | None = None) -> bool:
    """Confirm the slack Gram G is the rank-one PSD matrix r v v^T for the
    coefficient vector v of the linear form h - (1/2r) sum c_i g_i.

    A perfect square by construction; the check guards assembly bugs. Every
    entry of E = G - r v v^T must be within 1e-12 of max(1, max |r v v^T|),
    and ||E||_F <= RANK_TAU r ||v||^2. By Weyl's inequality the latter gives
    sigma_2(G) <= ||E||_F and sigma_1(G) >= r ||v||^2 - ||E||_F > 0, so
    sigma_2 <= 1e-10 sigma_1: the numerical rank is one, without an SVD.

    By default G is the slack's factors, and both quantities are bounded in
    O(N) time and memory by `_slack_bounds`, with no (N+2)^2 array. An
    explicit (N+2) x (N+2) `gram` is checked densely, in O(N^2): the only
    way to check an arbitrary matrix (pass a corrupted one to see it fail).
    Non-finite or overflowing data gives False; no comparison passes a NaN.
    """
    N, r = cert.params.N, cert.params.r
    if gram is not None:
        gram = np.asarray(gram, dtype=float)
        if gram.shape != (N + 2, N + 2):
            raise ValueError(f"gram must have shape {(N + 2, N + 2)}, got {gram.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        u = -cert.c / (2.0 * r)
        size = r * (1.0 + u @ u)  # r ||v||^2
        if not np.isfinite(size):
            return False
        scale = max(1.0, r * np.max(np.abs(u), initial=1.0) ** 2)
        if gram is None:
            entry, frob = _slack_bounds(cert)
        else:
            v = np.concatenate(([1.0], u))
            dev = gram - r * np.outer(v, v)
            entry, frob = np.max(np.abs(dev)), np.linalg.norm(dev)
    return bool(entry <= SLACK_ENTRY_TOL * scale and frob <= RANK_TAU * size)
