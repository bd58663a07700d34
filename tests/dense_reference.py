"""The dense O(N^2) reference that the O(N) checks of `pepcert.verifier` are
tested against: the (N+2) x (N+2) multiplier matrix, its aggregate and the
target over the basis (h, g_0, ..., g_N) of the verifier's docstring, the
slack's gram, and both checks' verdicts computed from them entry by entry.
"""

from __future__ import annotations

import numpy as np

from pepcert import FullCertificate, verifier
from pepcert.verifier import RANK_TAU, SLACK_ENTRY_TOL


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
    the very factors `slack_psd_check` checks. The error terms contribute
    eps_i on f_i - f_star for i < N and eps_N / 2 on ||g_0||^2. Returns
    (fcoef, gram); gram is exactly symmetric, as slack_gram is."""
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


def slack_gram(cert: FullCertificate) -> np.ndarray:
    """Gram matrix of the slack term, the dense expansion of its factors:
    r on h h, w_i on h g_i and the g block x y^T, stored symmetric as
    (x y^T + y x^T) / 2, so the gram is exactly symmetric."""
    hh, w, x, y = verifier._slack_factors(cert)
    gram = np.empty((len(w) + 1,) * 2)
    block = gram[1:, 1:]
    np.outer(x, y, out=block)
    block += block.T  # numpy buffers the overlapping operand
    block *= 0.5
    gram[0, 1:] = w
    gram[1:, 0] = w
    gram[0, 0] = hh
    return gram


def pattern_mask(n: int) -> np.ndarray:
    """Boolean mask of the positions `assemble_lambda` may fill: the star
    row, the a band and the d*c block fill the strict upper triangle, and
    the b band sits just below the diagonal."""
    mask = np.triu(np.ones((n + 2, n + 2), dtype=bool), k=1)
    rows = np.arange(2, n + 1)
    mask[rows, rows - 1] = True
    return mask


def dense_deviation(cert: FullCertificate) -> float:
    """The oracle's deviation through the dense reference: the aggregate of
    the whole multiplier matrix against the target, entry by entry."""
    fcoef, gram = aggregate(assemble_lambda(cert), cert.params.alpha)
    target_f, target_gram = rhs_with_errors(cert)
    return max(float(np.abs(fcoef - target_f).max()),
               float(np.abs(gram - target_gram).max()))


def dense_slack_verdict(cert: FullCertificate, gram: np.ndarray) -> bool:
    """`slack_psd_check`'s entrywise and Weyl tests on an explicit
    (N+2) x (N+2) gram, with E = gram - r v v^T formed densely."""
    r = cert.params.r
    with np.errstate(over="ignore", invalid="ignore"):
        u = -cert.c / (2.0 * r)
        size = r * (1.0 + u @ u)  # r ||v||^2
        if not np.isfinite(size):
            return False
        scale = max(1.0, r * np.max(np.abs(u), initial=1.0) ** 2)
        v = np.concatenate(([1.0], u))
        dev = np.asarray(gram, dtype=float) - r * np.outer(v, v)
        entry, frob = np.max(np.abs(dev)), np.linalg.norm(dev)
    return bool(entry <= SLACK_ENTRY_TOL * scale and frob <= RANK_TAU * size)
