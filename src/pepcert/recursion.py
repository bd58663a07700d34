"""Certificate elimination: derive (a, b, c) and the residual errors eps from a
candidate vector d.

Index conventions (0-based, matching the multiplier-matrix subscripts):

    d    length N-1, indices 0..N-2   the free certificate vector
    c    length N+1, indices 0..N     affine in d
    a    length N,   indices 0..N-1   quadratic in d, backward recursion
    b    length N-1, indices 0..N-2   quadratic in d, backward recursion
    eps  length N+1, indices 0..N     the residual system; a certificate is a
                                      d with eps identically zero and all of
                                      a, b, c, d positive

d alone fixes the rest: `derive_full` runs one pass from d. It takes a 1-D
d of length N-1, raises ValueError for any other shape, and requires N >= 3.
Its residual rows eps_0 .. eps_{N-1} are one formula over vectors padded
with a_{-1} = b_{-1} = b_{N-1} = d_{N-1} = 0 and od_{-1} = 1. The
parameters need not be balanced: the elimination is an algebraic identity
for any positive stepsize alpha and rate r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import RateParams

__all__ = [
    "FullCertificate",
    "derive_full",
]

DELTA_TOL = 1e-11  # the gate on FullCertificate.delta, of every solve and verify


def _backward_scan(z: np.ndarray, rho: float) -> np.ndarray:
    """In place, h -> z with z_{n-1} = h_{n-1} and z_i = rho z_{i+1} + h_i;
    returns z.

    Recursive doubling: after the pass with shift s, z_i sums rho**(j-i) h_j
    over i <= j < i + 2s, so ceil(log2 n) whole-array passes finish the scan.
    Every weight is a power of rho, which stays stable for |rho| < 1.
    """
    n = len(z)
    shift, weight = 1, rho
    while shift < n:
        z[:-shift] += weight * z[shift:]
        shift, weight = 2 * shift, weight * weight
    return z


def derive_full(params: RateParams, d) -> FullCertificate:
    """The whole certificate (a, b, c, d, eps) of one vector d, derived in one
    pass over sd_i = sum_{l<=i} d_l.

    c is affine in d:

        c_i = 2r (alpha sd_i - d_i + alpha)  for i <= N-2,
        c_{N-1} = 2r (1 + sd_{N-2} + (alpha-1)/sqrt(2r)),  c_N = sqrt(2r).

    a_{N-1} comes from the unit-sum condition on the last multiplier column.
    Each (a_i, b_i), i = N-2 down to 0, is affine in the next pair through
    z_{i+1} = -a_{i+1} + (2 alpha - 1) b_{i+1} alone (the 2x2 transfer matrix
    has rank one), with b_{N-1} = 0:

        a_i = (z_{i+1} + p_i) / alpha,  b_i = ((alpha - 1) z_{i+1} + q_i) / alpha,
        z_i = (2 alpha - 3) z_{i+1} + g_i,

    with od_i = 1 + sum_{j<i} d_j, suffc_j = sum_{l>=j} c_l, csq_i =
    c_{i+1}^2 / 2r, cross_i = c_i c_{i+1} / 2r, lin_i = c_{i+1} od_i,
    tail_i = d_{i+1} suffc_{i+3} and

        p = csq + cross - (1 + alpha) lin - tail,
        q = (alpha - 1) (csq - tail) - cross + lin,
        g = ((2 alpha - 1) q - p) / alpha = (2 alpha - 3) (csq - tail) - 2 cross + 3 lin.

    The residuals are

        eps_i = b_{i-1} + a_i + d_i suffc_{i+2} - a_{i-1} - b_i - c_i od_{i-1},
                                                              i = 0..N-1,
        eps_N = z_0 - c_0 - d_0 suffc_2 + c_0^2 / 2r,

    over the padded values a_{-1} = b_{-1} = b_{N-1} = d_{N-1} = 0,
    od_{-1} = 1 and suffc_{N+1} = 0, which also make tail_{N-2} = 0.
    All of these are whole-array expressions and the recurrence for z is one
    backward scan, so the derivation is O(N) work in O(log N) array passes.
    """
    N, alpha, r = params.N, params.alpha, params.r
    if N < 3:
        raise ValueError(f"certificate recursion requires N >= 3, got N={N}")
    d = np.asarray(d, dtype=float)
    if d.shape != (N - 1,):
        raise ValueError(f"d must have shape ({N - 1},), got {d.shape}")
    two_r = 2.0 * r
    sd = np.cumsum(d)
    c = np.empty(N + 1)
    c[: N - 1] = two_r * (alpha * sd - d + alpha)
    c[N - 1] = two_r * (1.0 + sd[-1] + (alpha - 1.0) / math.sqrt(two_r))
    c[N] = math.sqrt(two_r)
    # suffc[j] = suffc_j for j = 0..N+1; od[i] = od_{i-1} for i = 0..N;
    # dp[i] = d_i for i = 0..N-1
    suffc = np.zeros(N + 2)
    suffc[:-1] = np.cumsum(c[::-1])[::-1]
    od = np.ones(N + 1)
    od[2:] += sd
    dp = np.zeros(N)
    dp[:-1] = d
    # terms of step i = 0..N-2
    csq = c[1:N] ** 2 / two_r
    cross = c[: N - 1] * c[1:N] / two_r
    lin = c[1:N] * od[1:N]
    tail = dp[1:] * suffc[3:]
    p = csq + cross - (1.0 + alpha) * lin - tail
    csq_tail = csq - tail
    q = (alpha - 1.0) * csq_tail - cross + lin

    # ap[i] = a_{i-1} and bp[i] = b_{i-1} for i = 0..N
    ap = np.zeros(N + 1)
    ap[N] = 1.0 - c[N] * od[N]
    rho = 2.0 * alpha - 3.0
    h = np.empty(N)
    h[: N - 1] = rho * csq_tail - 2.0 * cross + 3.0 * lin
    h[N - 1] = -ap[N]
    z_next = _backward_scan(h, rho)[1:]
    ap[1:N] = (z_next + p) / alpha
    bp = np.zeros(N + 1)
    bp[1:N] = ((alpha - 1.0) * z_next + q) / alpha
    a, b = ap[1:], bp[1:N]

    eps = np.empty(N + 1)
    eps[:N] = bp[:N] + ap[1:] + dp * suffc[2:] - ap[:N] - bp[1:] - c[:N] * od[:N]
    eps[N] = (
        -c[0] - a[0] - d[0] * suffc[2]
        + (2.0 * alpha - 1.0) * b[0]
        + c[0] ** 2 / two_r
    )
    return FullCertificate(params=params, a=a, b=b, c=c, d=dp[:-1], eps=eps)


@dataclass(frozen=True)
class FullCertificate:
    """Complete certificate data (a, b, c, d, eps) for one problem size.

    `params` holds the (N, alpha, r) the data was derived at, balanced or
    not. `derive_full` builds it; the fields are not re-checked.
    """

    params: RateParams
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    eps: np.ndarray

    @property
    def positive(self) -> bool:
        """True when all of a, b, c, d are strictly positive; one NaN makes
        it False."""
        return bool(np.concatenate((self.a, self.b, self.c, self.d)).min() > 0)

    @property
    def residual_sup(self) -> float:
        """The largest residual error, max_i |eps_i|."""
        return float(np.max(np.abs(self.eps)))

    @property
    def delta(self) -> float:
        """Total positive error, the sum of max(eps_i, 0)."""
        return float(np.sum(np.maximum(self.eps, 0.0)))
