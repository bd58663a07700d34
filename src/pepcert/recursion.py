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

Every derivation takes and returns 1-D vectors of these lengths, raises
ValueError for any other shape, and requires N >= 3. The parameters need not
be balanced: the elimination is an algebraic identity for any positive
stepsize alpha and rate r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import RateParams

__all__ = [
    "FullCertificate",
    "c_from_d",
    "ab_from_cd",
    "eps_from",
    "residual",
    "derive_full",
]


def _check_n(N: int):
    if N < 3:
        raise ValueError(f"certificate recursion requires N >= 3, got N={N}")


def _check_shape(name: str, arr: np.ndarray, expect: int):
    if arr.shape != (expect,):
        raise ValueError(f"{name} must have shape ({expect},), got {arr.shape}")


def _suffix_sums(c: np.ndarray) -> np.ndarray:
    # suff[k] = sum_{j >= k} c_j, with one extra trailing zero so that empty
    # suffixes index cleanly
    suff = np.zeros(len(c) + 1)
    suff[:-1] = np.cumsum(c[::-1])[::-1]
    return suff


def c_from_d(params: RateParams, d) -> np.ndarray:
    """The vector c (length N+1), affine in d.

    c_i = 2r (alpha * sum_{l<=i} d_l - d_i + alpha) for i <= N-2,
    c_{N-1} = 2r (1 + sum d + (alpha-1)/sqrt(2r)), c_N = sqrt(2r).
    """
    N, alpha, r = params.N, params.alpha, params.r
    _check_n(N)
    d = np.asarray(d, dtype=float)
    _check_shape("d", d, N - 1)
    two_r = 2.0 * r
    sd = np.cumsum(d)
    c = np.empty(N + 1)
    c[: N - 1] = two_r * (alpha * sd - d + alpha)
    c[N - 1] = two_r * (1.0 + sd[-1] + (alpha - 1.0) / math.sqrt(two_r))
    c[N] = math.sqrt(two_r)
    return c


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


def ab_from_cd(params: RateParams, c, d):
    """The vectors a (length N) and b (length N-1) by backward recursion.

    a_{N-1} comes from the unit-sum condition on the last multiplier column.
    Each (a_i, b_i), i = N-2 down to 0, is affine in the next pair through
    z_{i+1} = -a_{i+1} + (2 alpha - 1) b_{i+1} alone (the 2x2 transfer matrix
    has rank one), with b_{N-1} = 0:

        a_i = (z_{i+1} + p_i) / alpha,  b_i = ((alpha - 1) z_{i+1} + q_i) / alpha,
        z_i = (2 alpha - 3) z_{i+1} + g_i,

    with csq_i = c_{i+1}^2 / 2r, cross_i = c_i c_{i+1} / 2r,
    lin_i = c_{i+1} (1 + sum_{j<i} d_j), tail_i = d_{i+1} sum_{j>=i+3} c_j and

        p = csq + cross - (1 + alpha) lin - tail,
        q = (alpha - 1) (csq - tail) - cross + lin,
        g = ((2 alpha - 1) q - p) / alpha = (2 alpha - 3) (csq - tail) - 2 cross + 3 lin.

    All of these are whole-array expressions and the recurrence for z is one
    backward scan, so the derivation is O(N) work in O(log N) array passes.
    """
    N, alpha, r = params.N, params.alpha, params.r
    _check_n(N)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    _check_shape("c", c, N + 1)
    _check_shape("d", d, N - 1)
    two_r = 2.0 * r
    suffc = _suffix_sums(c)
    sd = np.cumsum(d)
    # od[i] = 1 + sum_{j <= i-1} d_j for i = 0..N-2
    od = np.empty(N - 1)
    od[0] = 1.0
    od[1:] = 1.0 + sd[:-1]
    # terms of step i = 0..N-2; tail_{N-2} = 0 (no d_{N-1})
    csq = c[1:N] ** 2 / two_r
    cross = c[: N - 1] * c[1:N] / two_r
    lin = c[1:N] * od
    tail = np.zeros(N - 1)
    tail[: N - 2] = d[1:] * suffc[3 : N + 1]
    p = csq + cross - (1.0 + alpha) * lin - tail
    q = (alpha - 1.0) * (csq - tail) - cross + lin

    a = np.empty(N)
    a[N - 1] = 1.0 - c[N] * (1.0 + sd[-1])
    rho = 2.0 * alpha - 3.0
    h = np.empty(N)
    h[: N - 1] = rho * (csq - tail) - 2.0 * cross + 3.0 * lin
    h[N - 1] = -a[N - 1]
    z_next = _backward_scan(h, rho)[1:]
    a[: N - 1] = (z_next + p) / alpha
    b = ((alpha - 1.0) * z_next + q) / alpha
    return a, b


def eps_from(params: RateParams, a, b, c, d) -> np.ndarray:
    """The residual vector eps (length N+1) from derived (a, b, c) and d."""
    N, alpha, r = params.N, params.alpha, params.r
    _check_n(N)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    _check_shape("a", a, N)
    _check_shape("b", b, N - 1)
    _check_shape("c", c, N + 1)
    _check_shape("d", d, N - 1)
    sd = np.cumsum(d)
    suffc = _suffix_sums(c)
    od = np.empty(N)
    od[0] = 1.0
    od[1:] = 1.0 + sd

    eps = np.empty(N + 1)
    eps[0] = a[0] + d[0] * suffc[2] - b[0] - c[0]
    eps[1 : N - 1] = (
        b[0 : N - 2]
        + a[1 : N - 1]
        + d[1 : N - 1] * suffc[3 : N + 1]
        - a[0 : N - 2]
        - b[1 : N - 1]
        - c[1 : N - 1] * od[0 : N - 2]
    )
    eps[N - 1] = b[N - 2] + a[N - 1] - a[N - 2] - c[N - 1] * od[N - 2]
    eps[N] = (
        -c[0] - a[0] - d[0] * suffc[2]
        + (2.0 * alpha - 1.0) * b[0]
        + c[0] ** 2 / (2.0 * r)
    )
    return eps


def residual(params: RateParams, d) -> np.ndarray:
    """Residuals eps(d): the composition of the three derivations.

    Each component is an exactly quadratic polynomial in d; a zero of the map
    with positive derived data is a certificate.
    """
    c = c_from_d(params, d)
    a, b = ab_from_cd(params, c, d)
    return eps_from(params, a, b, c, d)


@dataclass(frozen=True)
class FullCertificate:
    """Complete certificate data (a, b, c, d, eps) for one problem size.

    `params` holds the (N, alpha, r) the data was derived at, balanced or
    not. N >= 3 and the lengths are enforced on construction. c[N] must equal
    sqrt(2r) bit for bit; a[N-1] must match its unit-column expression
    t = 1 - c[N] (1 + sum d) to within 1e-12 * max(1, |t|), and a NaN fails.
    This makes file round-trips safely re-checkable.
    """

    params: RateParams
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        N = self.params.N
        _check_n(N)
        for name, arr, expect in (
            ("a", self.a, N),
            ("b", self.b, N - 1),
            ("c", self.c, N + 1),
            ("d", self.d, N - 1),
            ("eps", self.eps, N + 1),
        ):
            _check_shape(name, arr, expect)
        if self.c[N] != math.sqrt(2.0 * self.params.r):
            raise ValueError("c[N] != sqrt(2 r)")
        tail = 1.0 - self.c[N] * (1.0 + np.cumsum(self.d)[-1])
        # written so that a NaN fails the check
        if not abs(self.a[N - 1] - tail) <= 1e-12 * max(1.0, abs(tail)):
            raise ValueError("a[N-1] violates the unit-column condition")

    @property
    def positive(self) -> bool:
        """True when all of a, b, c, d are strictly positive."""
        return bool(
            (self.a > 0).all() and (self.b > 0).all()
            and (self.c > 0).all() and (self.d > 0).all()
        )

    @property
    def delta(self) -> float:
        """Total positive error, the sum of max(eps_i, 0)."""
        return float(np.sum(np.maximum(self.eps, 0.0)))


def derive_full(params: RateParams, d) -> FullCertificate:
    """Bundle the whole derivation for a single d into a FullCertificate."""
    d = np.asarray(d, dtype=float)
    c = c_from_d(params, d)
    a, b = ab_from_cd(params, c, d)
    eps = eps_from(params, a, b, c, d)
    return FullCertificate(params=params, a=a, b=b, c=c, d=d.copy(), eps=eps)
