"""Gauss-Newton certificate solver with continuation in the problem size.

The residual map eps(d) is overdetermined (N+1 equations, N-1 unknowns) and
exactly quadratic, so damped Gauss-Newton with QR least-squares steps converges
quadratically near a zero-residual solution. The Jacobian is exact: forward-mode
tangents of the recursion, with no finite differences, in O(N^2) time and
memory. The step applies Q^T to eps through the Householder reflectors and
never forms Q. Every solve past N=3 goes through `continue_from`,
warm-started by linear extrapolation of the one or two most recent
certificate shapes; a sweep chains such solves over N.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr_multiply, solve_triangular

from .rates import RateParams, solve_rate_params
from .recursion import FullCertificate, c_from_d, derive_full, residual

__all__ = [
    "NonConvergence",
    "RankDeficientJacobian",
    "SolveReport",
    "SweepSchedule",
    "jacobian",
    "least_squares_step",
    "gauss_newton",
    "resample",
    "extrapolate_init",
    "continue_from",
    "bootstrap_smallest",
    "sweep",
]

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 50


class NonConvergence(RuntimeError):
    """Gauss-Newton failed: stagnation, iteration budget, or a sign-violating
    terminal certificate. Carries the problem size and last residual sup."""

    def __init__(self, message: str, N: int | None = None,
                 residual_sup: float | None = None):
        super().__init__(message)
        self.N = N
        self.residual_sup = residual_sup


class RankDeficientJacobian(RuntimeWarning):
    """QR detected numerical rank below N-1; the iteration continues with an
    SVD minimum-norm step."""


@dataclass
class SolveReport:
    """Record of one converged Gauss-Newton run and its strictly positive
    certificate; gauss_newton raises NonConvergence rather than return any
    other outcome. `params`, `d`, `residual_sup` and `delta` are read from
    `cert`."""

    cert: FullCertificate
    iterations: int
    rank_deficient: bool = False
    res_norms: list[float] = field(default_factory=list)

    @property
    def params(self) -> RateParams:
        return self.cert.params

    @property
    def d(self) -> np.ndarray:
        return self.cert.d

    @property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(self.cert.eps)))

    @property
    def delta(self) -> float:
        return self.cert.delta


def jacobian(params: RateParams, d) -> np.ndarray:
    """Exact Jacobian J[i, k] = d eps_i / d d_k by forward-mode differentiation.

    The tangents of c_from_d -> ab_from_cd -> eps_from are propagated for all
    N-1 unit directions at once, by the product rule; the tangent of d itself
    is the identity, so its products are diagonal updates. eps is exactly
    quadratic in d, so J carries rounding error only.

    With u_i = a_i - b_i (u_{N-1} = a_{N-1}, u_{-1} = 0) and the scan
    variable z_i = -a_i + (2 alpha - 1) b_i of ab_from_cd, eps_from reads

        eps_i = u_i - u_{i-1} + tl_i - c_i od_{i-1},   i = 0..N-1,
        eps_N = z_0 - c_0 - tl_0 + c_0^2 / 2r,
        u_i = kappa z_{i+1} + kappa (csq_i - tail_i)
              + (2 cross_i - (2 + alpha) lin_i) / alpha,   i < N-1,

    with kappa = (2 - alpha) / alpha, od_i = 1 + sum_{j<i} d_j (od_{-1} = 1),
    suffc_j = sum_{l>=j} c_l, tl_i = d_i suffc_{i+2} (tl_{N-1} = 0) and the
    step terms of ab_from_cd (tail_i = tl_{i+1}).

    The tangents of g and of eps without its z terms have rows that are
    constant left of the diagonal, a multiple of d suffc_j / d d_k =
    2 r alpha (N-1-k) far right of it, and irregular only on a few diagonals
    in between, so `fill` writes each (N, N-1) array in three passes. The
    tangent of z then comes from the scan of g, row by row.
    """
    d = np.asarray(d, dtype=float)
    N, alpha, r = params.N, params.alpha, params.r
    m = N - 1
    if d.shape != (m,):
        raise ValueError(f"d must have shape ({m},), got {d.shape}")
    two_r = 2.0 * r
    rho = 2.0 * alpha - 3.0
    kappa = (2.0 - alpha) / alpha
    c = c_from_d(params, d)
    od = np.ones(N)
    od[1:] += np.cumsum(d)
    odp = np.append(1.0, od[:-1])
    # zero-padded so that rows past the end index safely
    dpad = np.zeros(N + 1)
    dpad[:m] = d
    suffc = np.zeros(N + 3)
    suffc[: N + 1] = np.cumsum(c[::-1])[::-1]

    # Entries at index arrays (i, k). k = -1 lies left of every row, so
    # entry(i, -1) is the value of row i left of the diagonal.
    def tc(i, k):  # d c_i / d d_k for i <= N-1; c_N is constant
        return np.where(i == m, two_r, two_r * (alpha * (k <= i) - (k == i)))

    def tod(i, k):  # d od_i / d d_k
        return (k < i).astype(float)

    def ttl(i, k):  # d tl_i / d d_k
        j = i + 2
        tsuff = np.where(j >= N, 0.0,
                         np.where(k < j, two_r * (alpha * (m - j) + 1.0), two_r * alpha * (m - k)))
        return dpad[i] * tsuff + suffc[j] * (k == i)

    def th(i, k):  # d g_i / d d_k, and d z_{N-1} / d d_k = c_N in row N-1
        t_next = tc(i + 1, k)
        g = (rho * (c[i + 1] / r * t_next - ttl(i + 1, k))
             - (c[i + 1] * tc(i, k) + c[i] * t_next) / r
             + 3.0 * (od[i] * t_next + c[i + 1] * tod(i, k)))
        return np.where(i == m, c[N], g)

    def su(i, k):  # d (u_i - kappa z_{i+1}) / d d_k for -1 <= i <= N-1
        t_next = tc(i + 1, k)
        rest = (kappa * (c[i + 1] / r * t_next - ttl(i + 1, k))
                + ((c[i + 1] * tc(i, k) + c[i] * t_next) / r
                   - (2.0 + alpha) * (od[i] * t_next + c[i + 1] * tod(i, k))) / alpha)
        return np.where(i < 0, 0.0, np.where(i == m, -c[N], rest))

    def sj(i, k):  # d eps_i / d d_k without its z terms, for i <= N-1
        return su(i, k) - su(i - 1, k) + ttl(i, k) - odp[i] * tc(i, k) - c[i] * tod(i - 1, k)

    cols = np.arange(m)
    far = two_r * alpha * (m - cols)

    def fill(out, entry, lower, upper, far_coef):
        # entry(i, -1) where k - i <= lower, far_coef_i * far_k where
        # k - i >= upper, and the exact entries on the diagonals in between
        rows = np.arange(out.shape[0])
        np.multiply(far_coef[:, None], far, out=out)
        np.copyto(out, entry(rows, -1)[:, None], where=cols <= rows[:, None] + lower)
        for offset in range(lower + 1, upper):
            i = rows[(rows + offset >= 0) & (rows + offset < m)]
            out[i, i + offset] = entry(i, i + offset)

    tz = np.empty((N, m))
    fill(tz, th, -1, 3, -rho * dpad[1:])
    # the backward scan of ab_from_cd, row by row: one pass over the array,
    # where recursive doubling would make log2(N) passes
    for i in range(N - 2, -1, -1):
        tz[i] += rho * tz[i + 1]
    J = np.empty((N + 1, m))
    far_j = (1.0 + kappa) * dpad[:N] - kappa * dpad[1:]
    far_j[0] = d[0] - kappa * dpad[1]  # u_{-1} = 0 has no far part
    fill(J[:N], sj, -2, 3, far_j)
    J[N] = tz[0] + (c[0] / r - 1.0) * tc(0, cols) - ttl(0, cols)
    tz[1:] *= kappa
    J[:m] += tz[1:]
    J[1:N] -= tz[1:]
    return J


def least_squares_step(J: np.ndarray, eps: np.ndarray):
    """Solve min_s ||J s + eps||_2 by QR; returns (s, rank_ok).

    Q^T eps is applied with the Householder reflectors (qr_multiply), so Q is
    never formed. When the R diagonal signals rank below full column rank
    (relative to 1e-12 of its largest entry) a RankDeficientJacobian warning
    is issued and the SVD minimum-norm solution is used instead.
    """
    qt_eps, rmat = qr_multiply(J, eps)
    diag = np.abs(np.diag(rmat))
    rank_ok = bool(diag.min() >= 1e-12 * diag.max())
    if rank_ok:
        s = solve_triangular(rmat, -qt_eps)
    else:
        warnings.warn(
            f"Jacobian numerically rank deficient (diag ratio {diag.min() / diag.max():.2e})",
            RankDeficientJacobian,
        )
        s, *_ = np.linalg.lstsq(J, -eps, rcond=None)
    return s, rank_ok


def gauss_newton(params: RateParams, d0, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Damped Gauss-Newton on the residual system from the start d0.

    Each iteration takes the QR least-squares step s and accepts the largest
    damping t in {1, 1/2, ..., 2**-20} that strictly decreases ||eps||_2.
    Stops as soon as max_i |eps_i| <= tol. Positivity of the derived
    (a, b, c, d) is checked only at termination.

    Returns
    -------
    SolveReport of the converged, positive certificate; `iterations` counts
    accepted steps.

    Raises
    ------
    NonConvergence
        if the line search stagnates, the iteration budget is exhausted, or
        the terminal certificate is not strictly positive. A sign-violating
        result is never reported as converged.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    d = np.array(d0, dtype=float)
    if d.shape != (params.N - 1,):
        raise ValueError(f"d0 must have shape ({params.N - 1},), got {d.shape}")
    norms: list[float] = []
    rank_flag = False
    for it in range(max_iter + 1):
        eps = residual(params, d)
        sup = float(np.max(np.abs(eps)))
        norms.append(float(np.linalg.norm(eps)))
        if sup <= tol:
            cert = derive_full(params, d)
            if not cert.positive:
                raise NonConvergence(
                    f"residual converged at N={params.N} but certificate data "
                    "is not strictly positive",
                    N=params.N, residual_sup=sup,
                )
            return SolveReport(cert=cert, iterations=it, rank_deficient=rank_flag,
                               res_norms=norms)
        if it == max_iter:
            break
        J = jacobian(params, d)
        s, rank_ok = least_squares_step(J, eps)
        rank_flag = rank_flag or not rank_ok
        accepted = False
        t = 1.0
        while t >= 2.0**-20:
            trial = d + t * s
            if np.linalg.norm(residual(params, trial)) < norms[-1]:
                d = trial
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NonConvergence(
                f"line search stagnated at N={params.N} with residual sup {sup:.3e}",
                N=params.N, residual_sup=sup,
            )
    raise NonConvergence(
        f"no convergence at N={params.N} within {max_iter} iterations "
        f"(residual sup {sup:.3e})",
        N=params.N, residual_sup=sup,
    )


def resample(d, n_target: int) -> np.ndarray:
    """Piecewise-linear resampling of a certificate shape onto the grid of a
    different problem size (normalized index t_i = i/(N-2) on [0, 1])."""
    d = np.asarray(d, dtype=float)
    if n_target < 3:
        raise ValueError("target N must be >= 3")
    src = np.linspace(0.0, 1.0, d.shape[-1])
    dst = np.linspace(0.0, 1.0, n_target - 1)
    return np.interp(dst, src, d)


def extrapolate_init(n1: int, d1, n2: int, d2, target: int) -> np.ndarray:
    """Warm start for size `target` by linear extrapolation in N of two solved
    certificate shapes (each resampled onto the target grid first).

    Entries are clamped below at 1e-12 to keep the start positive. With
    n1 == n2 the sources must coincide and the common shape is resampled
    (degenerate one-source continuation).
    """
    if n1 < 3:
        raise ValueError("source sizes must be >= 3")
    if n2 < n1:
        raise ValueError("sources must satisfy n1 <= n2")
    v1 = resample(d1, target)
    v2 = resample(d2, target)
    if n2 == n1:
        if not np.array_equal(np.asarray(d1, float), np.asarray(d2, float)):
            raise ValueError("equal source sizes require identical vectors")
        return np.maximum(v2, 1e-12)
    w = (target - n1) / (n2 - n1)
    return np.maximum(v1 + w * (v2 - v1), 1e-12)


def continue_from(sources, n: int, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """Solve size n from one or two solved (N, d) pairs, warm-started by
    extrapolate_init of the first and last pair in N order. Raises ValueError
    for unusable sources and NonConvergence when the solve fails."""
    if len(sources) not in (1, 2):
        raise ValueError(f"need one or two continuation sources, got {len(sources)}")
    ordered = sorted(sources, key=lambda pair: pair[0])
    (n1, d1), (n2, d2) = ordered[0], ordered[-1]
    d0 = extrapolate_init(n1, d1, n2, d2, n)
    return gauss_newton(solve_rate_params(n), d0, tol=tol, max_iter=max_iter)


def bootstrap_smallest(params: RateParams, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> SolveReport:
    """First certificate of a sweep (N = 3): Gauss-Newton from the single
    documented start d0 = (0.05, 0.05).

    Raises NonConvergence if that start fails; there is no fallback.
    """
    if params.N != 3:
        raise ValueError(f"bootstrap_smallest requires N=3, got N={params.N}")
    return gauss_newton(params, np.full(2, 0.05), tol=tol, max_iter=max_iter)


@dataclass(frozen=True)
class SweepSchedule:
    """Continuation schedule: (start, stop, stride) segments, stops inclusive.

    Segment values are merged, deduplicated, and must begin at N=3 (the
    bootstrap size) and increase strictly.
    """

    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        object.__setattr__(self, "segments", tuple(tuple(s) for s in self.segments))
        if self.segments[0][0] != 3:
            raise ValueError(f"schedules must start at N=3, got {self.segments[0][0]}")
        prev_start = 0
        for start, stop, stride in self.segments:
            if stop < start:
                raise ValueError(f"segment stop {stop} below start {start}")
            if stride < 1:
                raise ValueError(f"stride must be >= 1, got {stride}")
            if start < prev_start:
                raise ValueError("segments must be ordered by start")
            prev_start = start

    def values(self) -> list[int]:
        out = set()
        for start, stop, stride in self.segments:
            out.update(range(start, stop + 1, stride))
        return sorted(out)

    @classmethod
    def dense(cls, n_max: int) -> "SweepSchedule":
        return cls(((3, n_max, 1),))

    @classmethod
    def strided(cls, n_max: int, stride_from: int, stride: int) -> "SweepSchedule":
        if stride_from >= n_max:
            return cls.dense(n_max)
        return cls(((3, stride_from, 1), (stride_from, n_max, stride)))

    @classmethod
    def doubling(cls, n_max: int) -> "SweepSchedule":
        """Dense on 3..20, then 40, 80, 160, ... below n_max, then n_max; the
        cold-solve chain, O(log N) solves. For n_max <= 20 it is dense."""
        if n_max <= 20:
            return cls.dense(n_max)
        segments = [(3, 20, 1)]
        while segments[-1][1] < n_max:
            lo = segments[-1][1]
            hi = min(2 * lo, n_max)
            segments.append((lo, hi, hi - lo))
        return cls(tuple(segments))


def sweep(schedule: SweepSchedule, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER, outdir=None,
          progress=None) -> list[SolveReport]:
    """Continuation sweep over the schedule; one SolveReport per problem size.

    N=3 is solved by bootstrap_smallest and every later size by continue_from
    the two most recent certificates (one, for the second size). When `outdir`
    is given, each certificate is persisted there (pepcert/1 files) as soon as
    it is solved, so partial results survive an aborted sweep. `progress` is
    an optional callback invoked with each report.

    Raises NonConvergence (annotated with the failing N) if any solve fails;
    the continuation chain is broken at that point and the sweep stops.
    """
    reports: list[SolveReport] = []
    for n in schedule.values():
        if not reports:
            report = bootstrap_smallest(solve_rate_params(n), tol=tol, max_iter=max_iter)
        else:
            sources = [(rep.params.N, rep.d) for rep in reports[-2:]]
            report = continue_from(sources, n, tol=tol, max_iter=max_iter)
        reports.append(report)
        if outdir is not None:
            from .certfile import write_certificate, certificate_from_report

            write_certificate(certificate_from_report(report), outdir=outdir)
        if progress is not None:
            progress(report)
    return reports
