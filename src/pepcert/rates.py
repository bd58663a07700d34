"""Stepsize/rate pair balancing the two extremal objectives of constant-stepsize
gradient descent, closed-form worst-case performances, and exact 1-D simulations.

Everything is normalized to smoothness L = 1 and initial distance D = 1. The
stepsize alpha(N) is the unique root >= 1 of

    1 / (2 (2 N alpha + 1)) = (1 - alpha)^(2N) / 2

and r(N) is the common value of the two sides: the worst-case final objective
gap after N steps on the quadratic x^2/2 (right side) and on the matched Huber
objective (left side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BALANCE_TOL",
    "RateParams",
    "quadratic",
    "huber",
    "SimTrace",
    "solve_rate_params",
    "quadratic_rate",
    "huber_rate",
    "simulate",
    "lower_bound_envelope",
]

# absolute defect allowed in the defining balance equation for stored params
BALANCE_TOL = 1e-14


def quadratic_rate(N, alpha):
    """Final objective gap of N gradient steps on x^2/2 from x0 = 1:
    (1 - alpha)^(2N) / 2.

    Works on floats, numpy arrays, and mpmath scalars alike.
    """
    return (1.0 - alpha) ** (2 * N) / 2.0


def huber_rate(N, alpha):
    """Final objective gap on the Huber objective with breakpoint
    1/(2 N alpha + 1) from x0 = 1: 1 / (2 (2 N alpha + 1)).

    Requires alpha >= 0 (the trajectory stays in the linear region; the
    formula has a pole at alpha = -1/(2N)): raises ValueError for a negative
    or NaN alpha, scalar or array.
    """
    if not np.all(np.asarray(alpha) >= 0.0):
        raise ValueError("the stepsize must be >= 0")
    return 1.0 / (2.0 * (2 * N * alpha + 1.0))


def _log_balance(N: int, alpha: float) -> float:
    # log of (alpha-1)^(2N) (2N alpha + 1) for alpha > 1; root of this = root
    # of the balance defect. Log domain keeps (alpha-1)^(2N) from underflowing
    # at large N.
    return 2 * N * math.log(alpha - 1.0) + math.log(2 * N * alpha + 1.0)


@dataclass(frozen=True)
class RateParams:
    """Problem size N with a stepsize alpha and a rate r.

    Construction checks only N >= 1, alpha > 0 and r > 0: the certificate
    recursion is an algebraic identity for any such pair. Balance is a
    property of the pair alone and is checked on request by `check_balance`;
    `solve_rate_params` and certificate files call it.
    """

    N: int
    alpha: float
    r: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        # written so that a NaN fails
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")

    def check_balance(self) -> "RateParams":
        """Return self when (alpha, r) is the balancing pair of N; raise
        ValueError otherwise.

        Requires alpha in (1, 2), r in (0, 1/2), and the two closed-form
        performances at alpha to agree with each other and with r to
        BALANCE_TOL (absolute).
        """
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if not 0.0 < self.r < 0.5:
            raise ValueError(f"r must lie in (0, 1/2), got {self.r}")
        q = quadratic_rate(self.N, self.alpha)
        h = huber_rate(self.N, self.alpha)
        if abs(q - h) > BALANCE_TOL:
            raise ValueError(
                f"balance equation violated at N={self.N}: "
                f"quadratic {q!r} vs huber {h!r}"
            )
        if abs(self.r - h) > BALANCE_TOL:
            raise ValueError(f"r={self.r!r} is not the common value {h!r}")
        return self


def solve_rate_params(N: int) -> RateParams:
    """Solve the balance equation for the stepsize alpha(N) >= 1 and rate r(N).

    Bisection of the log-domain balance defect on [1, 2), down to adjacent
    floats. The defect tends to -inf at 1, is log(4N + 1) > 0 at 2, and is
    strictly increasing in between, so the root exists and is unique. The
    loop keeps _log_balance(N, lo) < 0 <= _log_balance(N, hi) and stops when
    the midpoint rounds to lo or hi; that midpoint is alpha.

    Returns float64 parameters: alpha within ~1 ulp of the true root, r the
    common value from the well-conditioned Huber side. Raises ValueError,
    naming N, where they fail the balance check: alpha rounds to 2 for huge
    N, and below that the check fails at some sizes too.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    lo, hi = 1.0, 2.0
    while True:
        alpha = 0.5 * (lo + hi)
        if alpha == lo or alpha == hi:
            break
        if _log_balance(N, alpha) < 0.0:
            lo = alpha
        else:
            hi = alpha
    try:
        return RateParams(N=N, alpha=alpha, r=huber_rate(N, alpha)).check_balance()
    except ValueError as exc:
        raise ValueError(f"no float64 rate parameters for N={N}: {exc}") from exc


def quadratic(x: float) -> tuple[float, float]:
    """The quadratic x^2/2: (value, gradient) at x."""
    return 0.5 * x * x, x


def huber(delta: float):
    """The Huber objective with breakpoint delta, as a function x -> (value,
    gradient): x^2/2 inside [-delta, delta], linear with slope delta outside.

    delta must lie in (0, 1] under the D = 1 normalization.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"Huber breakpoint must lie in (0, 1], got {delta}")

    def objective(x: float) -> tuple[float, float]:
        if abs(x) <= delta:
            return 0.5 * x * x, x
        return delta * abs(x) - 0.5 * delta**2, (delta if x > 0 else -delta)

    return objective


@dataclass(frozen=True)
class SimTrace:
    """Gradient-descent trajectory: iterates, objective values, gradients."""

    xs: np.ndarray
    fvals: np.ndarray
    gvals: np.ndarray


def simulate(obj, x0: float, alpha: float, N: int) -> SimTrace:
    """Run N exact gradient descent steps x_{k+1} = x_k - alpha * f'(x_k) on
    an objective x -> (value, gradient), such as `quadratic` or `huber(delta)`.

    The piecewise Huber gradient is evaluated exactly (no smoothing) so the
    trace reproduces the closed-form performances to rounding.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    alpha = float(alpha)
    xs = np.empty(N + 1)
    fvals = np.empty(N + 1)
    gvals = np.empty(N + 1)
    x = float(x0)
    for k in range(N + 1):
        xs[k] = x
        fvals[k], gvals[k] = obj(x)
        if k < N:
            x = x - alpha * gvals[k]
    return SimTrace(xs=xs, fvals=fvals, gvals=gvals)


def lower_bound_envelope(N: int, alphas) -> np.ndarray:
    """Pointwise max of the two closed-form performances over a stepsize grid.

    Every gradient method with constant stepsize alpha' performs at least this
    badly on one of the two objectives, so the grid minimum lower-bounds the
    best achievable worst case; the minimum over a grid containing alpha(N)
    equals r(N). Raises ValueError for N < 1, and for a negative or NaN
    stepsize, through huber_rate.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    alphas = np.asarray(alphas, dtype=float)
    with np.errstate(under="ignore"):
        q = quadratic_rate(N, alphas)
    return np.maximum(q, huber_rate(N, alphas))
