"""The 50-digit stepsize/rate pair that the float64 `solve_rate_params` is
tested against. mpmath is a test dependency only; the package runs on numpy
and scipy.
"""

from __future__ import annotations

import mpmath as mp

from pepcert import solve_rate_params


def solve_rate_params_mp(N: int, dps: int = 50):
    """High-precision (alpha, r) as a pair of mpmath scalars.

    Newton on the log-domain balance defect, seeded by the float64 root; the
    residual lands near 10**(5 - dps). Use for tolerance studies where float64
    quantization of alpha (relative defect ~ 2 N eps) is too coarse.
    """
    seed = solve_rate_params(N).alpha
    with mp.workdps(dps):
        a = mp.mpf(seed)
        for _ in range(6):
            f = 2 * N * mp.log(a - 1) + mp.log(2 * N * a + 1)
            step = f / (2 * N / (a - 1) + 2 * N / (2 * N * a + 1))
            a -= step
            if abs(step) < mp.mpf(10) ** (2 - dps):
                break
        r = 1 / (2 * (2 * N * a + 1))
        return +a, +r
