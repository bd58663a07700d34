import math

import mpmath as mp
import numpy as np
import pytest

from high_precision import solve_rate_params_mp
from pepcert import (
    RateParams,
    huber,
    huber_rate,
    lower_bound_envelope,
    quadratic,
    quadratic_rate,
    simulate,
    solve_rate_params,
)


def bisection_oracle(n, iterations=220, dps=80):
    """Independent high-precision root: pure bisection on the sign of the
    log-domain balance defect, no Newton anywhere."""
    with mp.workdps(dps):
        lo, hi = mp.mpf(1), mp.mpf(2)
        for _ in range(iterations):
            mid = (lo + hi) / 2
            sign = 2 * n * mp.log(mid - 1) + mp.log(2 * n * mid + 1)
            if sign < 0:
                lo = mid
            else:
                hi = mid
        alpha = (lo + hi) / 2
        return alpha, 1 / (2 * (2 * n * alpha + 1))


def two_stage_alpha(N):
    """The earlier float64 root finder, kept verbatim as the reference for
    solve_rate_params: 20 bisection steps on [1, 2), then Newton confined to
    the bracket, with its own log-domain defect and slope."""
    def log_balance(alpha):
        if alpha <= 1.0:
            return -math.inf
        return 2 * N * math.log(alpha - 1.0) + math.log(2 * N * alpha + 1.0)

    def log_balance_slope(alpha):
        return 2 * N / (alpha - 1.0) + 2 * N / (2 * N * alpha + 1.0)

    lo, hi = 1.0, 2.0
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if log_balance(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    for _ in range(60):
        f = log_balance(alpha)
        if f < 0.0:
            lo = alpha
        else:
            hi = alpha
        step = f / log_balance_slope(alpha)
        nxt = alpha - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == alpha:
            break
        alpha = nxt
    return alpha


# the README schedule's sizes, then powers up to where alpha rounds to 2
REFERENCE_SIZES = [*range(1, 2241), *range(2560, 8961, 320),
                   *range(10560, 20161, 1600), *(2**k for k in range(15, 63)),
                   *(10**k for k in range(7, 19))]


def balance_defect(n, alpha):
    # (alpha-1)^(2n) (2n alpha + 1) - 1, zero at the balancing stepsize
    return (alpha - 1.0) ** (2 * n) * (2 * n * alpha + 1.0) - 1.0


class TestSolveRateParams:
    def test_n1_closed_form(self):
        # balance reduces to the cubic 2 a^3 = 3 a^2, root 3/2
        params = solve_rate_params(1)
        assert params.alpha == 1.5
        assert params.r == 0.125

    def test_n1_defect(self):
        params = solve_rate_params(1)
        assert abs(balance_defect(1, params.alpha)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1337, 10**4, 10**5])
    def test_against_bisection_oracle(self, n):
        alpha_star, r_star = bisection_oracle(n)
        params = solve_rate_params(n)
        assert abs(params.alpha - float(alpha_star)) <= 2 * math.ulp(params.alpha)
        assert abs(params.r - float(r_star)) <= 2 * math.ulp(params.r)

    def test_bit_identical_to_two_stage_reference(self):
        # same alpha and r bit for bit, or the same ValueError, named with
        # N, where alpha rounds to 2; the tests above allow 2 ulp
        errors = 0
        for n in REFERENCE_SIZES:
            alpha = two_stage_alpha(n)
            try:
                want = RateParams(N=n, alpha=alpha, r=huber_rate(n, alpha)).check_balance()
            except ValueError as err:
                errors += 1
                with pytest.raises(ValueError) as got:
                    solve_rate_params(n)
                assert str(got.value) == f"no float64 rate parameters for N={n}: {err}", n
                continue
            got = solve_rate_params(n)
            assert (got.alpha.hex(), got.r.hex()) == (want.alpha.hex(), want.r.hex()), n
        assert errors > 0

    def test_n100_rate_decreasing_and_balanced(self):
        p99, p100 = solve_rate_params(99), solve_rate_params(100)
        assert p100.r < p99.r
        q = quadratic_rate(100, p100.alpha)
        h = huber_rate(100, p100.alpha)
        assert abs(q - h) <= 1e-14

    def test_mp_matches_float64(self):
        for n in (1, 5, 50, 2048):
            alpha, r = solve_rate_params_mp(n)
            params = solve_rate_params(n)
            assert abs(params.alpha - float(alpha)) <= 2 * math.ulp(params.alpha)
            assert abs(params.r - float(r)) <= 2 * math.ulp(params.r)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            solve_rate_params(0)

    def test_params_validation(self):
        # construction checks only N >= 1 and positive alpha, r (NaN fails)
        for n, alpha, r in ((0, 1.5, 0.125), (3, 0.0, 0.125), (3, -1.5, 0.125),
                            (3, math.nan, 0.125), (3, 1.5, 0.0), (3, 1.5, -0.1),
                            (3, 1.5, math.nan)):
            with pytest.raises(ValueError):
                RateParams(N=n, alpha=alpha, r=r)
        params = solve_rate_params(3)
        assert params.check_balance() is params
        for unbalanced in (
            RateParams(N=3, alpha=1.5, r=0.125),  # alpha(1) at N=3 is unbalanced
            RateParams(N=1, alpha=2.5, r=0.125),  # alpha outside (1, 2)
            RateParams(N=1, alpha=1.5, r=0.5),  # r outside (0, 1/2)
            RateParams(N=1, alpha=1.5, r=0.125 + 1e-12),  # r off the common value
            RateParams(N=3, alpha=params.alpha + 1e-6, r=params.r),
        ):
            with pytest.raises(ValueError):
                unbalanced.check_balance()


class TestClosedForms:
    def test_quadratic_examples(self):
        assert quadratic_rate(3, 1.0) == 0.0
        assert quadratic_rate(1, 1.5) == 0.125
        assert quadratic_rate(2, 0.5) == 0.03125

    def test_huber_examples(self):
        assert huber_rate(2, 1.0) == 0.1
        assert huber_rate(7, 0.0) == 0.5
        assert huber_rate(1, 1.5) == 0.125

    def test_huber_rejects_negative_or_nan_stepsize(self):
        # the formula has a pole at alpha = -1/(2N), here -0.1
        for alpha in (-0.1, -1e-300, np.nan, np.array([0.5, -0.5]),
                      np.array([0.5, np.nan])):
            with pytest.raises(ValueError):
                huber_rate(5, alpha)
        assert huber_rate(5, 0.0) == 0.5
        np.testing.assert_array_equal(huber_rate(5, np.array([0.0, 0.5])), [0.5, 1 / 12])

    def test_balance_relative_mp_and_absolute_f64(self):
        # relative 1e-14 agreement needs the mp root (float64 quantization of
        # alpha floors the relative defect near 2 N eps); the float64 pair
        # still satisfies the absolute invariant
        for n in (1, 2, 7, 33, 1000, 10**5):
            alpha, _ = solve_rate_params_mp(n)
            with mp.workdps(60):
                q = (1 - alpha) ** (2 * n) / 2
                h = 1 / (2 * (2 * n * alpha + 1))
                assert abs(q - h) / h <= 1e-14
            params = solve_rate_params(n)
            gap = abs(quadratic_rate(n, params.alpha) - huber_rate(n, params.alpha))
            assert gap <= 1e-14

    def test_monotonicity(self):
        alphas = np.linspace(1.0 + 1e-6, 1.99, 400)
        q = quadratic_rate(12, alphas)
        assert np.all(np.diff(q) > 0)
        h = huber_rate(12, np.linspace(0.01, 1.99, 400))
        assert np.all(np.diff(h) < 0)
        rs = [solve_rate_params(n).r for n in range(1, 60)]
        assert np.all(np.diff(rs) < 0)


class TestSimulate:
    def test_quadratic_one_step(self):
        trace = simulate(quadratic, x0=1.0, alpha=1.5, N=1)
        assert trace.xs[1] == -0.5
        assert trace.fvals[-1] == 0.125

    def test_huber_one_step(self):
        trace = simulate(huber(0.25), x0=1.0, alpha=1.5, N=1)
        assert trace.xs[1] == 0.625
        assert trace.fvals[-1] == 0.125

    def test_starts_at_minimizer(self):
        trace = simulate(quadratic, x0=0.0, alpha=1.3, N=6)
        assert np.all(trace.xs == 0.0)
        assert trace.fvals[-1] == 0.0

    def test_update_rule_exact(self, rng):
        alpha = 1.21
        trace = simulate(huber(0.4), x0=0.9, alpha=alpha, N=12)
        for k in range(12):
            assert trace.xs[k + 1] == trace.xs[k] - alpha * trace.gvals[k]

    @pytest.mark.parametrize("n", [1, 5, 23, 50])
    @pytest.mark.parametrize("alpha_kind", ["1.0", "1.5", "balanced"])
    def test_matches_closed_forms(self, n, alpha_kind):
        alpha = solve_rate_params(n).alpha if alpha_kind == "balanced" else float(alpha_kind)
        quad = simulate(quadratic, 1.0, alpha, n)
        assert abs(quad.fvals[-1] - quadratic_rate(n, alpha)) <= 1e-12
        delta = 1.0 / (2 * n * alpha + 1.0)
        hub = simulate(huber(delta), 1.0, alpha, n)
        assert abs(hub.fvals[-1] - huber_rate(n, alpha)) <= 1e-12

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            simulate(quadratic, 1.0, 1.5, 0)

    def test_huber_breakpoint_validation(self):
        for delta in (0.0, -0.25, 1.5, math.nan):
            with pytest.raises(ValueError):
                huber(delta)


class TestEnvelope:
    def test_at_balancing_point(self):
        assert lower_bound_envelope(1, [1.5]) == pytest.approx([0.125], abs=1e-15)

    def test_at_unit_stepsize(self):
        assert lower_bound_envelope(1, [1.0]) == pytest.approx([1 / 6], abs=1e-15)

    def test_dominates_rate(self):
        params = solve_rate_params(10)
        grid = np.linspace(0.1, 1.99, 2000)
        vals = lower_bound_envelope(10, grid)
        assert np.all(vals >= params.r - 1e-12)
        spacing = grid[1] - grid[0]
        assert abs(grid[np.argmin(vals)] - params.alpha) <= spacing + 1e-12

    def test_negative_or_nan_stepsize_rejected(self):
        # huber_rate has a pole at alpha = -1/(2N), here -0.1
        for alphas in ([-0.1, -0.5], [0.5, -1e-300], [0.5, np.nan], -0.5):
            with pytest.raises(ValueError):
                lower_bound_envelope(5, alphas)
        assert lower_bound_envelope(5, [0.0]) == pytest.approx([0.5], abs=1e-15)

    def test_size_below_one_rejected(self):
        # at N=0 both rates would be 1/2 at every stepsize, and below it the
        # Huber rate would have its pole inside the grid
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"N must be >= 1, got {n}"):
                lower_bound_envelope(n, [0.5, 1.0])
