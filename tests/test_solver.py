import gc
import importlib.machinery
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy
from scipy.linalg import lapack, qr_multiply, solve_triangular

import pepcert.solver as solver_mod
from pepcert import (
    FullCertificate,
    NonConvergence,
    RateParams,
    closed_form_start,
    derive_full,
    extrapolate_init,
    gauss_newton,
    solve_rate_params,
    sweep,
)


def jacobian(params, d) -> np.ndarray:
    """Exact dense Jacobian J[i, k] = d eps_i / d d_k by forward-mode
    differentiation: the reference for the Newton step, O(N^2) memory.

    The tangents of the derivation d -> c -> (a, b) -> eps are propagated for
    all N-1 unit directions at once, by the product rule; the tangent of d
    itself is the identity, so its products are diagonal updates. eps is
    exactly quadratic in d, so J carries rounding error only.

    With u_i = a_i - b_i (u_{N-1} = a_{N-1}, u_{-1} = 0) and the scan
    variable z_i = -a_i + (2 alpha - 1) b_i of the (a, b) recursion, eps reads

        eps_i = u_i - u_{i-1} + tl_i - c_i od_{i-1},   i = 0..N-1,
        eps_N = z_0 - c_0 - tl_0 + c_0^2 / 2r,
        u_i = kappa z_{i+1} + kappa (csq_i - tail_i)
              + (2 cross_i - (2 + alpha) lin_i) / alpha,   i < N-1,

    with kappa = (2 - alpha) / alpha, od_i = 1 + sum_{j<i} d_j (od_{-1} = 1),
    suffc_j = sum_{l>=j} c_l, tl_i = d_i suffc_{i+2} (tl_{N-1} = 0) and the
    step terms of the (a, b) recursion (tail_i = tl_{i+1}).

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
    c = derive_full(params, d).c
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
    # the backward scan of the (a, b) recursion, row by row: one pass over
    # the array, where recursive doubling would make log2(N) passes
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


def qr_step(J, eps):
    """The dense reference step: min_s ||J' s + eps'||_2 by Householder QR,
    for J' and eps' the rows of eps_1 .. eps_{N-1}. J' is square, so this is
    the Newton step J' s = -eps' of newton_step."""
    qt_eps, rmat = qr_multiply(J[1:-1], eps[1:-1])
    return solve_triangular(rmat, -qt_eps)


class TestJacobian:
    def test_shape(self):
        params = solve_rate_params(9)
        J = jacobian(params, np.full(8, 0.4))
        assert J.shape == (10, 8)

    def test_directional_consistency(self, rng):
        # eps is exactly quadratic, so the central difference with any step p
        # is J p up to rounding
        for n in (3, 4, 9, 50, 300):
            params = solve_rate_params(n)
            d = rng.uniform(0.1, 1.5, n - 1)
            J = jacobian(params, d)
            for _ in range(3):
                p = rng.standard_normal(n - 1)
                plus, minus = derive_full(params, d + p).eps, derive_full(params, d - p).eps
                scale = max(np.max(np.abs(plus)), np.max(np.abs(minus)))
                assert np.max(np.abs(J @ p - (plus - minus) / 2.0)) <= 1e-13 * scale

    def test_matches_central_differences(self, rng):
        h = 2.0**-6
        for n in (3, 4, 12, 40):
            params = solve_rate_params(n)
            d = rng.uniform(0.1, 1.5, n - 1)
            fd = np.empty((n + 1, n - 1))
            for k in range(n - 1):
                step = np.zeros(n - 1)
                step[k] = h
                plus, minus = derive_full(params, d + step).eps, derive_full(params, d - step).eps
                fd[:, k] = (plus - minus) / (2 * h)
            J = jacobian(params, d)
            assert np.max(np.abs(J - fd)) <= 1e-12 * np.max(np.abs(fd))


STEP_SIZES = (3, 4, 5, 12, 40, 300)


@pytest.fixture(scope="module")
def start_5000():
    """(params, d0) at N=5000, d0 the closed-form start."""
    n = 5000
    return solve_rate_params(n), closed_form_start(n)


def newton_step(cert):
    """The Newton step at cert, one _factor and one _solve; None if either
    fails."""
    lu = solver_mod._factor(cert)
    return None if lu is None else solver_mod._solve(lu, cert.eps)


class TestLeastSquaresStep:
    # the Newton step J' s = -eps' of the square system eps_1 .. eps_{N-1}:
    # the band's LU from _factor, solved by _solve (the class name is kept so
    # that its test ids stay stable)

    @pytest.mark.parametrize("n", STEP_SIZES)
    def test_matches_qr_step_at_random_d(self, n, rng):
        params = solve_rate_params(n)
        for _ in range(3):
            d = rng.uniform(0.1, 1.5, n - 1)
            cert = derive_full(params, d)
            s = newton_step(cert)
            ref = qr_step(jacobian(params, d), cert.eps)
            assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", STEP_SIZES + (1000,))
    def test_matches_qr_step_near_a_solution(self, n, rng):
        # the steps Gauss-Newton takes at the end of a solve: small, from a
        # start close to a certificate; at N=1000 the step's prefix sums, which
        # the band solves for, are typically about 17 times its entries, so
        # their first differences must keep the step's accuracy
        params = solve_rate_params(n)
        d_star = gauss_newton(params, closed_form_start(n)).cert.d
        for scale in (1e-2, 1e-6):
            d = d_star * (1.0 + scale * rng.standard_normal(n - 1))
            cert = derive_full(params, d)
            s = newton_step(cert)
            ref = qr_step(jacobian(params, d), cert.eps)
            assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_normal_equation_residual(self, rng):
        # the banded solve is backward stable: the linearized residual of the
        # N-1 equations it solves, and so that of their normal equations, is
        # rounding-sized against ||J'|| ||s||
        params = solve_rate_params(12)
        d = rng.uniform(0.1, 1.2, 11)
        square = jacobian(params, d)[1:-1]
        cert = derive_full(params, d)
        s = newton_step(cert)
        residual = square @ s + cert.eps[1:-1]
        scale = np.linalg.norm(square) * np.linalg.norm(s)
        assert np.linalg.norm(residual) <= 1e-14 * scale
        assert np.linalg.norm(square.T @ residual) <= 1e-14 * np.linalg.norm(square) * scale

    def test_evaluates_no_residuals(self, monkeypatch, small_sweep):
        def forbidden(*args, **kwargs):
            raise AssertionError("the step must not evaluate perturbed residuals")

        cert = small_sweep[15].cert
        expect = newton_step(cert)
        monkeypatch.setattr(solver_mod, "derive_full", forbidden)
        np.testing.assert_array_equal(newton_step(cert), expect)

    def test_non_finite_step_is_not_ok(self):
        params = solve_rate_params(12)
        d = np.full(11, 0.3)
        d[4] = np.nan
        assert newton_step(derive_full(params, d)) is None

    def test_singular_factor_raises_nonconvergence(self, monkeypatch):
        def singular(ab, kl, ku, **kwargs):
            # what dgbtrf reports for an exactly zero pivot U(3, 3)
            return ab, np.zeros(ab.shape[1], dtype=np.int32), 3

        monkeypatch.setattr(solver_mod._lapack(), "dgbtrf", singular)
        assert solver_mod._factor(derive_full(solve_rate_params(7), np.full(6, 0.3))) is None
        with pytest.raises(NonConvergence) as err:
            solver_mod.gauss_newton(solve_rate_params(7), np.full(6, 0.3))
        assert "N=7" in str(err.value)

    def test_invalid_band_argument_raises(self, monkeypatch):
        def invalid(ab, kl, ku, **kwargs):
            # what dgbtrf reports when its third argument (kl) is invalid
            return ab, np.zeros(ab.shape[1], dtype=np.int32), -3

        monkeypatch.setattr(solver_mod._lapack(), "dgbtrf", invalid)
        with pytest.raises(ValueError, match="dgbtrf: argument 3"):
            solver_mod._factor(derive_full(solve_rate_params(7), np.full(6, 0.3)))

    def test_loaded_dgbtrf_dgbtrs_are_scipy_linalg_lapacks(self, rng):
        # the same binaries: one random band system of the step's widths,
        # which partial pivoting reorders, gives bit-identical outputs either
        # way; and dgbtrf then dgbtrs is dgbsv bit for bit, so a factored
        # step is what one dgbsv call would give
        kl, ku = solver_mod._KL, solver_mod._KU
        n = 200
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        ab[kl:] = rng.standard_normal((kl + ku + 1, n))
        b = rng.standard_normal(n)
        loaded = solver_mod._lapack()
        ours, theirs = loaded.dgbtrf(ab, kl, ku), lapack.dgbtrf(ab, kl, ku)
        assert ours[2] == theirs[2] == 0
        assert np.any(ours[1] != np.arange(1, n + 1))  # rows were swapped
        for mine, ref in zip(ours, theirs):
            np.testing.assert_array_equal(mine, ref)
        lub, piv, _ = ours
        (x, info), (ref_x, ref_info) = (loaded.dgbtrs(lub, kl, ku, b, piv),
                                        lapack.dgbtrs(lub, kl, ku, b, piv))
        assert info == ref_info == 0
        np.testing.assert_array_equal(x, ref_x)
        for mine, ref in zip((lub, piv, x, info), lapack.dgbsv(kl, ku, ab, b)):
            np.testing.assert_array_equal(mine, ref)

    def test_missing_extension_raises_import_error(self, monkeypatch):
        class FindsNothing(importlib.machinery.FileFinder):
            def find_spec(self, fullname, target=None):
                return None

        monkeypatch.setattr(importlib.machinery, "FileFinder", FindsNothing)
        where = f"{scipy.__path__[0]}/linalg"
        with pytest.raises(ImportError) as err:
            solver_mod._lapack.__wrapped__()  # the loader, past its cache
        assert str(err.value) == (
            f"scipy {scipy.__version__} has no compiled module _flapack in {where}")

    def test_memory_is_linear_in_n(self, start_5000):
        # one cold solve at N=5000 stays within 1 kB per index (about 440 B
        # measured); the dense Jacobian alone would take 200 MB there
        params, d0 = start_5000
        tracemalloc.start()
        try:
            report = gauss_newton(params, d0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.cert.positive
        assert peak <= 1_000 * params.N

    def test_step_memory_per_index(self, start_5000):
        # one step stays within 500 B per index (about 385 B measured): the
        # band matrix in LAPACK's layout (10 rows of three slots per index,
        # 240 B), which dgbtrf factors in place, and the linearization's
        # coefficient arrays; dgbtrs then solves in the right-hand side
        params, d0 = start_5000
        cert = derive_full(params, d0)
        tracemalloc.start()
        try:
            s = newton_step(cert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s is not None
        assert peak <= 500 * params.N


class TestGaussNewton:
    def test_warm_start_n5(self, small_sweep):
        d0 = extrapolate_init([(3, small_sweep[3].cert.d), (4, small_sweep[4].cert.d)], 5)
        report = gauss_newton(solve_rate_params(5), d0)
        assert report.cert.positive
        assert report.cert.residual_sup <= 1e-13
        # one factored and three chord steps
        assert report.iterations + report.chord_steps <= 20

    def test_fixed_point(self, small_sweep):
        rep = small_sweep[10]
        again = gauss_newton(rep.cert.params, rep.cert.d)
        assert again.iterations + again.chord_steps <= 1
        assert np.max(np.abs(again.cert.d - rep.cert.d)) <= 1e-14

    def test_descent_and_delta_bound(self, monkeypatch):
        # the cold start takes one factored step and four chord steps, so
        # there are six norms
        record = accepted_norms(monkeypatch)
        report = gauss_newton(solve_rate_params(13), closed_form_start(13))
        norms = record(report)
        assert (report.iterations, report.chord_steps) == (1, 4)
        assert len(norms) == 6
        assert all(b < a for a, b in zip(norms, norms[1:]))
        n = report.cert.params.N
        assert report.cert.delta <= (n + 1) * report.cert.residual_sup

    @pytest.mark.parametrize("n, value, factored, chords", [(6, 0.4, 2, 8), (40, 0.3, 4, 7)])
    def test_far_start(self, n, value, factored, chords):
        # the constant starts of demo 02 and README's quick start: chord steps
        # that contract by only about 0.3 there are refused, and the solve
        # factors instead
        report = gauss_newton(solve_rate_params(n), np.full(n - 1, value))
        assert (report.iterations, report.chord_steps) == (factored, chords)
        assert report.cert.positive
        assert report.cert.residual_sup <= solver_mod.RESIDUAL_TOL

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("shift", [-1e-3, 1e-6, 1e-3])
    def test_off_balance_parameters_never_converge(self, n, shift):
        # off the balancing pair, eps_1 .. eps_{N-1} = 0 still has a zero, the
        # one the Newton step heads for, but eps_0 and eps_N do not vanish
        # there: the gate judges all N+1 equations, so the solve fails
        balanced = solve_rate_params(n)
        params = RateParams(n, balanced.alpha + shift, balanced.r)
        with pytest.raises(NonConvergence) as err:
            gauss_newton(params, closed_form_start(n))
        assert f"N={n}" in str(err.value)

    def test_bad_start_contract(self):
        # far start with a negative entry: either a positive certificate or
        # an explicit failure, never converged-with-sign-violations
        params = solve_rate_params(5)
        try:
            report = gauss_newton(params, np.array([-0.5, 2.0, -1.0, 0.7]))
        except NonConvergence:
            return
        assert report.cert.positive

    def test_non_positive_certificate_raises(self, monkeypatch):
        # the residual and delta gates pass, yet the solve is not reported
        monkeypatch.setattr(FullCertificate, "positive", property(lambda self: False))
        with pytest.raises(NonConvergence, match="not strictly positive") as err:
            gauss_newton(solve_rate_params(10), closed_form_start(10))
        assert "N=10" in str(err.value)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gauss_newton(solve_rate_params(5), np.ones(3))

    def test_budget_and_tolerance_validation(self):
        # the gate and the budget are module constants, settable by no caller
        assert (solver_mod.RESIDUAL_TOL, solver_mod.MAX_ITER) == (1e-13, 50)
        params = solve_rate_params(3)
        calls = [lambda **kw: gauss_newton(params, np.full(2, 0.05), **kw),
                 lambda **kw: list(sweep([3], **kw))]
        for call in calls:
            for kwargs in ({"tol": 1e-13}, {"max_iter": 50}):
                with pytest.raises(TypeError):
                    call(**kwargs)

    def test_report_carries_its_certificate(self, small_sweep):
        report = small_sweep[8]
        again = derive_full(report.cert.params, report.cert.d)
        assert report.cert.positive
        for name in ("a", "b", "c", "d", "eps"):
            np.testing.assert_array_equal(getattr(report.cert, name), getattr(again, name))


def counting(monkeypatch, owner, name, wrap=None):
    """Replace owner.name with a wrapper that records each call's arguments
    in the returned list; `wrap(real, *args, **kwargs)` computes the result,
    the real function by default."""
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return wrap(real, *args, **kwargs) if wrap else real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def chord_solves(monkeypatch, change):
    """Pass the result (x, info) of each chord step's dgbtrs call through
    `change(k, x, info)`, k = 1, 2, ... the chord solves so far; returns the
    list of the chord solves. dgbtrs solves the factored steps too: the
    first call after each dgbtrf is the factored step's, and it is left
    alone."""
    lapack_mod = solver_mod._lapack()
    real_dgbtrf, real_dgbtrs = lapack_mod.dgbtrf, lapack_mod.dgbtrs
    solves = []  # one entry per dgbtrs call since the last dgbtrf
    chords = []

    def factor(*args, **kwargs):
        solves.clear()
        return real_dgbtrf(*args, **kwargs)

    def solve(*args, **kwargs):
        x, info = real_dgbtrs(*args, **kwargs)
        solves.append(None)
        if len(solves) == 1:
            return x, info
        chords.append(None)
        return change(len(chords), x, info)

    monkeypatch.setattr(lapack_mod, "dgbtrf", factor)
    monkeypatch.setattr(lapack_mod, "dgbtrs", solve)
    return chords


def accepted_norms(monkeypatch):
    """Wrap solver._solve; returns `norms(report)`, the ||eps||_2 of every
    accepted iterate of the solve that gave `report`, the start included.
    Each step solves at the iterate it leaves, and a refactorization after a
    refused chord step solves again at the same one, so a repeated value
    marks one; the final certificate takes no step and ends the list. The
    norms are those of the calls since the last `norms`."""
    real = solver_mod._solve
    seen = []

    def solve(lu, eps):
        seen.append(float(np.linalg.norm(eps)))
        return real(lu, eps)

    def norms(report):
        out = [x for k, x in enumerate(seen) if k == 0 or x != seen[k - 1]]
        seen.clear()
        return out + [float(np.linalg.norm(report.cert.eps))]

    monkeypatch.setattr(solver_mod, "_solve", solve)
    return norms


class TestChordSteps:
    # after each factored step the band's LU is kept, and further steps
    # solve with it while each one shrinks ||eps||_2 to at most
    # CHORD_CONTRACTION times its norm

    def test_weak_chord_step_leads_to_refactorization(self, monkeypatch):
        # the second chord step is cut to a tenth, so it cannot shrink
        # ||eps|| twentyfold: it is discarded, and a new factored step is
        # taken from the same iterate, after which chord steps resume
        chords = chord_solves(monkeypatch,
                              lambda k, x, info: ((0.1 * x if k == 2 else x), info))
        steps = counting(monkeypatch, solver_mod, "_factor")
        params = solve_rate_params(13)
        report = solver_mod.gauss_newton(params, closed_form_start(13))
        assert report.iterations == len(steps) == 2
        # the discarded chord step is not counted, and the next factored
        # step starts where the first chord step ended
        assert report.chord_steps == len(chords) - 1
        record = accepted_norms(monkeypatch)
        first_chord = record(gauss_newton(params, closed_form_start(13)))[2]
        assert np.linalg.norm(steps[1][0].eps) == first_chord
        assert report.cert.positive
        assert report.cert.residual_sup <= solver_mod.RESIDUAL_TOL

    def test_failed_dgbtrs_leads_to_refactorization(self, monkeypatch):
        # dgbtrs reports an invalid argument on every chord solve, each call
        # after the first with one factorization: each chord step is dropped,
        # and every step is factored, as in plain Gauss-Newton
        chords = chord_solves(monkeypatch, lambda k, x, info: (x, -2))
        report = solver_mod.gauss_newton(solve_rate_params(13), closed_form_start(13))
        assert (report.iterations, report.chord_steps) == (3, 0)
        assert len(chords) == 2  # one after each factored step but the last
        assert report.cert.positive
        assert report.cert.residual_sup <= solver_mod.RESIDUAL_TOL

    def test_budget_counts_chord_steps(self, monkeypatch):
        # the cold start at N=13 takes one factored and four chord steps:
        # a budget of five suffices, one of four is exhausted by chord steps
        params, d0 = solve_rate_params(13), closed_form_start(13)
        monkeypatch.setattr(solver_mod, "MAX_ITER", 5)
        report = solver_mod.gauss_newton(params, d0)
        assert report.iterations + report.chord_steps == 5
        monkeypatch.setattr(solver_mod, "MAX_ITER", 4)
        steps = counting(monkeypatch, solver_mod, "_factor")
        with pytest.raises(NonConvergence, match="within 4 steps") as err:
            solver_mod.gauss_newton(params, d0)
        assert "N=13" in str(err.value)
        assert len(steps) == 1

    def test_norm_decreases_at_every_accepted_iterate(self, monkeypatch):
        # each report's norms are taken before the next solve starts
        record = accepted_norms(monkeypatch)
        reports = []
        for n in (3, 4, 13, 100, 2000):
            report = gauss_newton(solve_rate_params(n), closed_form_start(n))
            reports.append((report, record(report)))
        reports += [(report, record(report)) for report in sweep([*range(3, 41), 60, 90, 130])]
        for report, norms in reports:
            assert len(norms) == report.iterations + report.chord_steps + 1
            assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_factorization_freed_before_the_next_band(self, monkeypatch):
        # every chord step is cut to a tenth, so each iteration factors anew:
        # each earlier LU must be gone before the next band is built, and
        # the last one once the solve returns
        # (these wrappers keep no reference to their arguments)
        chord_solves(monkeypatch, lambda k, x, info: (0.1 * x, info))
        lapack_mod = solver_mod._lapack()
        real_dgbtrf, real_factor = lapack_mod.dgbtrf, solver_mod._factor
        factors = []

        def tracked(*args, **kwargs):
            out = real_dgbtrf(*args, **kwargs)
            factors.append(weakref.ref(out[0]))
            return out

        def before_band(*args, **kwargs):
            assert all(ref() is None for ref in factors)
            return real_factor(*args, **kwargs)

        monkeypatch.setattr(lapack_mod, "dgbtrf", tracked)
        monkeypatch.setattr(solver_mod, "_factor", before_band)
        report = solver_mod.gauss_newton(solve_rate_params(13), closed_form_start(13))
        assert report.iterations == len(factors) == 3
        assert all(ref() is None for ref in factors)


def ratio_start(sizes, ratio):
    """Sources (n, d) whose ratio to the closed form is ratio(n, k), k = n - i
    the distance from the end."""
    return [(n, ratio(n, np.arange(n, 1, -1)) * closed_form_start(n)) for n in sizes]


class TestExtrapolateInit:
    def test_one_source_same_size_is_d(self, small_sweep):
        d = small_sweep[9].cert.d
        np.testing.assert_allclose(extrapolate_init([(9, d)], 9), d, rtol=3e-16, atol=0)

    def test_one_source_one_size_up(self, small_sweep):
        # aligned at the last index: entry i of size 8 continues entry i + 1
        # of size 9, and the new first entry takes the first ratio
        d = small_sweep[8].cert.d
        out = extrapolate_init([(8, d)], 9)
        ratio = d / closed_form_start(8)
        np.testing.assert_allclose(out[1:], closed_form_start(9)[1:] * ratio,
                                   rtol=3e-16, atol=0)
        np.testing.assert_allclose(out[0], closed_form_start(9)[0] * ratio[0],
                                   rtol=3e-16, atol=0)

    def test_smaller_target_drops_leading_entries(self, small_sweep):
        d = small_sweep[12].cert.d
        out = extrapolate_init([(12, d)], 9)
        np.testing.assert_allclose(out, closed_form_start(9) * (d / closed_form_start(12))[3:],
                                   rtol=3e-16, atol=0)

    def test_degenerate_equal_sources(self, small_sweep):
        # a size given twice is rejected, even with the same vector
        d6, d7 = small_sweep[6].cert.d, small_sweep[7].cert.d
        for sources in ([(6, d6), (6, d6.copy())], [(7, d7), (6, d6), (7, d7)]):
            with pytest.raises(ValueError, match="sizes must differ"):
                extrapolate_init(sources, 9)

    def test_equal_sizes_different_vectors_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_init([(6, np.full(5, 0.3)), (6, np.full(5, 0.4))], 9)

    def test_source_count(self, small_sweep):
        five = [(n, small_sweep[n].cert.d) for n in (7, 8, 9, 10, 11)]
        with pytest.raises(ValueError):
            extrapolate_init(five, 12)
        with pytest.raises(ValueError):
            extrapolate_init([], 12)

    def test_source_size_validated(self):
        with pytest.raises(ValueError):
            extrapolate_init([(2, np.full(1, 0.3)), (6, np.full(5, 0.3))], 9)

    def test_constant_preserved(self):
        # a constant ratio to the closed form is continued exactly
        def const(n, k):
            return np.full(len(k), 0.7)

        out = extrapolate_init(ratio_start((10, 11), const), 14)
        np.testing.assert_allclose(out, 0.7 * closed_form_start(14), rtol=1e-15, atol=0)
        # four sources: the weights of a cubic extrapolation have magnitudes
        # summing to about 15, so the rounding of the sum reaches a few ulp
        out = extrapolate_init(ratio_start((10, 11, 12, 13), const), 14)
        np.testing.assert_allclose(out, 0.7 * closed_form_start(14), rtol=1e-14, atol=0)

    def test_cubic_in_inverse_n_exact(self):
        # a ratio with a boundary layer in k = N - i that ends at k = 6, times
        # a cubic in 1/N: the alignment at the last index keeps the layer
        # (every source is longer than it), and the extrapolation in 1/N is
        # exact for a cubic
        def ratio(n, k):
            x = 1.0 / n
            return (1.0 + 0.05 * np.maximum(6 - k, 0)) * (1 + 2 * x - 3 * x**2 + 5 * x**3)

        # NumPy integer sizes too: the weights' integer products exceed 64 bits
        big = tuple(np.int64(n) for n in (5000, 10000, 15000, 20000))
        for ns, target in (((20, 24, 28, 32), 40), ((8, 9, 10, 11), 12),
                           ((300, 1000, 1500, 2000), 2500), (big, np.int64(20160))):
            out = extrapolate_init(ratio_start(ns, ratio), target)
            (_, expect), = ratio_start([int(target)], ratio)
            np.testing.assert_allclose(out, expect, rtol=1e-13, atol=0)

    def test_pipeline_10_11_to_12(self, small_sweep):
        d0 = extrapolate_init([(10, small_sweep[10].cert.d), (11, small_sweep[11].cert.d)], 12)
        report = gauss_newton(solve_rate_params(12), d0)
        assert report.cert.positive
        # one factored and two chord steps
        assert report.iterations + report.chord_steps <= 10

    def test_clamped_positive(self):
        out = extrapolate_init([(5, np.full(4, 1e-13)), (6, np.full(5, 1e-14))], 8)
        assert np.all(out >= 1e-12)

    def test_evaluates_no_residuals(self, monkeypatch, small_sweep):
        def forbidden(*args, **kwargs):
            raise AssertionError("the warm start must not evaluate residuals")

        sources = [(n, small_sweep[n].cert.d) for n in (10, 11, 12, 13)]
        expect = extrapolate_init(sources, 14)
        monkeypatch.setattr(solver_mod, "derive_full", forbidden)
        np.testing.assert_array_equal(solver_mod.extrapolate_init(sources, 14), expect)


class TestBootstrap:
    # the cold start: a sweep's first size and every `pepcert solve` (the
    # class name is kept so that its test ids stay stable)
    def test_converges_positive(self):
        report = gauss_newton(solve_rate_params(3), closed_form_start(3))
        assert report.cert.positive
        assert report.cert.delta <= 1e-11

    def test_deterministic(self):
        r1 = gauss_newton(solve_rate_params(40), closed_form_start(40))
        r2 = gauss_newton(solve_rate_params(40), closed_form_start(40))
        np.testing.assert_array_equal(r1.cert.d, r2.cert.d)
        assert r1.iterations == r2.iterations

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            closed_form_start(2)

    def test_single_start_failure_raises(self, monkeypatch):
        # the one start is not a certificate, its first step fails, and there
        # is no fallback start
        monkeypatch.setattr(solver_mod, "_factor", lambda *args: None)
        with pytest.raises(NonConvergence) as err:
            next(solver_mod.sweep([3]))
        assert "N=3" in str(err.value)

    def test_formula(self):
        # d_i = sqrt(N) / (2 (N - i)^{3/2}) for i = 0..N-2: smallest first
        np.testing.assert_array_equal(closed_form_start(3),
                                      [3**0.5 / (2 * 3**1.5), 3**0.5 / (2 * 2**1.5)])
        assert closed_form_start(1000).shape == (999,)

    @pytest.mark.parametrize("n", [*range(3, 61), 100, 300, 1000, 5000, 20160])
    def test_three_steps(self, n):
        # one factored step, then four chord steps at N = 5..60 and five at
        # the other sizes listed (the name is kept so that the test ids stay
        # stable)
        report = gauss_newton(solve_rate_params(n), closed_form_start(n))
        assert report.iterations == 1
        assert report.chord_steps == (4 if 5 <= n <= 60 else 5)
        assert report.cert.positive


class TestSweep:
    def test_single_value_equals_bootstrap(self):
        reports = list(sweep([3]))
        boot = gauss_newton(solve_rate_params(3), closed_form_start(3))
        assert len(reports) == 1
        np.testing.assert_array_equal(reports[0].cert.d, boot.cert.d)

    def test_step_is_gauss_newton_from_extrapolate_init(self, small_sweep):
        sources = [(n, small_sweep[n].cert.d) for n in (11, 9, 10, 8)]
        report = gauss_newton(solve_rate_params(12), extrapolate_init(sources, 12))
        np.testing.assert_array_equal(report.cert.d, small_sweep[12].cert.d)
        assert report.iterations == small_sweep[12].iterations

    def test_second_size_resamples_the_first(self, small_sweep):
        # N=4 starts from N=3's solution carried to its grid: the ratio to the
        # closed form at N=3, aligned at the last index, and its first entry
        # again in front
        ratio = small_sweep[3].cert.d / closed_form_start(3)
        d0 = np.maximum(np.append(ratio[0], ratio) * closed_form_start(4), 1e-12)
        expect = gauss_newton(solve_rate_params(4), d0)
        np.testing.assert_array_equal(small_sweep[4].cert.d, expect.cert.d)

    def test_dense_small(self, small_sweep):
        assert sorted(small_sweep) == list(range(3, 21))
        for rep in small_sweep.values():
            assert rep.cert.positive
            assert rep.cert.residual_sup <= 1e-13
            assert rep.iterations + rep.chord_steps <= 15
            cert = derive_full(rep.cert.params, rep.cert.d)
            assert cert.positive

    def test_strided_gaps(self):
        reports = list(sweep([*range(3, 13), 18, 24, 30]))
        ns = [rep.cert.params.N for rep in reports]
        assert ns == list(range(3, 13)) + [18, 24, 30]
        assert all(rep.cert.positive for rep in reports)

    def test_schedule_validation(self):
        # a strictly increasing list of sizes >= 3, checked before any solve;
        # the message names the offending size
        with pytest.raises(ValueError, match="^a sweep needs at least one size$"):
            sweep([])
        for sizes, bad in (([2, 3, 4], 2), ([3, 5, 4], 4), ([3, 4, 4, 5], 4)):
            with pytest.raises(ValueError, match=f"strictly from N >= 3, got N={bad}$"):
                sweep(sizes)

    def test_abort_reports_failing_n(self, monkeypatch):
        real = solver_mod.gauss_newton

        def failing(params, d0, **kw):
            if params.N == 7:
                raise NonConvergence("synthetic failure at N=7")
            return real(params, d0, **kw)

        monkeypatch.setattr(solver_mod, "gauss_newton", failing)
        with pytest.raises(NonConvergence) as err:
            list(solver_mod.sweep(range(3, 10)))
        assert "N=7" in str(err.value)

    def test_failed_warm_start_is_solved_from_the_closed_form(self, monkeypatch):
        # the warm start of N=7 is not finite, so its solve fails; the sweep
        # solves N=7 once more from the closed form and goes on from there
        real = solver_mod.extrapolate_init

        def broken_at_7(sources, target):
            d0 = real(sources, target)
            return np.full_like(d0, np.nan) if target == 7 else d0

        monkeypatch.setattr(solver_mod, "extrapolate_init", broken_at_7)
        solves = counting(monkeypatch, solver_mod, "gauss_newton")
        reports = list(solver_mod.sweep(range(3, 13)))
        assert [rep.cert.params.N for rep in reports] == list(range(3, 13))
        assert [params.N for params, _ in solves] == [3, 4, 5, 6, 7, 7, *range(8, 13)]
        cold = gauss_newton(solve_rate_params(7), closed_form_start(7))
        np.testing.assert_array_equal(reports[4].cert.d, cold.cert.d)
        for rep in reports:
            assert rep.cert.positive
            assert rep.cert.residual_sup <= solver_mod.RESIDUAL_TOL

    def test_one_step_past_n100(self):
        # the cubic warm start in 1/N leaves each size past N=100 within one
        # Gauss-Newton step of the 1e-13 gate: one factored step and no
        # chord step (chord steps stop after N=30)
        late = [rep for rep in sweep(range(3, 151)) if rep.cert.params.N >= 100]
        assert len(late) == 51
        assert [(rep.iterations, rep.chord_steps) for rep in late] == [(1, 0)] * 51

    def test_segmented_schedule_steps(self):
        # the benchmark's segments-2000 schedule (70 sizes): one factored
        # step at every size, and 51 chord steps in all, 41 of them at
        # N = 3..30 and at most two at any strided size
        sizes = sorted({*range(3, 61), *range(60, 1001, 94), *range(1000, 2001, 500)})
        steps = {rep.cert.params.N: (rep.iterations, rep.chord_steps) for rep in sweep(sizes)}
        assert sum(f for f, _ in steps.values()) == 70
        assert max(steps[n][0] for n in sizes if n > 60) <= 2
        assert sum(c for _, c in steps.values()) == 51
        assert max(steps[n][1] for n in sizes if n > 60) <= 2

    def test_dense_sweep_steps(self):
        # one factored step at each of the 298 sizes of 3..300, and 41
        # chord steps in all, every one at N <= 30
        reports = list(sweep(range(3, 301)))
        assert sum(rep.iterations for rep in reports) == 298
        assert sum(rep.chord_steps for rep in reports) == 41
        assert all(rep.chord_steps == 0 for rep in reports if rep.cert.params.N > 30)

    def test_keeps_only_what_continuation_needs(self):
        # a report the caller drops is freed once the sweep has moved on
        sizes = sweep(range(3, 13))
        ref = weakref.ref(next(sizes).cert)
        for _ in range(solver_mod.CONTINUATION_SOURCES + 1):
            next(sizes)
        gc.collect()
        assert ref() is None
