import numpy as np
import pytest

import pepcert.solver as solver_mod
from pepcert import (
    NonConvergence,
    RankDeficientJacobian,
    SweepSchedule,
    bootstrap_smallest,
    continue_from,
    derive_full,
    extrapolate_init,
    gauss_newton,
    jacobian,
    least_squares_step,
    resample,
    residual,
    solve_rate_params,
    sweep,
)


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
                plus, minus = residual(params, d + p), residual(params, d - p)
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
                fd[:, k] = (residual(params, d + step) - residual(params, d - step)) / (2 * h)
            J = jacobian(params, d)
            assert np.max(np.abs(J - fd)) <= 1e-12 * np.max(np.abs(fd))

    def test_evaluates_no_residuals(self, monkeypatch, small_sweep):
        def forbidden(*args, **kwargs):
            raise AssertionError("jacobian must not evaluate perturbed residuals")

        rep = small_sweep[15]
        expect = jacobian(rep.params, rep.d)
        monkeypatch.setattr(solver_mod, "residual", forbidden)
        np.testing.assert_array_equal(solver_mod.jacobian(rep.params, rep.d), expect)


class TestLeastSquaresStep:
    def test_normal_equation_residual(self, rng):
        params = solve_rate_params(12)
        d = rng.uniform(0.1, 1.2, 11)
        J = jacobian(params, d)
        eps = residual(params, d)
        s, rank_ok = least_squares_step(J, eps)
        assert rank_ok
        lhs = np.linalg.norm(J.T @ (J @ s + eps))
        assert lhs <= 1e-8 * np.linalg.norm(J.T) * np.linalg.norm(eps)

    def test_rank_deficient_warns_and_minimum_norm(self):
        J = np.zeros((6, 3))
        J[:, 0] = 1.0
        J[:, 1] = 1.0  # duplicated column: rank 1
        eps = np.ones(6)
        with pytest.warns(RankDeficientJacobian):
            s, rank_ok = least_squares_step(J, eps)
        assert not rank_ok
        expected, *_ = np.linalg.lstsq(J, -eps, rcond=None)
        np.testing.assert_allclose(s, expected, atol=1e-12)


class TestGaussNewton:
    def test_warm_start_n5(self, small_sweep):
        d0 = extrapolate_init(3, small_sweep[3].d, 4, small_sweep[4].d, 5)
        report = gauss_newton(solve_rate_params(5), d0, tol=1e-13)
        assert report.cert.positive
        assert report.residual_sup <= 1e-13
        assert report.iterations <= 20

    def test_fixed_point(self, small_sweep):
        rep = small_sweep[10]
        again = gauss_newton(rep.params, rep.d, tol=1e-13)
        assert again.iterations <= 1
        assert np.max(np.abs(again.d - rep.d)) <= 1e-14

    def test_descent_and_delta_bound(self, small_sweep):
        d0 = resample(small_sweep[12].d, 13)
        report = gauss_newton(solve_rate_params(13), d0)
        norms = report.res_norms
        assert all(b < a for a, b in zip(norms, norms[1:]))
        n = report.params.N
        assert report.delta <= (n + 1) * report.residual_sup

    def test_bad_start_contract(self):
        # far start with a negative entry: either a positive certificate or
        # an explicit failure, never converged-with-sign-violations
        params = solve_rate_params(5)
        try:
            report = gauss_newton(params, np.array([-0.5, 2.0, -1.0, 0.7]))
        except NonConvergence:
            return
        assert report.cert.positive

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gauss_newton(solve_rate_params(5), np.ones(3))

    def test_budget_and_tolerance_validation(self):
        params = solve_rate_params(5)
        for kwargs in ({"max_iter": -1}, {"tol": 0.0}, {"tol": float("nan")}):
            with pytest.raises(ValueError):
                gauss_newton(params, np.full(4, 0.3), **kwargs)

    def test_report_carries_its_certificate(self, small_sweep):
        report = small_sweep[8]
        again = derive_full(report.params, report.d)
        assert report.cert.positive
        for name in ("a", "b", "c", "d", "eps"):
            np.testing.assert_array_equal(getattr(report.cert, name), getattr(again, name))


class TestExtrapolateInit:
    def test_degenerate_equal_sources(self, small_sweep):
        d = small_sweep[6].d
        out = extrapolate_init(6, d, 6, d, 9)
        np.testing.assert_array_equal(out, np.maximum(resample(d, 9), 1e-12))

    def test_equal_sizes_different_vectors_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_init(6, np.full(5, 0.3), 6, np.full(5, 0.4), 9)

    def test_constant_preserved(self):
        out = extrapolate_init(10, np.full(9, 0.7), 11, np.full(10, 0.7), 14)
        np.testing.assert_allclose(out, 0.7, rtol=0, atol=1e-15)

    def test_pipeline_10_11_to_12(self, small_sweep):
        d0 = extrapolate_init(10, small_sweep[10].d, 11, small_sweep[11].d, 12)
        report = gauss_newton(solve_rate_params(12), d0)
        assert report.cert.positive
        assert report.iterations <= 10

    def test_clamped_positive(self):
        out = extrapolate_init(5, np.full(4, 1e-13), 6, np.full(5, 1e-14), 8)
        assert np.all(out >= 1e-12)


class TestBootstrap:
    def test_converges_positive(self):
        report = bootstrap_smallest(solve_rate_params(3), tol=1e-13)
        assert report.cert.positive
        assert report.delta <= 1e-11

    def test_deterministic(self):
        r1 = bootstrap_smallest(solve_rate_params(3))
        r2 = bootstrap_smallest(solve_rate_params(3))
        np.testing.assert_array_equal(r1.d, r2.d)
        assert r1.iterations == r2.iterations

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            bootstrap_smallest(solve_rate_params(4))

    def test_single_start_failure_raises(self):
        # no iterations allowed: the one start is not a certificate, and
        # there is no fallback start
        with pytest.raises(NonConvergence) as err:
            bootstrap_smallest(solve_rate_params(3), max_iter=0)
        assert err.value.N == 3


class TestContinueFrom:
    def test_matches_sweep_step(self, small_sweep):
        sources = [(11, small_sweep[11].d), (10, small_sweep[10].d)]
        report = continue_from(sources, 12)
        np.testing.assert_array_equal(report.d, small_sweep[12].d)
        assert report.iterations == small_sweep[12].iterations

    def test_one_source_resamples(self, small_sweep):
        report = continue_from([(9, small_sweep[9].d)], 12)
        d0 = extrapolate_init(9, small_sweep[9].d, 9, small_sweep[9].d, 12)
        expect = gauss_newton(solve_rate_params(12), d0)
        np.testing.assert_array_equal(report.d, expect.d)

    def test_source_count(self, small_sweep):
        with pytest.raises(ValueError):
            continue_from([], 12)
        three = [(n, small_sweep[n].d) for n in (9, 10, 11)]
        with pytest.raises(ValueError):
            continue_from(three, 12)


class TestSweep:
    def test_single_value_equals_bootstrap(self):
        reports = sweep(SweepSchedule(((3, 3, 1),)))
        boot = bootstrap_smallest(solve_rate_params(3))
        assert len(reports) == 1
        np.testing.assert_array_equal(reports[0].d, boot.d)

    def test_dense_small(self, small_sweep):
        assert sorted(small_sweep) == list(range(3, 21))
        for rep in small_sweep.values():
            assert rep.cert.positive
            assert rep.residual_sup <= 1e-13
            assert rep.iterations <= 15
            cert = derive_full(rep.params, rep.d)
            assert cert.positive

    def test_strided_gaps(self):
        reports = sweep(SweepSchedule(((3, 12, 1), (12, 30, 6))))
        ns = [rep.params.N for rep in reports]
        assert ns == list(range(3, 13)) + [18, 24, 30]
        assert all(rep.cert.positive for rep in reports)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            SweepSchedule(((2, 10, 1),))
        with pytest.raises(ValueError):
            SweepSchedule(((3, 2, 1),))
        with pytest.raises(ValueError):
            SweepSchedule(())
        with pytest.raises(ValueError):
            sweep(SweepSchedule(((5, 9, 1),)))  # must start at the bootstrap size

    def test_abort_reports_failing_n(self, monkeypatch):
        real = solver_mod.gauss_newton

        def failing(params, d0, **kw):
            if params.N == 7:
                raise NonConvergence("synthetic failure", N=7)
            return real(params, d0, **kw)

        monkeypatch.setattr(solver_mod, "gauss_newton", failing)
        with pytest.raises(NonConvergence) as err:
            solver_mod.sweep(SweepSchedule.dense(9))
        assert err.value.N == 7

    def test_strided_classmethod(self):
        sched = SweepSchedule.strided(40, 10, 15)
        assert sched.values() == list(range(3, 11)) + [25, 40]

    def test_doubling_classmethod(self):
        dense = list(range(3, 21))
        assert SweepSchedule.doubling(3).values() == [3]
        assert SweepSchedule.doubling(20).values() == dense
        assert SweepSchedule.doubling(21).values() == dense + [21]
        assert SweepSchedule.doubling(160).values() == dense + [40, 80, 160]
        assert SweepSchedule.doubling(300).values() == dense + [40, 80, 160, 300]
        assert SweepSchedule.doubling(1000).values() == dense + [40, 80, 160, 320, 640, 1000]
