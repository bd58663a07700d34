import ast
import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pepcert
from dense_reference import (
    aggregate,
    assemble_lambda,
    dense_deviation,
    dense_slack_verdict,
    pattern_mask,
    rhs_with_errors,
    slack_gram,
)
from pepcert import (
    FullCertificate,
    RateParams,
    closed_form_start,
    derive_full,
    gauss_newton,
    oracle_check,
    slack_psd_check,
    solve_rate_params,
    sweep,
    verdict,
    verifier,
)

EXAMPLE = RateParams(N=3, alpha=1.5, r=0.125)
STAR = -1  # the minimizer's index; matrix position 0


def example_cert():
    return derive_full(EXAMPLE, np.array([0.5, 0.5]))


def reference_aggregate(entries, N, alpha):
    """Sum of w * Q_pq one nonzero entry at a time, over matrix positions p, q
    (star at 0), each inequality transcribed term by term; the small-N
    reference for the closed-form aggregate."""
    fcoef = np.zeros(N + 2)
    gram = np.zeros((N + 2, N + 2))
    for p, q in zip(*np.nonzero(entries)):
        if p == q:
            continue  # Q_pp is identically zero
        w = float(entries[p, q])
        fcoef[p] += w
        fcoef[q] -= w
        if q != 0:
            # -w <g_q, x_p - x_q>, with x_k - x_star = h - alpha sum_{l<k} g_l
            dx = np.zeros(N + 2)
            if p == 0:
                dx[0] = -1.0
                dx[1:q] = alpha
            else:
                lo, hi = min(p, q), max(p, q)
                dx[lo:hi] = alpha if p < q else -alpha
            gram[q, :] -= 0.5 * w * dx
            gram[:, q] -= 0.5 * w * dx
        # -w/2 ||g_p - g_q||^2 with g_star = 0
        for a in (p, q):
            if a != 0:
                gram[a, a] -= 0.5 * w
        if p != 0 and q != 0:
            gram[p, q] += 0.5 * w
            gram[q, p] += 0.5 * w
    return fcoef, gram


def assert_matches_dense(cert):
    dense = dense_deviation(cert)
    dev, tol = oracle_check(cert)
    assert abs(dev - dense) <= 1e-14 * max(tol / verifier.ORACLE_TOL, dense)


def svd_slack_criterion(cert, gram):
    """The slack rank test as it stood with an SVD, kept as the reference:
    every entry within 1e-12 of r v v^T, and sigma_2 <= 1e-10 sigma_1."""
    r = cert.params.r
    v = np.concatenate(([1.0], -cert.c / (2.0 * r)))
    rank_one = r * np.outer(v, v)
    scale = max(1.0, float(np.max(np.abs(rank_one))))
    if float(np.max(np.abs(gram - rank_one))) > 1e-12 * scale:
        return False
    svals = np.linalg.svd(gram, compute_uv=False)
    return bool(svals[0] > 0.0 and svals[1] <= 1e-10 * svals[0])


@pytest.fixture(scope="module")
def benchmark_certs():
    """Every size of `sweep 300`, a cold solve at N=300, and the N=400
    certificate of a doubling schedule."""
    certs = [rep.cert for rep in sweep(range(3, 301))]
    certs.append(gauss_newton(solve_rate_params(300), closed_form_start(300)).cert)
    certs.append(list(sweep([*range(3, 21), 40, 80, 160, 320, 400]))[-1].cert)
    assert certs[-1].params.N == 400
    return certs


class TestAssembleLambda:
    def test_pattern_readoffs(self):
        cert = example_cert()
        lam = assemble_lambda(cert)
        np.testing.assert_array_equal(lam[0, 1:], cert.c)
        assert lam[0, 0] == 0.0
        assert lam[1, 2] == cert.a[0]
        assert lam[2, 3] == cert.a[1]
        assert lam[2, 1] == cert.b[0]
        assert lam[1, 3] == cert.d[0] * cert.c[2]
        assert lam[1, 4] == cert.d[0] * cert.c[3]
        assert lam[2, 4] == cert.d[1] * cert.c[3]

    def test_exact_zeros_outside_pattern(self, small_sweep):
        for n in (3, 9, 17):
            cert = small_sweep[n].cert
            lam = assemble_lambda(cert)
            outside = lam[~pattern_mask(n)]
            assert np.all(outside == 0.0)
            # star column and last row identically zero
            assert np.all(lam[:, 0] == 0.0)
            assert np.all(lam[-1, :] == 0.0)

    def test_unit_column_sum(self, small_sweep):
        cert = small_sweep[10].cert
        lam = assemble_lambda(cert)
        assert abs(lam[:, -1].sum() - 1.0) <= 1e-12

    def test_nonnegative_at_certificate(self, small_sweep):
        cert = small_sweep[14].cert
        assert np.all(assemble_lambda(cert) >= 0.0)

    def test_row_minus_column_gives_eps(self, rng):
        # holds for any d, not only certificates
        params = solve_rate_params(9)
        cert = derive_full(params, rng.uniform(0.05, 1.5, 8))
        lam = assemble_lambda(cert)
        for i in range(9):
            gap = lam[1 + i, :].sum() - lam[:, 1 + i].sum()
            assert abs(gap - cert.eps[i]) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(3, 40).flatmap(lambda n: hnp.arrays(
        float, n - 1, elements=st.floats(1e-6, 1e3))))
    def test_row_minus_column_gives_eps_property(self, d):
        # the recursion identity, for any positive d and size
        n = d.shape[0] + 1
        cert = derive_full(solve_rate_params(n), d)
        lam = assemble_lambda(cert)
        gap = lam[1 : n + 1, :].sum(axis=1) - lam[:, 1 : n + 1].sum(axis=0)
        size = np.abs(lam)
        scale = size[1 : n + 1, :].sum(axis=1) + size[:, 1 : n + 1].sum(axis=0)
        assert np.all(np.abs(gap - cert.eps[:n]) <= 1e-12 * scale)


def one_hot_aggregate(i, j, N, alpha):
    """Aggregate of the single interpolation inequality Q_ij, i.e. of the
    multiplier matrix whose only nonzero entry is a 1 at (i, j); indices run
    over STAR and 0..N."""
    entries = np.zeros((N + 2, N + 2))
    entries[1 + i, 1 + j] = 1.0
    return aggregate(entries, alpha)


class TestQForm:
    def test_star_zero(self):
        fcoef, gram = one_hot_aggregate(STAR, 0, 4, alpha=1.7)
        fc = np.zeros(6)
        fc[0], fc[1] = 1.0, -1.0
        np.testing.assert_array_equal(fcoef, fc)
        # +<g_0, h> and -1/2 ||g_0||^2
        assert gram[0, 1] + gram[1, 0] == 1.0
        assert gram[1, 1] == -0.5
        assert np.count_nonzero(gram) == 3

    def test_adjacent_pair(self):
        alpha = 1.7
        _, gram = one_hot_aggregate(0, 1, 4, alpha)
        # x_0 - x_1 = alpha g_0, so the cross coefficient is 1 - alpha after
        # adding the +<g_0, g_1> piece of the squared difference
        assert gram[1, 2] + gram[2, 1] == pytest.approx(1.0 - alpha, abs=1e-15)
        assert gram[1, 1] == -0.5
        assert gram[2, 2] == -0.5


class TestAggregate:
    def test_zero_lambda(self):
        fcoef, gram = aggregate(np.zeros((6, 6)), 1.6)
        assert np.all(fcoef == 0.0) and np.all(gram == 0.0)

    def test_matches_per_pair_reference(self, rng):
        # entries anywhere, star row, star column and diagonal included
        for N in range(3, 13):
            for _ in range(4):
                alpha = rng.uniform(1.0, 2.0)
                entries = rng.normal(size=(N + 2, N + 2))
                entries *= rng.random((N + 2, N + 2)) < rng.uniform(0.2, 1.0)
                got_f, got_gram = aggregate(entries, alpha)
                fcoef, gram = reference_aggregate(entries, N, alpha)
                scale = max(1.0, np.abs(fcoef).max(), np.abs(gram).max())
                assert np.abs(got_f - fcoef).max() <= 1e-13 * scale
                assert np.abs(got_gram - gram).max() <= 1e-13 * scale

    def test_star_star_entry_is_zero(self):
        # Q(star, star) is identically zero, so it adds nothing
        entries = np.zeros((6, 6))
        entries[0, 0] = 0.7
        fcoef, gram = aggregate(entries, 1.6)
        assert np.all(fcoef == 0.0) and np.all(gram == 0.0)

    def test_fcoef_conservation_any_lambda(self, rng):
        entries = rng.uniform(0.0, 1.0, (8, 8)) * (rng.random((8, 8)) < 0.4)
        np.fill_diagonal(entries, 0.0)
        fcoef, _ = aggregate(entries, 1.4)
        assert abs(fcoef.sum()) <= 1e-12 * max(1.0, np.abs(fcoef).max())

    def test_gram_exactly_symmetric(self, rng):
        # entries anywhere, star row, star column and diagonal included
        for N in (3, 4, 7, 12, 30):
            for _ in range(5):
                entries = rng.normal(size=(N + 2, N + 2))
                entries *= rng.random((N + 2, N + 2)) < rng.uniform(0.2, 1.0)
                entries[0] = rng.normal(size=N + 2)
                entries[:, 0] = rng.normal(size=N + 2)
                np.fill_diagonal(entries, rng.normal(size=N + 2))
                _, gram = aggregate(entries, rng.uniform(1.0, 2.0))
                assert np.array_equal(gram, gram.T)


class TestRhs:
    def test_f_part_zero_errors(self):
        cert = example_cert()
        clean = dataclasses.replace(cert, eps=np.zeros(4))
        fcoef, _ = rhs_with_errors(clean)
        fc = np.zeros(5)
        fc[0], fc[-1] = 1.0, -1.0
        np.testing.assert_array_equal(fcoef, fc)

    def test_gram_blocks(self):
        cert = example_cert()
        _, gram = rhs_with_errors(cert)
        r, c = cert.params.r, cert.c
        # h-g_i cross coefficients equal c_i
        for i in range(4):
            assert gram[0, 1 + i] + gram[1 + i, 0] == pytest.approx(c[i], abs=1e-15)
        # g-block is -(1/4r) c c^T, plus the eps_N/2 correction on g_0 g_0
        block = gram[1:, 1:].copy()
        block[0, 0] -= cert.eps[-1] / 2.0
        np.testing.assert_allclose(block, -np.outer(c, c) / (4 * r), atol=1e-15)

    def test_gram_exactly_symmetric(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 60))
            params = RateParams(n, rng.uniform(1.01, 1.99), rng.uniform(0.01, 0.45))
            _, gram = rhs_with_errors(derive_full(params, rng.uniform(1e-3, 2.0, n - 1)))
            assert np.array_equal(gram, gram.T)


class TestOracle:
    def test_identity_at_balanced_params(self, rng):
        for n in (3, 7, 12):
            params = solve_rate_params(n)
            cert = derive_full(params, rng.uniform(0.05, 2.0, n - 1))
            dev, tol = oracle_check(cert)
            assert dev <= tol

    def test_identity_at_arbitrary_params(self, rng):
        # the elimination identity is algebraic, not conditioned on balance
        cert = derive_full(RateParams(N=7, alpha=1.3, r=0.2),
                           rng.uniform(0.05, 2.0, 6))
        dev, tol = oracle_check(cert)
        assert dev <= tol

    def test_randomized_trials(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 16))
            d = rng.uniform(1e-3, 2.0, n - 1)
            if rng.random() < 0.5:
                params = solve_rate_params(n)
            else:
                params = RateParams(n, rng.uniform(1.01, 1.99), rng.uniform(0.01, 0.39))
            cert = derive_full(params, d)
            dev, tol = oracle_check(cert)
            assert dev <= tol

    def test_dense_reference_peak_memory(self, rng):
        # the aggregate's work array and gram, beside the multiplier matrix;
        # then the target's gram beside the aggregate's
        n = 600
        cert = derive_full(solve_rate_params(n), rng.uniform(0.05, 1.5, n - 1))
        tracemalloc.start()
        try:
            aggregate(assemble_lambda(cert), cert.params.alpha)
            rhs_with_errors(cert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 8 * (n + 2) ** 2

    def test_peak_memory_per_index(self, rng):
        # about twelve length-N arrays (96 bytes per index, measured at
        # N = 1000..81920); the dense reference would need ~10 GB at
        # N=20000, so N=2000 (~100 MB for it) comes first and fails fast
        for n in (2000, 20000):
            cert = derive_full(solve_rate_params(n), rng.uniform(0.05, 1.5, n - 1))
            tracemalloc.start()
            try:
                oracle_check(cert)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 128 * n

    def test_matches_dense_on_benchmark_certificates(self, benchmark_certs):
        for cert in benchmark_certs:
            assert_matches_dense(cert)

    def test_matches_dense_at_random_d(self, rng):
        for n in (*range(3, 30), 100, 517, 2000):
            params = solve_rate_params(n)
            if n % 2:
                params = RateParams(n, rng.uniform(1.01, 1.99), rng.uniform(0.01, 0.45))
            assert_matches_dense(derive_full(params, rng.uniform(1e-3, 2.0, n - 1)))

    def test_matches_dense_on_arbitrary_data(self, rng):
        # (a, b, c, d, eps) that no recursion ties together, so that every
        # entry class of the pattern carries its own deviation
        for n in (*range(3, 40), 300):
            params = RateParams(n, rng.uniform(0.5, 1.99), rng.uniform(0.01, 0.45))
            cert = FullCertificate(
                params, a=rng.uniform(1e-3, 3.0, n), b=rng.uniform(1e-3, 3.0, n - 1),
                c=rng.uniform(1e-3, 3.0, n + 1), d=rng.uniform(1e-3, 3.0, n - 1),
                eps=rng.uniform(-1.0, 1.0, n + 1))
            assert_matches_dense(cert)

    def test_star_coefficient_compared(self, small_sweep):
        # a shift of every eps_i, i < N, moves the star's f-coefficient N
        # times as far as any other coefficient
        cert = small_sweep[20].cert
        shifted = cert.eps.copy()
        shifted[:20] += 1e-6
        mutant = dataclasses.replace(cert, eps=shifted)
        assert oracle_check(mutant)[0] == pytest.approx(20e-6, rel=1e-6)
        assert_matches_dense(mutant)

    def test_nan_anywhere_gives_nan(self):
        cert = example_cert()
        for name in ("a", "b", "c", "d", "eps"):
            for k in range(len(getattr(cert, name))):
                poisoned = getattr(cert, name).copy()
                poisoned[k] = np.nan
                assert np.isnan(oracle_check(dataclasses.replace(cert, **{name: poisoned}))[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derivation_fails_without_a_warning(self, small_sweep):
        # a finite d whose derivation overflows, as `read_checked` derives it,
        # and finite data whose ||c||^2 / r overflows: its tolerance is inf,
        # which an inf deviation would meet
        with np.errstate(over="ignore", invalid="ignore"):
            nan_data = derive_full(solve_rate_params(10), np.full(9, 1e200))
            big = derive_full(solve_rate_params(100), 1e153 * np.random.default_rng(0).random(99))
        scaled = dataclasses.replace(small_sweep[10].cert, c=small_sweep[10].cert.c * 1e160)
        for cert in (big, scaled):
            assert np.isfinite(cert.c).all() and np.isfinite(cert.eps).all()
        for cert in (nan_data, big, scaled):
            dev, tol = oracle_check(cert)
            assert np.isnan(dev) and tol == np.inf
            assert verdict(cert, 0.0, oracle=True)["oracle"][1] is False

    def test_single_entry_mutations_as_dense(self, rng):
        # a bump of any one entry of a, b, c or d that the dense reference
        # rejects is rejected too
        for n in range(3, 13):
            cert = derive_full(solve_rate_params(n), rng.uniform(0.05, 2.0, n - 1))
            for name in "abcd":
                for k in range(len(getattr(cert, name))):
                    bumped = getattr(cert, name).copy()
                    bumped[k] += 1e-3
                    mutant = dataclasses.replace(cert, **{name: bumped})
                    if dense_deviation(mutant) >= 1e-5:
                        assert oracle_check(mutant)[0] >= 1e-5, (n, name, k)
                    assert_matches_dense(mutant)

    def test_perturbation_sensitivity(self, rng):
        params = solve_rate_params(8)
        cert = derive_full(params, rng.uniform(0.1, 1.5, 7))
        bumped_a = cert.a.copy()
        bumped_a[3] += 1e-3
        mutant = dataclasses.replace(cert, a=bumped_a)
        assert oracle_check(mutant)[0] >= 1e-5


class TestDeltaCertificate:
    def test_converged(self, small_sweep):
        cert = small_sweep[20].cert
        assert cert.positive
        assert cert.delta <= 1e-11
        assert cert.params.r + cert.delta / 2.0 <= cert.params.r + 5e-12

    def test_nonpositive_errors_give_zero_delta(self):
        cert = example_cert()
        clean = dataclasses.replace(cert, eps=-np.abs(cert.eps))
        assert clean.delta == 0.0

    def test_negative_c_fails_regardless(self):
        cert = example_cert()
        bad_c = cert.c.copy()
        bad_c[0] = -bad_c[0]
        mutant = dataclasses.replace(cert, c=bad_c, eps=np.zeros(4))
        assert not mutant.positive


class TestVerdict:
    @staticmethod
    def passed(checks):
        return {name: ok for name, (_, ok) in checks.items()}

    def test_checks_in_order(self, small_sweep):
        cert = small_sweep[20].cert
        checks = verdict(cert, cert.delta, oracle=True)
        assert list(checks) == ["positive", "delta", "header_delta", "oracle"]
        assert checks["positive"] == (True, True)
        assert checks["delta"] == ((cert.delta, 1e-11), True)
        assert checks["header_delta"] == ((cert.delta, 1e-11), True)
        assert checks["oracle"] == (oracle_check(cert), True)

    def test_oracle_only_when_asked(self, small_sweep, monkeypatch):
        cert = small_sweep[10].cert
        calls = []
        monkeypatch.setattr(verifier, "oracle_check", lambda c: calls.append(c) or (0.0, 1.0))
        assert list(verdict(cert, 0.0, oracle=False)) == ["positive", "delta", "header_delta"]
        assert calls == []
        assert verdict(cert, 0.0, oracle=True)["oracle"] == ((0.0, 1.0), True)
        assert calls == [cert]

    def test_oracle_is_required(self, small_sweep):
        with pytest.raises(TypeError):
            verdict(small_sweep[10].cert, 0.0)

    def test_non_positive_d_fails(self, small_sweep):
        cert = small_sweep[10].cert
        d = cert.d.copy()
        d[3] = -d[3]
        checks = verdict(derive_full(cert.params, d), 0.0, oracle=True)
        assert self.passed(checks)["positive"] is False
        assert checks["positive"][0] is False

    def test_header_delta_above_the_gate_fails(self, small_sweep):
        # a header may not claim more error than the gate, whatever d gives
        cert = small_sweep[10].cert
        checks = verdict(cert, 2e-11, oracle=True)
        assert checks["header_delta"] == ((2e-11, 1e-11), False)
        assert self.passed(checks) == {"positive": True, "delta": True,
                                       "header_delta": False, "oracle": True}
        assert self.passed(verdict(cert, 1e-11, oracle=False))["header_delta"] is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_d_fails_every_measure(self):
        # a finite d whose derivation overflows gives a NaN delta, which
        # passes no check
        with np.errstate(over="ignore", invalid="ignore"):
            cert = derive_full(solve_rate_params(5), np.full(4, 1e200))
        checks = verdict(cert, 0.0, oracle=True)
        (delta, _), _ = checks["delta"]
        assert np.isnan(delta)
        assert self.passed(checks) == {"positive": False, "delta": False,
                                       "header_delta": True, "oracle": False}


class TestSlack:
    def test_rank_one_psd(self, small_sweep):
        for n in (3, 8, 15):
            cert = small_sweep[n].cert
            assert slack_psd_check(cert)
            svals = np.linalg.svd(slack_gram(cert), compute_uv=False)
            assert svals[1] <= 1e-10 * svals[0]
            assert np.min(np.linalg.eigvalsh(slack_gram(cert))) >= -1e-12 * svals[0]

    def test_arbitrary_d_still_perfect_square(self):
        assert slack_psd_check(example_cert())

    def test_corrupted_gram_detected(self):
        cert = example_cert()
        gram = slack_gram(cert)
        gram[0, 2] += 1e-6
        assert not dense_slack_verdict(cert, gram)

    def test_weyl_bound_implies_svd_rank_test(self, rng):
        tau = 1e-10 / (1.0 + 1e-10)
        outcomes = {True: 0, False: 0}
        for trial in range(400):
            n = int(rng.integers(3, 61))
            params = RateParams(n, rng.uniform(1.01, 1.99), rng.uniform(0.01, 0.45))
            cert = derive_full(params, rng.uniform(0.05, 1.5, n - 1))
            v = np.concatenate(([1.0], -cert.c / (2.0 * params.r)))
            size = params.r * float(v @ v)
            # dense perturbations load the Frobenius bound, one symmetric
            # pair of entries the entrywise test
            if trial % 2:
                E = rng.normal(size=(n + 2, n + 2))
            else:
                E = np.zeros((n + 2, n + 2))
                E[tuple(rng.integers(0, n + 2, 2))] = 1.0
            E += E.T
            E *= size * 10.0 ** rng.uniform(-16, -6) / np.linalg.norm(E)
            gram = slack_gram(cert) + E
            ok = dense_slack_verdict(cert, gram)
            outcomes[ok] += 1
            if ok:
                assert svd_slack_criterion(cert, gram)
            if np.linalg.norm(E) >= 2 * tau * size:
                assert not ok
        assert min(outcomes.values()) >= 100

    def test_rank_two_within_entrywise_tolerance_rejected(self, rng):
        # past N+2 = 100 the entrywise test no longer implies rank one: a flat
        # rank-two perturbation of a slack with one large coefficient passes
        # it, and only the Frobenius bound rejects it, as the SVD criterion does
        n, r = 300, 0.3
        cert = derive_full(RateParams(n, 1.6, r), np.full(n - 1, 0.5))
        c = np.zeros(n + 1)
        c[n] = cert.c[n]
        cert = dataclasses.replace(cert, c=c)
        v = np.concatenate(([1.0], -c / (2.0 * r)))
        u = rng.choice([-1.0, 1.0], n + 2)
        gram = slack_gram(cert) + 0.9e-12 * np.outer(u, u)
        assert np.max(np.abs(gram - r * np.outer(v, v))) <= 1e-12  # scale is 1
        assert not svd_slack_criterion(cert, gram)
        assert not dense_slack_verdict(cert, gram)
        assert slack_psd_check(cert)

    @staticmethod
    def dense_verdict(cert):
        with np.errstate(all="ignore"):
            gram = slack_gram(cert)
        return dense_slack_verdict(cert, gram)

    def test_factor_route_matches_dense(self, benchmark_certs, rng):
        certs = list(benchmark_certs)
        for n in (*range(3, 30), 100, 517, 2000):
            params = solve_rate_params(n)
            if n % 2:
                params = RateParams(n, rng.uniform(1.01, 1.99), rng.uniform(0.01, 0.45))
            certs.append(derive_full(params, rng.uniform(1e-3, 2.0, n - 1)))
        for cert in certs:
            assert (slack_psd_check(cert), self.dense_verdict(cert)) == (True, True)

    def test_factor_route_matches_dense_on_arbitrary_data(self, rng):
        # positive (c, r) that no recursion ties together, c at scales
        # from 1e-60 to 1e60
        for _ in range(200):
            n = int(rng.integers(3, 80))
            params = RateParams(n, 1.5, 10.0 ** rng.uniform(-3.0, 3.0))
            c = rng.uniform(1e-3, 1.0, n + 1) * 10.0 ** rng.uniform(-60.0, 60.0)
            cert = FullCertificate(params, a=np.ones(n), b=np.ones(n - 1), c=c,
                                   d=np.ones(n - 1), eps=np.zeros(n + 1))
            assert (slack_psd_check(cert), self.dense_verdict(cert)) == (True, True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejection_fails_the_verdict(self):
        # wherever the slack check rejects derived data, here where c^2 / r
        # overflows, the verdict with the oracle fails too; the oracle alone
        # passes some of these cases, whose delta or positivity fails
        rejected = 0
        rng = np.random.default_rng(0)
        for n in (3, 4, 5, 10, 30, 100, 300, 1000, 3000):
            params = solve_rate_params(n)
            shapes = (rng.random(n - 1), rng.standard_normal(n - 1), np.ones(n - 1))
            for e in range(100, 171):
                for shape in shapes:
                    with np.errstate(over="ignore", invalid="ignore"):
                        cert = derive_full(params, 10.0 ** e * shape)
                    if not slack_psd_check(cert):
                        rejected += 1
                        checks = verdict(cert, cert.delta, oracle=True)
                        assert not all(ok for _, ok in checks.values()), (n, e)
        assert rejected >= 400

    def test_non_finite_or_overflowing_c_rejected(self):
        cert = example_cert()
        mutants = [dataclasses.replace(cert, c=np.full(4, 1e200))]
        for value in (np.nan, np.inf, -np.inf):
            for k in range(4):
                poisoned = cert.c.copy()
                poisoned[k] = value
                mutants.append(dataclasses.replace(cert, c=poisoned))
        for mutant in mutants:
            assert slack_psd_check(mutant) is False
            assert self.dense_verdict(mutant) is False

    def test_bumped_factor_rejected(self, monkeypatch, small_sweep):
        # one factor of the slack off by 1e-6 relative at one index
        factors = verifier._slack_factors
        twenty = small_sweep[20].cert
        for cert in (example_cert(), twenty):
            n = cert.params.N
            for which, k in [(0, 0), *((i, k) for i in (1, 2, 3) for k in range(n + 1))]:
                def bumped(cert, which=which, k=k):
                    parts = list(factors(cert))
                    parts[which] = np.array(parts[which], dtype=float)  # a copy
                    parts[which].flat[k] *= 1.0 + 1e-6
                    return tuple(parts)
                monkeypatch.setattr(verifier, "_slack_factors", bumped)
                assert not slack_psd_check(cert), (n, which, k)
                assert not dense_slack_verdict(cert, slack_gram(cert)), (n, which, k)

    def test_bounds_dominate_factor_deviation(self, rng):
        # the O(N) bounds against E = G - r v v^T formed densely from
        # factors perturbed far above rounding, one factor at a time and
        # all together, G's block left as the unsymmetrized x y^T
        groups = ((0,), (1,), (2,), (3,), (0, 1, 2, 3))
        for trial in range(60):
            n = int(rng.integers(3, 40))
            cert = derive_full(solve_rate_params(n), rng.uniform(0.05, 1.5, n - 1))
            r, u = cert.params.r, -cert.c / (2.0 * cert.params.r)
            parts = list(verifier._slack_factors(cert))
            for which in groups[trial % 5]:
                noise = rng.normal(size=np.shape(parts[which]))
                parts[which] = parts[which] * (1.0 + 1e-8 * noise)
            hh, w, x, y = parts
            E = np.empty((n + 2, n + 2))
            E[0, 0] = hh - r
            E[0, 1:] = E[1:, 0] = w - r * u
            E[1:, 1:] = np.outer(x, y) - r * np.outer(u, u)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verifier, "_slack_factors", lambda _: tuple(parts))
                entry, frob = verifier._slack_bounds(cert)
            assert entry >= (1.0 - 1e-6) * np.max(np.abs(E)) > 0.0
            assert frob >= (1.0 - 1e-6) * np.linalg.norm(E)

    def test_slack_peak_memory_per_index(self, rng):
        # a few length-N arrays (72 bytes per index, measured at
        # N = 300..81920); the dense route would need ~10 GB at N=20000,
        # so N=2000 (~100 MB for it) comes first and fails fast
        for n in (2000, 20000):
            cert = derive_full(solve_rate_params(n), rng.uniform(0.05, 1.5, n - 1))
            tracemalloc.start()
            try:
                assert slack_psd_check(cert)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 128 * n


def test_verify_path_imports_neither_solver_nor_cli():
    # verification stays independent of the solver: no module that `verify`
    # runs imports it, nor the command line that does
    src = pathlib.Path(pepcert.__file__).parent
    for name in ("rates", "recursion", "verifier", "certfile"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                parts = {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                parts = set((node.module or "").split("."))
                parts |= {alias.name for alias in node.names}
            else:
                continue
            assert not parts & {"solver", "cli"}, f"{name}.py line {node.lineno}"
