import dataclasses
import math

import numpy as np
import pytest

from pepcert import (
    FullCertificate,
    RateParams,
    derive_full,
    solve_rate_params,
)

# the recursion examples run at deliberately unbalanced parameters
EXAMPLE = RateParams(N=3, alpha=1.5, r=0.125)
EXAMPLE_D = np.array([0.5, 0.5])

# frozen regression values for EXAMPLE (hand-evaluated; dyadic, hence exact)
EXAMPLE_C = np.array([0.4375, 0.625, 0.75, 0.5])
EXAMPLE_A = np.array([0.3125, 0.875, 0.0])
EXAMPLE_B = np.array([0.0, 0.25])
EXAMPLE_EPS = np.array([0.5, -0.0625, -1.75, -0.609375])


def ab_loop(params, c, d):
    """Reference for derive_full's a, b and eps: the per-index backward
    recursion on (a_i, b_i), then the residual rows one by one, the boundary
    rows eps_0, eps_{N-1} and eps_N written out."""
    N, alpha, r = params.N, params.alpha, params.r
    two_r = 2.0 * r
    suffc = np.zeros(c.shape[:-1] + (N + 2,))
    suffc[..., :-1] = np.cumsum(c[..., ::-1], axis=-1)[..., ::-1]
    od = np.ones(d.shape[:-1] + (N,))
    od[..., 1:] += np.cumsum(d, axis=-1)
    a = np.empty(d.shape[:-1] + (N,))
    b = np.empty(d.shape[:-1] + (N - 1,))
    a[..., N - 1] = 1.0 - c[..., N] * od[..., N - 1]
    a[..., N - 2] = (
        c[..., N - 1] ** 2 / two_r + c[..., N - 2] * c[..., N - 1] / two_r
        - a[..., N - 1] - (1.0 + alpha) * c[..., N - 1] * od[..., N - 2]
    ) / alpha
    b[..., N - 2] = (
        (alpha - 1.0) * c[..., N - 1] ** 2 / two_r - c[..., N - 2] * c[..., N - 1] / two_r
        - (alpha - 1.0) * a[..., N - 1] + c[..., N - 1] * od[..., N - 2]
    ) / alpha
    for i in range(N - 3, -1, -1):
        tail = d[..., i + 1] * suffc[..., i + 3]
        cross = c[..., i] * c[..., i + 1] / two_r
        csq = c[..., i + 1] ** 2 / two_r
        lin = c[..., i + 1] * od[..., i]
        a[..., i] = (
            csq + cross - a[..., i + 1] - (1.0 + alpha) * lin - tail
            + (2.0 * alpha - 1.0) * b[..., i + 1]
        ) / alpha
        b[..., i] = (
            (alpha - 1.0) * (csq - a[..., i + 1] - tail + (2.0 * alpha - 1.0) * b[..., i + 1])
            - cross + lin
        ) / alpha
    eps = np.empty(d.shape[:-1] + (N + 1,))
    eps[..., 0] = a[..., 0] + d[..., 0] * suffc[..., 2] - b[..., 0] - c[..., 0]
    for i in range(1, N - 1):
        eps[..., i] = (
            b[..., i - 1] + a[..., i] + d[..., i] * suffc[..., i + 2]
            - a[..., i - 1] - b[..., i] - c[..., i] * od[..., i - 1]
        )
    eps[..., N - 1] = (
        b[..., N - 2] + a[..., N - 1] - a[..., N - 2] - c[..., N - 1] * od[..., N - 2]
    )
    eps[..., N] = (
        -c[..., 0] - a[..., 0] - d[..., 0] * suffc[..., 2]
        + (2.0 * alpha - 1.0) * b[..., 0] + c[..., 0] ** 2 / two_r
    )
    return a, b, eps


class TestCFromD:
    def test_example_values(self):
        c = derive_full(EXAMPLE, EXAMPLE_D).c
        assert c[3] == 0.5  # sqrt(2 r), independent of d
        assert c[0] == 0.4375
        assert c[2] == 0.75
        np.testing.assert_array_equal(c, EXAMPLE_C)

    def test_last_entry_independent_of_d(self, rng):
        for _ in range(5):
            d = rng.uniform(0.01, 2.0, 2)
            assert derive_full(EXAMPLE, d).c[3] == 0.5

    def test_affine_in_d(self, rng):
        params = solve_rate_params(9)
        d1 = rng.uniform(0.05, 2.0, 8)
        d2 = rng.uniform(0.05, 2.0, 8)
        c1, c2, c0, c12 = (derive_full(params, v).c for v in (d1, d2, np.zeros(8), d1 + d2))
        np.testing.assert_allclose(c1 + c2 - c0, c12, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            derive_full(EXAMPLE, np.ones(3))


class TestAbFromCd:
    def test_example_values(self):
        cert = derive_full(EXAMPLE, EXAMPLE_D)
        a, b = cert.a, cert.b
        assert a[2] == 0.0  # 1 - c3 (1 + d0 + d1) = 1 - 0.5 * 2
        assert a[1] == 0.875
        np.testing.assert_array_equal(a, EXAMPLE_A)
        np.testing.assert_array_equal(b, EXAMPLE_B)

    def test_shapes(self, rng):
        for n in (3, 4, 7, 20):
            params = solve_rate_params(n)
            cert = derive_full(params, rng.uniform(0.05, 1.5, n - 1))
            assert cert.a.shape == (n,)
            assert cert.b.shape == (n - 1,)

    @pytest.mark.parametrize("n", [3, 4, 7, 20, 300, 2000])
    def test_matches_loop_reference(self, rng, n):
        params = solve_rate_params(n)
        for _ in range(5):
            # unit-scale and 10/n-scale vectors (certificates span about 1/4n to 9)
            d = rng.uniform(0.05, 1.5, n - 1) * rng.choice([1.0, 10.0 / n])
            cert = derive_full(params, d)
            a, b = cert.a, cert.b
            a_ref, b_ref, eps_ref = ab_loop(params, cert.c, d)
            scale = max(np.max(np.abs(a_ref)), np.max(np.abs(b_ref)))
            assert np.max(np.abs(a - a_ref)) <= 1e-13 * scale
            assert np.max(np.abs(b - b_ref)) <= 1e-13 * scale
            assert np.max(np.abs(cert.eps - eps_ref)) <= 1e-13 * scale

    def test_loop_reference_example_values(self):
        a, b, eps = ab_loop(EXAMPLE, EXAMPLE_C, EXAMPLE_D)
        np.testing.assert_array_equal(a, EXAMPLE_A)
        np.testing.assert_array_equal(b, EXAMPLE_B)
        np.testing.assert_array_equal(eps, EXAMPLE_EPS)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match=r"requires N >= 3, got N=2"):
            derive_full(RateParams(N=2, alpha=1.4, r=0.1), np.array([0.5]))


class TestEpsAndResidual:
    def test_example_eps(self):
        eps = derive_full(EXAMPLE, EXAMPLE_D).eps
        np.testing.assert_array_equal(eps, EXAMPLE_EPS)
        assert np.max(np.abs(eps)) > 0.1  # arbitrary d is not a certificate

    def test_shapes(self):
        for n in (3, 5, 11):
            params = solve_rate_params(n)
            eps = derive_full(params, np.full(n - 1, 0.3)).eps
            assert eps.shape == (n + 1,)

    def test_converged_residual_small(self, small_sweep):
        rep = small_sweep[10]
        eps = derive_full(rep.cert.params, rep.cert.d).eps
        assert np.max(np.abs(eps)) <= 1e-13
        assert np.sum(np.maximum(eps, 0.0)) <= 1e-11

    def test_deterministic(self, rng):
        params = solve_rate_params(8)
        d = rng.uniform(0.1, 1.0, 7)
        np.testing.assert_array_equal(derive_full(params, d).eps, derive_full(params, d).eps)

    def test_exactly_quadratic_along_lines(self, rng):
        # three-point interpolation through t = 0, 1, 2 must reproduce t = 3
        params = solve_rate_params(12)
        for _ in range(10):
            d = rng.uniform(0.05, 1.5, 11)
            p = rng.standard_normal(11)
            r0, r1, r2, r3 = (derive_full(params, d + t * p).eps for t in range(4))
            pred = r0 - 3.0 * r1 + 3.0 * r2
            scale = np.maximum(1.0, np.max(np.abs([r0, r1, r2, r3]), axis=0))
            assert np.max(np.abs(pred - r3) / scale) <= 1e-12

    def test_rejects_2d_d(self, rng):
        params = solve_rate_params(9)
        for shape in ((6, 8), (1, 8), (8, 1)):
            with pytest.raises(ValueError, match="shape"):
                derive_full(params, rng.uniform(0.05, 1.5, shape))


class TestDeriveFull:
    def test_wellformed_on_arbitrary_d(self):
        cert = derive_full(EXAMPLE, EXAMPLE_D)
        assert isinstance(cert, FullCertificate)
        assert np.any(cert.eps != 0.0)

    def test_positive_at_certificate(self, small_sweep):
        cert = small_sweep[5].cert
        assert cert.positive

    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize("bad", [0.0, -1e-300, math.nan])
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_one_bad_entry_is_not_positive(self, small_sweep, name, bad, at):
        # one zero, negative or NaN entry in one vector, the other three
        # those of a solved certificate
        cert = small_sweep[5].cert
        vec = getattr(cert, name).copy()
        vec[at] = bad
        assert not dataclasses.replace(cert, **{name: vec}).positive

    def test_c_last_pinned(self):
        params = solve_rate_params(50)
        cert = derive_full(params, np.full(49, 0.2))
        assert cert.c[50] == math.sqrt(2.0 * params.r)

    def test_shape_contract(self, rng):
        for n in (3, 6, 14):
            params = solve_rate_params(n)
            cert = derive_full(params, rng.uniform(0.05, 1.5, n - 1))
            assert cert.a.shape == (n,)
            assert cert.b.shape == (n - 1,)
            assert cert.c.shape == (n + 1,)
            assert cert.d.shape == (n - 1,)
            assert cert.eps.shape == (n + 1,)

    def test_rejects_batch(self):
        with pytest.raises(ValueError):
            derive_full(EXAMPLE, np.ones((2, 2)))
