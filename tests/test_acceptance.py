"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import contextlib
import io
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from dense_reference import aggregate, assemble_lambda, pattern_mask, rhs_with_errors, slack_gram
from high_precision import solve_rate_params_mp
from pepcert import (
    RateParams,
    derive_full,
    huber,
    huber_rate,
    lower_bound_envelope,
    oracle_check,
    quadratic,
    quadratic_rate,
    simulate,
    slack_psd_check,
    solve_rate_params,
    sweep,
    verdict,
)
from pepcert import cli
from pepcert.certfile import parse_certificate, read_certificate, render_certificate, params_from_file

SUP_TOL = 1e-13
DELTA_TOL = 1e-11


@contextmanager
def criterion(num, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL  {description}", flush=True)
        raise
    print(f"[criterion {num}] PASS  {description}  ({time.time() - start:.1f}s)",
          flush=True)


@pytest.fixture(scope="module")
def sweep300_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep300")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["sweep", "300", "--outdir", str(out)])
    assert code == 0, buf.getvalue()[-2000:]
    return out


def sweep300_files(directory):
    files = sorted(directory.glob("cert_N*.txt"))
    assert len(files) == 298
    return files


def test_criterion_1_desk_scale_sweep(sweep300_dir):
    with criterion(1, "sweep 300: all N in [3,300] converge, delta<=1e-11, "
                      "sup|eps|<=1e-13, a,b,c,d > 0"):
        seen = []
        for path in sweep300_files(sweep300_dir):
            cf = read_certificate(path)
            seen.append(cf.N)
            cert = derive_full(params_from_file(cf), cf.d)
            assert np.max(np.abs(cert.eps)) <= SUP_TOL
            assert np.sum(np.maximum(cert.eps, 0.0)) <= DELTA_TOL
            assert cf.delta <= DELTA_TOL
            assert cert.positive
            # and the verdict `verify --oracle` reads passes every check
            checks = verdict(cert, cf.delta, oracle=True)
            assert list(checks) == ["positive", "delta", "header_delta", "oracle"]
            assert all(ok for _, ok in checks.values()), (cf.N, checks)
        assert seen == list(range(3, 301))


def test_criterion_2_strided_continuation():
    with criterion(2, "strided continuation: stride 1 to 300, stride 50 to 1000"):
        reports = list(sweep([*range(3, 301), *range(350, 1001, 50)]))
        ns = [rep.cert.params.N for rep in reports]
        assert ns == list(range(3, 301)) + list(range(350, 1001, 50))
        for rep in reports:
            assert rep.cert.positive
            assert rep.cert.residual_sup <= SUP_TOL
            assert rep.cert.delta <= DELTA_TOL


def test_criterion_3_elimination_oracle():
    with criterion(3, ">=100 oracle trials match to 1e-10*scale; every single "
                      "a/b perturbation by 1e-3 breaks the match above 1e-5"):
        rng = np.random.default_rng(42)
        trials = 0
        while trials < 100:
            n = int(rng.integers(3, 16))
            d = rng.uniform(1e-6, 2.0, n - 1)
            if trials % 2 == 0:
                params = solve_rate_params(n)
            else:
                params = RateParams(n, rng.uniform(1.001, 1.999),
                                    rng.uniform(0.005, 0.4))
            cert = derive_full(params, d)
            dev, tol = oracle_check(cert)
            assert dev <= tol
            # sensitivity: bump each a_i (at [1+i, 2+i]) and b_i (at [2+i, 1+i])
            lam = assemble_lambda(cert)
            target_f, target_gram = rhs_with_errors(cert)
            positions = [(1 + i, 2 + i) for i in range(n)]
            positions += [(2 + i, 1 + i) for i in range(n - 1)]
            for pos in positions:
                lam[pos] += 1e-3
                fcoef, gram = aggregate(lam, params.alpha)
                dev = max(np.abs(fcoef - target_f).max(), np.abs(gram - target_gram).max())
                assert dev >= 1e-5, f"insensitive to bump at {pos} (N={n})"
                lam[pos] -= 1e-3
            trials += 1


def test_criterion_4_rate_parameter_exactness():
    with criterion(4, "alpha(1)=1.5, r(1)=0.125 to 1e-12; closed forms agree "
                      "to relative 1e-14 for N in [1,1e4]; r strictly decreasing"):
        p1 = solve_rate_params(1)
        assert abs(p1.alpha - 1.5) <= 1e-12
        assert abs(p1.r - 0.125) <= 1e-12
        prev_r = None
        import math

        for n in range(1, 10_001):
            alpha, r = solve_rate_params_mp(n, dps=40)
            with mp.workdps(40):
                q = (1 - alpha) ** (2 * n) / 2
                h = 1 / (2 * (2 * n * alpha + 1))
                assert abs(q - h) / h <= 1e-14
            params = solve_rate_params(n)
            assert abs(params.alpha - float(alpha)) <= 2 * math.ulp(params.alpha)
            assert abs(params.r - float(r)) <= 2 * math.ulp(params.r)
            if prev_r is not None:
                assert r < prev_r
            prev_r = r


def test_criterion_5_lower_bound_envelope():
    with criterion(5, "envelope over [0.1,1.99] step 1e-3 dominates r(N) and "
                      "its minimizer lands within one step of alpha(N)"):
        grid = 0.1 + 1e-3 * np.arange(1891)
        assert grid[-1] == pytest.approx(1.99, abs=1e-12)
        for n in (1, 10, 100):
            params = solve_rate_params(n)
            vals = lower_bound_envelope(n, grid)
            assert np.all(vals >= params.r - 1e-12)
            gap = abs(grid[int(np.argmin(vals))] - params.alpha)
            assert gap <= 1e-3 + 1e-12


def test_criterion_6_simulation_formula_agreement():
    with criterion(6, "1-D simulations match the closed forms to 1e-12 for "
                      "N<=50, alpha in {1.0, 1.5, alpha(N)}"):
        for n in range(1, 51):
            balanced = solve_rate_params(n).alpha
            for alpha in (1.0, 1.5, balanced):
                quad = simulate(quadratic, 1.0, alpha, n)
                assert abs(quad.fvals[-1] - quadratic_rate(n, alpha)) <= 1e-12
                delta = 1.0 / (2 * n * alpha + 1.0)
                hub = simulate(huber(delta), 1.0, alpha, n)
                assert abs(hub.fvals[-1] - huber_rate(n, alpha)) <= 1e-12


def test_criterion_7_structural_lambda_checks(sweep300_dir):
    with criterion(7, "every converged certificate: unit column-N sum, "
                      "row-col sums equal eps, exact sparsity, rank-one PSD slack"):
        for path in sweep300_files(sweep300_dir):
            cf = read_certificate(path)
            n = cf.N
            cert = derive_full(params_from_file(cf), cf.d)
            lam = assemble_lambda(cert)
            assert abs(lam[:, -1].sum() - 1.0) <= 1e-12
            row = lam.sum(axis=1)
            col = lam.sum(axis=0)
            gaps = row[1 : 1 + n] - col[1 : 1 + n]
            assert np.max(np.abs(gaps - cert.eps[:n])) <= 1e-12
            assert np.all(lam[~pattern_mask(n)] == 0.0)
            assert slack_psd_check(cert)
            svals = np.linalg.svd(slack_gram(cert), compute_uv=False)
            assert svals[1] <= 1e-10 * svals[0]


def test_criterion_8_file_soundness(sweep300_dir):
    with criterion(8, "verify exits 0 on every sweep file; parsing round-trips "
                      "bit-identically"):
        for path in sweep300_files(sweep300_dir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["verify", str(path)]) == 0
            text = path.read_text()
            cf = parse_certificate(text)
            assert render_certificate(cf) == text
            again = parse_certificate(render_certificate(cf))
            for name in ("d", "a", "b", "c", "eps"):
                np.testing.assert_array_equal(getattr(again, name), getattr(cf, name))
            assert (again.N, again.alpha, again.r, again.delta) == (
                cf.N, cf.alpha, cf.r, cf.delta,
            )
