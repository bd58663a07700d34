import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pepcert
import pepcert.solver as solver_mod
from pepcert import cli
from pepcert.certfile import (
    params_from_file,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from pepcert.rates import solve_rate_params
from pepcert.recursion import derive_full

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_env(**extra):
    """The environment of a child interpreter that imports pepcert from src."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_write_error(code, err):
    # exit 5 with one stderr line, not an interpreter traceback
    assert code == 5
    assert err.startswith("cannot write output: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def cert_dir(tmp_path_factory):
    """Certificates for N = 5 and 8..11 solved through the CLI."""
    out = tmp_path_factory.mktemp("certs")
    for n in (5, 8, 9, 10, 11):
        assert cli.main(["solve", str(n), "--outdir", str(out)]) == 0
    return out


class TestRates:
    def test_n1(self, capsys):
        code, out, _ = run(capsys, "rates", 1)
        assert code == 0
        assert "alpha 1.5" in out
        assert "r 0.125" in out

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "rates", 0)
        assert code == 1
        assert "usage" in err

    def test_balance_residual_printed(self, capsys):
        code, out, _ = run(capsys, "rates", 100)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("balance_residual"))
        assert float(line.split()[1]) <= 1e-14

    def test_alpha_rounding_to_two_is_usage_error(self, capsys, tmp_path):
        # alpha(10**17) rounds to 2.0 in float64, outside (1, 2); solve
        # refuses it before it allocates a start of 10**17 entries
        for argv in (["rates", 10**17], ["solve", 10**17, "--outdir", tmp_path]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestSolve:
    def test_writes_valid_file(self, cert_dir):
        cf = read_certificate(cert_dir / "cert_N00005.txt")
        assert cf.N == 5
        assert cf.delta <= 1e-11

    def test_n_too_small(self, capsys):
        code, _, err = run(capsys, "solve", 2)
        assert code == 1

    # the gates and the iteration budget are fixed: even their old defaults
    # are refused, and nothing is solved or written
    @pytest.mark.parametrize("flags", [("--tol", 1e-13), ("--max-iter", 50),
                                       ("--tol", 1, "--max-iter", 0)])
    def test_bad_solver_flags_are_usage_errors(self, capsys, tmp_path, flags):
        code, _, err = run(capsys, "solve", 5, *flags, "--outdir", tmp_path)
        assert code == 1
        assert err.startswith("usage error: unrecognized arguments: " + flags[0])
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_exits_5(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, "solve", 5, "--out", blocker / "c.txt")
        assert_write_error(code, err)

    def test_default_outdir_is_working_directory(self, capsys, tmp_path, monkeypatch):
        # no environment variable moves the default output directory
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv("PEPCERT_OUTDIR", str(elsewhere))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "solve", 5)
        assert code == 0
        assert "wrote ./cert_N00005.txt" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cert_N00005.txt"]

    def test_cold_solve_is_one_gauss_newton(self, capsys, tmp_path, monkeypatch):
        # one solve from the closed-form start, with no continuation chain
        starts = []
        real = solver_mod.gauss_newton

        def recording(params, d0):
            starts.append((params.N, d0))
            return real(params, d0)

        monkeypatch.setattr(solver_mod, "gauss_newton", recording)
        code, out, _ = run(capsys, "solve", 100, "--outdir", tmp_path)
        assert code == 0
        assert "converged True" in out
        assert len(starts) == 1 and starts[0][0] == 100
        np.testing.assert_array_equal(starts[0][1], solver_mod.closed_form_start(100))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cert_N00100.txt"]
        cf = read_certificate(tmp_path / "cert_N00100.txt")
        cert = derive_full(params_from_file(cf), cf.d)
        assert np.max(np.abs(cert.eps)) <= 1e-13
        assert cert.delta <= 1e-11
        assert cert.positive

    def test_cold_solve_matches_sweep(self, capsys, tmp_path):
        # the cold start and the sweep's continuation find the same certificate
        assert cli.main(["solve", "100", "--out", str(tmp_path / "c100.txt")]) == 0
        assert cli.main(["sweep", "100", "--outdir", str(tmp_path / "sweep")]) == 0
        capsys.readouterr()
        cold = read_certificate(tmp_path / "c100.txt").d
        swept = read_certificate(tmp_path / "sweep" / "cert_N00100.txt").d
        assert np.max(np.abs(cold - swept)) <= 1e-12 * np.max(swept)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_size_past_memory_is_usage_error(self, capsys, tmp_path, command):
        # the rate pair of N=10**15 exists in float64, but its first array
        # would take petabytes, which numpy and the list refuse at once
        code, out, err = run(capsys, command, 10**15, "--outdir", tmp_path)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert "does not fit in memory" in err
        assert list(tmp_path.iterdir()) == []

    def test_nonconvergence_exits_2(self, capsys, tmp_path, monkeypatch):
        def failing(params, d0):
            raise solver_mod.NonConvergence("synthetic failure", N=params.N)

        monkeypatch.setattr(solver_mod, "gauss_newton", failing)
        code, out, err = run(capsys, "solve", 30, "--outdir", tmp_path / "out")
        assert code == 2
        assert out == ""
        assert err.startswith("non-convergence: ") and err.count("\n") == 1
        assert "synthetic failure" in err
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_single(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", 3, "--outdir", tmp_path)
        assert code == 0
        assert (tmp_path / "cert_N00003.txt").exists()
        assert len(list(tmp_path.glob("cert_*.txt"))) == 1

    def test_size_past_memory_mid_sweep_is_usage_error(self, capsys, tmp_path):
        # the file of the size before it stays
        huge = f"{10**15}:{10**15}:1"
        code, _, err = run(capsys, "sweep", 3, "--segment", "3:3:1", "--segment", huge,
                           "--outdir", tmp_path)
        assert code == 1
        assert err.startswith("usage error: the sweep does not fit in memory")
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cert_N00003.txt"]

    def test_unwritable_outdir_exits_5(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, "sweep", 3, "--outdir", blocker / "x")
        assert_write_error(code, err)

    def test_write_error_keeps_earlier_files(self, capsys, tmp_path):
        # a directory where the N=5 file goes makes that write fail
        (tmp_path / "cert_N00005.txt").mkdir()
        code, _, err = run(capsys, "sweep", 6, "--outdir", tmp_path)
        assert_write_error(code, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cert_N00003.txt", "cert_N00004.txt", "cert_N00005.txt"]
        assert read_certificate(tmp_path / "cert_N00004.txt").N == 4

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_5(self, tmp_path, unbuffered):
        # the reader of standard output is gone before the sweep prints: a
        # buffered sweep fails at the final flush, after writing every file,
        # an unbuffered one at its first line
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pepcert.cli", "sweep", "5", "--outdir", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE,
                env=src_env(PYTHONUNBUFFERED=unbuffered), timeout=300)
        finally:
            os.close(write_end)
        assert_write_error(proc.returncode, proc.stderr.decode())
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ([] if unbuffered else
                           [f"cert_N{n:05d}.txt" for n in (3, 4, 5)])

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "6", "--outdir", str(a)]) == 0
        assert cli.main(["sweep", "6", "--outdir", str(b)]) == 0
        capsys.readouterr()
        for n in range(3, 7):
            fa = (a / f"cert_N{n:05d}.txt").read_bytes()
            fb = (b / f"cert_N{n:05d}.txt").read_bytes()
            assert fa == fb

    # fixed gates and budget; --segment is the one way to write a stride
    @pytest.mark.parametrize("flags", [("--tol", 1e-13), ("--max-iter", 50),
                                       ("--stride-from", 5), ("--stride", 50)])
    def test_bad_solver_flags_are_usage_errors(self, capsys, tmp_path, flags):
        code, _, err = run(capsys, "sweep", 10, *flags, "--outdir", tmp_path)
        assert code == 1
        assert err.startswith("usage error: unrecognized arguments: " + flags[0])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ("--segment", "5:10:1"),  # does not start at N=3
        ("--segment", "3:2:1"),  # ends below its start
        ("--segment", "3:10:0"),
        ("--segment", "3:10:1", "--segment", "2:5:1"),  # not ordered by start
    ])
    def test_bad_schedule_is_usage_error(self, capsys, tmp_path, flags):
        code, _, err = run(capsys, "sweep", 10, *flags, "--outdir", tmp_path)
        assert code == 1
        assert err.startswith("usage error: ")
        assert not list(tmp_path.iterdir())

    def test_strided_flags(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", 30, "--segment", "3:10:1", "--segment", "10:30:10",
                         "--outdir", tmp_path)
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("cert_*.txt"))
        assert names == [f"cert_N{n:05d}.txt" for n in list(range(3, 11)) + [20, 30]]


class TestVerify:
    def test_valid_file(self, capsys, cert_dir):
        code, out, _ = run(capsys, "verify", cert_dir / "cert_N00005.txt")
        assert code == 0
        assert "CERTIFIED" in out

    def test_oracle_flag(self, capsys, cert_dir):
        code, out, _ = run(capsys, "verify", cert_dir / "cert_N00010.txt", "--oracle")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("oracle_deviation"))
        assert float(line.split()[1]) <= 1e-10

    # the delta and oracle gates are fixed: no value of either flag is taken
    @pytest.mark.parametrize("flags", [
        ("--tol", 1e-11), ("--tol", 1), ("--oracle-tol", 1e-10),
        ("--oracle", "--oracle-tol", 1e-10), ("--oracle", "--oracle-tol", 1),
    ])
    def test_bad_tolerance_is_usage_error(self, capsys, cert_dir, flags):
        code, out, err = run(capsys, "verify", cert_dir / "cert_N00005.txt", *flags)
        assert code == 1
        assert err.startswith("usage error: unrecognized arguments: " + flags[-2])
        assert "verdict" not in out

    def test_inflated_header_delta_fails(self, capsys, cert_dir, tmp_path):
        # a file that claims more error than the gate is not certified, even
        # when its d recomputes to a delta far below it
        lines = (cert_dir / "cert_N00008.txt").read_text().splitlines()
        idx = next(i for i, line in enumerate(lines) if line.startswith("delta "))
        lines[idx] = "delta 0.25"
        bad = tmp_path / "inflated.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", bad)
        assert code == 3
        assert "positive True" in out and "verdict FAILED" in out
        assert "header delta 2.500e-01" in err

    def test_negated_d_with_stored_vectors_is_corruption(self, capsys, cert_dir, tmp_path):
        text = (cert_dir / "cert_N00005.txt").read_text()
        cf = parse_certificate(text)
        lines = text.splitlines()
        idx = lines.index("d:") + 1
        lines[idx] = repr(float(-cf.d[0]))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", bad)
        assert code == 4
        assert "corruption" in err

    def test_negated_d_without_stored_vectors_fails_positivity(
        self, capsys, cert_dir, tmp_path
    ):
        cf = parse_certificate((cert_dir / "cert_N00005.txt").read_text())
        d = cf.d.copy()
        d[0] = -d[0]
        stripped = type(cf)(N=cf.N, alpha=cf.alpha, r=cf.r, delta=cf.delta, d=d)
        from pepcert.certfile import write_certificate

        path = write_certificate(stripped, path=tmp_path / "neg.txt")
        code, out, _ = run(capsys, "verify", path)
        assert code == 3
        assert "positive False" in out

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a certificate\n")
        code, _, err = run(capsys, "verify", path)
        assert code == 4

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "random.txt"
        path.write_bytes(bytes(np.random.default_rng(5).integers(0, 256, 300, dtype=np.uint8)))
        code, _, err = run(capsys, "verify", path)
        assert code == 4
        assert err.startswith("corrupt certificate: ") and err.count("\n") == 1

    def test_tampered_stored_vector(self, capsys, cert_dir, tmp_path):
        text = (cert_dir / "cert_N00005.txt").read_text()
        lines = text.splitlines()
        idx = lines.index("a:") + 1
        lines[idx] = repr(float(lines[idx]) + 1e-6)
        bad = tmp_path / "tampered.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", bad)
        assert code == 4

    @pytest.mark.parametrize("anchor, offset, value", [
        ("a:", 3, "nan"), ("d:", 3, "inf"), ("alpha ", 0, "alpha nan"),
    ])
    def test_non_finite_value_is_corruption(self, capsys, cert_dir, tmp_path,
                                            anchor, offset, value):
        lines = (cert_dir / "cert_N00010.txt").read_text().splitlines()
        idx = next(i for i, line in enumerate(lines) if line.startswith(anchor))
        lines[idx + offset] = value
        bad = tmp_path / "nonfinite.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", bad)
        assert code == 4
        assert "CERTIFIED" not in out

    def test_nan_gap_is_corruption(self, capsys, cert_dir, monkeypatch):
        # the cross check itself must not pass a NaN, whatever the parser lets in
        cf = read_certificate(cert_dir / "cert_N00010.txt")
        cf.a[5] = np.nan
        monkeypatch.setattr(cli.certfile, "read_certificate", lambda path: cf)
        code, out, err = run(capsys, "verify", "any.txt")
        assert code == 4
        assert "corruption" in err and "CERTIFIED" not in out


def small_n_file(path, n):
    """A well-formed file for N < 3, with that N's balanced alpha and r."""
    params = solve_rate_params(n)
    d = "".join("0.5\n" for _ in range(n - 1))
    path.write_text(f"format pepcert/1\nN {n}\nalpha {params.alpha!r}\n"
                    f"r {params.r!r}\ndelta 0.0\nd:\n{d}")
    return path


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", ["verify FILE", "plotdata FILE --outdir OUT"])
def test_n_below_3_is_corruption(capsys, tmp_path, n, command):
    path = small_n_file(tmp_path / "small.txt", n)
    out = tmp_path / "out"
    argv = [{"FILE": path, "OUT": out}.get(word, word) for word in command.split()]
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert err.startswith("corrupt certificate: ") and "N >= 3" in err
    assert not out.exists()


class TestPlotdata:
    def test_normalized_curves(self, capsys, cert_dir, tmp_path):
        code, _, _ = run(capsys, "plotdata", cert_dir / "cert_N00010.txt",
                         "--outdir", tmp_path)
        assert code == 0
        for name, length in (("a", 10), ("b", 9), ("c", 11), ("d", 9)):
            data = np.loadtxt(tmp_path / f"cert_N00010_{name}.dat")
            assert data.shape == (length, 2)
            assert data[:, 1].max() == 1.0
            assert np.all((0.0 <= data) & (data <= 1.0))
            assert data[0, 0] == 0.0 and data[-1, 0] == 1.0

    def test_bad_file_after_good_writes_nothing(self, capsys, cert_dir, tmp_path):
        # every file is read and checked before the output directory is made
        good = cert_dir / "cert_N00010.txt"
        out = tmp_path / "out"
        code, _, err = run(capsys, "plotdata", good, small_n_file(tmp_path / "small.txt", 2),
                           "--outdir", out)
        assert code == 4 and err.startswith("corrupt certificate: ")
        assert not out.exists()

    def test_zero_vector_after_good_writes_nothing(self, capsys, cert_dir, tmp_path):
        # d = 0 and -d (whose maximum is negative) cannot be rescaled to a
        # maximum of 1
        good = cert_dir / "cert_N00010.txt"
        cf = read_certificate(good)
        for name, d in (("zero", np.zeros_like(cf.d)), ("negated", -cf.d)):
            bad = write_certificate(type(cf)(N=cf.N, alpha=cf.alpha, r=cf.r,
                                             delta=cf.delta, d=d), tmp_path / f"{name}.txt")
            out = tmp_path / f"out_{name}"
            code, _, err = run(capsys, "plotdata", good, bad, "--outdir", out)
            assert code == 1 and err.startswith("usage error: vector ")
            assert "; cannot rescale" in err
            assert not out.exists()

    def test_same_base_name_is_usage_error(self, capsys, cert_dir, tmp_path):
        # a/cert_N00010.txt and b/cert_N00010.txt would both write
        # cert_N00010_{a,b,c,d}.dat
        copy = tmp_path / "b" / "cert_N00010.txt"
        copy.parent.mkdir()
        copy.write_bytes((cert_dir / "cert_N00010.txt").read_bytes())
        out = tmp_path / "out"
        code, _, err = run(capsys, "plotdata", cert_dir / "cert_N00010.txt", copy,
                           "--outdir", out)
        assert code == 1 and err.startswith("usage error: ")
        assert not out.exists()

    def test_unwritable_outdir_exits_5(self, capsys, cert_dir, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(capsys, "plotdata", cert_dir / "cert_N00010.txt",
                           "--outdir", blocker)
        assert_write_error(code, err)

    def test_no_files_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "plotdata")
        assert code == 1


class TestEnvelope:
    def test_minimum_marked(self, capsys):
        code, out, _ = run(capsys, "envelope", 1, "--grid", "1.4:1.6:0.01")
        assert code == 0
        starred = next(l for l in out.splitlines() if l.endswith("*"))
        alpha, value = float(starred.split()[0]), float(starred.split()[1])
        assert alpha == pytest.approx(1.5, abs=1e-9)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_single_point_grid(self, capsys):
        code, out, _ = run(capsys, "envelope", 4, "--grid", "1.3:1.3:0.5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "envelope", 4, "--grid", "nope")
        assert code == 1

    @pytest.mark.parametrize("grid", ["0:1:nan", "nan:1:0.1", "0:inf:0.1", "-inf:1:0.1"])
    def test_non_finite_grid(self, capsys, grid):
        code, _, err = run(capsys, "envelope", 10, f"--grid={grid}")
        assert code == 1
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0:1e9:1e-3"])
    def test_grid_point_bound(self, capsys, monkeypatch, grid):
        # an infinite count, or 10^12 + 1 points, is refused before any
        # grid array is allocated
        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange called")

        monkeypatch.setattr(cli.np, "arange", no_arange)
        code, _, err = run(capsys, "envelope", 10, f"--grid={grid}")
        assert code == 1
        assert err.startswith("usage error: ")

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "envelope", 0)
        assert code == 1

    @pytest.mark.parametrize("n, grid", [(5, "-1:0:0.1"), (1, "-0.5:-0.5:1")])
    def test_negative_stepsize_is_usage_error(self, capsys, n, grid):
        # across the Huber rate's pole at alpha = -1/(2N), or at it for N=1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "envelope", n, f"--grid={grid}")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1


def readme_commands():
    """Every `pepcert ...` line of README.md as an argument list, with
    backslash continuations joined and comments dropped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("pepcert ")]


class TestParser:
    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert len(commands) >= 8
        parser = cli.build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except cli._UsageError as exc:
                pytest.fail(f"README command {shlex.join(argv)!r}: {exc}")

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert cli.main(["rates", "3"]) == 0
            assert cli.main(["frobnicate"]) == 1
            assert cli.main(["rates", "0"]) == 1
            assert cli.main(["rates", "4"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


# the commands that do not solve, run in one interpreter; prints the exit
# codes, then which of the solver's heavy imports are loaded
NO_SOLVE_SCRIPT = """
import sys
from pepcert import cli
cert, outdir = sys.argv[1:]
codes = [cli.main(argv) for argv in (
    ["verify", cert], ["verify", cert, "--oracle"], ["rates", "50"],
    ["envelope", "10"], ["plotdata", cert, "--outdir", outdir])]
print(codes, sorted({"scipy", "mpmath", "pepcert.solver"} & set(sys.modules)))
"""


class TestImports:
    def test_commands_that_do_not_solve_load_no_solver(self, cert_dir, tmp_path):
        # a fresh interpreter, since this one has imported the solver already
        proc = subprocess.run(
            [sys.executable, "-c", NO_SOLVE_SCRIPT,
             str(cert_dir / "cert_N00010.txt"), str(tmp_path / "curves")],
            capture_output=True, text=True, env=src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"

    def test_solver_names_resolve_through_the_package(self):
        assert pepcert._SOLVER_NAMES == tuple(solver_mod.__all__)
        names = dir(pepcert)
        assert "solver" in names
        for name in pepcert._SOLVER_NAMES:
            assert name in names
            assert getattr(pepcert, name) is getattr(solver_mod, name)
        assert pepcert.solver is solver_mod
        assert pepcert.sweep is pepcert.solver.sweep
        from pepcert import NonConvergence

        assert NonConvergence is solver_mod.NonConvergence

    def test_solver_names_are_looked_up_each_time(self, monkeypatch):
        # a function replaced on pepcert.solver, as by a monkeypatch or a
        # tracer, is what the package hands out afterwards
        replacement = object()
        monkeypatch.setattr(solver_mod, "sweep", replacement)
        assert pepcert.sweep is replacement

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pepcert.no_such_name
