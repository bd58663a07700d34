import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

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

    def test_warm_start(self, capsys, cert_dir, tmp_path):
        code, out, _ = run(
            capsys, "solve", 12,
            "--warm", cert_dir / "cert_N00010.txt", cert_dir / "cert_N00011.txt",
            "--out", tmp_path / "c12.txt",
        )
        assert code == 0
        iters = int(next(l for l in out.splitlines() if l.startswith("iterations")).split()[1])
        assert iters <= 15
        assert (tmp_path / "c12.txt").exists()

    def test_warm_start_matches_sweep(self, capsys, cert_dir, tmp_path):
        # the sweep warms N=12 from N=8..11; the file order does not matter
        warm = [cert_dir / f"cert_N{n:05d}.txt" for n in (11, 9, 8, 10)]
        code, _, _ = run(capsys, "solve", 12, "--warm", *warm, "--out", tmp_path / "c12.txt")
        assert code == 0
        assert cli.main(["sweep", "12", "--outdir", str(tmp_path / "sweep")]) == 0
        capsys.readouterr()
        swept = (tmp_path / "sweep" / "cert_N00012.txt").read_bytes()
        assert (tmp_path / "c12.txt").read_bytes() == swept

    def test_warm_same_n_different_d_is_usage_error(self, capsys, cert_dir, tmp_path):
        cf = read_certificate(cert_dir / "cert_N00010.txt")
        other = type(cf)(N=cf.N, alpha=cf.alpha, r=cf.r, delta=cf.delta, d=cf.d * 1.01)
        path = write_certificate(other, path=tmp_path / "other.txt")
        code, _, err = run(capsys, "solve", 12,
                           "--warm", cert_dir / "cert_N00010.txt", path,
                           "--out", tmp_path / "c12.txt")
        assert code == 1
        assert "usage error" in err
        assert not (tmp_path / "c12.txt").exists()
        five = [cert_dir / f"cert_N{n:05d}.txt" for n in (5, 8, 9, 10, 11)]
        assert cli.main(["solve", "12", "--warm", *map(str, five)]) == 1

    def test_cold_solve_doubling_chain(self, capsys, tmp_path, monkeypatch):
        solved = []
        real = solver_mod.continue_from

        def recording(sources, n, **kw):
            solved.append(n)
            return real(sources, n, **kw)

        monkeypatch.setattr(solver_mod, "continue_from", recording)
        code, out, _ = run(capsys, "solve", 100, "--outdir", tmp_path)
        assert code == 0
        assert "converged True" in out
        assert [3] + solved == list(range(3, 21)) + [40, 80, 100]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cert_N00100.txt"]
        cf = read_certificate(tmp_path / "cert_N00100.txt")
        cert = derive_full(params_from_file(cf), cf.d)
        assert np.max(np.abs(cert.eps)) <= 1e-13
        assert cert.delta <= 1e-11
        assert cert.positive


class TestSweep:
    def test_single(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", 3, "--outdir", tmp_path)
        assert code == 0
        assert (tmp_path / "cert_N00003.txt").exists()
        assert len(list(tmp_path.glob("cert_*.txt"))) == 1

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
        path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pepcert.cli", "sweep", "5", "--outdir", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
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
@pytest.mark.parametrize("command", ["verify FILE", "plotdata FILE --outdir OUT",
                                     "solve 5 --warm FILE --outdir OUT"])
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
        # d = 0 cannot be rescaled to a maximum of 1
        good = cert_dir / "cert_N00010.txt"
        cf = read_certificate(good)
        zero = write_certificate(type(cf)(N=cf.N, alpha=cf.alpha, r=cf.r, delta=cf.delta,
                                          d=np.zeros_like(cf.d)), tmp_path / "zero.txt")
        out = tmp_path / "out"
        code, _, err = run(capsys, "plotdata", good, zero, "--outdir", out)
        assert code == 1 and "has max 0" in err
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
