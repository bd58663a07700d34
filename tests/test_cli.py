import ast
import contextlib
import importlib
import io
import multiprocessing
import os
import pathlib
import shlex
import signal
import subprocess
import sys
import time
import types
import warnings

import numpy as np
import pytest

import pepcert
import pepcert.solver as solver_mod
from pepcert import cli
from pepcert.certfile import (
    certificate_file,
    default_path,
    params_from_file,
    parse_certificate,
    read_certificate,
    read_checked,
    write_certificate,
)
from pepcert.rates import solve_rate_params
from pepcert.recursion import derive_full
from pepcert.verifier import oracle_check

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
        # the sweep of the one size makes the check
        code, _, err = run(capsys, "solve", 2)
        assert code == 1
        assert err == "usage error: sizes must increase strictly from N >= 3, got N=2\n"

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
            raise solver_mod.NonConvergence(f"synthetic failure at N={params.N}")

        monkeypatch.setattr(solver_mod, "gauss_newton", failing)
        code, out, err = run(capsys, "solve", 30, "--outdir", tmp_path / "out")
        assert code == 2
        assert out == ""
        assert err.startswith("non-convergence: ") and err.count("\n") == 1
        assert "synthetic failure" in err
        assert list(tmp_path.iterdir()) == []


SWEEP_MAX = 8
SWEEP_SIZES = list(range(3, SWEEP_MAX + 1))


@pytest.fixture(scope="module")
def sweep_reference(tmp_path_factory):
    """`sweep 8` done in full: its stdout lines from the command line, and
    its files as the library writes them, each before the next size is
    solved (the sequential reference)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sweep", str(SWEEP_MAX), "--outdir",
                         str(tmp_path_factory.mktemp("cli"))]) == 0
    files = {}
    outdir = tmp_path_factory.mktemp("library")
    for report in solver_mod.sweep(SWEEP_SIZES):
        path = write_certificate(certificate_file(report.cert),
                                 default_path(outdir, report.cert.params.N))
        with open(path, "rb") as fh:
            files[report.cert.params.N] = fh.read()
    lines = out.getvalue().splitlines()
    return {"header": lines[0], "rows": lines[1:-1], "files": files}


def assert_sweep_output(out, reference, sizes, summary=False):
    lines = out.splitlines()
    rows = lines[1:-1] if summary else lines[1:]
    assert lines[0] == reference["header"]
    assert rows == reference["rows"][:len(sizes)]
    assert [int(row.split()[0]) for row in rows] == sizes


def assert_sweep_files(outdir, reference, sizes):
    assert sorted(p.name for p in outdir.iterdir()) == [f"cert_N{n:05d}.txt" for n in sizes]
    for n in sizes:
        assert (outdir / f"cert_N{n:05d}.txt").read_bytes() == reference["files"][n]


def fail_solve_at(monkeypatch, fail_at, exc_type):
    real = solver_mod.gauss_newton

    def failing(params, d0):
        if params.N == fail_at:
            raise exc_type(f"injected at N={fail_at}")
        return real(params, d0)

    monkeypatch.setattr(solver_mod, "gauss_newton", failing)


def fail_write_at(monkeypatch, fail_at):
    # `sweep` looks up `certfile.write_certificate` at each call, so the
    # patch takes effect
    real = cli.certfile.write_certificate

    def failing(cf, path):
        if cf.N == fail_at:
            raise OSError(f"injected at N={fail_at}")
        return real(cf, path)

    monkeypatch.setattr(cli.certfile, "write_certificate", failing)


class TestSweep:
    def test_single(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", 3, "--outdir", tmp_path)
        assert code == 0
        assert (tmp_path / "cert_N00003.txt").exists()
        assert len(list(tmp_path.glob("cert_*.txt"))) == 1

    def test_n_max_too_small(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", 2, "--outdir", tmp_path)
        assert code == 1
        assert err == "usage error: a sweep needs at least one size\n"
        assert not list(tmp_path.iterdir())

    def test_size_past_memory_mid_sweep_is_usage_error(self, capsys, tmp_path):
        # the file of the size before it stays
        huge = f"{10**15}:{10**15}:1"
        code, _, err = run(capsys, "sweep", 3, "--segment", "3:3:1", "--segment", huge,
                           "--outdir", tmp_path)
        assert code == 1
        assert err.startswith("usage error: does not fit in memory: ")
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cert_N00003.txt"]

    def test_size_without_rate_params_mid_sweep_is_usage_error(self, capsys, tmp_path,
                                                              monkeypatch):
        # alpha(N) rounds to 2 in float64 at 10^17, and at 17471709249816364
        # the balance check fails though a larger size passes it: one usage
        # line, as for `solve`, and nothing is solved or written
        solves = []
        real_gauss_newton = solver_mod.gauss_newton

        def counting_gauss_newton(params, d0):
            solves.append(params.N)
            return real_gauss_newton(params, d0)

        monkeypatch.setattr(solver_mod, "gauss_newton", counting_gauss_newton)
        for sizes in ((3, 10**17), (3, 17471709249816364, 5 * 10**16)):
            argv = [word for n in sizes for word in ("--segment", f"{n}:{n}:1")]
            code, out, err = run(capsys, "sweep", 3, *argv, "--outdir", tmp_path)
            assert code == 1
            assert err.startswith(f"usage error: no float64 rate parameters for N={sizes[1]}: ")
            assert len(err.splitlines()) == 1
            assert out == ""
            assert list(tmp_path.iterdir()) == []
            assert solves == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n", [3, 300])
    def test_one_size_sweep_writes_solves_file(self, capsys, tmp_path, n):
        # both start cold from closed_form_start
        assert cli.main(["solve", str(n), "--outdir", str(tmp_path / "solve")]) == 0
        assert cli.main(["sweep", str(n), "--segment", f"{n}:{n}:1",
                         "--outdir", str(tmp_path / "sweep")]) == 0
        capsys.readouterr()
        name = f"cert_N{n:05d}.txt"
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "solve" / name).read_bytes()

    def test_every_solved_size_passes_the_verify_gate(self, capsys, tmp_path):
        # on this strided schedule the warm start of N=12064 reached
        # sup|eps| <= 1e-13 with delta 1.2e-11, which verify fails; a solve
        # now stops only once delta passes verify's gate too
        sizes = [*range(3, 61), 3061, 6062, 9063, 12064]
        reports = list(solver_mod.sweep(sizes))
        assert [rep.cert.params.N for rep in reports] == sizes
        assert max(rep.cert.delta for rep in reports) <= 1e-11
        path = write_certificate(certificate_file(reports[-1].cert),
                                 default_path(tmp_path, 12064))
        code, out, _ = run(capsys, "verify", path)
        assert code == 0 and "verdict CERTIFIED" in out

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["rates", "10"], ["sweep", "5"]], ids=["rates", "sweep"])
    def test_full_stdout_exits_5(self, tmp_path, argv):
        # every write to /dev/full fails with ENOSPC, so the command's output
        # cannot be written: exit 5 with one line, not a traceback
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "pepcert.cli", *argv], cwd=tmp_path,
                                  stdout=full, stderr=subprocess.PIPE,
                                  env=src_env(PYTHONUNBUFFERED=""), timeout=300)
        err = proc.stderr.decode()
        assert "Traceback" not in err
        assert_write_error(proc.returncode, err)

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
        ("--segment", "2:10:1"),  # starts below N=3
        ("--segment", "3:2:1"),  # ends below its start
        ("--segment", "3:10:0"),
        ("--segment", "3:10:1", "--segment", "2:5:1"),  # a later segment below N=3
        ("--segment", "3:10"),  # no stride
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

    def test_schedule_starts_at_any_size_in_any_segment_order(self, capsys, tmp_path):
        # the first size is solved from the closed form, and the merged sizes
        # are sorted, so neither N=3 nor the order of the segments matters
        for outdir, specs in (("ordered", ["300:400:50"]), ("reversed", ["400:400:1", "300:350:50"])):
            flags = [flag for spec in specs for flag in ("--segment", spec)]
            code, _, _ = run(capsys, "sweep", 400, *flags, "--outdir", tmp_path / outdir)
            assert code == 0
        names = [f"cert_N{n:05d}.txt" for n in (300, 350, 400)]
        assert sorted(p.name for p in (tmp_path / "ordered").iterdir()) == names
        for name in names:
            path = tmp_path / "ordered" / name
            assert path.read_bytes() == (tmp_path / "reversed" / name).read_bytes()
            code, out, _ = run(capsys, "verify", path)
            assert code == 0
            assert out.endswith("verdict CERTIFIED\n")

    # Every exit of a sweep matches the library's sequential reference: the
    # rows and files of the sizes before the failing one, then one line.
    @pytest.mark.parametrize("fail_at", [3, 6, SWEEP_MAX])
    @pytest.mark.parametrize("failure", ["nonconvergence", "memory", "write", "pipe"])
    def test_exit_matches_sequential_reference(self, capsys, tmp_path, monkeypatch,
                                               sweep_reference, failure, fail_at):
        expected_code, expected_err = {
            "nonconvergence": (2, f"non-convergence: injected at N={fail_at}\n"),
            "memory": (1, f"usage error: does not fit in memory: injected at N={fail_at}\n"),
            "write": (5, f"cannot write output: injected at N={fail_at}\n"),
            "pipe": (5, f"cannot write output: injected at N={fail_at}\n"),
        }[failure]
        if failure == "write":
            fail_write_at(monkeypatch, fail_at)
        else:
            fail_solve_at(monkeypatch, fail_at, {"nonconvergence": solver_mod.NonConvergence,
                                                 "memory": MemoryError,
                                                 "pipe": BrokenPipeError}[failure])
        code, out, err = run(capsys, "sweep", SWEEP_MAX, "--outdir", tmp_path)
        assert (code, err) == (expected_code, expected_err)
        assert_sweep_output(out, sweep_reference, [n for n in SWEEP_SIZES if n < fail_at])
        assert_sweep_files(tmp_path, sweep_reference, [n for n in SWEEP_SIZES if n < fail_at])
        assert multiprocessing.active_children() == []

    def test_complete_sweep_matches_sequential_reference(self, capsys, tmp_path,
                                                         sweep_reference):
        code, out, err = run(capsys, "sweep", SWEEP_MAX, "--outdir", tmp_path)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"{len(SWEEP_SIZES)} certificates written to {tmp_path}"
        assert_sweep_output(out, sweep_reference, SWEEP_SIZES, summary=True)
        assert_sweep_files(tmp_path, sweep_reference, SWEEP_SIZES)
        assert multiprocessing.active_children() == []

    def test_write_failure_before_a_solve_failure_exits_5(self, capsys, tmp_path,
                                                          monkeypatch, sweep_reference):
        # the write of N=5 fails and N=6 would not converge: the failed
        # write stops the sweep with exit 5, and no file follows it
        fail_write_at(monkeypatch, 5)
        fail_solve_at(monkeypatch, 6, solver_mod.NonConvergence)
        code, out, err = run(capsys, "sweep", SWEEP_MAX, "--outdir", tmp_path)
        assert (code, err) == (5, "cannot write output: injected at N=5\n")
        assert_sweep_output(out, sweep_reference, [3, 4])
        assert_sweep_files(tmp_path, sweep_reference, [3, 4])
        assert multiprocessing.active_children() == []

    def test_row_printed_after_its_file(self, tmp_path, monkeypatch):
        real = cli.certfile.write_certificate

        def slow_write(cf, path):
            time.sleep(0.02)
            return real(cf, path)

        missing = []

        class Out(io.StringIO):
            def write(self, text):
                fields = text.split()
                if len(fields) == 6 and fields[0].isdigit():
                    n = int(fields[0])
                    if not (tmp_path / f"cert_N{n:05d}.txt").exists():
                        missing.append(n)
                return super().write(text)

        monkeypatch.setattr(cli.certfile, "write_certificate", slow_write)
        out = Out()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sweep", str(SWEEP_MAX), "--outdir", str(tmp_path)]) == 0
        assert len(out.getvalue().splitlines()) == len(SWEEP_SIZES) + 2
        assert missing == []

    def test_escaping_exception_keeps_solved_files(self, capsys, tmp_path, monkeypatch,
                                                   sweep_reference):
        # Ctrl-C is no failure of the exit table: it escapes main
        fail_solve_at(monkeypatch, 7, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["sweep", str(SWEEP_MAX), "--outdir", str(tmp_path)])
        assert_sweep_output(capsys.readouterr().out, sweep_reference, [3, 4, 5, 6])
        assert_sweep_files(tmp_path, sweep_reference, [3, 4, 5, 6])
        assert multiprocessing.active_children() == []

    def test_starts_no_child_process(self, capsys, tmp_path, monkeypatch, sweep_reference):
        def no_fork():
            raise OSError("fork is not available")

        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run(capsys, "sweep", SWEEP_MAX, "--outdir", tmp_path)
        assert (code, err) == (0, "")
        assert_sweep_output(out, sweep_reference, SWEEP_SIZES, summary=True)
        assert_sweep_files(tmp_path, sweep_reference, SWEEP_SIZES)

    def test_redirected_output_has_each_row_once(self, tmp_path):
        # standard output to a file is block-buffered: no line may be
        # written twice or out of order
        out = tmp_path / "sweep.out"
        with open(out, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "pepcert.cli", "sweep", "40",
                 "--outdir", str(tmp_path / "certs")],
                stdout=fh, stderr=subprocess.PIPE, env=src_env(PYTHONUNBUFFERED=""),
                timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert sum(line.split()[:1] == ["N"] for line in lines) == 1
        assert [int(line.split()[0]) for line in lines[1:-1]] == list(range(3, 41))
        assert lines[-1].startswith("38 certificates written")

    def test_ctrl_c_keeps_solved_files(self, tmp_path):
        # Ctrl-C reaches the whole process group; the sweep stops at
        # KeyboardInterrupt and keeps the file of every row it printed
        proc = subprocess.Popen(
            [sys.executable, "-m", "pepcert.cli", "sweep", "400", "--outdir", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(),
            start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            while not (tmp_path / "cert_N00020.txt").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGINT, err
        assert err.rstrip().endswith("KeyboardInterrupt") and "ForkProcess" not in err
        files = sorted(int(p.name[6:11]) for p in tmp_path.iterdir())
        assert files == list(range(3, files[-1] + 1)) and files[-1] < 400
        rows = [int(line.split()[0]) for line in out.splitlines()[1:]]
        assert set(rows) <= set(files)
        for n in files:
            assert read_certificate(tmp_path / f"cert_N{n:05d}.txt").N == n


class TestVerify:
    def test_valid_file(self, capsys, cert_dir):
        code, out, _ = run(capsys, "verify", cert_dir / "cert_N00005.txt")
        assert code == 0
        assert "CERTIFIED" in out

    def test_oracle_flag(self, capsys, cert_dir):
        code, out, _ = run(capsys, "verify", cert_dir / "cert_N00010.txt", "--oracle")
        assert code == 0
        # oracle_deviation X (tolerance Y), Y as oracle_check returns it
        line = next(l for l in out.splitlines() if l.startswith("oracle_deviation"))
        dev, tol = (float(word.strip("()")) for word in line.split()[1::2])
        cert, _ = read_checked(cert_dir / "cert_N00010.txt")
        assert tol == float(f"{oracle_check(cert)[1]:.3e}")
        assert dev <= tol

    def test_oracle_deviation_above_tolerance_fails(self, capsys, cert_dir, monkeypatch):
        # the oracle leg decides the verdict: a positive file with a small
        # delta fails --oracle once its deviation exceeds the tolerance
        monkeypatch.setattr(pepcert.verifier, "oracle_check", lambda cert: (2e-9, 1e-9))
        path = cert_dir / "cert_N00010.txt"
        code, out, _ = run(capsys, "verify", path)
        assert code == 0 and "verdict CERTIFIED" in out
        code, out, _ = run(capsys, "verify", path, "--oracle")
        assert code == 3
        lines = out.splitlines()
        assert "positive True" in lines and "verdict FAILED" in lines
        assert "oracle_deviation 2.000e-09 (tolerance 1.000e-09)" in lines

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

    def test_negative_header_delta_is_corruption(self, capsys, cert_dir, tmp_path):
        # delta sums positive parts, so no writer makes it negative
        cf = read_certificate(cert_dir / "cert_N00005.txt")
        cf.delta = -1.0
        code, out, err = run(capsys, "verify", write_certificate(cf, tmp_path / "neg.txt"))
        assert (code, out) == (4, "")
        assert err == "corrupt certificate: header delta -1.0 is negative\n"

    @pytest.mark.parametrize("command, code, lines", [
        ("verify", 3, ["delta nan", "verdict FAILED"]),
        ("verify --oracle", 3, ["oracle_deviation nan (tolerance inf)", "verdict FAILED"]),
        ("plotdata --outdir OUT", 1, []),
    ], ids=["verify", "verify-oracle", "plotdata"])
    def test_overflowing_d_warns_nothing(self, capsys, cert_dir, tmp_path, command, code,
                                         lines):
        # a finite d whose derivation overflows fails its gates without a
        # numpy RuntimeWarning; plotdata prints one usage line
        cf = read_certificate(cert_dir / "cert_N00005.txt")
        cf.a = cf.b = cf.c = cf.eps = None
        cf.d = np.full(4, 1e200)
        name, *flags = command.replace("OUT", str(tmp_path / "out")).split()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, out, err = run(capsys, name, write_certificate(cf, tmp_path / "big.txt"), *flags)
        assert got == code and set(lines) <= set(out.splitlines())
        assert err.count("\n") == (code == 1)

    @pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["verify", "verify-oracle"])
    def test_overflowing_d_with_stored_vectors_is_corruption(self, capsys, cert_dir, tmp_path,
                                                             flags):
        # the derived vectors are not finite, so they have no rendering: the
        # stored a block is parsed, and its NaN gap is corruption, with no
        # numpy RuntimeWarning
        cf = read_certificate(cert_dir / "cert_N00005.txt")
        cf.d = np.full(4, 1e200)
        path = write_certificate(cf, tmp_path / "big.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "verify", path, *flags)
        assert (code, out) == (4, "")
        assert err == f"corrupt certificate: stored a in {path} deviates from recomputed by nan\n"

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
        assert err.startswith("corrupt certificate: stored ") and err.count("\n") == 1

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
        ("N ", 0, "N 10.5"),  # not an integer
    ])
    def test_non_finite_value_is_corruption(self, capsys, cert_dir, tmp_path,
                                            anchor, offset, value):
        lines = (cert_dir / "cert_N00010.txt").read_text().splitlines()
        idx = next(i for i, line in enumerate(lines) if line.startswith(anchor))
        lines[idx + offset] = value
        bad = tmp_path / "nonfinite.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", bad)
        assert code == 4
        assert "CERTIFIED" not in out
        assert err.startswith("corrupt certificate: ") and err.count("\n") == 1

    def test_nan_gap_is_corruption(self, capsys, cert_dir, monkeypatch):
        # the cross check itself must not pass a NaN, whatever the parser lets
        # in: the a block is parsed, not matched to its rendering, and gets one
        real = cli.certfile._values

        def with_nan(text, name, *rest):
            values = real(text, name, *rest)
            if name == "a":
                values[5] = np.nan
            return values

        monkeypatch.setattr(cli.certfile, "_is_rendering", lambda *args: False)
        monkeypatch.setattr(cli.certfile, "_values", with_nan)
        code, out, err = run(capsys, "verify", cert_dir / "cert_N00010.txt")
        assert code == 4
        assert err.startswith("corrupt certificate: stored a ") and err.count("\n") == 1
        assert "CERTIFIED" not in out


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

    def test_tampered_stored_vector_writes_nothing(self, capsys, cert_dir, tmp_path):
        # the stored-block cross-check of verify: an edited stored a is
        # corruption, and nothing is written
        lines = (cert_dir / "cert_N00005.txt").read_text().splitlines()
        idx = lines.index("a:") + 1
        lines[idx] = repr(float(lines[idx]) + 1e-6)
        bad = tmp_path / "tampered.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code, _, err = run(capsys, "plotdata", cert_dir / "cert_N00010.txt", bad,
                           "--outdir", out)
        assert code == 4
        assert err.startswith("corrupt certificate: stored a ") and err.count("\n") == 1
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
        code, out, err = run(capsys, "envelope", 0)
        assert (code, out, err) == (1, "", "usage error: N must be >= 1, got 0\n")

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
        assert run(capsys, "frobnicate") == (
            1, "", "usage error: argument command: invalid choice: 'frobnicate' "
                   "(choose from 'rates', 'solve', 'sweep', 'verify', 'plotdata', 'envelope')\n")

    def test_no_command(self, capsys):
        assert run(capsys) == (
            1, "", "usage error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv, err", [
        (["verify"], "the following arguments are required: file"),
        (["verify", "cert_N00010.txt", "--bogus"], "unrecognized arguments: --bogus"),
        (["solve", "x"], "argument N: invalid int value: 'x'"),
    ])
    def test_usage_line(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", f"usage error: {err}\n")

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: pepcert [-h] {rates,solve,sweep,verify,plotdata,envelope} ...\n"),
        (["verify", "-h"], "usage: pepcert verify [-h] [--oracle] file\n"),
    ])
    def test_help(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0
        assert out.startswith(usage) and err == ""

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
# codes, then which of the solver's and the writer's heavy imports are loaded
NO_SOLVE_SCRIPT = """
import sys
from pepcert import cli
cert, outdir = sys.argv[1:]
banned = {"scipy", "mpmath", "multiprocessing", "orjson"}
codes = [cli.main(argv) for argv in (["rates", "50"], ["envelope", "10"])]
loaded = [sorted(banned & set(sys.modules))]
# reading a file loads orjson, and nothing else of the list
codes += [cli.main(argv) for argv in (
    ["verify", cert], ["verify", cert, "--oracle"], ["plotdata", cert, "--outdir", outdir])]
loaded.append(sorted(banned & set(sys.modules)))
# scipy loads with the first Gauss-Newton step, not before, and a solve
# loads its compiled LAPACK module alone, not the scipy.linalg package
code = cli.main(["solve", "5", "--outdir", outdir])
print(codes, loaded, code, "scipy" in sys.modules, "scipy.linalg" in sys.modules)
"""


class TestImports:
    def test_commands_that_do_not_solve_load_no_solver(self, cert_dir, tmp_path):
        # a fresh interpreter, since this one has imported scipy already
        proc = subprocess.run(
            [sys.executable, "-c", NO_SOLVE_SCRIPT,
             str(cert_dir / "cert_N00010.txt"), str(tmp_path / "curves")],
            capture_output=True, text=True, env=src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] [[], ['orjson']] 0 True False"
        assert (tmp_path / "curves" / "cert_N00005.txt").is_file()

    def test_checked_read_loads_neither_scipy_nor_cli(self, cert_dir):
        # a library caller gets verify's read without the command line; the
        # package imports the solver module, but no solve runs, so scipy,
        # which the first factorization loads, stays out too
        script = ("import sys\n"
                  "from pepcert.certfile import read_checked\n"
                  "cert, _ = read_checked(sys.argv[1])\n"
                  "print(cert.params.N, sorted({'scipy', 'mpmath', 'pepcert.cli'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(cert_dir / "cert_N00010.txt")],
                              capture_output=True, text=True, env=src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "10 []"

    def test_commands_run_without_mpmath(self, tmp_path):
        # the package's declared dependencies are numpy, scipy and orjson alone
        script = ("import sys\n"
                  "sys.modules['mpmath'] = None  # any import of it fails\n"
                  "from pepcert import cli\n"
                  "out = sys.argv[1]\n"
                  "codes = [cli.main(argv) for argv in (\n"
                  "    ['solve', '300', '--outdir', out], ['sweep', '20', '--outdir', out],\n"
                  "    ['verify', out + '/cert_N00300.txt', '--oracle'])]\n"
                  "print(codes)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0]"

    def test_root_republishes_each_module_all(self):
        # each module's __all__ is the one list of its public names: the
        # root star-imports the five library modules, names no function or
        # class itself, and its public names are their union, none in two
        tree = ast.parse(pathlib.Path(pepcert.__file__).read_text())
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        assert [(node.module, [alias.name for alias in node.names]) for node in imports] == [
            (name, ["*"]) for name in ("certfile", "rates", "recursion", "solver", "verifier")]
        assert not any(isinstance(node, (ast.FunctionDef, ast.ClassDef)) for node in tree.body)
        modules = [importlib.import_module(f"pepcert.{node.module}") for node in imports]
        names = [name for module in modules for name in module.__all__]
        public = {name for name, value in vars(pepcert).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert len(names) == len(public) and set(names) == public
        assert all(getattr(pepcert, name) is getattr(module, name)
                   for module in modules for name in module.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pepcert.no_such_name
