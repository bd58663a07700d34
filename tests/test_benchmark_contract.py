"""The package calls of the benchmark's worker, `perfbench/worker.py`, run
through the worker's own functions: a change that breaks one of them fails
here, not only in a benchmark run."""

import os
import pathlib
import random

import pytest

import pepcert
from pepcert import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # the worker imports its checker from there
        import worker

        yield worker


@pytest.fixture(scope="module")
def setup_certs(worker, tmp_path_factory):
    """The directory of the cold-oracle workload's set-up sweep."""
    certs = str(tmp_path_factory.mktemp("certs"))
    code, out, err = worker.invoke(cli, worker.COLD_SETUP + ["--outdir", certs])
    assert code == 0, err
    sizes = worker.schedule(worker.COLD_SETUP)
    assert f"{len(sizes)} certificates written" in out
    assert sorted(os.listdir(certs)) == [f"cert_N{n:05d}.txt" for n in sizes]
    return certs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_control_gets_its_exit_code(worker, setup_certs, tmp_path, seed):
    source = worker.cert_path(setup_certs, worker.ORACLE_N)
    controls = worker.make_controls(source, str(tmp_path), random.Random(seed))
    assert len(controls) == 4
    for control in controls:
        code, _, err = worker.invoke(cli, ["verify", control["path"]])
        assert code == control["expect"], (control["name"], err)


def test_cold_solve_then_verify_with_the_oracle_and_slack_check(worker, setup_certs,
                                                                tmp_path):
    code, out, err = worker.invoke(cli, ["solve", str(worker.COLD_N), "--outdir", str(tmp_path)])
    assert code == 0, err
    solved = worker.cert_path(str(tmp_path), worker.COLD_N)
    assert "converged True" in out and f"wrote {solved}" in out
    for path in (solved, worker.cert_path(setup_certs, worker.ORACLE_N)):
        code, out, err = worker.invoke(cli, ["verify", path, "--oracle"])
        assert code == 0 and "verdict CERTIFIED" in out, err
        assert worker.slack_check(pepcert, path) is True


def test_checker_self_test_solve(worker, tmp_path):
    # the solve of perfbench/test_checker.py, to a file named by --out
    path = str(tmp_path / "cert.txt")
    code, _, err = worker.invoke(cli, ["solve", "60", "--out", path])
    assert code == 0, err
    assert os.path.isfile(path)
