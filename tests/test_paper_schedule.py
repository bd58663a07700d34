"""The committed summary of the paper's schedule, `evidence/paper_schedule.csv`:
one row for every size of the README's --segment schedule, each passing
every gate with a positive certificate; and the evidence script's rows,
built from certificates in memory, equal those built from their files."""

import csv
import importlib.util
import pathlib

import pytest

from pepcert import (BALANCE_TOL, certificate_file, default_path, read_checked,
                     solve_rate_params, sweep, write_certificate)
from pepcert.cli import segment_sizes
from pepcert.recursion import DELTA_TOL
from pepcert.solver import RESIDUAL_TOL

ROOT = pathlib.Path(__file__).resolve().parent.parent
EVIDENCE = ROOT / "evidence"
SUMMARY = EVIDENCE / "paper_schedule.csv"


@pytest.fixture(scope="module")
def evidence():
    spec = importlib.util.spec_from_file_location("paper_schedule", EVIDENCE / "paper_schedule.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rows():
    with open(SUMMARY) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_one_row_per_size_of_the_readme_schedule(rows, evidence):
    readme = " ".join((ROOT / "README.md").read_text().replace("\\\n", " ").split())
    flags = " ".join(f"--segment {spec}" for spec in evidence.README_SEGMENTS)
    assert f"pepcert sweep 20160 {flags} " in readme
    sizes = segment_sizes(evidence.README_SEGMENTS)
    assert len(rows) == len(sizes) == 2266
    assert [int(row["N"]) for row in rows] == sizes


def test_every_row_passes_every_gate(rows):
    failing = []
    for row in rows:
        num = {name: float(value) for name, value in row.items() if name != "slack"}
        gates = [num["sup_eps"] <= RESIDUAL_TOL, 0.0 <= num["delta"] <= DELTA_TOL,
                 *(0.0 < num[f"{v}_min"] <= num[f"{v}_max"] for v in "abcd"),
                 num["oracle_ratio"] <= 1.0, row["slack"] == "True",
                 abs(num["envelope_gap"]) <= BALANCE_TOL,
                 num["factored"] >= 1, num["chord"] >= 0]
        if not all(gates):
            failing.append(row["N"])
    assert failing == []


def test_rate_parameters_are_the_balancing_pair(rows):
    # stored as the shortest round-tripping decimal, so exactly
    for row in rows:
        params = solve_rate_params(int(row["N"]))
        assert (float(row["alpha"]), float(row["r"])) == (params.alpha, params.r)


def test_row_from_memory_equals_row_from_the_file(tmp_path, evidence):
    # the script checks each certificate as it is solved and writes no file;
    # a certificate written by `write_certificate` and read back as `verify`
    # reads it gives the same row, timings aside
    timing = {evidence.COLUMNS.index("solve_s"), evidence.COLUMNS.index("check_s")}

    def untimed(row):
        return [field for i, field in enumerate(row) if i not in timing]

    for report in sweep([*range(3, 41), 60, 120]):
        steps = (report.iterations, report.chord_steps)
        row, failed = evidence.summary_row(report.cert, *steps, 0.0)
        path = default_path(tmp_path, report.cert.params.N)
        write_certificate(certificate_file(report.cert), path)
        cert, _ = read_checked(path)
        again, failed_again = evidence.summary_row(cert, *steps, 0.0)
        assert untimed(again) == untimed(row)
        assert failed == failed_again == []
