"""The committed summary of the paper's schedule, `evidence/paper_schedule.csv`:
one row for every size of the README's --segment schedule, each passing
every gate with a positive certificate."""

import csv
import pathlib

import pytest

from pepcert import BALANCE_TOL, solve_rate_params
from pepcert.cli import _parser, _sweep_sizes
from pepcert.recursion import DELTA_TOL
from pepcert.solver import RESIDUAL_TOL

SUMMARY = pathlib.Path(__file__).resolve().parent.parent / "evidence" / "paper_schedule.csv"
README_SCHEDULE = ["sweep", "20160", "--segment", "3:2240:1", "--segment", "2240:8960:320",
                   "--segment", "8960:20160:1600"]


@pytest.fixture(scope="module")
def rows():
    with open(SUMMARY) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_one_row_per_size_of_the_readme_schedule(rows):
    sizes = _sweep_sizes(_parser().parse_args(README_SCHEDULE))
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
