"""Self-test of the independent checker: it accepts a certificate pepcert
writes and rejects corrupted copies of it.

    python3 -m pytest perfbench/test_checker.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
from pepcert import cli  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def text(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.txt"
    assert cli.main(["solve", "60", "--out", str(path)]) == 0
    return path.read_text()


def test_accepts_solver_output(text):
    cert = checker.check_text(text, SEED)
    assert cert["N"] == 60


@pytest.mark.parametrize("index", range(60))
def test_rejects_each_a_entry_bumped(text, index):
    bumped = checker.edit_entry(text, "a", index, lambda v: repr(v * (1 + 1e-6)))
    with pytest.raises(checker.Rejected, match="identity"):
        checker.check_text(bumped, SEED)


@pytest.mark.parametrize("corrupt", [
    lambda t: checker.edit_entry(t, "a", 30, lambda v: "nan"),
    lambda t: t[: len(t) // 2],
    lambda t: checker.edit_entry(t, "d", 5, lambda v: repr(-v)),
    lambda t: checker.drop_blocks(t),
    lambda t: t.replace("alpha 1.", "alpha 1.0000000001", 1),
    lambda t: checker.edit_entry(t, "eps", 0, lambda v: "1e-12"),
], ids=["nan-a", "truncated", "negative-d", "d-only", "alpha", "eps"])
def test_rejects_corrupted_copies(text, corrupt):
    with pytest.raises(checker.Rejected):
        checker.check_text(corrupt(text), SEED)
