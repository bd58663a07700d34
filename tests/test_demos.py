"""Every demo script, and every Python block of README.md, runs to completion
against the package sources."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv, tmp_path):
    """Run a fresh interpreter in tmp_path that imports pepcert from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # demos that write files put them under the temporary directory
    env["TMPDIR"] = str(tmp_path)
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run(tmp_path):
    # each block as written, in its own interpreter: the quick start, then the
    # sweep that writes certs/ under the working directory
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 2
    outputs = []
    for block in blocks:
        done = run_python(["-c", block], tmp_path)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].splitlines()[-1].startswith("True ")  # cert.positive
    assert sorted(path.name for path in (tmp_path / "certs").iterdir()) == [
        f"cert_N{n:05d}.txt" for n in range(3, 101)]
