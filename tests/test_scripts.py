import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import meemi

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TREE = Path(meemi.__file__).resolve().parent.parent.parent  # the tree under test


def load_same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPTS / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    return same_outputs


def test_synthetic_benchmark_smoke(child_env):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "synthetic_benchmark.py"), "--vocab", "200", "--dim", "10",
         "--train-pairs", "40", "--test-pairs", "60"],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "vocab=200 dim=10 train=40 test=60 seed=42"
    rows = lines[2:]
    assert len(rows) == 6  # one per default noise level
    for row in rows:
        base_cos, ref_cos = row.split(" | ")[3].split(" -> ")
        assert -1.0 <= float(base_cos) <= 1.0 and -1.0 <= float(ref_cos) <= 1.0


def test_same_outputs_smoke(tmp_path):
    """The byte-identity check's command list runs at tiny sizes on the tree
    under test, and its runs with and without ``os.fork`` agree."""
    same_outputs = load_same_outputs()
    record = same_outputs.run_tree(TREE, tmp_path / "work", tiny=True)
    fork, nofork = record["fork"], record["nofork"]
    assert same_outputs.differences(fork, nofork, "fork->nofork") == []
    exits = [run["exit"] for run in fork["commands"]]
    assert exits == [0] * (len(exits) - 2) + [1, 1]  # the dictionary that resolves nothing
    assert sum(name.endswith(".npz") for name in fork["files"]) >= 10
    assert (fork["forks"] > 0) == hasattr(os, "fork") and nofork["forks"] == 0


@pytest.mark.skipif(shutil.which("wc") is None, reason="needs wc")
def test_same_outputs_counts_lines_as_wc_does():
    paths = sorted((TREE / "src" / "meemi").glob("*.py"))
    total = subprocess.run(["wc", "-l", *map(str, paths)], capture_output=True, text=True,
                           check=True).stdout.splitlines()[-1].split()[0]
    assert load_same_outputs().meemi_lines(TREE) == int(total)
