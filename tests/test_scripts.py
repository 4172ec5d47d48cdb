import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meemi

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TREE = Path(meemi.__file__).resolve().parent.parent.parent  # the tree under test


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_stages_smoke(child_env, tmp_path):
    """The stage bench runs every job at its small sizes and writes the whole record."""
    out = tmp_path / "bench.json"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_stages.py"), "--tiny", "--out", str(out)],
        capture_output=True, text=True, env=child_env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(out.read_text())
    assert record["mismatches"] == []
    env = record["environment"]
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert env["numpy"] == np.__version__ and env["cpus"] >= 1
    stages = record["inprocess"]["stages"]
    io = ["save_space", "load_space_sidecar", "load_space_text"]
    assert list(stages)[-3:] == io and len(stages) == 14
    for name, numbers in stages.items():
        assert numbers["wall_s"] >= 0
        if name not in io:  # traced: the peak is at least what was live at the start
            assert 0 <= numbers["traced_base_mib"] <= numbers["traced_peak_mib"]
    assert list(record["large"]["pipeline"]["stages"]) == [
        "load_space_src_text", "load_space_tgt_text", "align_supervised",
        "fit_meemi+apply_meemi", "save_space_source", "save_space_target"]
    processes = [record[job]["process"] for job in ("inprocess", "stretched")]
    processes += [record["large"]["fixture"], record["large"]["pipeline"]["process"]]
    processes += list(record["cli"]["commands"].values())
    assert len(processes) == 9 and all(p["peak_rss_mib"] > 0 for p in processes)
    quality = record["inprocess"]["quality"]
    assert quality["self_learning_iterations"] == 3
    blocks = [quality, *record["stretched"]["quality"]["seeds"]]
    assert len(blocks) == 3
    for block in blocks:
        for state in ("aligned", "refined"):
            for p in block[state].values():
                assert 0 <= p["P@1"] <= p["P@5"] <= p["P@10"] <= 1
    assert 0 <= quality["shift"]["fraction_positive"] <= 1
    stretched = record["stretched"]["quality"]
    for block in stretched["seeds"]:
        for key in ("spearman", "mono_spearman"):
            assert all(-1 <= rho <= 1 for rho in block[key].values())
    assert -1 <= stretched["min_spearman_gain"] <= 1
    assert -1 <= stretched["min_mono_spearman_gain"] <= 1
    cli = record["cli"]["quality"]
    assert cli["refined"]["csls"] == pytest.approx(quality["refined"]["csls"], abs=5e-7)


def test_bench_stages_names_each_cli_mismatch():
    library = {"aligned": {"csls": {"P@1": 0.7373333}}, "refined": {"csls": {"P@1": 0.724}}}
    cli = {"aligned": {"csls": {"P@1": 0.737333}}, "refined": {"csls": {"P@1": 0.725}}}
    record = {"inprocess": {"quality": library}, "cli": {"quality": cli}}
    assert load_script("bench_stages").csls_mismatches(record) == [
        "refined P@1: library 0.724000, cli 0.725000"]


def test_same_outputs_smoke(tmp_path):
    """The byte-identity check's command list runs at tiny sizes on the tree
    under test, and its runs with and without ``os.fork`` agree."""
    same_outputs = load_script("same_outputs")
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
    assert load_script("same_outputs").meemi_lines(TREE) == int(total)
