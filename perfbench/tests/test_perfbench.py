"""Tests of the benchmark itself: oracle, metric names, metric coverage.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from meemi import cli, refinement, retrieval  # noqa: E402
from meemi.embeddings import EmbeddingSpace  # noqa: E402
from meemi.lexicon import BilingualLexicon  # noqa: E402
from meemi.solvers import LinearMap  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {
    "bli_eval": dict(vocab=420, dim=300, sigma=1.0, train_pairs=300, test_queries=80, csls_k=10),
    "self_learn": dict(vocab=420, dim=300, sigma=0.5, seed_pairs=300, test_queries=80,
                       induction_cap=200, iterations=2),
    "cli_roundtrip": dict(vocab=420, dim=300, sigma=1.0, train_pairs=300, test_queries=80,
                          similarity_pairs=100, taxonomy_vocab=1200, taxonomy_sigma=1.0),
}


def _space(rng, n, d=16):
    return EmbeddingSpace([f"w{i}" for i in range(n)], rng.standard_normal((n, d)))


def test_oracle_agrees_with_library_and_rejects_misordered_topk():
    rng = np.random.default_rng(0)
    target, queries = _space(rng, 200), rng.standard_normal((12, 16))
    got = retrieval.batch_cosine_topk(target, queries, 10)
    want = oracle.reference_cosine_topk(target.matrix, queries, 10)
    assert oracle.topk_mismatch(got, want) is None
    idx = got[0].copy()
    idx[3, [1, 2]] = idx[3, [2, 1]]
    assert "ranked differently" in oracle.topk_mismatch((idx, got[1]), want)


def test_check_retrieval_counts_a_misordered_library_result(monkeypatch):
    rng = np.random.default_rng(1)
    target, source = _space(rng, 200), _space(rng, 150)
    queries = rng.standard_normal((8, 16))
    checks = workloads.Checks()
    oracle.check_retrieval(checks, "ok", target, queries, 10, 5, source=source)
    assert checks.attempted == 3 and not checks.failures

    real = retrieval.batch_csls_topk

    def swapped(*args, **kwargs):
        idx, scores = real(*args, **kwargs)
        return idx[:, ::-1], scores[:, ::-1]

    monkeypatch.setattr(retrieval, "batch_csls_topk", swapped)
    oracle.check_retrieval(checks, "bad", target, queries, 10, 5, source=source)
    assert len(checks.failures) == 1 and "bad CSLS" in checks.failures[0]


def test_tie_case_rejects_ties_sent_to_the_higher_index(monkeypatch):
    checks = workloads.Checks()
    oracle.check_ties(checks)
    assert checks.attempted == 2 and not checks.failures

    def high_ties(space, queries, k, threads=None):
        scores = np.atleast_2d(queries) @ space.matrix.T
        descending_index = np.broadcast_to(-np.arange(scores.shape[1]), scores.shape)
        order = np.lexsort((descending_index, -scores), axis=-1)[:, :k]
        return order, np.take_along_axis(scores, order, axis=1)

    monkeypatch.setattr(retrieval, "batch_cosine_topk", high_ties)
    oracle.check_ties(checks)
    assert checks.failures == ["tie case cosine order: [[6, 2, 0, 5], [4, 1, 6, 5], [5, 6, 4, 3]]"]


def test_one_failed_check_fails_its_whole_pass(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.BliEval, "sizes", TINY["bli_eval"])
    monkeypatch.setattr(oracle, "check_ties", lambda checks: checks.require(False, "tie case"))
    result, report = harness.run("bli_eval", 3, 0.01, False, ROOT, tmp_path / "work")
    assert report["failures"] == ["tie case: failed"] and not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= harness.MIN_PASSES
    assert result["metrics"]["ops_ok_frac"]["value"] == 1.0 - 1.0 / result["attempted"]


def _spearman_as_pearson(real):
    def eval_similarity(*args, **kwargs):
        report = real(*args, **kwargs)
        report.metrics["spearman_rho"] = report.metrics["pearson_r"]
        return report
    return eval_similarity


@pytest.mark.parametrize("name, module, attr, sabotage, failure", [
    ("bli_eval", refinement, "fit_meemi",
     lambda real: lambda aligned, lex: real(aligned, BilingualLexicon(lex.pairs[::2])),
     "refined spaces vs reference midpoint maps"),
    ("cli_roundtrip", cli, "eval_similarity", _spearman_as_pearson,
     "similarity spearman_rho vs reference"),
    ("cli_roundtrip", cli, "fit_hypernym_projection",
     lambda real: lambda space, train: LinearMap(np.eye(real(space, train).d_in)),
     "hypernym MRR vs reference"),
])
def test_reference_checks_reject_wrong_quality(name, module, attr, sabotage, failure,
                                               monkeypatch, tmp_path):
    workload = workloads.WORKLOADS[name]()
    monkeypatch.setattr(workload, "sizes", TINY[name])
    monkeypatch.setattr(module, attr, sabotage(getattr(module, attr)))
    inputs = workload.setup(3, tmp_path / "work")
    checks = workloads.Checks()
    workload.check(inputs, workload.run_pass(inputs), checks, first=True)
    assert [f.split(":")[0] for f in checks.failures] == [failure]


def test_metric_names_are_valid_and_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracing.metric_specs()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_named_metric_appears(name, trace, monkeypatch, tmp_path):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "sizes", TINY[name])
    result, report = harness.run(name, 3, 0.01, bool(trace), ROOT, tmp_path / "work")
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert set(report["quality"]) == set(cls.units)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert metrics["ops_ok_frac"] == 1.0
        assert metrics["p1_cos"] == report["quality"][cls.headline]["value"] > 0
        return
    called = {
        "bli_eval": ["retrieval.build_index", "retrieval.batch_csls_topk", "refinement.fit_meemi"],
        "self_learn": ["alignment.induce_dictionary", "alignment.mean_pair_cosine"],
        "cli_roundtrip": ["cli.align", "embeddings.load_space", "evaluation.eval_hypernyms"],
    }[name]
    for span in called:
        assert metrics[f"{span}.calls"] > 0, span
    if name == "cli_roundtrip":
        assert metrics["cli.align.s"] > metrics["cli.align.self_s"] > 0
        assert metrics["retrieval.build_index.calls"] == 0


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bli_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
