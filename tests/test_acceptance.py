"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Timed criteria assert their wall-clock budget.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from meemi.alignment import SpacePair, align_supervised
from meemi.embeddings import EmbeddingSpace, load_space, save_space
from meemi.evaluation import (
    eval_bli,
    eval_hypernyms,
    eval_similarity,
    fit_hypernym_projection,
)
from meemi.fixtures import (
    SyntheticSpec,
    make_hub_set,
    make_rotated_pair,
    make_taxonomy,
)
from meemi.lexicon import BilingualLexicon, HypernymDataset, SimilarityDataset
from meemi.refinement import apply_meemi, fit_meemi, similarity_shift_report
from meemi.retrieval import batch_cosine_topk, batch_csls_topk, build_index
from meemi.solvers import LinearMap, fit_least_squares, fit_procrustes
from test_alignment import lexicon_cosine
from test_scripts import load_script


def announce(number, message):
    print(f"PASS criterion {number}: {message}")


def pairwise_cosines(matrix):
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    return unit @ unit.T


def test_criterion_01_solver_orthogonality():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((50, 300))
        b = rng.standard_normal((50, 300))
        w = fit_procrustes(a, b).matrix
        worst = max(worst, float(np.abs(w.T @ w - np.eye(300)).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    announce(1, f"100 Procrustes fits, max orthogonality defect {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_least_squares_oracle():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_grad = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        a = rng.standard_normal((200, 20))
        b = rng.standard_normal((200, 20))
        x = fit_least_squares(a, b).matrix
        oracle = np.linalg.inv(a.T @ a) @ (a.T @ b)
        rel = np.linalg.norm(x - oracle) / np.linalg.norm(oracle)
        gradient = 2.0 * a.T @ (a @ x - b)
        grad_ratio = np.abs(gradient).max() / np.abs(a.T @ b).max()
        worst_rel = max(worst_rel, float(rel))
        worst_grad = max(worst_grad, float(grad_ratio))
    elapsed = time.perf_counter() - start
    assert worst_rel <= 1e-6
    assert worst_grad <= 1e-6
    assert elapsed < 2.0
    announce(2, f"20 problems, rel err {worst_rel:.2e}, grad ratio {worst_grad:.2e} in {elapsed:.2f}s")


def test_criterion_03_rotation_recovery():
    start = time.perf_counter()
    exact = make_rotated_pair(SyntheticSpec(1000, 50, noise_sigma=0.0, seed=42))
    train = BilingualLexicon(exact.gold.pairs[:100])
    test = BilingualLexicon(exact.gold.pairs[100:300])
    pair = align_supervised(exact.src, exact.tgt, train)
    p1_exact = eval_bli(pair, test, ks=(1,)).metrics["P@1"]
    noisy = make_rotated_pair(SyntheticSpec(1000, 50, noise_sigma=0.01, seed=42))
    pair_noisy = align_supervised(
        noisy.src, noisy.tgt, BilingualLexicon(noisy.gold.pairs[:100])
    )
    p1_noisy = eval_bli(
        pair_noisy, BilingualLexicon(noisy.gold.pairs[100:300]), ks=(1,)
    ).metrics["P@1"]
    elapsed = time.perf_counter() - start
    assert p1_exact == 1.0
    assert p1_noisy >= 0.95
    assert elapsed < 10.0
    announce(3, f"P@1 exact={p1_exact} noisy={p1_noisy} in {elapsed:.2f}s")


def test_criterion_04_refinement_brings_pairs_closer():
    start = time.perf_counter()
    fx = make_rotated_pair(SyntheticSpec(1000, 50, noise_sigma=0.05, seed=42))
    train = BilingualLexicon(fx.gold.pairs[:100])
    test = BilingualLexicon(fx.gold.pairs[100:300])
    pair = align_supervised(fx.src, fx.tgt, train)
    baseline_cos = lexicon_cosine(pair.source, pair.target, train)
    baseline_p1 = eval_bli(pair, test, ks=(1,)).metrics["P@1"]
    refined = apply_meemi(fit_meemi(pair, train), pair)
    refined_cos = lexicon_cosine(refined.source, refined.target, train)
    refined_p1 = eval_bli(refined, test, ks=(1,)).metrics["P@1"]
    shift = similarity_shift_report(pair, refined, train)
    elapsed = time.perf_counter() - start
    assert refined_cos > baseline_cos
    assert shift.fraction_positive >= 0.9
    assert baseline_p1 - refined_p1 <= 0.02
    assert elapsed < 10.0
    announce(
        4,
        f"train cosine {baseline_cos:.4f}->{refined_cos:.4f}, "
        f"fraction+ {shift.fraction_positive:.2f}, P@1 {baseline_p1}->{refined_p1} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_05_exact_interpolation():
    rng = np.random.default_rng(77)
    dim = 24
    n_pairs = 20
    src = EmbeddingSpace([f"s{i}" for i in range(n_pairs)], rng.standard_normal((n_pairs, dim)))
    tgt = EmbeddingSpace([f"t{i}" for i in range(n_pairs)], rng.standard_normal((n_pairs, dim)))
    lexicon = BilingualLexicon(list(zip(src.vocab, tgt.vocab)))
    pair = SpacePair(src, tgt)
    model = fit_meemi(pair, lexicon)
    mu = (src.matrix + tgt.matrix) / 2.0
    src_residual = np.linalg.norm(src.matrix @ model.map_src.matrix - mu, axis=1).max()
    tgt_residual = np.linalg.norm(tgt.matrix @ model.map_tgt.matrix - mu, axis=1).max()
    refined = apply_meemi(model, pair)
    cos = lexicon_cosine(refined.source, refined.target, lexicon)
    assert src_residual <= 1e-8
    assert tgt_residual <= 1e-8
    assert abs(cos - 1.0) <= 1e-6
    announce(5, f"residuals {max(src_residual, tgt_residual):.2e}, train cosine {cos:.8f}")


def test_criterion_06_isometry_contrast():
    fx = make_rotated_pair(SyntheticSpec(1000, 50, noise_sigma=0.05, seed=42))
    train = BilingualLexicon(fx.gold.pairs[:100])
    pair = align_supervised(fx.src, fx.tgt, train)
    normalized_src = pair.source.matrix @ pair.map.matrix.T  # undo the orthogonal map
    sample = slice(0, 120)
    alignment_change = np.abs(
        pairwise_cosines(pair.source.matrix[sample])
        - pairwise_cosines(normalized_src[sample])
    ).max()
    refined = apply_meemi(fit_meemi(pair, train), pair)
    refinement_change = np.abs(
        pairwise_cosines(refined.source.matrix[sample])
        - pairwise_cosines(pair.source.matrix[sample])
    ).max()
    assert alignment_change <= 1e-9
    assert refinement_change > 1e-3
    announce(
        6,
        f"alignment cosine change {alignment_change:.2e} vs refinement {refinement_change:.2e}",
    )


def test_criterion_07_retrieval_oracles():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(5, 1001))
        d = int(rng.integers(2, 16))
        matrix = rng.standard_normal((n, d))
        space = EmbeddingSpace([f"w{i}" for i in range(n)], matrix)
        query = rng.standard_normal(d)
        unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        cos = unit @ (query / np.linalg.norm(query))
        expected = sorted(range(n), key=lambda i: (-cos[i], i))
        k = int(rng.integers(1, n + 1))
        idx, _ = batch_cosine_topk(space, query, k=k)
        assert list(idx[0]) == expected[:k]
        csls_k = int(rng.integers(1, min(n, 10)))
        sims = unit @ unit.T
        np.fill_diagonal(sims, -np.inf)
        density = np.sort(sims, axis=1)[:, -csls_k:].mean(axis=1)
        r_query = np.sort(cos)[-csls_k:].mean()
        csls = 2.0 * cos - r_query - density
        expected_csls = sorted(range(n), key=lambda i: (-csls[i], i))
        index = build_index(space, csls_k=csls_k)
        idx_csls, _ = batch_csls_topk(index, query, k=k)
        assert list(idx_csls[0]) == expected_csls[:k]
    hub = make_hub_set(0)
    hub_row = hub.targets.vocab.index(hub.hub_token)
    cos_idx, _ = batch_cosine_topk(hub.targets, hub.queries.matrix, k=1)
    index = build_index(hub.targets, csls_k=10)
    csls_idx, _ = batch_csls_topk(index, hub.queries.matrix, k=1)
    cosine_hub_wins = int((cos_idx[:, 0] == hub_row).sum())
    csls_hub_wins = int((csls_idx[:, 0] == hub_row).sum())
    assert csls_hub_wins < cosine_hub_wins
    announce(
        7,
        f"50 oracle-equal instances; hub wins cosine {cosine_hub_wins} -> csls {csls_hub_wins}",
    )


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(31)
    # correlations against direct formulas on 50 random points
    preds = rng.uniform(-0.95, 0.95, size=50)
    golds = rng.uniform(0, 10, size=50)
    tokens, rows, triples = [], [], []
    for i, (p, g) in enumerate(zip(preds, golds)):
        angle = np.arccos(p)
        tokens += [f"a{i}", f"b{i}"]
        rows += [[1.0, 0.0], [np.cos(angle), np.sin(angle)]]
        triples.append((f"a{i}", f"b{i}", float(g)))
    space = EmbeddingSpace(tokens, np.array(rows))
    report = eval_similarity(SpacePair(space, space), SimilarityDataset(triples))
    dx, dy = golds - golds.mean(), preds - preds.mean()
    pearson = float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))
    def ranks(v):
        order = np.argsort(v)
        out = np.empty(len(v))
        out[order] = np.arange(1, len(v) + 1)
        return out
    rx, ry = ranks(golds), ranks(preds)
    dxr, dyr = rx - rx.mean(), ry - ry.mean()
    spearman = float((dxr * dyr).sum() / np.sqrt((dxr * dxr).sum() * (dyr * dyr).sum()))
    assert report.metrics["pearson_r"] == pytest.approx(pearson, abs=1e-10)
    assert report.metrics["spearman_rho"] == pytest.approx(spearman, abs=1e-10)

    # micro-case 1: two BLI queries, gold at ranks 3 and 1
    targets = EmbeddingSpace(
        ["t1", "t2", "gold_a", "t4"],
        np.array([[1.0, 0, 0], [0.9, 0.436, 0], [0.6, 0.8, 0], [0, 0, 1.0]]),
    )
    sources = EmbeddingSpace(["a", "q"], np.array([[1.0, 0, 0], [0, 0, 1.0]]))
    bli_pair = SpacePair(sources, targets)
    bli = eval_bli(bli_pair, BilingualLexicon([("a", "gold_a"), ("q", "t4")]), ks=(1, 5))
    assert bli.metrics["P@1"] == 0.5 and bli.metrics["P@5"] == 1.0

    # micro-cases 2 and 3: hypernym gold at rank 1, then at rank 2 only
    ranked = EmbeddingSpace(
        ["query", "c1", "c2", "c3"],
        np.array([[1.0, 0.0], [0.98, 0.199], [0.9, 0.436], [0.6, 0.8]]),
    )
    top = eval_hypernyms(SpacePair(ranked, ranked), LinearMap(np.eye(2)),
                         HypernymDataset([("query", ["c1"])]))
    assert top.metrics["MRR"] == 1.0 and top.metrics["MAP"] == 1.0 and top.metrics["P@5"] == 1.0
    second = eval_hypernyms(SpacePair(ranked, ranked), LinearMap(np.eye(2)),
                            HypernymDataset([("query", ["c2"])]))
    assert second.metrics["MRR"] == 0.5
    assert second.metrics["MAP"] == 0.5
    assert second.metrics["P@5"] == 1.0

    # P@k monotone in k on random predictions
    fx = make_rotated_pair(SyntheticSpec(80, 6, noise_sigma=1.5, seed=8))
    noisy_pair = align_supervised(fx.src, fx.tgt, BilingualLexicon(fx.gold.pairs[:30]))
    monotone = eval_bli(noisy_pair, fx.gold, ks=(1, 2, 3, 5, 10, 20, 40))
    values = list(monotone.metrics.values())
    assert values == sorted(values)
    announce(8, "correlation oracles, three worked micro-cases, P@k monotonicity")


def test_criterion_09_hypernym_recovery():
    start = time.perf_counter()
    clean = make_taxonomy(SyntheticSpec(500, 50, noise_sigma=0.0, seed=7))
    projection = fit_hypernym_projection(SpacePair(clean.space, clean.space), clean.train)
    recovery = np.abs(projection.matrix - clean.true_map.matrix).max()
    clean_mrr = eval_hypernyms(SpacePair(clean.space, clean.space), projection, clean.test,
                               k=15).metrics["MRR"]
    noisy = make_taxonomy(SyntheticSpec(500, 50, noise_sigma=0.05, seed=7))
    noisy_projection = fit_hypernym_projection(SpacePair(noisy.space, noisy.space), noisy.train)
    noisy_mrr = eval_hypernyms(SpacePair(noisy.space, noisy.space), noisy_projection, noisy.test,
                               k=15).metrics["MRR"]
    elapsed = time.perf_counter() - start
    assert recovery <= 1e-6
    assert clean_mrr == 1.0
    assert noisy_mrr >= 0.8
    assert elapsed < 10.0
    announce(
        9,
        f"map recovery {recovery:.2e}, MRR clean={clean_mrr} noisy={noisy_mrr} in {elapsed:.2f}s",
    )


def run_pipeline(workdir, env):
    def cli(*args):
        result = subprocess.run(
            [sys.executable, "-m", "meemi", *args],
            capture_output=True,
            text=True,
            cwd=workdir,
            env=env,
        )
        assert result.returncode == 0, result.stderr
    cli(
        "fixture", "rotated", "--vocab", "300", "--dim", "20", "--sigma", "0.05",
        "--seed", "42", "--out", "fx",
    )
    cli(
        "align", "--src", "fx/src.vec", "--tgt", "fx/tgt.vec", "--dict", "fx/gold.dict",
        "--out", "aligned",
    )
    cli(
        "refine", "--src", "aligned/source_mapped.vec",
        "--tgt", "aligned/target_normalized.vec", "--dict", "fx/gold.dict",
        "--out", "refined",
    )
    cli(
        "eval", "bli", "--src", "refined/source_refined.vec",
        "--tgt", "refined/target_refined.vec", "--test", "fx/gold.dict",
        "--k", "1,5", "--format", "tsv", "--out", "report.tsv",
    )


def test_criterion_10_cli_determinism(tmp_path, child_env):
    for name in ("run1", "run2"):
        (tmp_path / name).mkdir()
        run_pipeline(tmp_path / name, child_env)
    files = sorted(
        p.relative_to(tmp_path / "run1") for p in (tmp_path / "run1").rglob("*") if p.is_file()
    )
    assert files, "pipeline produced no files"
    for rel in files:
        first = (tmp_path / "run1" / rel).read_bytes()
        second = (tmp_path / "run2" / rel).read_bytes()
        assert first == second, f"{rel} differs between runs"
    announce(10, f"{len(files)} pipeline files byte-identical across two runs "
                 "(only fixture takes --seed)")


def test_criterion_11_format_round_trip(tmp_path):
    fx = make_rotated_pair(SyntheticSpec(1000, 50, noise_sigma=0.3, seed=6))
    path = tmp_path / "space.vec"
    save_space(fx.src, path)
    back = load_space(path)
    assert back.vocab == fx.src.vocab
    error = np.abs(back.matrix - fx.src.matrix).max()
    assert error <= 1e-6
    announce(11, f"1000-word round trip, max component error {error:.2e}")


def test_criterion_12_refinement_beats_alignment_on_non_isometric_spaces():
    bench = load_script("bench_stages")  # its stretched job runs this experiment too
    start = time.perf_counter()
    gains = {"cosine": [], "csls": [], "spearman": []}
    for seed in range(5):
        src, tgt, gold = bench.stretched_noisy_pair(seed, 2000, 100)
        train = BilingualLexicon(gold.pairs[:1000])
        test = BilingualLexicon(gold.pairs[1000:1500])
        aligned = align_supervised(src, tgt, train)
        refined = apply_meemi(fit_meemi(aligned, train), aligned)
        for retrieval in ("cosine", "csls"):
            before = eval_bli(aligned, test, retrieval=retrieval, ks=(1,)).metrics["P@1"]
            after = eval_bli(refined, test, retrieval=retrieval, ks=(1,)).metrics["P@1"]
            gains[retrieval].append(after - before)
        cross = bench.held_out_similarity(src, test.pairs, 1000, seed)
        before, after = (eval_similarity(state, cross).metrics["spearman_rho"]
                         for state in (aligned, refined))
        gains["spearman"].append(after - before)
    elapsed = time.perf_counter() - start
    for name in ("cosine", "csls"):
        assert min(gains[name]) >= 0.05, (name, gains[name])
    assert min(gains["spearman"]) >= 0.02, gains["spearman"]
    assert elapsed < 30.0
    announce(
        12,
        f"held-out P@1 gain over 5 seeds at least {min(gains['cosine']):+.3f} cosine, "
        f"{min(gains['csls']):+.3f} CSLS; cross-lingual Spearman gain at least "
        f"{min(gains['spearman']):+.3f} in {elapsed:.2f}s",
    )
