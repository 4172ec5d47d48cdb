import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from meemi.alignment import SpacePair, align_supervised
from meemi.embeddings import EmbeddingSpace
from meemi.evaluation import (
    RETRIEVAL_MODES,
    EvalReport,
    _pearson,
    _spearman,
    eval_bli,
    eval_hypernyms,
    eval_similarity,
    fit_hypernym_projection,
)
from meemi.fixtures import SyntheticSpec, make_rotated_pair, make_taxonomy
from meemi.lexicon import BilingualLexicon, HypernymDataset, SimilarityDataset
from meemi.retrieval import batch_cosine_topk, batch_csls_topk, build_index
from meemi.solvers import LinearMap, fit_least_squares


def pearson_oracle(x, y):
    """Direct-formula Pearson correlation."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx, dy = x - x.mean(), y - y.mean()
    return float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))


def average_ranks(values):
    """1-based ranks with ties sharing their average rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_oracle(x, y):
    return pearson_oracle(average_ranks(x), average_ranks(y))


def bli_oracle(pair, lexicon, ks):
    """From-scratch P@k: full-vocabulary ranking per unique source token."""
    tgt = pair.target.matrix / np.linalg.norm(pair.target.matrix, axis=1, keepdims=True)
    golds = {}
    for s, t in lexicon.pairs:
        golds.setdefault(s, set()).add(t)
    hits = {k: 0 for k in ks}
    queries = 0
    for source, targets in golds.items():
        i = pair.source.index_of(source)
        gold_idx = {pair.target.index_of(t) for t in targets} - {None}
        if i is None or not gold_idx:
            continue
        queries += 1
        q = pair.source.matrix[i]
        scores = tgt @ (q / np.linalg.norm(q))
        ranking = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
        for k in ks:
            if any(j in gold_idx for j in ranking[:k]):
                hits[k] += 1
    return {f"P@{k}": hits[k] / queries for k in ks}


class TestEvalBli:
    def micro_pair(self):
        # query a: gold at rank 3; query q: gold at rank 1
        targets = EmbeddingSpace(
            ["t1", "t2", "gold_a", "t4"],
            np.array([[1.0, 0, 0], [0.9, 0.436, 0], [0.6, 0.8, 0], [0, 0, 1.0]]),
        )
        sources = EmbeddingSpace(
            ["a", "q"], np.array([[1.0, 0, 0], [0, 0, 1.0]])
        )
        lexicon = BilingualLexicon([("a", "gold_a"), ("q", "t4")])
        return SpacePair(sources, targets), lexicon

    def test_micro_case(self):
        pair, lexicon = self.micro_pair()
        report = eval_bli(pair, lexicon, ks=(1, 5))
        assert report.metrics["P@1"] == 0.5
        assert report.metrics["P@5"] == 1.0

    def test_perfect_alignment_all_ones(self):
        fx = make_rotated_pair(SyntheticSpec(120, 10, noise_sigma=0.0, seed=0))
        pair = align_supervised(fx.src, fx.tgt, fx.gold)
        report = eval_bli(pair, fx.gold, ks=(1, 5, 10))
        assert report.metrics == {"P@1": 1.0, "P@5": 1.0, "P@10": 1.0}

    def test_any_gold_member_counts(self):
        targets = EmbeddingSpace(["x", "y"], np.array([[1.0, 0], [0, 1.0]]))
        sources = EmbeddingSpace(["a"], np.array([[1.0, 0]]))
        lexicon = BilingualLexicon([("a", "y"), ("a", "x")])
        report = eval_bli(SpacePair(sources, targets), lexicon, ks=(1,))
        assert report.metrics["P@1"] == 1.0

    def test_oov_source_skipped_and_counted(self):
        pair, lexicon = self.micro_pair()
        extended = BilingualLexicon(lexicon.pairs + [("missing", "t1")])
        report = eval_bli(pair, extended, ks=(1,))
        assert report.resolved == 2
        assert report.total == 3

    def test_oov_gold_dropped_query_skipped_when_empty(self):
        pair, lexicon = self.micro_pair()
        extended = BilingualLexicon(lexicon.pairs + [("a", "nowhere")])
        report = eval_bli(pair, extended, ks=(1,))
        assert report.resolved == 2

    def test_no_queries_errors(self):
        pair, _ = self.micro_pair()
        with pytest.raises(ValueError, match="no evaluable"):
            eval_bli(pair, BilingualLexicon([("missing", "t1")]), ks=(1,))

    def test_matches_full_ranking_oracle(self):
        fx = make_rotated_pair(SyntheticSpec(300, 16, noise_sigma=0.6, seed=1))
        pair = align_supervised(fx.src, fx.tgt, BilingualLexicon(fx.gold.pairs[:80]))
        test = BilingualLexicon(fx.gold.pairs[80:250])
        report = eval_bli(pair, test, ks=(1, 5, 10))
        assert report.metrics == bli_oracle(pair, test, (1, 5, 10))

    def test_csls_retrieval_mode(self):
        fx = make_rotated_pair(SyntheticSpec(100, 8, noise_sigma=0.1, seed=2))
        pair = align_supervised(fx.src, fx.tgt, fx.gold)
        report = eval_bli(pair, fx.gold, retrieval="csls", ks=(1,))
        assert report.retrieval == "csls"
        assert 0.0 <= report.metrics["P@1"] <= 1.0

    def test_unknown_retrieval_mode(self):
        pair, lexicon = self.micro_pair()
        with pytest.raises(ValueError, match="unknown retrieval mode 'dot'"):
            eval_bli(pair, lexicon, retrieval="dot")

    def test_scaling_invariance(self):
        fx = make_rotated_pair(SyntheticSpec(80, 8, noise_sigma=0.4, seed=3))
        pair = align_supervised(fx.src, fx.tgt, BilingualLexicon(fx.gold.pairs[:30]))
        test = BilingualLexicon(fx.gold.pairs[30:])
        baseline = eval_bli(pair, test, ks=(1, 5)).metrics
        for source_scale, target_scale in ((7.0, 1.0), (1.0, 3.0), (7.0, 3.0)):
            scaled = SpacePair(
                EmbeddingSpace(pair.source.vocab, pair.source.matrix * source_scale),
                EmbeddingSpace(pair.target.vocab, pair.target.matrix * target_scale),
            )
            assert eval_bli(scaled, test, ks=(1, 5)).metrics == baseline

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_precision_monotone_in_k(self, seed):
        fx = make_rotated_pair(SyntheticSpec(60, 6, noise_sigma=1.0, seed=seed))
        pair = align_supervised(fx.src, fx.tgt, BilingualLexicon(fx.gold.pairs[:20]))
        report = eval_bli(pair, fx.gold, ks=(1, 2, 5, 10, 20))
        values = [report.metrics[f"P@{k}"] for k in (1, 2, 5, 10, 20)]
        assert values == sorted(values)


class TestEvalSimilarity:
    def space_with(self, tokens, matrix):
        return EmbeddingSpace(tokens, np.asarray(matrix, dtype=float))

    def angled_space(self, scores, seed=0):
        # place pairs (ai, bi) at angles whose cosine equals scores[i]
        tokens, rows = [], []
        for i, s in enumerate(scores):
            angle = np.arccos(s)
            tokens += [f"a{i}", f"b{i}"]
            rows += [[1.0, 0.0], [np.cos(angle), np.sin(angle)]]
        return self.space_with(tokens, rows)

    def dataset_for(self, golds, preds):
        return SimilarityDataset(
            [(f"a{i}", f"b{i}", g) for i, g in enumerate(golds)]
        ), self.angled_space(preds)

    def test_perfect_agreement(self):
        golds = [0.9, 0.5, 0.1, -0.4]
        dataset, space = self.dataset_for(golds, golds)
        report = eval_similarity(SpacePair(space, space), dataset)
        assert report.metrics["pearson_r"] == pytest.approx(1.0, abs=1e-9)
        assert report.metrics["spearman_rho"] == pytest.approx(1.0, abs=1e-9)

    def test_perfect_inversion(self):
        golds = [0.9, 0.5, 0.1, -0.4]
        dataset, space = self.dataset_for(golds, golds[::-1])
        inverted = SimilarityDataset(
            [(w1, w2, -g) for (w1, w2, g) in dataset.triples]
        )
        report = eval_similarity(SpacePair(space, space), inverted)
        assert report.metrics["spearman_rho"] == pytest.approx(
            -spearman_oracle(golds[::-1], golds), abs=1e-9
        )

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(4)
        preds = rng.uniform(-0.95, 0.95, size=50)
        golds = rng.uniform(0, 10, size=50)
        dataset, space = self.dataset_for(list(golds), list(preds))
        report = eval_similarity(SpacePair(space, space), dataset)
        assert report.metrics["pearson_r"] == pytest.approx(
            pearson_oracle(golds, preds), abs=1e-10
        )
        assert report.metrics["spearman_rho"] == pytest.approx(
            spearman_oracle(golds, preds), abs=1e-10
        )

    def test_tied_predictions_use_average_ranks(self):
        preds = [0.5, 0.5, 0.9, 0.1, 0.9]
        golds = [1.0, 2.0, 3.0, 0.5, 4.0]
        dataset, space = self.dataset_for(golds, preds)
        report = eval_similarity(SpacePair(space, space), dataset)
        assert report.metrics["spearman_rho"] == pytest.approx(
            spearman_oracle(golds, preds), abs=1e-10
        )

    def test_unresolved_triples_skipped(self):
        dataset, space = self.dataset_for([1.0, 2.0, 3.0], [0.1, 0.5, 0.9])
        noisy = SimilarityDataset(dataset.triples + [("ghost", "b0", 5.0)])
        report = eval_similarity(SpacePair(space, space), noisy)
        assert report.resolved == 3
        assert report.total == 4

    def test_too_few_triples(self):
        dataset, space = self.dataset_for([1.0], [0.3])
        with pytest.raises(ValueError, match="at least 2"):
            eval_similarity(SpacePair(space, space), dataset)

    def test_zero_variance_names_series(self):
        dataset, space = self.dataset_for([1.0, 2.0], [0.4, 0.4])
        with pytest.raises(ValueError, match="predicted"):
            eval_similarity(SpacePair(space, space), dataset)
        dataset2, space2 = self.dataset_for([2.0, 2.0], [0.1, 0.8])
        with pytest.raises(ValueError, match="gold"):
            eval_similarity(SpacePair(space2, space2), dataset2)

    def test_spearman_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        golds = list(rng.uniform(-3, 3, size=30))
        preds = list(rng.uniform(-0.9, 0.9, size=30))
        dataset, space = self.dataset_for(golds, preds)
        # cubing the predicted cosines is strictly monotone on [-1, 1]
        _, cubed_space = self.dataset_for(golds, [p ** 3 for p in preds])
        rho = eval_similarity(SpacePair(space, space), dataset).metrics["spearman_rho"]
        rho_cubed = eval_similarity(SpacePair(cubed_space, cubed_space),
                                    dataset).metrics["spearman_rho"]
        assert rho_cubed == pytest.approx(rho, abs=1e-12)
        # same invariance when the gold side is transformed instead
        cubed_gold = SimilarityDataset([(a, b, g ** 3) for a, b, g in dataset.triples])
        rho_gold = eval_similarity(SpacePair(space, space), cubed_gold).metrics["spearman_rho"]
        assert rho_gold == pytest.approx(rho, abs=1e-12)


def correlation_series(n, seed, kind):
    """Two random series of length n. ``ties`` rounds them to one decimal;
    ``offset`` puts them near 1e150 with spreads of 1e155, whose squared
    deviations overflow unless scaled first; ``negative`` makes y a
    decreasing linear function of x."""
    x, y = np.random.default_rng(seed).standard_normal((2, n))
    if kind == "ties":
        x, y = x.round(1), y.round(1)
    elif kind == "offset":
        x, y = 1e150 + 1e155 * x, 1e150 + 1e155 * y
    elif kind == "negative":
        y = 3.0 - 2.0 * x
    return x, y


class TestCorrelationsMatchScipy:
    KINDS = ("plain", "ties", "offset", "negative")

    # at n == 2 the unrounded r of seed 0 is off +-1 by an ulp in every kind
    @given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
    @example(n=2, seed=0, kind="plain")
    @example(n=2, seed=0, kind="ties")
    @example(n=2, seed=0, kind="offset")
    @example(n=2, seed=0, kind="negative")
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, n, seed, kind):
        x, y = correlation_series(n, seed, kind)
        assume(np.ptp(x) > 0 and np.ptp(y) > 0)
        assert _pearson(x, y) == stats.pearsonr(x, y).statistic
        assert _spearman(x, y) == stats.spearmanr(x, y).statistic

    def test_offset_series_need_the_scaling(self):
        x, _ = correlation_series(50, 1, "offset")
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(x - x.mean()))
        assert _pearson(x, x) == 1.0


class TestHypernymProjection:
    def test_self_mapping_gives_identity(self):
        rng = np.random.default_rng(6)
        space = EmbeddingSpace([f"w{i}" for i in range(30)], rng.standard_normal((30, 6)))
        train = HypernymDataset([(t, [t]) for t in space.vocab])
        projection = fit_hypernym_projection(SpacePair(space, space), train)
        assert np.abs(projection.matrix - np.eye(6)).max() <= 1e-8

    def test_recovers_generating_map(self):
        tax = make_taxonomy(SyntheticSpec(200, 10, noise_sigma=0.0, seed=7))
        projection = fit_hypernym_projection(SpacePair(tax.space, tax.space), tax.train)
        assert np.abs(projection.matrix - tax.true_map.matrix).max() <= 1e-6

    def test_all_oov_errors(self):
        rng = np.random.default_rng(8)
        space = EmbeddingSpace(["a"], rng.standard_normal((1, 3)))
        with pytest.raises(ValueError, match="no training pair"):
            fit_hypernym_projection(SpacePair(space, space), HypernymDataset([("x", ["y"])]))


class TestEvalHypernyms:
    def ranked_space(self):
        # from "query", candidates rank c1 then c2 then c3 (query excluded)
        return EmbeddingSpace(
            ["query", "c1", "c2", "c3"],
            np.array(
                [[1.0, 0.0], [0.98, 0.199], [0.9, 0.436], [0.6, 0.8]]
            ),
        )

    def test_first_candidate_gold(self):
        space = self.ranked_space()
        test = HypernymDataset([("query", ["c1"])])
        report = eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(2)), test, k=15)
        assert report.metrics["MRR"] == 1.0

    def test_gold_at_rank_two(self):
        space = self.ranked_space()
        test = HypernymDataset([("query", ["c2"])])
        report = eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(2)), test, k=15)
        assert report.metrics["MRR"] == 0.5
        assert report.metrics["MAP"] == 0.5
        assert report.metrics["P@5"] == 1.0

    def test_query_token_excluded_from_candidates(self):
        space = self.ranked_space()
        test = HypernymDataset([("query", ["query", "c1"])])
        report = eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(2)), test, k=15)
        # the self-candidate can never be retrieved, c1 is rank 1
        assert report.metrics["MRR"] == 1.0

    def test_gold_outside_topk_scores_zero(self):
        space = self.ranked_space()
        test = HypernymDataset([("query", ["c3"])])
        report = eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(2)), test, k=1)
        assert report.metrics["MRR"] == 0.0
        assert report.metrics["MAP"] == 0.0

    def test_taxonomy_noiseless_perfect(self):
        tax = make_taxonomy(SyntheticSpec(200, 10, noise_sigma=0.0, seed=9))
        projection = fit_hypernym_projection(SpacePair(tax.space, tax.space), tax.train)
        report = eval_hypernyms(SpacePair(tax.space, tax.space), projection, tax.test, k=15)
        assert report.metrics["MRR"] == 1.0

    def test_aligned_pair_retrieves_from_target_only(self):
        rng = np.random.default_rng(10)
        src = EmbeddingSpace(["q1"], rng.standard_normal((1, 4)))
        tgt = EmbeddingSpace(["h1", "h2"], rng.standard_normal((2, 4)))
        pair = SpacePair(src, tgt)
        test = HypernymDataset([("q1", ["h1", "h2"])])
        report = eval_hypernyms(pair, LinearMap(np.eye(4)), test, k=2)
        assert report.metrics["MRR"] == 1.0

    def test_fold_resolved_query_drops_its_own_row(self):
        space = EmbeddingSpace(
            ["cat", "animal", "dog", "fish"],
            np.array([[1.0, 0, 0], [0.9, 0.1, 0], [0, 1.0, 0], [0, 0, 1.0]]),
        )
        for query in ("cat", "Cat"):
            test = HypernymDataset([(query, ["animal"])])
            report = eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(3)), test, k=1)
            assert report.metrics["MRR"] == 1.0, query

    def test_zero_resolvable_queries(self):
        space = self.ranked_space()
        with pytest.raises(ValueError, match="no test query"):
            eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(2)),
                           HypernymDataset([("zz", ["c1"])]))

    def test_unknown_retrieval_mode(self):
        test = HypernymDataset([("query", ["c1"])])
        with pytest.raises(ValueError, match="unknown retrieval mode 'dot'"):
            eval_hypernyms(SpacePair(self.ranked_space(), self.ranked_space()),
                           LinearMap(np.eye(2)), test, retrieval="dot")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_mrr_bounds_map(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        space = EmbeddingSpace(
            [f"w{i}" for i in range(n)], rng.standard_normal((n, 5))
        )
        entries = []
        for q in range(5):
            golds = list(
                {f"w{int(i)}" for i in rng.integers(0, n, size=rng.integers(1, 6))}
            )
            entries.append((space.vocab[q], golds))
        report = eval_hypernyms(SpacePair(space, space), LinearMap(np.eye(5)),
                                HypernymDataset(entries), k=10)
        assert report.metrics["MRR"] >= report.metrics["MAP"] - 1e-12


class TestEvalReport:
    def test_text_format(self):
        report = EvalReport("bli", "test.dict", "cosine", {"P@1": 0.5}, 10, 12)
        text = report.to_text()
        assert "P@1" in text and "0.5000" in text and "10/12" in text

    def test_tsv_format(self):
        report = EvalReport("bli", "test.dict", "cosine", {"P@1": 0.5}, 10, 12)
        lines = report.to_tsv().splitlines()
        assert "task\tbli" in lines
        assert "P@1\t0.500000" in lines

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EvalReport("bli", "x", "cosine", {"P@1": float("nan")}, 1, 1)


def vector(space, token):
    i = space.index_of(token)
    return None if i is None else space.matrix[i]


def joint_vector(space, token):
    if isinstance(space, SpacePair):
        v = vector(space.source, token)
        return v if v is not None else vector(space.target, token)
    return vector(space, token)


def topk(queries, candidates, k, retrieval, csls_k, density_space=None):
    if retrieval == "cosine":
        return batch_cosine_topk(candidates, queries, k)[0]
    index = build_index(candidates, csls_k, source_space=density_space)
    return batch_csls_topk(index, queries, k)[0]


def reference_bli(aligned, lexicon, retrieval, ks, csls_k):
    """eval_bli as a loop over tokens."""
    gold_tokens = {}
    for s, t in lexicon.pairs:
        gold_tokens.setdefault(s, []).append(t)
    queries, gold_sets = [], []
    for source, targets in gold_tokens.items():
        v = vector(aligned.source, source)
        gold = {aligned.target.index_of(t) for t in targets} - {None}
        if v is None or not gold:
            continue
        queries.append(v)
        gold_sets.append(gold)
    idx = topk(np.vstack(queries), aligned.target, max(ks), retrieval, csls_k,
               aligned.source if retrieval == "csls" else None)
    first_hit = np.full(len(queries), np.inf)
    for q, gold in enumerate(gold_sets):
        for rank, j in enumerate(idx[q]):
            if j in gold:
                first_hit[q] = rank
                break
    metrics = {f"P@{k}": float((first_hit < k).mean()) for k in ks}
    return EvalReport("bli", "", retrieval, metrics, len(queries), len(gold_tokens))


def reference_similarity(space_a, space_b, dataset):
    """(pearson, spearman, resolved) of eval_similarity as a loop over triples."""
    preds, golds = [], []
    for w1, w2, gold in dataset.triples:
        v1, v2 = vector(space_a, w1), vector(space_b, w2)
        if v1 is None or v2 is None:
            continue
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 == 0.0 or n2 == 0.0:
            continue
        preds.append(float(v1 @ v2 / (n1 * n2)))
        golds.append(gold)
    return (stats.pearsonr(golds, preds).statistic, stats.spearmanr(golds, preds).statistic,
            len(preds))


def reference_projection(space, train):
    """fit_hypernym_projection as a loop over (query, gold) tokens."""
    inputs, targets = [], []
    for query, golds in train.entries:
        qv = joint_vector(space, query)
        if qv is None:
            continue
        for gold in golds:
            gv = joint_vector(space, gold)
            if gv is not None:
                inputs.append(qv)
                targets.append(gv)
    return fit_least_squares(np.vstack(inputs), np.vstack(targets))


def reference_hypernyms(space, projection, test, k, retrieval, csls_k):
    """eval_hypernyms as a loop over tokens; like eval_hypernyms it drops
    the query's own row (``index_of``), which a fold-resolved query reaches too."""
    candidates = space.target if isinstance(space, SpacePair) else space
    queries, gold_sets, own = [], [], []
    for query, golds in test.entries:
        qv = joint_vector(space, query)
        gold = {candidates.index_of(g) for g in golds} - {None}
        if qv is None or not gold:
            continue
        queries.append(qv)
        gold_sets.append(gold)
        own.append(candidates.index_of(query))
    idx = topk(np.vstack(queries) @ projection.matrix, candidates,
               min(k + 1, len(candidates)), retrieval, csls_k)
    rr, ap, p5 = [], [], []
    for q, gold in enumerate(gold_sets):
        ranked = [j for j in idx[q] if j != own[q]][:k]
        hits = [rank for rank, j in enumerate(ranked, start=1) if j in gold]
        rr.append(1.0 / hits[0] if hits else 0.0)
        precisions = [n / rank for n, rank in enumerate(hits, start=1)]
        ap.append((float(np.mean(precisions)) if hits else 0.0) / min(len(gold), k))
        p5.append(sum(1 for rank in hits if rank <= 5) / min(len(gold), 5))
    metrics = {"MRR": float(np.mean(rr)), "MAP": float(np.mean(ap)), "P@5": float(np.mean(p5))}
    return EvalReport("hypernym", "", retrieval, metrics, len(queries), len(test.entries))


def awkward_pair(seed, d=4):
    """Random spaces whose tokens the lexicons below reach exactly, through
    the lowercase fold, or not at all. ``Cat`` and ``cat`` are both source
    tokens; ``only_t`` and the ``t*`` tokens are target tokens only, and
    ``both`` is a token of each space."""
    rng = np.random.default_rng(seed)
    src = EmbeddingSpace([f"s{i}" for i in range(24)] + ["dog", "Cat", "cat", "both"],
                         rng.standard_normal((28, d)))
    tgt = EmbeddingSpace([f"t{i}" for i in range(30)] + ["hund", "only_t", "both"],
                         rng.standard_normal((33, d)))
    return SpacePair(src, tgt)


def with_zero_row(space):
    return EmbeddingSpace(space.vocab + ["zero"], np.vstack([space.matrix, np.zeros(space.dim)]))


AWKWARD_LEXICON = BilingualLexicon(
    [(f"s{i}", f"t{i}") for i in range(8, 24)]
    + [("s0", "t0"), ("S1", "t1"), ("s2", "T2"), ("s2", "t2"), ("s3", "t3"), ("s3", "t4"),
       ("Dog", "hund"), ("dog", "hund"), ("dog", "t9"), ("ghost", "t5"), ("s4", "nowhere"),
       ("s5", "nowhere"), ("s5", "t5"), ("Cat", "t6"), ("cat", "t7"), ("CAT", "t8"),
       ("S6", "T6"), ("s7", "only_t")]
)


class TestRowPathMatchesTokenLoop:
    """Each evaluation equals its token-by-token loop on fold-resolved,
    out-of-vocabulary and repeated tokens."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("retrieval", RETRIEVAL_MODES)
    def test_bli(self, seed, retrieval):
        pair = awkward_pair(seed)
        report = eval_bli(pair, AWKWARD_LEXICON, retrieval, ks=(1, 2, 5), csls_k=3)
        assert report == reference_bli(pair, AWKWARD_LEXICON, retrieval, (1, 2, 5), 3)
        # Dog and dog fold to one row and stay two queries; ghost and s4 drop out
        assert (report.resolved, report.total) == (28, 30)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_similarity(self, seed):
        pair = awkward_pair(seed)
        rng = np.random.default_rng(seed)
        triples = [(s, t, float(rng.uniform(0, 10))) for s, t in AWKWARD_LEXICON.pairs]
        triples += [("zero", "t1", 3.0), ("s1", "ZERO", 4.0), ("Zero", "zero", 5.0)]
        dataset = SimilarityDataset(triples)
        space_a, space_b = with_zero_row(pair.source), with_zero_row(pair.target)
        report = eval_similarity(SpacePair(space_a, space_b), dataset)
        r, rho, resolved = reference_similarity(space_a, space_b, dataset)
        assert (report.resolved, report.total) == (resolved, len(triples))
        # ghost, the two pairs with nowhere, and the three triples with a zero row
        assert resolved == len(triples) - 6
        assert abs(report.metrics["pearson_r"] - r) <= 1e-12
        assert abs(report.metrics["spearman_rho"] - rho) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("retrieval", RETRIEVAL_MODES)
    @pytest.mark.parametrize("aligned", [False, True])
    def test_hypernyms(self, seed, retrieval, aligned):
        pair = awkward_pair(seed)
        # the references take the bare space; the library takes it paired with itself
        space = pair if aligned else pair.target
        spaces = pair if aligned else SpacePair(pair.target, pair.target)
        train = HypernymDataset(
            [(f"t{i}", [f"t{i + 1}", f"T{i + 2}"]) for i in range(12)]
            + [("only_t", ["t1"]), ("s1", ["only_t", "ghost"]), ("ghost", ["t2"]),
               ("S2", ["t3"]), ("Dog", ["t4"]), ("dog", ["t4"]), ("both", ["t5", "Both"])]
        )
        test = HypernymDataset(
            [(f"t{i}", [f"t{i + 1}", f"t{i + 5}"]) for i in range(12, 20)]
            + [("T3", ["t4", "T4"]), ("t5", ["t5", "t6"]), ("t7", ["ghost"]),
               ("ghost", ["t8"]), ("Hund", ["t9"]), ("hund", ["T9"]), ("S3", ["t1"]),
               ("only_t", ["t2", "t3"]), ("Both", ["t6", "t7"])]
        )
        projection = fit_hypernym_projection(spaces, train)
        assert np.array_equal(projection.matrix, reference_projection(space, train).matrix)
        for k in (1, 3, 10):
            report = eval_hypernyms(spaces, projection, test, k=k, retrieval=retrieval, csls_k=3)
            want = reference_hypernyms(space, projection, test, k, retrieval, 3)
            assert report == want
            assert report.resolved == (15 if aligned else 14)
