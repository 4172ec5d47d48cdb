import numpy as np
import pytest

from meemi.alignment import SpacePair, align_supervised
from meemi.evaluation import eval_bli, eval_hypernyms, fit_hypernym_projection
from meemi.fixtures import (
    SyntheticSpec,
    make_hub_set,
    make_rotated_pair,
    make_taxonomy,
)
from meemi.lexicon import BilingualLexicon
from meemi.retrieval import batch_cosine_topk, batch_csls_topk, build_index
from meemi.solvers import fit_procrustes


class TestSpec:
    def test_vocab_must_exceed_dim(self):
        with pytest.raises(ValueError, match="vocab_size"):
            SyntheticSpec(10, 10)

    def test_noise_must_be_finite_nonnegative(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticSpec(20, 4, noise_sigma=-0.1)
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticSpec(20, 4, noise_sigma=float("inf"))


class TestRotatedPair:
    def test_bit_identical_across_calls(self):
        spec = SyntheticSpec(50, 6, noise_sigma=0.2, seed=13)
        first = make_rotated_pair(spec)
        second = make_rotated_pair(spec)
        assert np.array_equal(first.src.matrix, second.src.matrix)
        assert np.array_equal(first.tgt.matrix, second.tgt.matrix)
        assert np.array_equal(first.rotation.matrix, second.rotation.matrix)
        assert first.gold.pairs == second.gold.pairs

    def test_noiseless_procrustes_recovers_rotation(self):
        fx = make_rotated_pair(SyntheticSpec(100, 12, noise_sigma=0.0, seed=14))
        w = fit_procrustes(fx.src.matrix, fx.tgt.matrix)
        assert np.abs(w.matrix - fx.rotation.matrix).max() <= 1e-6

    def test_full_rank_subset_recovers_rotation(self):
        fx = make_rotated_pair(SyntheticSpec(100, 12, noise_sigma=0.0, seed=15))
        w = fit_procrustes(fx.src.matrix[:12], fx.tgt.matrix[:12])
        assert np.abs(w.matrix - fx.rotation.matrix).max() <= 1e-6

    def test_gold_pairs_cosine_one_after_exact_alignment(self):
        fx = make_rotated_pair(SyntheticSpec(100, 12, noise_sigma=0.0, seed=16))
        mapped = fx.src.matrix @ fx.rotation.matrix
        a = mapped / np.linalg.norm(mapped, axis=1, keepdims=True)
        b = fx.tgt.matrix / np.linalg.norm(fx.tgt.matrix, axis=1, keepdims=True)
        assert np.abs((a * b).sum(axis=1) - 1.0).max() <= 1e-9

    def test_heavy_noise_drops_to_chance(self):
        fx = make_rotated_pair(SyntheticSpec(500, 25, noise_sigma=10.0, seed=17))
        pair = align_supervised(fx.src, fx.tgt, BilingualLexicon(fx.gold.pairs[:100]))
        p1 = eval_bli(pair, BilingualLexicon(fx.gold.pairs[100:]), ks=(1,)).metrics["P@1"]
        assert p1 <= 0.02


class TestHubSet:
    def wins(self, hub, idx):
        hub_idx = hub.targets.vocab.index(hub.hub_token)
        gold_idx = np.array([hub.targets.vocab.index(t) for _, t in hub.gold.pairs])
        return int((idx[:, 0] == hub_idx).sum()), int((idx[:, 0] == gold_idx).sum())

    def test_hub_dominates_cosine(self):
        hub = make_hub_set(0)
        idx, _ = batch_cosine_topk(hub.targets, hub.queries.matrix, k=1)
        hub_wins, _ = self.wins(hub, idx)
        assert hub_wins >= len(hub.queries) / 2

    def test_csls_restores_specific_targets(self):
        hub = make_hub_set(0)
        cos_idx, _ = batch_cosine_topk(hub.targets, hub.queries.matrix, k=1)
        index = build_index(hub.targets, csls_k=10)
        csls_idx, _ = batch_csls_topk(index, hub.queries.matrix, k=1)
        cos_hub, cos_specific = self.wins(hub, cos_idx)
        csls_hub, csls_specific = self.wins(hub, csls_idx)
        assert csls_hub < cos_hub
        assert csls_specific > cos_specific

    def test_csls_p1_at_least_cosine_p1(self):
        hub = make_hub_set(0)
        cos_idx, _ = batch_cosine_topk(hub.targets, hub.queries.matrix, k=1)
        index = build_index(hub.targets, csls_k=10)
        csls_idx, _ = batch_csls_topk(index, hub.queries.matrix, k=1)
        _, cos_specific = self.wins(hub, cos_idx)
        _, csls_specific = self.wins(hub, csls_idx)
        assert csls_specific >= cos_specific

    def test_hub_density_above_median(self):
        hub = make_hub_set(0)
        index = build_index(hub.targets, csls_k=10)
        hub_density = index.csls_density[hub.targets.vocab.index(hub.hub_token)]
        assert hub_density > np.median(index.csls_density)

    def test_at_most_fifty_words(self):
        hub = make_hub_set(1)
        assert len(hub.targets) <= 50

    def test_deterministic(self):
        assert np.array_equal(make_hub_set(2).targets.matrix, make_hub_set(2).targets.matrix)


class TestTaxonomy:
    def test_requires_double_dim(self):
        with pytest.raises(ValueError, match="2 \\* dim"):
            make_taxonomy(SyntheticSpec(60, 40))

    def test_noiseless_recovery_and_perfect_mrr(self):
        tax = make_taxonomy(SyntheticSpec(500, 50, noise_sigma=0.0, seed=7))
        projection = fit_hypernym_projection(SpacePair(tax.space, tax.space), tax.train)
        assert np.abs(projection.matrix - tax.true_map.matrix).max() <= 1e-6
        report = eval_hypernyms(SpacePair(tax.space, tax.space), projection, tax.test, k=15)
        assert report.metrics["MRR"] == 1.0

    def test_noisy_mrr_regression_pin(self):
        # exact value recorded once for this seed; 0.8 is the hard floor
        tax = make_taxonomy(SyntheticSpec(500, 50, noise_sigma=0.05, seed=7))
        projection = fit_hypernym_projection(SpacePair(tax.space, tax.space), tax.train)
        report = eval_hypernyms(SpacePair(tax.space, tax.space), projection, tax.test, k=15)
        assert report.metrics["MRR"] >= 0.8
        assert report.metrics["MRR"] == pytest.approx(1.0, abs=1e-12)

    def test_train_test_queries_disjoint(self):
        tax = make_taxonomy(SyntheticSpec(100, 10, seed=19))
        train_queries = {q for q, _ in tax.train.entries}
        test_queries = {q for q, _ in tax.test.entries}
        assert not train_queries & test_queries
        assert test_queries
