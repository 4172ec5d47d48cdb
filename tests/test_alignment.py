import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meemi.alignment import (
    AlignedPair,
    AlignmentConfig,
    align_supervised,
    apply_normalization,
    induce_dictionary,
    iterate_self_learning,
    mean_pair_cosine,
)
from meemi.embeddings import EmbeddingSpace, lookup
from meemi.evaluation import eval_bli
from meemi.fixtures import SyntheticSpec, make_rotated_pair
from meemi.lexicon import BilingualLexicon
from meemi.solvers import LinearMap


def subset(lexicon, start, stop):
    return BilingualLexicon(lexicon.pairs[start:stop])


class TestConfig:
    def test_defaults(self):
        config = AlignmentConfig()
        assert config.normalize == ("unit", "center", "unit")
        assert not config.self_learning
        assert config.max_iterations == 50

    def test_rejects_unknown_step(self):
        with pytest.raises(ValueError, match="unknown"):
            AlignmentConfig(normalize=("unit", "whiten"))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            AlignmentConfig(max_iterations=0)
        with pytest.raises(ValueError):
            AlignmentConfig(convergence_tol=0.0)

    def test_aligned_pair_requires_orthogonal_map(self):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(["a", "b"], rng.standard_normal((2, 3)))
        with pytest.raises(ValueError, match="orthogonal"):
            AlignedPair(space, space, LinearMap(np.eye(3) * 2.0), 1)


class TestAlignSupervised:
    def test_rotated_copy_maps_exactly(self):
        fx = make_rotated_pair(SyntheticSpec(150, 12, noise_sigma=0.0, seed=10))
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 100))
        for source, target in fx.gold.pairs:
            mapped = lookup(pair.source, source)
            expected = lookup(pair.target, target)
            assert np.abs(mapped - expected).max() <= 1e-6

    def test_single_pair_improves_cosine(self):
        fx = make_rotated_pair(SyntheticSpec(310, 300, noise_sigma=0.3, seed=11))
        one = subset(fx.gold, 0, 1)
        config = AlignmentConfig()
        src_n = apply_normalization(fx.src, config.normalize)
        tgt_n = apply_normalization(fx.tgt, config.normalize)
        before = mean_pair_cosine(src_n, tgt_n, one)
        pair = align_supervised(fx.src, fx.tgt, one, config)
        after = mean_pair_cosine(pair.source, pair.target, one)
        assert after >= before

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        a = EmbeddingSpace(["x"], rng.standard_normal((1, 4)))
        b = EmbeddingSpace(["y"], rng.standard_normal((1, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            align_supervised(a, b, BilingualLexicon([("x", "y")]))

    def test_empty_resolved_lexicon(self):
        fx = make_rotated_pair(SyntheticSpec(20, 4, seed=2))
        with pytest.raises(ValueError):
            align_supervised(fx.src, fx.tgt, BilingualLexicon([("nope", "nada")]))

    def test_target_space_never_mapped(self):
        fx = make_rotated_pair(SyntheticSpec(80, 8, noise_sigma=0.1, seed=3))
        config = AlignmentConfig()
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 40), config)
        expected = apply_normalization(fx.tgt, config.normalize)
        assert np.array_equal(pair.target.matrix, expected.matrix)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_source_cosines_preserved(self, seed):
        fx = make_rotated_pair(SyntheticSpec(40, 6, noise_sigma=0.2, seed=seed))
        config = AlignmentConfig()
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 20), config)
        normalized = apply_normalization(fx.src, config.normalize)
        def cosines(m):
            u = m / np.linalg.norm(m, axis=1, keepdims=True)
            return u @ u.T
        assert np.abs(cosines(pair.source.matrix) - cosines(normalized.matrix)).max() <= 1e-9


class TestInduce:
    def aligned_fixture(self, seed=4, vocab=60, dim=8):
        fx = make_rotated_pair(SyntheticSpec(vocab, dim, noise_sigma=0.0, seed=seed))
        return fx, align_supervised(fx.src, fx.tgt, fx.gold)

    def test_perfect_alignment_recovers_counterparts(self):
        fx, pair = self.aligned_fixture()
        induced = induce_dictionary(pair, vocab_cap=60)
        assert induced.pairs == fx.gold.pairs

    def test_cap_one(self):
        _, pair = self.aligned_fixture()
        assert len(induce_dictionary(pair, vocab_cap=1)) == 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_must_be_positive(self, cap):
        _, pair = self.aligned_fixture()
        with pytest.raises(ValueError, match="vocab_cap must be positive"):
            induce_dictionary(pair, vocab_cap=cap)

    def test_cap_clamped(self):
        fx, pair = self.aligned_fixture()
        induced = induce_dictionary(pair, vocab_cap=10_000)
        assert len(induced) == len(fx.src.vocab)


class TestSelfLearning:
    def test_full_gold_converges_quickly(self):
        fx = make_rotated_pair(SyntheticSpec(120, 10, noise_sigma=0.0, seed=5))
        config = AlignmentConfig(self_learning=True, max_iterations=20, induction_vocab_cap=120)
        pair = iterate_self_learning(fx.src, fx.tgt, fx.gold, config)
        assert pair.iterations_run <= 2

    def test_small_seed_beats_plain_alignment(self):
        fx = make_rotated_pair(SyntheticSpec(400, 20, noise_sigma=0.7, seed=3))
        seed_lex = subset(fx.gold, 0, 25)
        held_out = subset(fx.gold, 200, 400)
        plain = align_supervised(fx.src, fx.tgt, seed_lex)
        config = AlignmentConfig(
            self_learning=True, max_iterations=10, induction_vocab_cap=400
        )
        boot = align_supervised(fx.src, fx.tgt, seed_lex, config)
        p_plain = eval_bli(plain, held_out, ks=(1,)).metrics["P@1"]
        p_boot = eval_bli(boot, held_out, ks=(1,)).metrics["P@1"]
        assert p_boot >= p_plain

    def test_single_iteration_equals_plain_alignment(self):
        fx = make_rotated_pair(SyntheticSpec(80, 8, noise_sigma=0.2, seed=6))
        seed_lex = subset(fx.gold, 0, 30)
        plain = align_supervised(fx.src, fx.tgt, seed_lex)
        config = AlignmentConfig(self_learning=True, max_iterations=1, induction_vocab_cap=80)
        boot = iterate_self_learning(fx.src, fx.tgt, seed_lex, config)
        assert boot.iterations_run == 1
        assert np.array_equal(boot.source.matrix, plain.source.matrix)
        assert np.array_equal(boot.map.matrix, plain.map.matrix)

    def test_accepted_score_not_below_first_iteration(self):
        fx = make_rotated_pair(SyntheticSpec(200, 12, noise_sigma=0.5, seed=7))
        seed_lex = subset(fx.gold, 0, 20)
        config = AlignmentConfig(self_learning=True, max_iterations=8, induction_vocab_cap=200)
        first = align_supervised(fx.src, fx.tgt, seed_lex)
        final = iterate_self_learning(fx.src, fx.tgt, seed_lex, config)
        cap = config.induction_vocab_cap
        score_first = mean_pair_cosine(
            first.source, first.target, induce_dictionary(first, cap)
        )
        score_final = mean_pair_cosine(
            final.source, final.target, induce_dictionary(final, cap)
        )
        assert score_final >= score_first - 1e-12
