import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meemi.alignment import (
    AlignedPair,
    AlignmentConfig,
    SpacePair,
    align_supervised,
    apply_normalization,
    induce_dictionary,
    iterate_self_learning,
    mean_pair_cosine,
    pair_cosines,
)
from meemi.embeddings import EmbeddingSpace
from meemi.evaluation import eval_bli
from meemi.fixtures import SyntheticSpec, make_rotated_pair
from meemi.lexicon import BilingualLexicon, resolve, resolve_rows
from meemi.solvers import LinearMap, apply_map, fit_procrustes
from test_retrieval import exact_tie_rows


def subset(lexicon, start, stop):
    return BilingualLexicon(lexicon.pairs[start:stop])


class TestConfig:
    def test_defaults(self):
        config = AlignmentConfig()
        assert not config.self_learning
        assert config.max_iterations == 50

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

    def test_aligned_pair_requires_map_of_the_space_dimension(self):
        rng = np.random.default_rng(0)
        space = EmbeddingSpace(["a", "b", "c", "d"], rng.standard_normal((4, 16)))
        with pytest.raises(ValueError, match="alignment map of size 3 does not fit dimension 16"):
            AlignedPair(space, space, LinearMap(np.eye(3), orthogonal=True), 1)


class TestAlignSupervised:
    def test_rotated_copy_maps_exactly(self):
        fx = make_rotated_pair(SyntheticSpec(150, 12, noise_sigma=0.0, seed=10))
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 100))
        for source, target in fx.gold.pairs:
            mapped = pair.source.matrix[pair.source.index_of(source)]
            expected = pair.target.matrix[pair.target.index_of(target)]
            assert np.abs(mapped - expected).max() <= 1e-6

    def test_single_pair_improves_cosine(self):
        fx = make_rotated_pair(SyntheticSpec(310, 300, noise_sigma=0.3, seed=11))
        one = subset(fx.gold, 0, 1)
        src_n = apply_normalization(fx.src)
        tgt_n = apply_normalization(fx.tgt)
        before = lexicon_cosine(src_n, tgt_n, one)
        pair = align_supervised(fx.src, fx.tgt, one)
        after = lexicon_cosine(pair.source, pair.target, one)
        assert after >= before

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        a = EmbeddingSpace(["x"], rng.standard_normal((1, 4)))
        b = EmbeddingSpace(["y"], rng.standard_normal((1, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            align_supervised(a, b, BilingualLexicon([("x", "y")]))

    def test_takes_no_config(self):
        fx = make_rotated_pair(SyntheticSpec(20, 4, seed=2))
        with pytest.raises(TypeError):
            align_supervised(fx.src, fx.tgt, fx.gold, AlignmentConfig())

    def test_empty_resolved_lexicon(self):
        fx = make_rotated_pair(SyntheticSpec(20, 4, seed=2))
        with pytest.raises(ValueError):
            align_supervised(fx.src, fx.tgt, BilingualLexicon([("nope", "nada")]))

    def test_target_space_never_mapped(self):
        fx = make_rotated_pair(SyntheticSpec(80, 8, noise_sigma=0.1, seed=3))
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 40))
        expected = apply_normalization(fx.tgt)
        assert np.array_equal(pair.target.matrix, expected.matrix)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_source_cosines_preserved(self, seed):
        fx = make_rotated_pair(SyntheticSpec(40, 6, noise_sigma=0.2, seed=seed))
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 20))
        normalized = apply_normalization(fx.src)
        def cosines(m):
            u = m / np.linalg.norm(m, axis=1, keepdims=True)
            return u @ u.T
        assert np.abs(cosines(pair.source.matrix) - cosines(normalized.matrix)).max() <= 1e-9


def three_numpy_steps(matrix):
    """Unit rows, subtract the column means, unit rows: the reference the
    library's one-buffer normalization must equal bit for bit."""
    unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    centred = unit - unit.mean(axis=0)
    return centred / np.linalg.norm(centred, axis=1)[:, None]


class TestApplyNormalization:
    @given(seed=st.integers(0, 10_000))
    @example(seed=142)  # n = 2, d = 1 with same-sign rows: centring leaves zero rows
    @settings(max_examples=25)
    def test_equals_three_numpy_steps(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        space = EmbeddingSpace([f"w{i}" for i in range(n)], rng.standard_normal((n, d)))
        with np.errstate(invalid="ignore"):  # a zero row divides 0 by 0
            expected = three_numpy_steps(space.matrix)
        if np.isnan(expected).any():
            with pytest.raises(ValueError, match="cannot unit-normalize zero row vector"):
                apply_normalization(space)
            return
        normalized = apply_normalization(space)
        assert normalized.matrix.tobytes() == expected.tobytes()
        assert normalized.vocab is space.vocab and normalized._index is space._index
        assert not normalized.matrix.flags.writeable

    def test_example(self):
        space = EmbeddingSpace(["a", "b"], np.array([[2.0, 0.0], [0.0, 3.0]]))
        half = 0.5 ** 0.5
        assert np.allclose(apply_normalization(space).matrix, [[half, -half], [-half, half]])

    def test_single_row_becomes_zero(self):
        with pytest.raises(ValueError, match="cannot unit-normalize zero row vector of token 'a'"):
            apply_normalization(EmbeddingSpace(["a"], np.array([[2.0, 5.0]])))

    def test_empty_space_errors(self):
        with pytest.raises(ValueError, match="cannot center an empty space"):
            apply_normalization(EmbeddingSpace([], np.zeros((0, 3))))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_unit_center_unit_bound(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 30)), int(rng.integers(2, 12))
        normalized = apply_normalization(
            EmbeddingSpace([f"w{i}" for i in range(n)], rng.standard_normal((n, d))))
        assert np.abs(np.linalg.norm(normalized.matrix, axis=1) - 1).max() <= 1e-9
        assert np.abs(normalized.matrix.mean(axis=0)).max() <= normalized.dim ** -0.5


class TestInduce:
    def aligned_fixture(self, seed=4, vocab=60, dim=8):
        fx = make_rotated_pair(SyntheticSpec(vocab, dim, noise_sigma=0.0, seed=seed))
        return fx, align_supervised(fx.src, fx.tgt, fx.gold)

    def test_perfect_alignment_recovers_counterparts(self):
        _, pair = self.aligned_fixture()  # gold pairs row i with row i
        induced = induce_dictionary(pair, vocab_cap=60)
        assert np.array_equal(induced, np.arange(60))

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

    @pytest.mark.parametrize("n_src, n_tgt, cap", [
        (50, 30, 40), (50, 30, 10_000), (30, 50, 40), (50, 30, 20), (1, 1, 5),
    ])
    def test_returns_one_capped_target_row_per_capped_source_row(self, n_src, n_tgt, cap):
        rng = np.random.default_rng(n_src + n_tgt + cap)
        src = EmbeddingSpace([f"s{i}" for i in range(n_src)], rng.standard_normal((n_src, 6)))
        tgt = EmbeddingSpace([f"t{j}" for j in range(n_tgt)], rng.standard_normal((n_tgt, 6)))
        nearest = induce_dictionary(SpacePair(src, tgt), vocab_cap=cap)
        assert nearest.dtype == np.intp
        assert nearest.shape == (min(cap, n_src),)
        assert 0 <= nearest.min() and nearest.max() < min(cap, n_tgt)
        assert np.array_equal(nearest, np.argmax(
            unit(src.matrix[:cap]) @ unit(tgt.matrix[:cap]).T, axis=1))


def unit(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def induced_rows(s, t):
    """Target row induce_dictionary pairs with each source row."""
    src = EmbeddingSpace([f"s{i}" for i in range(len(s))], s)
    tgt = EmbeddingSpace([f"t{j}" for j in range(len(t))], t)
    return induce_dictionary(SpacePair(src, tgt), vocab_cap=max(len(s), len(t)))


def lexicon_cosine(src, tgt, lexicon):
    """Mean cosine between the resolved pairs of a lexicon."""
    src_idx, tgt_idx, kept = resolve_rows(lexicon, src, tgt)
    return float(pair_cosines(src.matrix[src_idx[kept]], tgt.matrix[tgt_idx[kept]]).mean())


def rescored_chunks(caplog):
    """(re-scored, total) chunk counts from the last induce_dictionary log line."""
    line = [r.getMessage() for r in caplog.records if "re-scored" in r.getMessage()][-1]
    words = line.split()
    return int(words[2]), int(words[4])


class TestInductionMemory:
    def test_peak_holds_one_float64_copy(self, caplog):
        # the float32 copies of both sides, the float64 target, the float32
        # score block and a float64 fallback block come to about 3.4 capped
        # matrices; a float64 copy of the source would add one more
        fx = make_rotated_pair(SyntheticSpec(3000, 300, 3.0, 5))
        pair = align_supervised(fx.src, fx.tgt, subset(fx.gold, 0, 1500))
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="meemi.alignment"):
                induce_dictionary(pair, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rescored_chunks(caplog) == (4, 12)  # the fallback runs
        assert peak < 3.8 * pair.source.matrix.nbytes


class TestInductionScreen:
    """The float32 screen must return the float64 argmax, ties to the lower index."""

    def test_float32_winner_is_not_taken(self):
        # two target rows within about 1e-9 cosine of the query, ordered one
        # way in float32 and the other way in float64
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = rng.standard_normal((1, 300))
            a = rng.standard_normal(300)
            t = np.vstack([a, a + 2e-8 * rng.standard_normal(300)])
            s64 = unit(s) @ unit(t).T
            s32 = unit(s).astype(np.float32) @ unit(t).astype(np.float32).T
            winner = np.argmax(s64, axis=1)[0]
            if s32[0, winner] < s32[0, 1 - winner]:
                break
        else:
            pytest.fail("no pair whose float32 order differs from float64")
        assert induced_rows(s, t)[0] == winner

    def test_duplicate_target_rows_tie_to_lower_index(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((8, 300))
        t[6] = t[2]
        s = t + 0.01 * rng.standard_normal(t.shape)
        nearest = induced_rows(s, t)
        assert nearest[2] == nearest[6] == 2
        assert np.array_equal(nearest, np.argmax(unit(s) @ unit(t).T, axis=1))

    def test_matches_float64_argmax_over_chunks(self, caplog):
        # the first chunk's queries sit near distinct targets and are
        # screened; later ones also reach near-duplicate targets, which
        # send their chunks to the float64 re-score
        rng = np.random.default_rng(2)
        t = rng.standard_normal((600, 300))
        t[500:] = t[:100] + 1e-9 * rng.standard_normal((100, 300))
        rows = np.concatenate([rng.integers(100, 500, 256), rng.integers(0, 600, 444)])
        s = t[rows] + 0.1 * rng.standard_normal((700, 300))
        with caplog.at_level(logging.DEBUG, logger="meemi.alignment"):
            nearest = induced_rows(s, t)
        assert np.array_equal(nearest, np.argmax(unit(s) @ unit(t).T, axis=1))
        rescored, chunks = rescored_chunks(caplog)
        assert chunks == 3
        assert 0 < rescored < chunks

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_exact_ties_match_float64_argmax(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 9))
        n = int(rng.integers(2, 40))
        t = exact_tie_rows(rng, n, d, distinct=int(rng.integers(1, n + 1)))
        s = exact_tie_rows(rng, int(rng.integers(1, 600)), d, distinct=int(rng.integers(1, 20)))
        assert np.array_equal(induced_rows(s, t), np.argmax(unit(s) @ unit(t).T, axis=1))

    @pytest.mark.parametrize("gap, rescored", [(1.5, 1), (2.5, 0)])
    def test_window_is_twice_the_error_bound(self, caplog, gap, rescored):
        # the query e0 scores 0.5 against one target and 0.5 - gap * err
        # against the other, with err the float32 part of the bound
        d = 300
        err = (d + 2) * 2.0**-24
        t = np.zeros((2, d))
        for row, (axis, c) in enumerate([(1, 0.5), (2, 0.5 - gap * err)]):
            t[row, 0], t[row, axis] = c, np.sqrt(1 - c * c)
        s = np.eye(1, d)
        with caplog.at_level(logging.DEBUG, logger="meemi.alignment"):
            assert induced_rows(s, t)[0] == 0
        assert rescored_chunks(caplog) == (rescored, 1)


class TestSelfLearning:
    def test_full_gold_converges_quickly(self):
        fx = make_rotated_pair(SyntheticSpec(120, 10, noise_sigma=0.0, seed=5))
        config = AlignmentConfig(max_iterations=20, induction_vocab_cap=120)
        pair = iterate_self_learning(fx.src, fx.tgt, fx.gold, config)
        assert pair.iterations_run <= 2

    def test_small_seed_beats_plain_alignment(self):
        fx = make_rotated_pair(SyntheticSpec(400, 20, noise_sigma=0.7, seed=3))
        seed_lex = subset(fx.gold, 0, 25)
        held_out = subset(fx.gold, 200, 400)
        plain = align_supervised(fx.src, fx.tgt, seed_lex)
        config = AlignmentConfig(max_iterations=10, induction_vocab_cap=400)
        boot = iterate_self_learning(fx.src, fx.tgt, seed_lex, config)
        p_plain = eval_bli(plain, held_out, ks=(1,)).metrics["P@1"]
        p_boot = eval_bli(boot, held_out, ks=(1,)).metrics["P@1"]
        assert p_boot >= p_plain

    def test_single_iteration_equals_plain_alignment(self):
        fx = make_rotated_pair(SyntheticSpec(80, 8, noise_sigma=0.2, seed=6))
        seed_lex = subset(fx.gold, 0, 30)
        plain = align_supervised(fx.src, fx.tgt, seed_lex)
        config = AlignmentConfig(max_iterations=1, induction_vocab_cap=80)
        boot = iterate_self_learning(fx.src, fx.tgt, seed_lex, config)
        assert boot.iterations_run == 1
        assert np.array_equal(boot.source.matrix, plain.source.matrix)
        assert np.array_equal(boot.map.matrix, plain.map.matrix)

    def test_accepted_score_not_below_first_iteration(self):
        fx = make_rotated_pair(SyntheticSpec(200, 12, noise_sigma=0.5, seed=7))
        seed_lex = subset(fx.gold, 0, 20)
        config = AlignmentConfig(max_iterations=8, induction_vocab_cap=200)
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


class TestSelfLearningMaps:
    """With the scores fixed, count the maps the loop makes."""

    def run(self, monkeypatch, scores):
        fx = make_rotated_pair(SyntheticSpec(80, 8, noise_sigma=0.2, seed=6))
        seed = subset(fx.gold, 0, 30)
        maps = []
        def counted(w, space):
            maps.append(w)
            return apply_map(w, space)
        score = iter(scores)
        monkeypatch.setattr("meemi.alignment.apply_map", counted)
        monkeypatch.setattr("meemi.alignment.mean_pair_cosine", lambda *args: next(score))
        config = AlignmentConfig(max_iterations=3, induction_vocab_cap=80)
        return fx, seed, maps, iterate_self_learning(fx.src, fx.tgt, seed, config)

    def test_kept_last_iteration_is_not_mapped_again(self, monkeypatch):
        fx, _, maps, got = self.run(monkeypatch, [0.1, 0.2, 0.3])
        assert got.iterations_run == 3 and len(maps) == 3
        assert got.map is maps[-1]
        expected = apply_map(got.map, apply_normalization(fx.src))
        assert np.array_equal(got.source.matrix, expected.matrix)

    def test_kept_earlier_iteration_is_mapped_again(self, monkeypatch):
        fx, seed, maps, got = self.run(monkeypatch, [0.5, 0.4])
        assert got.iterations_run == 2 and len(maps) == 3
        assert got.map is maps[0] is maps[-1]
        plain = align_supervised(fx.src, fx.tgt, seed)
        assert np.array_equal(got.map.matrix, plain.map.matrix)
        assert np.array_equal(got.source.matrix, plain.source.matrix)
        assert np.array_equal(got.target.matrix, plain.target.matrix)


class TestSelfLearningMemory:
    @pytest.mark.parametrize("scores", [[0.1, 0.2, 0.3], [0.5, 0.4]],
                             ids=["last_kept", "earlier_kept"])
    def test_peak_holds_one_mapped_space(self, monkeypatch, scores):
        # the normalized source and target, the one mapped space and the
        # normalization's temporaries come to about 3.3 matrices; keeping the
        # last iteration's mapped space while the next is built, or while an
        # earlier kept iteration is mapped again, adds one more
        fx = make_rotated_pair(SyntheticSpec(4000, 300, 2.7, 1))
        seed = subset(fx.gold, 0, 200)
        score = iter(scores)
        monkeypatch.setattr("meemi.alignment.mean_pair_cosine", lambda *args: next(score))
        config = AlignmentConfig(max_iterations=3, induction_vocab_cap=200)
        tracemalloc.start()
        try:
            got = iterate_self_learning(fx.src, fx.tgt, seed, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.iterations_run == len(scores)
        assert peak < 3.9 * fx.src.matrix.nbytes


def reference_self_learning(src, tgt, seed_lexicon, config):
    """The token-based loop: every iteration resolves a lexicon, induces
    token pairs and merges them into the seed by token.

    Also returns how many training rows repeat a seed pair's rows only
    because that seed pair resolved through the lowercase fold.
    """
    def rows(a, b, lexicon):
        kept, _ = resolve(lexicon, a, b)
        return (np.vstack([a.matrix[a.index_of(s)] for s, _ in kept.pairs]),
                np.vstack([b.matrix[b.index_of(t)] for _, t in kept.pairs]))

    src_n = apply_normalization(src)
    tgt_n = apply_normalization(tgt)
    seed_set = set(seed_lexicon.pairs)
    folded = {(src_n.index_of(s), tgt_n.index_of(t)) for s, t in seed_lexicon.pairs
              if src_n.index_of(s) is not None and tgt_n.index_of(t) is not None
              and (s not in src_n or t not in tgt_n)}
    current = seed_lexicon
    fold_repeats = 0
    best_w, best_score, previous, iterations = None, -np.inf, -np.inf, 0
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        w = fit_procrustes(*rows(src_n, tgt_n, current))
        mapped = apply_map(w, src_n)
        nearest = induce_dictionary(SpacePair(mapped, tgt_n), config.induction_vocab_cap)
        induced = BilingualLexicon(
            [(mapped.vocab[i], tgt_n.vocab[j]) for i, j in enumerate(nearest)])
        a, b = rows(mapped, tgt_n, induced)
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        score = float((a * b).sum(axis=1).mean())
        if score > best_score:
            best_score, best_w = score, w
        if score - previous < config.convergence_tol:
            break
        previous = score
        merged = list(seed_lexicon.pairs)
        for pair in induced.pairs:
            if pair not in seed_set:
                merged.append(pair)
                fold_repeats += (src_n.index_of(pair[0]), tgt_n.index_of(pair[1])) in folded
        current = BilingualLexicon(merged)
    return AlignedPair(apply_map(best_w, src_n), tgt_n, best_w, iterations), fold_repeats


def awkward_seed(fx):
    """Seed pairs resolved through the lowercase fold, out-of-vocabulary
    pairs, repeated sources and a repeated pair, next to exact pairs that
    induction recovers."""
    gold = fx.gold.pairs
    pairs = []
    for k, (s, t) in enumerate(gold[:60]):
        if k % 4 == 1:
            s = s.upper()
        elif k % 4 == 2:
            t = t.upper()
        pairs.append((s, t))
    pairs += [("nope", gold[0][1]), (gold[1][0], "nada"), ("NOPE", "NADA")]
    pairs += [(gold[3][0], gold[90][1]), (gold[3][0], gold[91][1]), gold[5], gold[4]]
    return BilingualLexicon(pairs)


class TestSelfLearningOnRows:
    @pytest.mark.parametrize("max_iterations, cap, tol", [
        (1, 300, 1e-12), (3, 120, 1e-12), (6, 300, 1e-12), (8, 1000, 1e-6),
    ])
    def test_matches_token_loop(self, max_iterations, cap, tol):
        fx = make_rotated_pair(SyntheticSpec(300, 16, noise_sigma=0.4, seed=8))
        seed = awkward_seed(fx)
        config = AlignmentConfig(max_iterations=max_iterations,
                                 convergence_tol=tol, induction_vocab_cap=cap)
        expected, fold_repeats = reference_self_learning(fx.src, fx.tgt, seed, config)
        got = iterate_self_learning(fx.src, fx.tgt, seed, config)
        if max_iterations > 1:
            assert fold_repeats > 0  # the fixture reaches the fold rule
        assert got.iterations_run == expected.iterations_run
        assert np.array_equal(got.map.matrix, expected.map.matrix)
        assert np.array_equal(got.source.matrix, expected.source.matrix)
        assert np.array_equal(got.target.matrix, expected.target.matrix)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8)
    def test_matches_token_loop_on_random_fixtures(self, seed):
        fx = make_rotated_pair(SyntheticSpec(120, 6, noise_sigma=0.8, seed=seed))
        config = AlignmentConfig(max_iterations=4, convergence_tol=1e-12, induction_vocab_cap=90)
        lexicon = awkward_seed(fx)
        expected, _ = reference_self_learning(fx.src, fx.tgt, lexicon, config)
        got = iterate_self_learning(fx.src, fx.tgt, lexicon, config)
        assert got.iterations_run == expected.iterations_run
        assert np.array_equal(got.map.matrix, expected.map.matrix)
        assert np.array_equal(got.source.matrix, expected.source.matrix)

    def test_errors_of_resolve_kept(self):
        fx = make_rotated_pair(SyntheticSpec(20, 4, seed=2))
        config = AlignmentConfig()
        with pytest.raises(ValueError, match="cannot resolve an empty lexicon"):
            iterate_self_learning(fx.src, fx.tgt, BilingualLexicon([]), config)
        with pytest.raises(ValueError, match="no lexicon pair resolves"):
            iterate_self_learning(fx.src, fx.tgt, BilingualLexicon([("q", "z")]), config)

    def test_trace_in_logs(self, caplog):
        fx = make_rotated_pair(SyntheticSpec(200, 12, noise_sigma=0.5, seed=7))
        seed = BilingualLexicon(fx.gold.pairs[:20] + [("NOPE", "nada")])
        config = AlignmentConfig(max_iterations=3, convergence_tol=1e-12, induction_vocab_cap=150)
        with caplog.at_level(logging.DEBUG, logger="meemi.alignment"):
            pair = iterate_self_learning(fx.src, fx.tgt, seed, config)
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        induce = [m for m in debug if m.startswith("induce_dictionary: ")]
        debug = [m for m in debug if m.startswith("self-learning ")]
        assert len(induce) == 3
        assert all(m.endswith(" of 1 chunks in float64") for m in induce)
        assert len(debug) == pair.iterations_run == 3
        assert debug[0].startswith("self-learning iteration 1: 20 training rows, ")
        assert debug[0].endswith(" 1.0000 of induced targets changed")
        added = int(debug[0].split(", ")[2].split()[0])
        assert 130 <= added <= 150  # the 150 induced pairs less those repeating a seed pair
        assert debug[1].startswith(f"self-learning iteration 2: {20 + added} training rows, ")
        scores = [float(m.split("mean induced cosine ")[1].split(",")[0]) for m in debug]
        kept = int(np.argmax(scores)) + 1
        assert info == [f"self-learning kept iteration {kept} of 3: "
                        f"mean induced cosine {max(scores):.6f}"]
