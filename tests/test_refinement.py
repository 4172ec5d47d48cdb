import numpy as np
import pytest

from meemi.alignment import AlignedPair, SpacePair, align_supervised
from meemi.embeddings import EmbeddingSpace
from meemi.fixtures import SyntheticSpec, make_rotated_pair
from meemi.lexicon import BilingualLexicon
from meemi.refinement import (
    MeemiModel,
    apply_meemi,
    compute_averages,
    fit_meemi,
    save_meemi,
    similarity_shift_report,
)
from meemi.solvers import LinearMap, load_map
from test_alignment import lexicon_cosine


def self_lexicon(space: EmbeddingSpace) -> BilingualLexicon:
    return BilingualLexicon([(t, t) for t in space.vocab])


def random_space(seed, n=40, d=6, prefix="w"):
    rng = np.random.default_rng(seed)
    return EmbeddingSpace([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, d)))


class TestComputeAverages:
    def test_midpoint_definition(self):
        src = EmbeddingSpace(["w"], np.array([[1.0, 0.0]]))
        tgt = EmbeddingSpace(["v"], np.array([[0.0, 1.0]]))
        a, b, mu = compute_averages(SpacePair(src, tgt), BilingualLexicon([("w", "v")]))
        assert np.array_equal(mu, [[0.5, 0.5]])
        assert np.array_equal(a, [[1.0, 0.0]])
        assert np.array_equal(b, [[0.0, 1.0]])

    def test_identical_vectors_are_fixed_points(self):
        space = random_space(0)
        a, _, mu = compute_averages(SpacePair(space, space), self_lexicon(space))
        assert np.array_equal(mu, a)

    def test_oov_rows_skipped(self):
        src = random_space(1, n=5)
        tgt = random_space(2, n=5, prefix="v")
        lexicon = BilingualLexicon([("w0", "v0"), ("w1", "missing"), ("w2", "v2")])
        a, _, _ = compute_averages(SpacePair(src, tgt), lexicon)
        assert len(a) == 2

    def test_zero_resolved_errors(self):
        src = random_space(3, n=4)
        with pytest.raises(ValueError, match="resolves"):
            compute_averages(SpacePair(src, src), BilingualLexicon([("x", "y")]))


class TestFitMeemi:
    def test_identity_lexicon_gives_identity_maps(self):
        space = random_space(4, n=50, d=8)
        model = fit_meemi(SpacePair(space, space), self_lexicon(space))
        assert np.abs(model.map_src.matrix - np.eye(8)).max() <= 1e-8
        assert np.abs(model.map_tgt.matrix - np.eye(8)).max() <= 1e-8
        assert model.train_pair_count == 50

    def test_exact_interpolation_when_pairs_below_dim(self):
        src = random_space(5, n=6, d=12)
        tgt = random_space(6, n=6, d=12, prefix="v")
        lexicon = BilingualLexicon(list(zip(src.vocab, tgt.vocab)))
        pair = SpacePair(src, tgt)
        model = fit_meemi(pair, lexicon)
        mu = (src.matrix + tgt.matrix) / 2.0
        assert np.linalg.norm(src.matrix @ model.map_src.matrix - mu) <= 1e-8
        assert np.linalg.norm(tgt.matrix @ model.map_tgt.matrix - mu) <= 1e-8
        refined = apply_meemi(model, pair)
        cos = lexicon_cosine(refined.source, refined.target, lexicon)
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_large_lexicon_strictly_raises_mean_cosine(self):
        fx = make_rotated_pair(SyntheticSpec(5500, 64, noise_sigma=0.8, seed=11))
        train = BilingualLexicon(fx.gold.pairs[:5000])
        pair = align_supervised(fx.src, fx.tgt, train)
        before = lexicon_cosine(pair.source, pair.target, train)
        refined = apply_meemi(fit_meemi(pair, train), pair)
        after = lexicon_cosine(refined.source, refined.target, train)
        assert after > before

    def test_symmetry_under_role_swap(self):
        src = random_space(7, n=30, d=5)
        tgt = random_space(8, n=30, d=5, prefix="v")
        forward = BilingualLexicon(list(zip(src.vocab, tgt.vocab)))
        backward = BilingualLexicon([(t, s) for s, t in forward.pairs])
        model_fwd = fit_meemi(SpacePair(src, tgt), forward)
        model_bwd = fit_meemi(SpacePair(tgt, src), backward)
        assert np.abs(model_fwd.map_src.matrix - model_bwd.map_tgt.matrix).max() <= 1e-9
        assert np.abs(model_fwd.map_tgt.matrix - model_bwd.map_src.matrix).max() <= 1e-9

    def test_model_type_rejects_orthogonal_flag(self):
        with pytest.raises(ValueError, match="unconstrained"):
            MeemiModel(
                LinearMap(np.eye(3), orthogonal=True), LinearMap(np.eye(3)), 1
            )


class TestApplyMeemi:
    def test_identity_model_is_noop(self):
        src = random_space(9)
        tgt = random_space(10, prefix="v")
        pair = SpacePair(src, tgt)
        model = MeemiModel(LinearMap(np.eye(6)), LinearMap(np.eye(6)), 1)
        refined = apply_meemi(model, pair)
        assert np.array_equal(refined.source.matrix, src.matrix)
        assert np.array_equal(refined.target.matrix, tgt.matrix)

    def test_identical_spaces_model_is_noop(self):
        space = random_space(11, n=50, d=8)
        pair = SpacePair(space, space)
        model = fit_meemi(pair, self_lexicon(space))
        refined = apply_meemi(model, pair)
        assert np.abs(refined.source.matrix - space.matrix).max() <= 1e-8

    def test_vocab_unchanged(self):
        src = random_space(12)
        tgt = random_space(13, prefix="v")
        pair = SpacePair(src, tgt)
        model = fit_meemi(pair, BilingualLexicon(list(zip(src.vocab, tgt.vocab))))
        refined = apply_meemi(model, pair)
        assert refined.source.vocab == src.vocab
        assert refined.target.vocab == tgt.vocab

    def test_not_an_isometry(self):
        fx = make_rotated_pair(SyntheticSpec(300, 30, noise_sigma=0.05, seed=21))
        train = BilingualLexicon(fx.gold.pairs[:60])
        pair = align_supervised(fx.src, fx.tgt, train)
        refined = apply_meemi(fit_meemi(pair, train), pair)
        def cosines(m):
            u = m / np.linalg.norm(m, axis=1, keepdims=True)
            return u @ u.T
        change = np.abs(
            cosines(refined.source.matrix[:80]) - cosines(pair.source.matrix[:80])
        ).max()
        assert change > 0.0

    def test_refit_contracts_toward_identity(self):
        fx = make_rotated_pair(SyntheticSpec(400, 24, noise_sigma=0.3, seed=22))
        train = BilingualLexicon(fx.gold.pairs[:150])
        pair = align_supervised(fx.src, fx.tgt, train)
        model = fit_meemi(pair, train)
        refined = apply_meemi(model, pair)
        again = fit_meemi(refined, train)
        def distance(m):
            return np.linalg.norm(m.matrix - np.eye(m.d_in))
        assert distance(again.map_src) <= distance(model.map_src) + 1e-9
        assert distance(again.map_tgt) <= distance(model.map_tgt) + 1e-9


class TestShiftReport:
    def test_no_change_reports_zeros(self):
        src = random_space(14)
        tgt = random_space(15, prefix="v")
        pair = SpacePair(src, tgt)
        shift = similarity_shift_report(
            pair, pair, BilingualLexicon(list(zip(src.vocab, tgt.vocab)))
        )
        assert shift.mean_delta == 0.0
        assert shift.std_delta == 0.0
        assert shift.fraction_positive == 0.0

    def test_synthetic_benchmark_moves_pairs_closer(self):
        fx = make_rotated_pair(SyntheticSpec(1000, 50, noise_sigma=0.05, seed=42))
        train = BilingualLexicon(fx.gold.pairs[:100])
        pair = align_supervised(fx.src, fx.tgt, train)
        refined = apply_meemi(fit_meemi(pair, train), pair)
        # only the alignment has a map: the midpoint maps are not isometries
        assert isinstance(pair, AlignedPair) and type(refined) is SpacePair
        shift = similarity_shift_report(pair, refined, train)
        assert shift.mean_delta > 0.0
        assert shift.fraction_positive >= 0.9

    def test_zero_resolved_errors(self):
        src = random_space(16, n=4)
        pair = SpacePair(src, src)
        with pytest.raises(ValueError, match="resolves"):
            similarity_shift_report(pair, pair, BilingualLexicon([("no", "no")]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_token_loop(self, seed):
        src = random_space(seed, n=30)
        tgt = random_space(seed + 100, n=30, prefix="v")
        before = SpacePair(src, tgt)
        lexicon = BilingualLexicon(
            [(f"w{i}", f"v{i}") for i in range(20)]
            + [("W20", "v20"), ("w21", "V21"), ("w22", "v22"), ("w22", "v23"), ("W22", "v23"),
               ("ghost", "v24"), ("w24", "nowhere"), ("w29", "v29")]
        )
        after = apply_meemi(fit_meemi(before, lexicon), before)
        # a later state without w29: that pair drops out of the report
        smaller = SpacePair(EmbeddingSpace(src.vocab[:-1], after.source.matrix[:-1]), after.target)
        for state in (after, smaller):
            shift = similarity_shift_report(before, state, lexicon)
            mean, std, positive = reference_shift(before, state, lexicon)
            assert shift.fraction_positive == positive
            assert abs(shift.mean_delta - mean) <= 1e-12
            assert abs(shift.std_delta - std) <= 1e-12


def reference_shift(before, after, lexicon):
    """similarity_shift_report as a loop over lexicon pairs."""
    def vector(space, token):
        i = space.index_of(token)
        return None if i is None else space.matrix[i]

    def cosine(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    deltas = []
    for s, t in lexicon.pairs:
        vecs = (vector(before.source, s), vector(before.target, t),
                vector(after.source, s), vector(after.target, t))
        if all(v is not None for v in vecs):
            b_s, b_t, a_s, a_t = vecs
            deltas.append(cosine(a_s, a_t) - cosine(b_s, b_t))
    deltas = np.array(deltas)
    return deltas.mean(), deltas.std(), (deltas > 0).mean()


class TestPersistence:
    def test_manifest_roundtrip(self, tmp_path):
        src = random_space(17, n=30, d=5)
        tgt = random_space(18, n=30, d=5, prefix="v")
        model = fit_meemi(
            SpacePair(src, tgt), BilingualLexicon(list(zip(src.vocab, tgt.vocab)))
        )
        save_meemi(model, tmp_path / "model.model")
        assert (tmp_path / "model.model").read_text() == (
            f"model.src.map\nmodel.tgt.map\n{model.train_pair_count}\n")
        for name, fitted in (("model.src.map", model.map_src), ("model.tgt.map", model.map_tgt)):
            back = load_map(tmp_path / name)
            assert np.array_equal(back.matrix, fitted.matrix)
            assert not back.orthogonal
