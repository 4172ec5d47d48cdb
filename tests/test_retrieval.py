import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meemi.embeddings import EmbeddingSpace, unit_rows
from meemi.retrieval import (
    CHUNK_ROWS,
    _mean_topk,
    _score_chunks,
    _stable_topk,
    batch_cosine_topk,
    batch_csls_topk,
    build_index,
)


def unit(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def oracle_cosine_ranking(target_matrix, query):
    """Full ranking from the definition: cosine desc, vocab index asc."""
    t = unit(target_matrix)
    q = np.asarray(query, dtype=np.float64)
    scores = t @ (q / np.linalg.norm(q))
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def oracle_csls_ranking(target_matrix, query, csls_k):
    """CSLS ranking from the definition, densities over the target itself."""
    t = unit(target_matrix)
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    cos = t @ q
    n = len(t)
    density = np.empty(n)
    for j in range(n):
        sims = sorted(float(t[j] @ t[i]) for i in range(n) if i != j)
        density[j] = np.mean(sims[-csls_k:])
    r_query = np.mean(sorted(cos)[-csls_k:])
    scores = 2.0 * cos - r_query - density
    return sorted(range(n), key=lambda i: (-scores[i], i))


def exact_tie_rows(rng, n, d, distinct):
    """n rows drawn from ``distinct`` vectors with four entries of +-1.

    Every row has norm 2, so unit rows hold +-0.5 and every cosine is a
    multiple of 0.25: all scores are exact and ties are true ties.
    """
    base = np.zeros((distinct, d))
    for row in base:
        row[rng.choice(d, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    return base[rng.integers(0, distinct, size=n)]


def space_from(matrix, prefix="t"):
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingSpace([f"{prefix}{i:03d}" for i in range(len(matrix))], matrix)


def one_query(index, found):
    """One query's ranked (token, score) list from a batch search's (indexes, scores)."""
    idx, scores = found
    return [(index.space.vocab[i], float(s)) for i, s in zip(idx[0], scores[0])]


def cosine_ranked(index, query, k):
    return one_query(index, batch_cosine_topk(index.space, query, k))


def csls_ranked(index, query, k):
    return one_query(index, batch_csls_topk(index, query, k))


class TestBuildIndex:
    def test_orthonormal_rows_have_zero_density(self):
        index = build_index(space_from(np.eye(3)), csls_k=1)
        assert np.abs(index.csls_density).max() <= 1e-12

    def test_duplicate_rows_have_density_one(self):
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        index = build_index(space_from(matrix), csls_k=1)
        assert index.csls_density[0] == pytest.approx(1.0)
        assert index.csls_density[1] == pytest.approx(1.0)

    def test_csls_k_must_be_below_vocab(self):
        with pytest.raises(ValueError, match="csls_k"):
            build_index(space_from(np.eye(3)), csls_k=5)

    def test_densities_within_bounds(self):
        rng = np.random.default_rng(0)
        index = build_index(space_from(rng.standard_normal((40, 6))), csls_k=5)
        assert index.csls_density.min() >= -1.0 - 1e-12
        assert index.csls_density.max() <= 1.0 + 1e-12

    def test_self_density_across_chunks(self):
        # 600 rows span three query chunks; a wrong diagonal offset in a
        # later chunk would count a row's own similarity of 1
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((600, 8))
        index = build_index(space_from(matrix), csls_k=5)
        t = unit(matrix)
        sims = t @ t.T
        np.fill_diagonal(sims, -np.inf)
        want = np.sort(sims, axis=1)[:, -5:].mean(axis=1)
        assert np.abs(index.csls_density - want).max() <= 1e-12

    def test_source_registered_density(self):
        rng = np.random.default_rng(1)
        tgt = space_from(rng.standard_normal((10, 4)))
        src = space_from(rng.standard_normal((8, 4)), prefix="s")
        index = build_index(tgt, csls_k=3, source_space=src)
        t = unit(tgt.matrix)
        s = unit(src.matrix)
        for j in range(10):
            sims = sorted(t[j] @ s[i] for i in range(8))
            assert index.csls_density[j] == pytest.approx(np.mean(sims[-3:]))


    def test_source_density_over_the_whole_source(self):
        # csls_k equal to the source vocabulary averages every source cosine;
        # one more is an error
        rng = np.random.default_rng(9)
        tgt = space_from(rng.standard_normal((10, 4)))
        src = space_from(rng.standard_normal((8, 4)), prefix="s")
        index = build_index(tgt, csls_k=len(src), source_space=src)
        want = (unit(tgt.matrix) @ unit(src.matrix).T).mean(axis=1)
        assert np.array_equal(index.csls_density, want)
        with pytest.raises(ValueError, match="exceeds the registered source vocabulary"):
            build_index(tgt, csls_k=len(src) + 1, source_space=src)

    def test_density_sides_hand_computed(self):
        # Unit targets t0=(1,0), t1=(0,1), t2=(.6,.8); mapped sources s0=(1,0),
        # s1=(.8,.6), s2=(0,-1). With csls_k=2, r_S(y) averages y's two largest
        # cosines to the sources; the self fallback uses the other targets.
        # Swapping sides (r_T of the sources) would give 0.8, 0.88, -0.4.
        tgt = space_from(np.array([[2.0, 0.0], [0.0, 3.0], [0.6, 0.8]]))
        src = space_from(np.array([[1.0, 0.0], [0.8, 0.6], [0.0, -5.0]]), prefix="s")
        mapped = build_index(tgt, csls_k=2, source_space=src)
        assert mapped.csls_density == pytest.approx([0.9, 0.3, 0.78], abs=1e-12)
        assert build_index(tgt, csls_k=2).csls_density == pytest.approx([0.3, 0.4, 0.7], abs=1e-12)
        # CSLS(x, y) = 2 cos - r_T(x) - r_S(y), with r_T((1,0)) = (1 + .6) / 2
        ranked = csls_ranked(mapped, np.array([1.0, 0.0]), k=3)
        assert [t for t, _ in ranked] == ["t000", "t002", "t001"]
        assert [s for _, s in ranked] == pytest.approx([0.3, -0.38, -1.1], abs=1e-12)


class TestKnnCosine:
    def test_exact_row_ranks_first(self):
        rng = np.random.default_rng(2)
        space = space_from(rng.standard_normal((20, 5)))
        index = build_index(space, csls_k=2)
        results = cosine_ranked(index, space.matrix[7], k=3)
        assert results[0][0] == "t007"
        assert results[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_k_clamped_to_vocab(self):
        space = space_from(np.eye(3))
        index = build_index(space, csls_k=1)
        assert len(cosine_ranked(index, np.array([1.0, 0.0, 0.0]), k=10)) == 3

    def test_tie_broken_by_lower_index(self):
        matrix = np.array([[0.6, 0.8], [0.6, -0.8], [-1.0, 0.0]])
        index = build_index(space_from(matrix), csls_k=1)
        results = cosine_ranked(index, np.array([1.0, 0.0]), k=2)
        assert [token for token, _ in results] == ["t000", "t001"]

    def test_zero_query_rejected(self):
        index = build_index(space_from(np.eye(3)), csls_k=1)
        with pytest.raises(ValueError, match="zero"):
            cosine_ranked(index, np.zeros(3), k=1)

    def test_k_must_be_positive(self):
        index = build_index(space_from(np.eye(3)), csls_k=1)
        with pytest.raises(ValueError, match="k must be"):
            cosine_ranked(index, np.array([1.0, 0.0, 0.0]), k=0)

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.5, 20.0))
    @settings(max_examples=25)
    def test_query_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        space = space_from(rng.standard_normal((15, 4)))
        index = build_index(space, csls_k=3)
        query = rng.standard_normal(4)
        base = cosine_ranked(index, query, k=5)
        scaled = cosine_ranked(index, scale * query, k=5)
        assert [t for t, _ in base] == [t for t, _ in scaled]
        for (_, a), (_, b) in zip(base, scaled):
            assert a == pytest.approx(b, abs=1e-9)


class TestKnnCsls:
    def test_constant_densities_match_cosine_ranking(self):
        # orthonormal targets all have density zero, so CSLS is a monotone
        # shift of cosine and the rankings coincide
        rng = np.random.default_rng(3)
        space = space_from(np.eye(6))
        index = build_index(space, csls_k=2)
        query = rng.standard_normal(6)
        cos = [t for t, _ in cosine_ranked(index, query, k=6)]
        csls = [t for t, _ in csls_ranked(index, query, k=6)]
        assert cos == csls

    def test_k_must_be_positive(self):
        index = build_index(space_from(np.eye(3)), csls_k=1)
        with pytest.raises(ValueError, match="k must be positive"):
            csls_ranked(index, np.array([1.0, 0.0, 0.0]), k=0)

    def test_matches_definitional_oracle_on_toy_hub(self):
        # 20-word toy: dense cluster plus spread-out specifics; CSLS must
        # reproduce the definitional oracle exactly, hub demotion included
        rng = np.random.default_rng(4)
        center = unit(rng.standard_normal((1, 8)))[0]
        cluster = unit(center + 0.1 * rng.standard_normal((12, 8)))
        spread = unit(rng.standard_normal((7, 8)))
        matrix = np.vstack([center[None, :], cluster, spread])
        space = space_from(matrix)
        index = build_index(space, csls_k=3)
        for _ in range(10):
            query = unit(center + 0.2 * rng.standard_normal((1, 8)))[0]
            expected = oracle_csls_ranking(matrix, query, csls_k=3)
            got = [space.vocab.index(t) for t, _ in csls_ranked(index, query, k=20)]
            assert got == expected

    def test_scores_are_the_csls_expression_bit_for_bit(self):
        # the kernel rewrites each chunk's cosine block in place; a block of the same
        # shape has the same bits, so 2 cos - r_T - r_S over it must match exactly
        rng = np.random.default_rng(8)
        index = build_index(space_from(rng.standard_normal((700, 16))), csls_k=10)
        queries = rng.standard_normal((300, 16))
        idx, scores = batch_csls_topk(index, queries, k=7)
        for start in range(0, len(queries), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cos = unit_rows(queries)[rows] @ index.space.matrix.T
            r_t = _mean_topk(cos.copy(), index.csls_k)
            expected = 2.0 * cos - r_t[:, None] - index.csls_density[None, :]
            assert np.array_equal(idx[rows], _stable_topk(expected, 7))
            assert np.array_equal(scores[rows], np.take_along_axis(expected, idx[rows], axis=1))

    def test_symmetric_with_cross_registered_densities(self):
        rng = np.random.default_rng(6)
        src = space_from(rng.standard_normal((9, 5)), prefix="s")
        tgt = space_from(rng.standard_normal((9, 5)), prefix="t")
        fwd = build_index(tgt, csls_k=3, source_space=src)
        bwd = build_index(src, csls_k=3, source_space=tgt)
        s, t = unit(src.matrix), unit(tgt.matrix)
        _, fwd_scores = batch_csls_topk(fwd, s, k=9)
        _, bwd_scores = batch_csls_topk(bwd, t, k=9)
        fwd_idx, _ = batch_csls_topk(fwd, s, k=9)
        bwd_idx, _ = batch_csls_topk(bwd, t, k=9)
        fwd_full = np.full((9, 9), np.nan)
        bwd_full = np.full((9, 9), np.nan)
        for q in range(9):
            fwd_full[q, fwd_idx[q]] = fwd_scores[q]
            bwd_full[q, bwd_idx[q]] = bwd_scores[q]
        assert np.abs(fwd_full - bwd_full.T).max() <= 1e-9


class TestOracleAgreement:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_cosine_permutation_equality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        d = int(rng.integers(2, 10))
        matrix = rng.standard_normal((n, d))
        space = space_from(matrix)
        query = rng.standard_normal(d)
        idx, _ = batch_cosine_topk(space, query, k=n)
        assert list(idx[0]) == oracle_cosine_ranking(matrix, query)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_csls_permutation_equality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        d = int(rng.integers(2, 8))
        matrix = rng.standard_normal((n, d))
        index = build_index(space_from(matrix), csls_k=3)
        query = rng.standard_normal(d)
        idx, _ = batch_csls_topk(index, query, k=n)
        assert list(idx[0]) == oracle_csls_ranking(matrix, query, csls_k=3)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_ties_at_kth_value_match_oracles(self, seed):
        # k below n reaches the partition path; with few distinct rows the
        # k-th value is often shared, so rows with exactly k candidates and
        # rows whose ties straddle the k-th value meet in one candidate sort
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        d = int(rng.integers(4, 7))
        matrix = exact_tie_rows(rng, n, d, distinct=int(rng.integers(3, n)))
        queries = exact_tie_rows(rng, 6, d, distinct=6)
        k = int(rng.integers(1, n))
        cos_idx, _ = batch_cosine_topk(space_from(matrix), queries, k=k)
        csls_idx, _ = batch_csls_topk(build_index(space_from(matrix), csls_k=3), queries, k=k)
        for q, query in enumerate(queries):
            assert list(cos_idx[q]) == oracle_cosine_ranking(matrix, query)[:k]
            assert list(csls_idx[q]) == oracle_csls_ranking(matrix, query, csls_k=3)[:k]


class TestScoreChunks:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("m", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 600])
    def test_blocks_tile_the_queries_in_one_buffer(self, dtype, m):
        rng = np.random.default_rng(m)
        queries = rng.standard_normal((m, 7)).astype(dtype)
        t = rng.standard_normal((40, 7)).astype(dtype)  # scored as t.T, a transposed view
        bounds, first = [], None
        for start, stop, block in _score_chunks(queries, t.T):
            # checked as each block is yielded, since the next one overwrites it
            first = block if first is None else first
            bounds.append((start, stop))
            expected = queries[start:stop] @ t.T
            assert block.dtype == expected.dtype == dtype
            assert block.tobytes() == expected.tobytes()
            assert np.shares_memory(block, first)
        edges = list(range(0, m, CHUNK_ROWS)) + [m]
        assert bounds == list(zip(edges[:-1], edges[1:]))


class TestStableTopk:
    @given(m=st.integers(1, 300), n=st.integers(1, 50), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_full_stable_argsort(self, m, n, data):
        # tie-rich integer rows (one to three levels, so whole rows can tie)
        # mixed with continuous rows in one block, and every k from 1 to n
        k = data.draw(st.integers(1, n), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scores = rng.standard_normal((m, n))
        tied = rng.random(m) < data.draw(st.floats(0.0, 1.0), label="tied share")
        scores[tied] = rng.integers(0, rng.integers(1, 4), size=(int(tied.sum()), n))
        got = _stable_topk(scores, k)
        assert got.shape == (m, k) and got.dtype == np.intp
        assert np.array_equal(got, np.argsort(-scores, axis=1, kind="stable")[:, :k])


class TestBatch:
    def test_batch_order_matches_serial(self):
        # 600 queries fill two 256-row chunks and a partial third
        rng = np.random.default_rng(7)
        space = space_from(rng.standard_normal((50, 6)))
        index = build_index(space, csls_k=3)
        queries = rng.standard_normal((600, 6))
        for search, target in ((batch_cosine_topk, space), (batch_csls_topk, index)):
            idx_all, _ = search(target, queries, k=5)
            idx_one, _ = search(target, queries[300], k=5)
            assert np.array_equal(idx_all[300], idx_one[0])

    def test_query_dimension_checked(self):
        space = space_from(np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            batch_cosine_topk(space, np.ones((2, 4)), k=1)
        with pytest.raises(ValueError, match="dimension"):
            batch_csls_topk(build_index(space, csls_k=1), np.ones((2, 4)), k=1)
