"""Plain-numpy references for meemi's outputs, used to check the library.

The references rank every candidate with ``np.lexsort((index, -score))``,
so ties go to the lower vocabulary index, and compute CSLS exactly as
Conneau et al. 2018 define it: CSLS(x, y) = 2 cos(x, y) - r_T(x) - r_S(y),
where r_T(x) is the query's mean cosine to its csls_k nearest target rows
and r_S(y) is target y's mean cosine to its csls_k nearest *mapped source*
rows. On top of that ranking they recompute the quality numbers the
workloads report (BLI P@k, the midpoint refinement, the similarity shift,
Spearman's rho and hypernym MRR). Least-squares maps are solved through
the normal equations, not ``lstsq`` as the library does. None of this
shares code with ``meemi.retrieval``, ``meemi.refinement`` or
``meemi.evaluation``.
"""

from __future__ import annotations

import numpy as np

from meemi import retrieval
from meemi.embeddings import EmbeddingSpace

SCORE_ATOL = 1e-9
CHUNK_ROWS = 512
# query rows ranked at once when recomputing P@k or MRR over every query:
# small, so the reference never sets the run's peak RSS
QUERY_CHUNK = 128


def _unit(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _rank(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    index = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    order = np.lexsort((index, -scores), axis=-1)[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


def _mean_top(sims: np.ndarray, k: int) -> np.ndarray:
    return np.sort(sims, axis=1)[:, -k:].mean(axis=1)


def reference_densities(target: np.ndarray, source: np.ndarray, csls_k: int) -> np.ndarray:
    """r_S(y) for every target row y, in row chunks to bound memory."""
    t, s = _unit(target), _unit(source)
    return np.concatenate([
        _mean_top(t[start:start + CHUNK_ROWS] @ s.T, csls_k)
        for start in range(0, len(t), CHUNK_ROWS)
    ])


def reference_cosine_topk(target: np.ndarray, queries: np.ndarray, k: int):
    return _rank(_unit(queries) @ _unit(target).T, k)


def reference_csls_topk(
    target: np.ndarray, queries: np.ndarray, k: int, csls_k: int, r_source: np.ndarray
):
    cos = _unit(queries) @ _unit(target).T
    r_query = _mean_top(cos, csls_k)
    return _rank(2.0 * cos - r_query[:, None] - r_source[None, :], k)


def _positions(vocab) -> dict[str, int]:
    return {word: i for i, word in enumerate(vocab)}


def _ranked(target: np.ndarray, queries: np.ndarray, k: int, r_source=None, csls_k=None):
    """Top-k target indexes of every query, ranked QUERY_CHUNK queries at a time."""
    parts = []
    for start in range(0, len(queries), QUERY_CHUNK):
        chunk = queries[start:start + QUERY_CHUNK]
        if r_source is None:
            parts.append(reference_cosine_topk(target, chunk, k)[0])
        else:
            parts.append(reference_csls_topk(target, chunk, k, csls_k, r_source)[0])
    return np.concatenate(parts)


def reference_bli(source, target, pairs, mode: str, csls_k: int, ks=(1, 5, 10)) -> dict:
    """P@k as ``eval_bli`` defines it: each unique source word is one query,
    and it scores at k when any of its gold targets ranks in the top k."""
    src_at, tgt_at = _positions(source.vocab), _positions(target.vocab)
    gold: dict[str, set[int]] = {}
    for s, t in pairs:
        gold.setdefault(s, set()).add(tgt_at[t])
    words = list(gold)
    queries = source.matrix[[src_at[w] for w in words]]
    r_source = reference_densities(target.matrix, source.matrix, csls_k) if mode == "csls" else None
    ranked = _ranked(target.matrix, queries, max(ks), r_source, csls_k)
    first_hit = np.full(len(words), np.inf)
    for q, row in enumerate(ranked):
        hits = [rank for rank, j in enumerate(row) if j in gold[words[q]]]
        if hits:
            first_hit[q] = hits[0]
    return {f"P@{k}": float((first_hit < k).mean()) for k in ks}


def _rows(space, words) -> np.ndarray:
    at = _positions(space.vocab)
    return space.matrix[[at[w] for w in words]]


def _solve_least_squares(inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return np.linalg.solve(inputs.T @ inputs, inputs.T @ targets)


def reference_meemi(aligned, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Refined (source, target) matrices: each side is mapped by its own
    least-squares map onto the midpoints of the dictionary pairs."""
    a = _rows(aligned.source, [s for s, _ in pairs])
    b = _rows(aligned.target, [t for _, t in pairs])
    mu = (a + b) / 2.0
    return (aligned.source.matrix @ _solve_least_squares(a, mu),
            aligned.target.matrix @ _solve_least_squares(b, mu))


def _pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (_unit(a) * _unit(b)).sum(axis=1)


def reference_shift_fraction(before, after, pairs) -> float:
    """Share of dictionary pairs whose cosine grew from ``before`` to ``after``."""
    src, tgt = [s for s, _ in pairs], [t for _, t in pairs]
    delta = (_pair_cosines(_rows(after.source, src), _rows(after.target, tgt))
             - _pair_cosines(_rows(before.source, src), _rows(before.target, tgt)))
    return float((delta > 0).mean())


def _average_ranks(x: np.ndarray) -> np.ndarray:
    ranks = np.empty(len(x))
    ranks[np.argsort(x, kind="stable")] = np.arange(1, len(x) + 1)
    _, group, size = np.unique(x, return_inverse=True, return_counts=True)
    return (np.bincount(group, weights=ranks) / size)[group]


def reference_spearman(space_a, space_b, triples) -> float:
    """Spearman's rho of cross-space cosines against gold, ties at average rank."""
    predicted = _pair_cosines(_rows(space_a, [a for a, _, _ in triples]),
                              _rows(space_b, [b for _, b, _ in triples]))
    gold = np.array([score for _, _, score in triples])
    return float(np.corrcoef(_average_ranks(gold), _average_ranks(predicted))[0, 1])


def reference_hypernym_mrr(space, train, test, k: int) -> float:
    """MRR over the top k cosine candidates of the projected query, the query
    word itself left out; the projection is fitted on every training pair."""
    rows = [(q, g) for q, golds in train.entries for g in golds]
    projection = _solve_least_squares(_rows(space, [q for q, _ in rows]),
                                      _rows(space, [g for _, g in rows]))
    at = _positions(space.vocab)
    queries = [at[q] for q, _ in test.entries]
    ranked = _ranked(space.matrix, space.matrix[queries] @ projection, k + 1)
    reciprocal = []
    for q, (_, golds), row in zip(queries, test.entries, ranked):
        gold = {at[g] for g in golds}
        top = [j for j in row if j != q][:k]
        hits = [rank for rank, j in enumerate(top, start=1) if j in gold]
        reciprocal.append(1.0 / hits[0] if hits else 0.0)
    return float(np.mean(reciprocal))


def topk_mismatch(got, want) -> str | None:
    """Why two (indexes, scores) results differ, or None when they agree.

    Indexes must match exactly, order included; scores within SCORE_ATOL.
    """
    got_idx, got_scores = (np.asarray(a) for a in got)
    want_idx, want_scores = (np.asarray(a) for a in want)
    if got_idx.shape != want_idx.shape:
        return f"shape {got_idx.shape} != {want_idx.shape}"
    bad = np.flatnonzero((got_idx != want_idx).any(axis=1))
    if bad.size:
        q = bad[0]
        return f"{bad.size} queries ranked differently, first q={q}: {got_idx[q].tolist()} != {want_idx[q].tolist()}"
    if not np.allclose(got_scores, want_scores, rtol=0.0, atol=SCORE_ATOL):
        return f"scores differ by {np.abs(got_scores - want_scores).max():.3e}"
    return None


def check_retrieval(checks, label, target, queries, k, csls_k=None, source=None) -> None:
    """Compare batch_cosine_topk, and batch_csls_topk when ``source`` is given."""
    got = retrieval.batch_cosine_topk(target, queries, k)
    checks.expect(topk_mismatch(got, reference_cosine_topk(target.matrix, queries, k)),
                  f"{label} cosine top-{k} vs reference")
    if source is None:
        return
    index = retrieval.build_index(target, csls_k, source_space=source)
    r_source = reference_densities(target.matrix, source.matrix, csls_k)
    checks.require(np.allclose(index.csls_density, r_source, rtol=0.0, atol=SCORE_ATOL),
                   f"{label} CSLS densities vs mapped-source reference")
    got = retrieval.batch_csls_topk(index, queries, k)
    want = reference_csls_topk(target.matrix, queries, k, csls_k, r_source)
    checks.expect(topk_mismatch(got, want), f"{label} CSLS top-{k} vs reference")


# Axis-aligned unit rows with duplicates: every cosine is exactly 0 or 1 and
# every density a mean of those, so tied scores are exactly equal and the
# expected order follows from the tie rule alone (lower index first).
TIE_ROWS = [0, 1, 0, 2, 1, 3, 0]
TIE_QUERIES = [0, 1, 3]
TIE_K = 4
TIE_CSLS_K = 2
TIE_COSINE = [[0, 2, 6, 1], [1, 4, 0, 2], [5, 0, 1, 2]]
# r_S = 1 for the e0 and e1 rows, 0.5 for e2 and e3; r_T = 1, 1, 0.5.
TIE_CSLS = [[0, 2, 6, 3], [1, 4, 3, 5], [5, 3, 0, 1]]


def check_ties(checks) -> None:
    """Fixed case with duplicated target rows; ties must go to the lower index."""
    eye = np.eye(4)
    target = EmbeddingSpace([f"t{i}" for i in range(len(TIE_ROWS))], eye[TIE_ROWS])
    queries = eye[TIE_QUERIES]
    idx, _ = retrieval.batch_cosine_topk(target, queries, TIE_K)
    checks.require(idx.tolist() == TIE_COSINE, "tie case cosine order", str(idx.tolist()))
    index = retrieval.build_index(target, TIE_CSLS_K, source_space=target)
    idx, _ = retrieval.batch_csls_topk(index, queries, TIE_K)
    checks.require(idx.tolist() == TIE_CSLS, "tie case CSLS order", str(idx.tolist()))
