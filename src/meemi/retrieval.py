"""Exact k-nearest-neighbor search under cosine and CSLS scores.

CSLS(x, y) = 2 cos(x, y) - r_T(x) - r_S(y), where r_T(x) is the query's
mean cosine to its csls_k nearest target rows and r_S(y) is the cached
density of target y. Densities are computed against a registered source
space when one is given, otherwise against the target space itself with
self-similarity excluded. Penalizing dense neighborhoods this way keeps
hub vectors from dominating nearest-neighbor retrieval.

Search is exact brute force. Ties are broken by ascending vocabulary
index, so results are reproducible. Queries are scored in chunks of
CHUNK_ROWS rows into one reused CHUNK_ROWS x V block, each chunk reduced
(top-k, mean top-k or argmax) before the next is scored over it. Chunks run
one after another; BLAS parallelises each chunk. Results come back in input
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, normalize_unit, unit_rows

DEFAULT_CSLS_K = 10
CHUNK_ROWS = 256


@dataclass
class RetrievalIndex:
    """A queryable view of a target space: unit rows plus CSLS densities."""

    space: EmbeddingSpace
    csls_k: int
    csls_density: np.ndarray

    def __post_init__(self):
        density = np.ascontiguousarray(self.csls_density, dtype=np.float64)
        if density.shape != (len(self.space),):
            raise ValueError("density vector must have one entry per vocabulary row")
        if density.size and (density.min() < -1.0 - 1e-9 or density.max() > 1.0 + 1e-9):
            raise ValueError("densities must lie in [-1, 1]")
        density.setflags(write=False)
        self.csls_density = density

    def __len__(self) -> int:
        return len(self.space)


def worker_count() -> int:
    """Always 1, as chunks run serially; kept while the benchmark harness reports it."""
    return 1


def _score_chunks(queries: np.ndarray, target_t: np.ndarray):
    """Yield (start, stop, queries[start:stop] @ target_t) per chunk of CHUNK_ROWS rows.

    Every block is a view of one buffer: it holds until the next is yielded.
    """
    m = queries.shape[0]
    buffer = np.empty((min(m, CHUNK_ROWS), target_t.shape[1]), np.result_type(queries, target_t))
    for start in range(0, m, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, m)
        yield start, stop, np.matmul(queries[start:stop], target_t, out=buffer[:stop - start])


def _stable_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k indexes per row, descending score, ties to the lower index.

    Only the columns scoring at least the row's k-th largest value are
    stable-sorted, in ascending index order, so the order is a full sort's.
    All rows' candidates go through one sort, by row and then by descending
    score; each row keeps its first k, however many tie at the k-th value.
    """
    kth = np.partition(scores, -k, axis=1)[:, -k, None]
    rows, cols = np.divmod(np.flatnonzero(scores >= kth), scores.shape[1])  # as np.nonzero
    order = np.lexsort((-scores[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(scores.shape[0]))
    return cols[order][starts[:, None] + np.arange(k)]


def _mean_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise mean of the k largest scores (all of them when k reaches the
    row length). Partitions ``scores`` in place."""
    if k < scores.shape[1]:
        scores.partition(scores.shape[1] - k, axis=1)
    return scores[:, -k:].mean(axis=1)


def build_index(
    space: EmbeddingSpace, csls_k: int = DEFAULT_CSLS_K, source_space: EmbeddingSpace | None = None
) -> RetrievalIndex:
    """Normalize a target space and precompute its CSLS densities.

    The density of a target row is its mean cosine to its csls_k nearest
    rows of ``source_space`` when given, else of the target space itself
    (excluding the row's own self-similarity).
    """
    if csls_k < 1:
        raise ValueError(f"csls_k must be positive, got {csls_k}")
    if csls_k >= len(space):
        raise ValueError(f"csls_k={csls_k} must be smaller than the vocabulary ({len(space)})")
    unit = normalize_unit(space)
    other = unit.matrix
    if source_space is not None:
        if source_space.dim != space.dim:
            raise ValueError("source space dimension does not match the indexed space")
        if csls_k > len(source_space):
            raise ValueError("csls_k exceeds the registered source vocabulary")
        other = unit_rows(source_space.matrix, "source")
    density = np.empty(len(space), dtype=np.float64)
    for start, stop, sims in _score_chunks(unit.matrix, other.T):
        if source_space is None:
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        density[start:stop] = _mean_topk(sims, csls_k)
    return RetrievalIndex(unit, csls_k, density)


def _search(queries, target_rows: np.ndarray, k: int, index=None) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of every query row against unit ``target_rows`` by cosine, or by CSLS
    under the RetrievalIndex ``index`` when given; returns (indexes, scores)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, len(target_rows))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    q_dim, t_dim = queries.shape[1], target_rows.shape[1]
    if q_dim != t_dim:
        raise ValueError(f"query dimension {q_dim} != target dimension {t_dim}")
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    top = np.empty((queries.shape[0], k), dtype=np.float64)
    for start, stop, sims in _score_chunks(unit_rows(queries, "query"), target_rows.T):
        if index is not None:
            r_query = _mean_topk(sims.copy(), index.csls_k)
            sims *= 2.0
            sims -= r_query[:, None]
            sims -= index.csls_density[None, :]
        idx[start:stop] = _stable_topk(sims, k)
        top[start:stop] = np.take_along_axis(sims, idx[start:stop], axis=1)
    return idx, top


def batch_cosine_topk(
    space: EmbeddingSpace, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k cosine neighbors for every query row; returns (indexes, scores)."""
    return _search(queries, unit_rows(space.matrix, "target", space.vocab), k)


def batch_csls_topk(
    index: RetrievalIndex, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k CSLS neighbors for every query row; returns (indexes, scores).

    r_T of each query is its mean cosine to its csls_k nearest index rows.
    """
    return _search(queries, index.space.matrix, k, index)
