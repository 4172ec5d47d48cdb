"""Exact k-nearest-neighbor search under cosine and CSLS scores.

CSLS(x, y) = 2 cos(x, y) - r_T(x) - r_S(y), where r_T(x) is the query's
mean cosine to its csls_k nearest target rows and r_S(y) is the cached
density of target y. Densities are computed against a registered source
space when one is given, otherwise against the target space itself with
self-similarity excluded. Penalizing dense neighborhoods this way keeps
hub vectors from dominating nearest-neighbor retrieval.

Search is exact brute force. Ties are broken by ascending vocabulary
index, so results are reproducible. Queries are scored in chunks of
CHUNK_ROWS rows, each reduced (top-k, mean top-k or argmax) before the
next, so each temporary peaks at CHUNK_ROWS x V floats. Chunks run one
after another; BLAS parallelises each chunk. Results come back in input
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


def _score_reduce(queries: np.ndarray, target_t: np.ndarray, reduce) -> None:
    """Call reduce(start, stop, queries[start:stop] @ target_t) per row chunk.

    ``reduce`` owns the score block and writes into outputs the caller made.
    """
    m = queries.shape[0]
    for start in range(0, m, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, m)
        reduce(start, stop, queries[start:stop] @ target_t)


def _stable_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k indexes per row, descending score, ties to the lower index.

    Only the columns scoring at least the row's k-th largest value are
    stable-sorted, in ascending index order, so the order is a full sort's.
    """
    n = scores.shape[1]
    keep = scores >= np.partition(scores, n - k, axis=1)[:, n - k, None]
    exact = keep.sum(axis=1) == k
    out = np.empty((scores.shape[0], k), dtype=np.intp)
    rows = np.flatnonzero(exact)
    cols = np.nonzero(keep[rows])[1].reshape(-1, k)
    order = np.argsort(-scores[rows[:, None], cols], axis=1, kind="stable")
    out[rows] = np.take_along_axis(cols, order, axis=1)
    for row in np.flatnonzero(~exact):  # ties straddle the k-th value
        cols = np.flatnonzero(keep[row])
        out[row] = cols[np.argsort(-scores[row, cols], kind="stable")[:k]]
    return out


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
    if len(space) == 0:
        raise ValueError("cannot index an empty space")
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
    def reduce(start, stop, sims):
        if source_space is None:
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        density[start:stop] = _mean_topk(sims, csls_k)
    _score_reduce(unit.matrix, other.T, reduce)
    return RetrievalIndex(unit, csls_k, density)


def batch_cosine_topk(
    space: EmbeddingSpace, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k cosine neighbors for every query row; returns (indexes, scores)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, len(space))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != space.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != space dimension {space.dim}")
    target = unit_rows(space.matrix, "target", space.vocab)
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    top = np.empty((queries.shape[0], k), dtype=np.float64)
    def reduce(start, stop, sims):
        idx[start:stop] = _stable_topk(sims, k)
        top[start:stop] = np.take_along_axis(sims, idx[start:stop], axis=1)
    _score_reduce(unit_rows(queries, "query"), target.T, reduce)
    return idx, top


def batch_csls_topk(
    index: RetrievalIndex, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k CSLS neighbors for every query row; returns (indexes, scores).

    r_T of each query is its mean cosine to its csls_k nearest index rows.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, len(index))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != index.space.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != index dimension {index.space.dim}")
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    top = np.empty((queries.shape[0], k), dtype=np.float64)
    def reduce(start, stop, cos):
        r_query = _mean_topk(cos.copy(), index.csls_k)
        scores = 2.0 * cos - r_query[:, None] - index.csls_density[None, :]
        idx[start:stop] = _stable_topk(scores, k)
        top[start:stop] = np.take_along_axis(scores, idx[start:stop], axis=1)
    _score_reduce(unit_rows(queries, "query"), index.space.matrix.T, reduce)
    return idx, top
