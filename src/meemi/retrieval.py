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
after another, since BLAS already parallelises each chunk's matmul; a
MEEMI_THREADS value above 1 opts into a thread pool of that many workers
over the chunks. Results always come back in input order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, normalize_unit

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
    """Chunk-pool size: 1 unless MEEMI_THREADS > 1 opts into a pool (max 64)."""
    try:
        n = int(os.environ.get("MEEMI_THREADS", "0"))
    except ValueError:
        n = 1
    return max(1, min(n, 64))


def _unit_rows(matrix: np.ndarray, what: str) -> np.ndarray:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    if (norms == 0.0).any():
        raise ValueError(f"zero {what} vector cannot be scored by cosine")
    return matrix / norms[:, None]


def _score_reduce(queries: np.ndarray, target_t: np.ndarray, reduce, threads: int | None = None) -> None:
    """Call reduce(start, stop, queries[start:stop] @ target_t) per row chunk.

    ``reduce`` owns the score block and writes into outputs the caller made.
    """
    m = queries.shape[0]
    spans = [(start, min(start + CHUNK_ROWS, m)) for start in range(0, m, CHUNK_ROWS)]
    def work(span):
        start, stop = span
        reduce(start, stop, queries[start:stop] @ target_t)
    threads = worker_count() if threads is None else threads
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(spans))) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)


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
    """Row-wise mean of the k largest scores."""
    if k >= scores.shape[1]:
        return scores.mean(axis=1)
    top = np.partition(scores, scores.shape[1] - k, axis=1)[:, -k:]
    return top.mean(axis=1)


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
        other = _unit_rows(source_space.matrix, "source")
    density = np.empty(len(space), dtype=np.float64)
    def reduce(start, stop, sims):
        # sims is this chunk's own block, so it is partitioned in place
        if source_space is None:
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        if csls_k < sims.shape[1]:
            sims.partition(sims.shape[1] - csls_k, axis=1)
        density[start:stop] = sims[:, -csls_k:].mean(axis=1)
    _score_reduce(unit.matrix, other.T, reduce)
    return RetrievalIndex(unit, csls_k, density)


def batch_cosine_topk(
    space: EmbeddingSpace, queries: np.ndarray, k: int, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k cosine neighbors for every query row; returns (indexes, scores)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, len(space))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != space.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != space dimension {space.dim}")
    unit = normalize_unit(space)
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    top = np.empty((queries.shape[0], k), dtype=np.float64)
    def reduce(start, stop, sims):
        idx[start:stop] = _stable_topk(sims, k)
        top[start:stop] = np.take_along_axis(sims, idx[start:stop], axis=1)
    _score_reduce(_unit_rows(queries, "query"), unit.matrix.T, reduce, threads)
    return idx, top


def batch_csls_topk(
    index: RetrievalIndex,
    queries: np.ndarray,
    k: int,
    query_density: np.ndarray | None = None,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k CSLS neighbors for every query row; returns (indexes, scores).

    ``query_density`` overrides r_T per query; by default it is computed
    here as the mean cosine of each query to its csls_k nearest index rows.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, len(index))
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != index.space.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != index dimension {index.space.dim}")
    if query_density is not None:
        query_density = np.broadcast_to(
            np.asarray(query_density, dtype=np.float64), (queries.shape[0],)
        )
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    top = np.empty((queries.shape[0], k), dtype=np.float64)
    def reduce(start, stop, cos):
        if query_density is None:
            r_query = _mean_topk(cos, index.csls_k)
        else:
            r_query = query_density[start:stop]
        scores = 2.0 * cos - r_query[:, None] - index.csls_density[None, :]
        idx[start:stop] = _stable_topk(scores, k)
        top[start:stop] = np.take_along_axis(scores, idx[start:stop], axis=1)
    _score_reduce(_unit_rows(queries, "query"), index.space.matrix.T, reduce, threads)
    return idx, top


def knn_cosine(index: RetrievalIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Ranked (token, cosine) list of the k nearest rows to one query."""
    idx, scores = batch_cosine_topk(index.space, query, k)
    return [(index.space.vocab[i], float(s)) for i, s in zip(idx[0], scores[0])]


def knn_csls(
    index: RetrievalIndex, query: np.ndarray, query_density: float | None = None, k: int = 1
) -> list[tuple[str, float]]:
    """Ranked (token, CSLS score) list of the k best rows for one query."""
    density = None if query_density is None else np.array([query_density])
    idx, scores = batch_csls_topk(index, query, k, query_density=density)
    return [(index.space.vocab[i], float(s)) for i, s in zip(idx[0], scores[0])]
