"""Evaluation metrics: dictionary induction P@k, word-similarity
correlations, and hypernym-discovery MRR / MAP / P@k.

Every metric is cosine-based, so all reports are invariant under positive
uniform scaling of the embedding spaces. Per-query work is independent;
batch retrieval preserves input order, so aggregation is deterministic.
Tokens become rows once, through ``EmbeddingSpace.rows_of``, and every
metric is then computed on row indexes. Pearson and Spearman are computed
in numpy with scipy's arithmetic, step for step, so they equal
``scipy.stats.pearsonr`` and ``spearmanr`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import SpacePair, pair_cosines
from .embeddings import EmbeddingSpace
from .lexicon import BilingualLexicon, HypernymDataset, SimilarityDataset
from .retrieval import DEFAULT_CSLS_K, batch_cosine_topk, batch_csls_topk, build_index
from .solvers import LinearMap, fit_least_squares

RETRIEVAL_MODES = ("cosine", "csls")
DEFAULT_HYPERNYM_K = 15


@dataclass
class EvalReport:
    """Named metric values with their provenance (task, dataset, retrieval)."""

    task: str
    dataset: str
    retrieval: str
    metrics: dict[str, float]
    resolved: int
    total: int

    def __post_init__(self):
        for name, value in self.metrics.items():
            if not np.isfinite(value):
                raise ValueError(f"metric {name} is not finite")

    def to_text(self) -> str:
        width = max(len(name) for name in self.metrics) if self.metrics else 0
        lines = [
            f"task        {self.task}",
            f"dataset     {self.dataset}",
            f"retrieval   {self.retrieval}",
            f"resolved    {self.resolved}/{self.total}",
        ]
        lines += [f"{name.ljust(width)}  {value:.4f}" for name, value in self.metrics.items()]
        return "\n".join(lines)

    def to_tsv(self) -> str:
        lines = [
            f"task\t{self.task}",
            f"dataset\t{self.dataset}",
            f"retrieval\t{self.retrieval}",
            f"resolved\t{self.resolved}",
            f"total\t{self.total}",
        ]
        lines += [f"{name}\t{value:.6f}" for name, value in self.metrics.items()]
        return "\n".join(lines)


def _topk(
    queries: np.ndarray,
    candidates: EmbeddingSpace,
    k: int,
    retrieval: str,
    csls_k: int,
    density_space: EmbeddingSpace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(indexes, scores) of each query's top-k candidate rows under ``retrieval``;
    CSLS densities are taken against ``density_space`` when given."""
    if retrieval not in RETRIEVAL_MODES:
        modes = " or ".join(map(repr, RETRIEVAL_MODES))
        raise ValueError(f"unknown retrieval mode {retrieval!r}; use {modes}")
    if retrieval == "cosine":
        return batch_cosine_topk(candidates, queries, k)
    index = build_index(candidates, csls_k, source_space=density_space)
    return batch_csls_topk(index, queries, k)


def _gold_keys(candidates: EmbeddingSpace, owner: np.ndarray, golds: list[str]) -> np.ndarray:
    """``query * len(candidates) + row`` for each distinct (query, gold row)
    pair that resolves among the candidates; ``owner`` holds each gold's query."""
    rows = candidates.rows_of(golds)
    return np.unique(owner[rows >= 0] * len(candidates) + rows[rows >= 0])


def eval_bli(
    aligned: SpacePair,
    test_lexicon: BilingualLexicon,
    retrieval: str = "cosine",
    ks: tuple[int, ...] = (1, 5, 10),
    csls_k: int = DEFAULT_CSLS_K,
    dataset: str = "",
) -> EvalReport:
    """Precision at k for dictionary induction.

    Each unique source token is one query; its gold set is every target
    listed for it. A query scores at k when any gold member appears in the
    top-k retrieved tokens. Queries whose source token or entire gold set
    is out of vocabulary are skipped and counted in the totals.
    """
    if not ks or min(ks) < 1:
        raise ValueError("ks must be positive ranks")
    query_of = {s: q for q, s in enumerate(dict.fromkeys(s for s, _ in test_lexicon.pairs))}
    owner = np.array([query_of[s] for s, _ in test_lexicon.pairs], dtype=np.intp)
    n = len(aligned.target)
    keys = _gold_keys(aligned.target, owner, [t for _, t in test_lexicon.pairs])
    src_rows = aligned.source.rows_of(query_of)
    kept = (src_rows >= 0) & (np.bincount(keys // n, minlength=len(query_of)) > 0)
    if not kept.any():
        raise ValueError("no evaluable dictionary query resolves in the aligned spaces")
    idx, _ = _topk(
        aligned.source.matrix[src_rows[kept]], aligned.target, max(ks), retrieval, csls_k,
        density_space=aligned.source,
    )
    hit = np.isin(np.flatnonzero(kept)[:, None] * n + idx, keys)
    metrics = {f"P@{k}": float(hit[:, :k].any(axis=1).mean()) for k in ks}
    return EvalReport("bli", dataset, retrieval, metrics, len(idx), len(query_of))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r in the order of scipy's ``pearsonr``: centre, scale by the
    max-abs so the norm cannot overflow, then a ``vecdot`` of the unit series.
    Two points give exactly +-1, as in scipy."""
    xm = x - np.mean(x, axis=-1, keepdims=True)
    ym = y - np.mean(y, axis=-1, keepdims=True)
    xmax = np.max(np.abs(xm), axis=-1, keepdims=True)
    ymax = np.max(np.abs(ym), axis=-1, keepdims=True)
    nx = xmax * np.linalg.norm(xm / xmax, axis=-1, keepdims=True)
    ny = ymax * np.linalg.norm(ym / ymax, axis=-1, keepdims=True)
    r = np.clip(np.vecdot(xm / nx, ym / ny, axis=-1), -1.0, 1.0)
    return float(np.round(r) if x.size == 2 else r)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their mean rank (scipy's ``rankdata``)."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho as scipy's ``spearmanr`` takes it: the correlation
    matrix of the rank columns, so the means and sums run in the same order."""
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def eval_similarity(
    pair: SpacePair,
    dataset: SimilarityDataset,
    dataset_name: str = "",
) -> EvalReport:
    """Pearson and Spearman correlation of cosine scores against gold.

    Each triple's first word is looked up in the source space and its
    second in the target space; pass ``SpacePair(space, space)`` for
    monolingual benchmarks. Spearman uses average ranks for ties. Both are
    computed in numpy and equal scipy's ``pearsonr`` and ``spearmanr`` bit
    for bit. Triples with an unresolvable token or a zero vector are
    skipped and counted.
    """
    rows_a = pair.source.rows_of([w1 for w1, _, _ in dataset.triples])
    rows_b = pair.target.rows_of([w2 for _, w2, _ in dataset.triples])
    kept = (rows_a >= 0) & (rows_b >= 0)
    a, b = pair.source.matrix[rows_a[kept]], pair.target.matrix[rows_b[kept]]
    nonzero = (np.linalg.norm(a, axis=1) != 0.0) & (np.linalg.norm(b, axis=1) != 0.0)
    preds = pair_cosines(a[nonzero], b[nonzero])
    golds = np.array([gold for _, _, gold in dataset.triples], dtype=np.float64)[kept][nonzero]
    if len(preds) < 2:
        raise ValueError("need at least 2 resolvable triples for correlation")
    for name, series in (("predicted", preds), ("gold", golds)):
        if np.ptp(series) == 0.0:
            raise ValueError(f"{name} scores have zero variance; correlation is undefined")
    metrics = {"pearson_r": _pearson(golds, preds), "spearman_rho": _spearman(golds, preds)}
    return EvalReport("similarity", dataset_name, "cosine", metrics, len(preds), len(dataset.triples))


def _vectors(pair: SpacePair, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each token's vector (zeros where it does not resolve) and the mask of
    tokens that resolve. A token resolves in the source space first, then
    in the target space."""
    vectors = np.zeros((len(tokens), pair.source.dim))
    found = np.zeros(len(tokens), dtype=bool)
    for s in (pair.source, pair.target):
        rows = s.rows_of(tokens)
        new = ~found & (rows >= 0)
        vectors[new] = s.matrix[rows[new]]
        found |= new
    return vectors, found


def fit_hypernym_projection(pair: SpacePair, train: HypernymDataset) -> LinearMap:
    """Least-squares map from hyponym vectors to their hypernym vectors.

    Each (query, gold) combination contributes one regression row, in
    dataset order. Tokens are looked up in the source space first and then
    in the target space, so training pairs from either language can be
    mixed in one file; pass ``SpacePair(space, space)`` for one language.
    """
    queries, q_found = _vectors(pair, [query for query, _ in train.entries])
    owner = np.repeat(np.arange(len(train.entries)), [len(g) for _, g in train.entries])
    golds, g_found = _vectors(pair, [g for _, golds in train.entries for g in golds])
    kept = q_found[owner] & g_found
    if not kept.any():
        raise ValueError("no training pair resolves in the embedding space")
    return fit_least_squares(queries[owner[kept]], golds[kept])


def eval_hypernyms(
    pair: SpacePair,
    projection: LinearMap,
    test: HypernymDataset,
    k: int = DEFAULT_HYPERNYM_K,
    retrieval: str = "cosine",
    csls_k: int = DEFAULT_CSLS_K,
    dataset_name: str = "",
) -> EvalReport:
    """MRR, MAP and P@5 over projected hypernym candidates.

    Candidates are the target space's rows other than the query's own;
    queries are looked up as in ``fit_hypernym_projection``. Per query,
    the reciprocal rank is 1/rank of the first gold in the top-k list (0
    when absent), average precision is the mean precision over gold hits
    normalized by min(|gold|, k), and P@5 counts gold hits in the top 5
    against min(|gold|, 5).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    candidates = pair.target
    tokens = [query for query, _ in test.entries]
    queries, found = _vectors(pair, tokens)
    owner = np.repeat(np.arange(len(tokens)), [len(g) for _, g in test.entries])
    keys = _gold_keys(candidates, owner, [g for _, golds in test.entries for g in golds])
    n_gold = np.bincount(keys // len(candidates), minlength=len(tokens))
    kept = found & (n_gold > 0)
    if not kept.any():
        raise ValueError("no test query resolves in the embedding space")
    projected = queries[kept] @ projection.matrix
    # one extra rank so dropping the query's own row still leaves k
    idx, _ = _topk(projected, candidates, k + 1, retrieval, csls_k)
    hit = np.isin(np.flatnonzero(kept)[:, None] * len(candidates) + idx, keys)
    own = candidates.rows_of(tokens)[kept]
    rr, ap, p5 = [], [], []
    for q, n in enumerate(n_gold[kept]):
        hits = np.flatnonzero(hit[q][idx[q] != own[q]][:k]) + 1
        rr.append(1.0 / hits[0] if hits.size else 0.0)
        precisions = np.arange(1, hits.size + 1) / hits
        ap.append((float(np.mean(precisions)) if hits.size else 0.0) / min(n, k))
        p5.append(np.count_nonzero(hits <= 5) / min(n, 5))
    metrics = {
        "MRR": float(np.mean(rr)),
        "MAP": float(np.mean(ap)),
        "P@5": float(np.mean(p5)),
    }
    return EvalReport("hypernym", dataset_name, retrieval, metrics, len(idx), len(test.entries))
