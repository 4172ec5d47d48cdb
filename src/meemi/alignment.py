"""Supervised orthogonal alignment of two embedding spaces.

Both spaces are unit-normalized, mean-centred and unit-normalized again,
as VecMap does. An orthogonal map is then fitted on dictionary pairs and
applied to the source space only; the target space is never mapped.
Because the map is an isometry, all pairwise cosines inside the source
language are preserved.

An optional self-learning loop alternates fitting with dictionary
induction over the most frequent words (file order is taken to be
frequency order), keeping the best-scoring iteration. Training sets are
row indexes: the seed lexicon is resolved to rows once, induction returns
each source row's nearest target row, and each iteration trains on the
seed rows followed by every induced pair that does not repeat a seed
pair. An induced pair repeats a seed pair only when both seed tokens are
exact vocabulary tokens of its rows; seed pairs that resolve through the
lowercase fold, and repeated seed pairs, stay as extra rows.

Induction takes each source row's cosine argmax in two steps. A float32
pass screens every chunk of rows; a row keeps its float32 winner only when
every other target trails it by more than twice a rigorous bound on the
float32 error (about (D + 2) * 2^-24 for unit rows of dimension D). A
chunk holding any closer runner-up is re-scored in float64 exactly as
without the screen. Every induced pair, and so every map, score and file,
is the float64 result bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, unit_rows
from .lexicon import BilingualLexicon, resolve_rows
from .retrieval import CHUNK_ROWS, _score_chunks
from .solvers import LinearMap, apply_map, fit_procrustes

log = logging.getLogger(__name__)


@dataclass
class AlignmentConfig:
    self_learning: bool = False
    max_iterations: int = 50
    convergence_tol: float = 1e-6
    induction_vocab_cap: int = 20000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")
        if self.induction_vocab_cap < 1:
            raise ValueError("induction_vocab_cap must be positive")


@dataclass
class SpacePair:
    """A source and a target space of one dimension."""

    source: EmbeddingSpace
    target: EmbeddingSpace

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise ValueError(
                f"dimension mismatch: source {self.source.dim} vs target {self.target.dim}")


@dataclass
class AlignedPair(SpacePair):
    """A mapped source space, an untouched (only normalized) target space and the map."""

    map: LinearMap
    iterations_run: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not self.map.orthogonal:
            raise ValueError("alignment map must be orthogonal")
        if self.map.d_in != self.source.dim:
            raise ValueError(f"alignment map of size {self.map.d_in} does not fit dimension "
                             f"{self.source.dim}")


def apply_normalization(space: EmbeddingSpace) -> EmbeddingSpace:
    """Unit-normalize, mean-centre, then unit-normalize again."""
    if len(space) == 0:
        raise ValueError("cannot center an empty space")
    matrix = unit_rows(space.matrix, vocab=space.vocab)
    matrix -= matrix.mean(axis=0)
    return space.with_matrix(unit_rows(matrix, vocab=space.vocab))


def pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine between each row of ``a`` and the same row of ``b``."""
    # rebinding lets each input go as soon as its unit copy exists
    a = unit_rows(a)
    b = unit_rows(b)
    return (a * b).sum(axis=1)


def mean_pair_cosine(src: EmbeddingSpace, tgt: EmbeddingSpace, nearest: np.ndarray) -> float:
    """Mean cosine between each source row ``i`` and target row ``nearest[i]``."""
    return float(pair_cosines(src.matrix[:len(nearest)], tgt.matrix[nearest]).mean())


def align_supervised(
    src: EmbeddingSpace, tgt: EmbeddingSpace, lexicon: BilingualLexicon
) -> AlignedPair:
    """Normalize both spaces, fit Procrustes once on the lexicon, map the
    source. Self-learning is ``iterate_self_learning``."""
    pair = SpacePair(src, tgt)
    src_n = apply_normalization(pair.source)
    tgt_n = apply_normalization(pair.target)
    src_idx, tgt_idx, kept = resolve_rows(lexicon, src_n, tgt_n)
    w = fit_procrustes(src_n.matrix[src_idx[kept]], tgt_n.matrix[tgt_idx[kept]])
    return AlignedPair(apply_map(w, src_n), tgt_n, w, iterations_run=1)


def induce_dictionary(aligned: SpacePair, vocab_cap: int) -> np.ndarray:
    """The cosine nearest target row of each frequent source row.

    Both sides are truncated to their first ``vocab_cap`` rows (file order
    = frequency order): ``nearest[i]`` is the target row paired with
    source row ``i``. Ties go to the lower target index.

    Cosines are screened in float32. A row keeps its float32 argmax only
    when every other column trails it by more than twice a bound on the
    float32 error; a chunk holding any closer runner-up is re-scored in
    float64. Every index is therefore the float64 argmax, bit for bit.
    The number of re-scored chunks is logged at DEBUG.
    """
    if len(aligned.source) == 0 or len(aligned.target) == 0:
        raise ValueError("cannot induce a dictionary from an empty space")
    if vocab_cap < 1:
        raise ValueError(f"vocab_cap must be positive, got {vocab_cap}")
    n_src = min(vocab_cap, len(aligned.source))
    n_tgt = min(vocab_cap, len(aligned.target))
    s32 = unit_rows(aligned.source.matrix[:n_src], "source").astype(np.float32)
    t = unit_rows(aligned.target.matrix[:n_tgt], "target")
    # Error bound of the screen. For unit rows x, y of dimension d, each term
    # x_i*y_i of a float32 score meets at most d + 2 roundings of unit
    # u = 2^-24: two inputs, the product unless fused, and at most d - 1
    # additions in whatever order the kernel sums. So the score is within
    # gamma = (d+2)u / (1 - (d+2)u) times sum|x_i*y_i| <= |x||y| <= 1 + 2^-20
    # of x.y. Underflow adds at most 2^-126 per rounding, flushed to zero or
    # not, over fewer than 4d roundings. The float64 score is within the same
    # gamma with d roundings of u = 2^-53. Hence |s32 - s64| <= err, and the
    # float64 argmax j* has s32[j*] >= s64[j*] - err >= s64[best] - err >=
    # s32[best] - 2 err: a row with no other column in that window has
    # j* = best. The window is compared in float64, since top - 2 * err
    # rounds to float32 when top is a float32 scalar.
    d = s32.shape[1]
    g32, g64 = (d + 2) * 2.0**-24, d * 2.0**-53
    err = (1 + 2.0**-20) * (g32 / (1 - g32) + g64 / (1 - g64)) + 4 * d * 2.0**-126
    nearest = np.empty(n_src, dtype=np.intp)
    rescored = 0
    for start, stop, sims in _score_chunks(s32, t.astype(np.float32).T):
        rows = np.arange(stop - start)
        best = np.argmax(sims, axis=1)
        top = sims[rows, best].astype(np.float64)
        sims[rows, best] = -np.inf
        if (sims.max(axis=1) >= top - 2 * err).any():
            rescored += 1
            best = np.argmax(unit_rows(aligned.source.matrix[start:stop], "source") @ t.T, axis=1)
        nearest[start:stop] = best
    log.debug(
        "induce_dictionary: re-scored %d of %d chunks in float64",
        rescored, -(-n_src // CHUNK_ROWS),
    )
    return nearest


def iterate_self_learning(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    seed_lexicon: BilingualLexicon,
    config: AlignmentConfig | None = None,
) -> AlignedPair:
    """Alternate Procrustes fitting with dictionary induction.

    Each iteration fits on the current training rows, maps the source,
    induces a fresh dictionary over the capped vocabulary, and scores it by
    mean induced-pair cosine. The loop stops when the score improves by
    less than the convergence tolerance or the iteration budget runs out;
    the best-scoring map wins. The seed dictionary is kept in every fit, so
    induction augments rather than replaces the supervision. Each iteration
    logs at DEBUG its training-row count, score, induced pairs added and the
    fraction of induced targets that changed (1 on the first iteration);
    the kept iteration is logged at INFO.
    """
    config = config or AlignmentConfig()
    pair = SpacePair(src, tgt)
    src_n = apply_normalization(pair.source)
    tgt_n = apply_normalization(pair.target)
    seed_src, seed_tgt, kept = resolve_rows(seed_lexicon, src_n, tgt_n)
    # (row, row) keys of the seed pairs an induced pair can repeat
    exact = [s in src_n and t in tgt_n for s, t in seed_lexicon.pairs]
    repeats = seed_src[exact] * len(tgt_n) + seed_tgt[exact]
    seed_src, seed_tgt = seed_src[kept], seed_tgt[kept]
    rows_src, rows_tgt = seed_src, seed_tgt
    nearest = None
    best_w: LinearMap | None = None
    best_score, best_iteration, previous = -np.inf, 0, -np.inf
    for iteration in range(1, config.max_iterations + 1):
        mapped = None  # drop the last iteration's space before the next is built
        w = fit_procrustes(src_n.matrix[rows_src], tgt_n.matrix[rows_tgt])
        mapped = apply_map(w, src_n)
        last = nearest
        nearest = induce_dictionary(SpacePair(mapped, tgt_n), config.induction_vocab_cap)
        score = mean_pair_cosine(mapped, tgt_n, nearest)
        new = ~np.isin(np.arange(nearest.size) * len(tgt_n) + nearest, repeats)
        changed = 1.0 if last is None else float(np.mean(nearest != last))
        log.debug(
            "self-learning iteration %d: %d training rows, mean induced cosine %.6f, "
            "%d induced pairs added, %.4f of induced targets changed",
            iteration, rows_src.size, score, np.count_nonzero(new), changed,
        )
        if score > best_score:
            best_score, best_w, best_iteration = score, w, iteration
        if score - previous < config.convergence_tol:
            break
        previous = score
        rows_src = np.concatenate([seed_src, np.flatnonzero(new)])
        rows_tgt = np.concatenate([seed_tgt, nearest[new]])
    log.info(
        "self-learning kept iteration %d of %d: mean induced cosine %.6f",
        best_iteration, iteration, best_score,
    )
    if best_iteration < iteration:
        mapped = None  # drop the last iteration's space before the kept one is mapped
        mapped = apply_map(best_w, src_n)
    return AlignedPair(mapped, tgt_n, best_w, iterations_run=iteration)
