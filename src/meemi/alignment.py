"""Supervised orthogonal alignment of two embedding spaces.

Both spaces are unit-normalized, mean-centred and unit-normalized again,
as VecMap does. An orthogonal map is then fitted on dictionary pairs and
applied to the source space only; the target space is never mapped.
Because the map is an isometry, all pairwise cosines inside the source
language are preserved.

An optional self-learning loop alternates fitting with dictionary
induction over the most frequent words (file order is taken to be
frequency order), keeping the best-scoring iteration. Training sets are
row indexes: the seed lexicon is resolved to rows once, and each iteration
trains on the seed rows followed by every induced (source row, nearest
target row) pair that does not repeat a seed pair. Pairs compare by
token, so an induced pair repeats a seed pair only when both seed tokens
are exact vocabulary tokens; seed pairs that resolve through the
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

from .embeddings import EmbeddingSpace, mean_center, normalize_unit, unit_rows
from .lexicon import BilingualLexicon, paired_rows, resolve_rows
from .retrieval import CHUNK_ROWS, _score_reduce
from .solvers import LinearMap, PairedData, apply_map, fit_procrustes

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
class AlignedPair:
    """A mapped source space and an untouched (only normalized) target space."""

    source: EmbeddingSpace
    target: EmbeddingSpace
    map: LinearMap
    iterations_run: int = 1

    def __post_init__(self):
        if not self.map.orthogonal:
            raise ValueError("alignment map must be orthogonal")
        if self.source.dim != self.target.dim:
            raise ValueError("aligned spaces must share one dimension")
        if self.map.d_in != self.source.dim:
            raise ValueError(f"alignment map of size {self.map.d_in} does not fit dimension "
                             f"{self.source.dim}")


def apply_normalization(space: EmbeddingSpace) -> EmbeddingSpace:
    """Unit-normalize, mean-centre, then unit-normalize again."""
    return normalize_unit(mean_center(normalize_unit(space)))


def pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine between each row of ``a`` and the same row of ``b``."""
    # rebinding lets each input go as soon as its unit copy exists
    a = unit_rows(a)
    b = unit_rows(b)
    return (a * b).sum(axis=1)


def mean_pair_cosine(
    src: EmbeddingSpace, tgt: EmbeddingSpace, lexicon: BilingualLexicon
) -> float:
    """Mean cosine between the resolved pairs of a lexicon."""
    src_idx, tgt_idx, _ = paired_rows(lexicon, src, tgt)
    return float(pair_cosines(src.matrix[src_idx], tgt.matrix[tgt_idx]).mean())


def align_supervised(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    lexicon: BilingualLexicon,
    config: AlignmentConfig | None = None,
) -> AlignedPair:
    """Normalize both spaces, fit Procrustes on the lexicon, map the source."""
    config = config or AlignmentConfig()
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source {src.dim} vs target {tgt.dim}")
    if config.self_learning:
        return iterate_self_learning(src, tgt, lexicon, config)
    src_n = apply_normalization(src)
    tgt_n = apply_normalization(tgt)
    src_idx, tgt_idx, _ = paired_rows(lexicon, src_n, tgt_n)
    w = fit_procrustes(PairedData(src_n.matrix[src_idx], tgt_n.matrix[tgt_idx]))
    return AlignedPair(apply_map(w, src_n), tgt_n, w, iterations_run=1)


def induce_dictionary(aligned: AlignedPair, vocab_cap: int) -> BilingualLexicon:
    """Pair each frequent source token with its cosine nearest target token.

    Both sides are truncated to their first ``vocab_cap`` tokens (file
    order = frequency order). Ties go to the lower target index.

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
    s = unit_rows(aligned.source.matrix[:n_src], "source")
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
    d = s.shape[1]
    g32, g64 = (d + 2) * 2.0**-24, d * 2.0**-53
    err = (1 + 2.0**-20) * (g32 / (1 - g32) + g64 / (1 - g64)) + 4 * d * 2.0**-126
    nearest = np.empty(n_src, dtype=np.intp)
    rescored = []
    def reduce(start, stop, sims):
        rows = np.arange(stop - start)
        best = np.argmax(sims, axis=1)
        top = sims[rows, best].astype(np.float64)
        sims[rows, best] = -np.inf
        if (sims.max(axis=1) >= top - 2 * err).any():
            rescored.append(start)
            best = np.argmax(s[start:stop] @ t.T, axis=1)
        nearest[start:stop] = best
    _score_reduce(s.astype(np.float32), t.astype(np.float32).T, reduce)
    log.debug(
        "induce_dictionary: re-scored %d of %d chunks in float64",
        len(rescored), -(-n_src // CHUNK_ROWS),
    )
    return BilingualLexicon(
        [(aligned.source.vocab[i], aligned.target.vocab[j]) for i, j in enumerate(nearest)]
    )


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
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source {src.dim} vs target {tgt.dim}")
    src_n = apply_normalization(src)
    tgt_n = apply_normalization(tgt)
    seed_src, seed_tgt, kept = paired_rows(seed_lexicon, src_n, tgt_n)
    # Pairs compare by token, so an induced pair repeats a seed pair only when
    # both seed tokens are exact vocabulary tokens; every such pair is kept.
    exact = np.array([s in src_n and t in tgt_n for s, t in seed_lexicon.pairs], dtype=bool)[kept]
    n_all = len(tgt_n)
    seed_keys = seed_src[exact] * n_all + seed_tgt[exact]
    rows_src, rows_tgt = seed_src, seed_tgt
    nearest = None
    best_w: LinearMap | None = None
    best_score, best_iteration = -np.inf, 0
    previous = -np.inf
    for iteration in range(1, config.max_iterations + 1):
        w = fit_procrustes(PairedData(src_n.matrix[rows_src], tgt_n.matrix[rows_tgt]))
        mapped = apply_map(w, src_n)
        induced = induce_dictionary(
            AlignedPair(mapped, tgt_n, w, iteration), config.induction_vocab_cap
        )
        score = mean_pair_cosine(mapped, tgt_n, induced)
        # induced tokens are exact vocabulary tokens, so these are their own rows
        last = nearest
        induced_src, nearest, _ = resolve_rows(induced, mapped, tgt_n)
        new = ~np.isin(induced_src * n_all + nearest, seed_keys)
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
        rows_src = np.concatenate([seed_src, induced_src[new]])
        rows_tgt = np.concatenate([seed_tgt, nearest[new]])
    log.info(
        "self-learning kept iteration %d of %d: mean induced cosine %.6f",
        best_iteration, iteration, best_score,
    )
    return AlignedPair(apply_map(best_w, src_n), tgt_n, best_w, iterations_run=iteration)
