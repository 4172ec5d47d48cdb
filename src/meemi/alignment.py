"""Supervised orthogonal alignment of two embedding spaces.

Both spaces are run through a configurable normalization pipeline, then
an orthogonal map is fitted on dictionary pairs and applied to the source
space only; the target space is never mapped. Because the map is an
isometry, all pairwise cosines inside the source language are preserved.

An optional self-learning loop alternates fitting with dictionary
induction over the most frequent words (file order is taken to be
frequency order), keeping the best-scoring iteration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace, lookup, mean_center, normalize_unit
from .lexicon import BilingualLexicon, resolve
from .retrieval import _score_reduce, _unit_rows
from .solvers import LinearMap, PairedData, apply_map, fit_procrustes

log = logging.getLogger(__name__)

NORMALIZE_STEPS = ("unit", "center")
DEFAULT_NORMALIZE = ("unit", "center", "unit")


@dataclass
class AlignmentConfig:
    normalize: tuple[str, ...] = DEFAULT_NORMALIZE
    self_learning: bool = False
    max_iterations: int = 50
    convergence_tol: float = 1e-6
    induction_vocab_cap: int = 20000

    def __post_init__(self):
        self.normalize = tuple(self.normalize)
        unknown = [s for s in self.normalize if s not in NORMALIZE_STEPS]
        if unknown:
            raise ValueError(f"unknown normalization steps {unknown}; use 'unit' or 'center'")
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


def apply_normalization(space: EmbeddingSpace, steps) -> EmbeddingSpace:
    for step in steps:
        space = normalize_unit(space) if step == "unit" else mean_center(space)
    return space


def _paired_rows(
    src: EmbeddingSpace, tgt: EmbeddingSpace, lexicon: BilingualLexicon
) -> PairedData:
    resolved, _ = resolve(lexicon, src, tgt)
    a = np.vstack([lookup(src, s) for s, _ in resolved.pairs])
    b = np.vstack([lookup(tgt, t) for _, t in resolved.pairs])
    return PairedData(a, b)


def mean_pair_cosine(
    src: EmbeddingSpace, tgt: EmbeddingSpace, lexicon: BilingualLexicon
) -> float:
    """Mean cosine between the resolved pairs of a lexicon."""
    data = _paired_rows(src, tgt, lexicon)
    a = data.inputs / np.linalg.norm(data.inputs, axis=1, keepdims=True)
    b = data.targets / np.linalg.norm(data.targets, axis=1, keepdims=True)
    return float((a * b).sum(axis=1).mean())


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
    src_n = apply_normalization(src, config.normalize)
    tgt_n = apply_normalization(tgt, config.normalize)
    w = fit_procrustes(_paired_rows(src_n, tgt_n, lexicon))
    return AlignedPair(apply_map(w, src_n), tgt_n, w, iterations_run=1)


def induce_dictionary(aligned: AlignedPair, vocab_cap: int) -> BilingualLexicon:
    """Pair each frequent source token with its cosine nearest target token.

    Both sides are truncated to their first ``vocab_cap`` tokens (file
    order = frequency order). Ties go to the lower target index.
    """
    if len(aligned.source) == 0 or len(aligned.target) == 0:
        raise ValueError("cannot induce a dictionary from an empty space")
    if vocab_cap < 1:
        raise ValueError(f"vocab_cap must be positive, got {vocab_cap}")
    n_src = min(vocab_cap, len(aligned.source))
    n_tgt = min(vocab_cap, len(aligned.target))
    s = _unit_rows(aligned.source.matrix[:n_src], "source")
    t = _unit_rows(aligned.target.matrix[:n_tgt], "target")
    nearest = np.empty(n_src, dtype=np.intp)
    def reduce(start, stop, sims):
        nearest[start:stop] = np.argmax(sims, axis=1)
    _score_reduce(s, t.T, reduce)
    return BilingualLexicon(
        [(aligned.source.vocab[i], aligned.target.vocab[j]) for i, j in enumerate(nearest)]
    )


def _merge_lexicons(seed: BilingualLexicon, induced: BilingualLexicon) -> BilingualLexicon:
    pairs = list(seed.pairs)
    seen = set(pairs)
    for pair in induced.pairs:
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return BilingualLexicon(pairs)


def iterate_self_learning(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    seed_lexicon: BilingualLexicon,
    config: AlignmentConfig | None = None,
) -> AlignedPair:
    """Alternate Procrustes fitting with dictionary induction.

    Each iteration fits on the current lexicon, maps the source, induces a
    fresh dictionary over the capped vocabulary, and scores it by mean
    induced-pair cosine. The loop stops when the score improves by less
    than the convergence tolerance or the iteration budget runs out; the
    best-scoring map wins. The seed dictionary is kept in every fit, so
    induction augments rather than replaces the supervision.
    """
    config = config or AlignmentConfig()
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source {src.dim} vs target {tgt.dim}")
    src_n = apply_normalization(src, config.normalize)
    tgt_n = apply_normalization(tgt, config.normalize)
    current = seed_lexicon
    best_w: LinearMap | None = None
    best_score = -np.inf
    previous = -np.inf
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        w = fit_procrustes(_paired_rows(src_n, tgt_n, current))
        mapped = apply_map(w, src_n)
        induced = induce_dictionary(
            AlignedPair(mapped, tgt_n, w, iteration), config.induction_vocab_cap
        )
        score = mean_pair_cosine(mapped, tgt_n, induced)
        log.debug("self-learning iteration %d: mean induced cosine %.6f", iteration, score)
        if score > best_score:
            best_score, best_w = score, w
        if score - previous < config.convergence_tol:
            break
        previous = score
        current = _merge_lexicons(seed_lexicon, induced)
    return AlignedPair(apply_map(best_w, src_n), tgt_n, best_w, iterations_run=iterations)
