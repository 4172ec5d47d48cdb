"""Deterministic synthetic benchmarks for tests and acceptance runs.

Every generator is a pure function of its seed: the same spec always
produces bit-identical arrays. Base vectors are Gaussian rather than
sampled from real embeddings so full-rank constructions are guaranteed
and assertions stay distribution-free. Noise, when requested, is applied
post-rotation in the target space only, modeling a second space that
deviates from an exact isometric copy of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingSpace, unit_rows
from .lexicon import BilingualLexicon, HypernymDataset
from .solvers import LinearMap


@dataclass
class SyntheticSpec:
    vocab_size: int
    dim: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size <= self.dim:
            raise ValueError("vocab_size must exceed dim for full-rank constructions")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and non-negative")


class RotatedPair(NamedTuple):
    src: EmbeddingSpace
    tgt: EmbeddingSpace
    gold: BilingualLexicon
    rotation: LinearMap


class HubSet(NamedTuple):
    targets: EmbeddingSpace
    queries: EmbeddingSpace
    gold: BilingualLexicon
    hub_token: str


class Taxonomy(NamedTuple):
    space: EmbeddingSpace
    train: HypernymDataset
    test: HypernymDataset
    true_map: LinearMap


def random_rotation(dim: int, rng: np.random.Generator) -> LinearMap:
    """Random orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return LinearMap(q * np.sign(np.diag(r)), orthogonal=True)


def make_rotated_pair(spec: SyntheticSpec) -> RotatedPair:
    """A Gaussian source space and its rotated (optionally noisy) copy.

    Gold pairs link token i of the source to token i of the target, so
    an exact aligner should recover the rotation from any full-rank
    subset of the gold lexicon when noise_sigma is zero.
    """
    rng = np.random.default_rng(spec.seed)
    src_matrix = rng.standard_normal((spec.vocab_size, spec.dim))
    rotation = random_rotation(spec.dim, rng)
    tgt_matrix = src_matrix @ rotation.matrix
    if spec.noise_sigma > 0:
        tgt_matrix = tgt_matrix + spec.noise_sigma * rng.standard_normal(tgt_matrix.shape)
    src_vocab = [f"src{i:05d}" for i in range(spec.vocab_size)]
    tgt_vocab = [f"tgt{i:05d}" for i in range(spec.vocab_size)]
    gold = BilingualLexicon(list(zip(src_vocab, tgt_vocab)))
    return RotatedPair(
        EmbeddingSpace(src_vocab, src_matrix),
        EmbeddingSpace(tgt_vocab, tgt_matrix),
        gold,
        rotation,
    )


# Hub geometry: queries sit in a tight cluster, each with one slightly
# looser "specific" target, and one hub vector sits at the exact cluster
# center. The hub then edges out most specific targets on raw cosine but
# carries a much higher neighborhood density, which CSLS penalizes.
HUB_DIM = 24
HUB_QUERIES = 16
HUB_DISTRACTORS = 16
HUB_QUERY_SPREAD = 0.055
HUB_TARGET_SPREAD = 0.075


def make_hub_set(seed: int = 0) -> HubSet:
    """A small target space engineered to contain one retrieval hub."""
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(HUB_DIM)
    center /= np.linalg.norm(center)
    queries = unit_rows(center + HUB_QUERY_SPREAD * rng.standard_normal((HUB_QUERIES, HUB_DIM)))
    specific = unit_rows(queries + HUB_TARGET_SPREAD * rng.standard_normal((HUB_QUERIES, HUB_DIM)))
    distractors = unit_rows(rng.standard_normal((HUB_DISTRACTORS, HUB_DIM)))
    vocab = (
        ["hub"]
        + [f"spec{i:02d}" for i in range(HUB_QUERIES)]
        + [f"rand{i:02d}" for i in range(HUB_DISTRACTORS)]
    )
    matrix = np.vstack([center[None, :], specific, distractors])
    query_vocab = [f"query{i:02d}" for i in range(HUB_QUERIES)]
    gold = BilingualLexicon(
        [(query_vocab[i], f"spec{i:02d}") for i in range(HUB_QUERIES)]
    )
    return HubSet(
        EmbeddingSpace(vocab, matrix),
        EmbeddingSpace(query_vocab, queries),
        gold,
        "hub",
    )


def make_taxonomy(spec: SyntheticSpec) -> Taxonomy:
    """Hyponym/hypernym space linked by a fixed full-rank linear map.

    Hypernym vectors are the hyponym vectors pushed through a random
    square map, plus optional Gaussian noise. Train and test queries are
    disjoint (60/40 split in token order).
    """
    if spec.vocab_size < 2 * spec.dim:
        raise ValueError("taxonomy construction needs vocab_size >= 2 * dim")
    rng = np.random.default_rng(spec.seed)
    n = spec.vocab_size // 2
    hypo = rng.standard_normal((n, spec.dim))
    true_map = LinearMap(rng.standard_normal((spec.dim, spec.dim)))
    hyper = hypo @ true_map.matrix
    if spec.noise_sigma > 0:
        hyper = hyper + spec.noise_sigma * rng.standard_normal(hyper.shape)
    hypo_vocab = [f"hypo{i:04d}" for i in range(n)]
    hyper_vocab = [f"hyper{i:04d}" for i in range(n)]
    space = EmbeddingSpace(hypo_vocab + hyper_vocab, np.vstack([hypo, hyper]))
    n_train = max(1, (3 * n) // 5)
    train = HypernymDataset([(hypo_vocab[i], [hyper_vocab[i]]) for i in range(n_train)])
    test = HypernymDataset([(hypo_vocab[i], [hyper_vocab[i]]) for i in range(n_train, n)])
    return Taxonomy(space, train, test, true_map)
