"""Meeting-in-the-middle refinement of an aligned bilingual space.

For every dictionary pair (w, w') the midpoint mu = (v_w + v_w') / 2 is
the regression target: one unconstrained least-squares map sends source
vectors toward mu, a second one sends target vectors toward mu. Applied
to the whole vocabularies, the two maps pull each word and its
translation toward their average. Unlike the orthogonal alignment this
is not an isometry: monolingual structure is deliberately allowed to
change. Vectors are not re-normalized afterwards; downstream scoring is
cosine-based and absorbs scale. The midpoints and the shift report take
their rows from the lexicon's row resolution (``EmbeddingSpace.rows_of``).
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .alignment import AlignedPair, pair_cosines
from .embeddings import _require_line_end
from .lexicon import BilingualLexicon, resolve_rows
from .solvers import LinearMap, PairedData, apply_map, fit_least_squares, load_map, save_map

log = logging.getLogger(__name__)


@dataclass
class MeemiModel:
    """The two directional midpoint maps plus the training pair count."""

    map_src: LinearMap
    map_tgt: LinearMap
    train_pair_count: int

    def __post_init__(self):
        for m in (self.map_src, self.map_tgt):
            if m.d_in != m.d_out:
                raise ValueError("midpoint maps must be square")
            if m.orthogonal:
                raise ValueError("midpoint maps are unconstrained, not orthogonal")
        if self.map_src.d_in != self.map_tgt.d_in:
            raise ValueError("source and target maps must share one dimension")


class SimilarityShift(NamedTuple):
    mean_delta: float
    std_delta: float
    fraction_positive: float


def compute_averages(
    aligned: AlignedPair, lexicon: BilingualLexicon
) -> tuple[PairedData, PairedData]:
    """Midpoint regression rows for both directions, in lexicon order.

    Returns (source rows -> mu, target rows -> mu). Pairs with an
    out-of-vocabulary side are skipped and counted.
    """
    src_idx, tgt_idx, kept = resolve_rows(lexicon, aligned.source, aligned.target)
    if not kept.any():
        raise ValueError("no lexicon pair resolves in the aligned spaces")
    if not kept.all():
        log.info("skipped %d lexicon pairs with out-of-vocabulary tokens", np.count_nonzero(~kept))
    a = aligned.source.matrix[src_idx[kept]]
    b = aligned.target.matrix[tgt_idx[kept]]
    mu = (a + b) / 2.0
    return PairedData(a, mu), PairedData(b, mu)


def fit_meemi(aligned: AlignedPair, lexicon: BilingualLexicon) -> MeemiModel:
    """Fit the two independent least-squares maps toward the midpoints."""
    toward_mu_src, toward_mu_tgt = compute_averages(aligned, lexicon)
    return MeemiModel(
        map_src=fit_least_squares(toward_mu_src),
        map_tgt=fit_least_squares(toward_mu_tgt),
        train_pair_count=len(toward_mu_src),
    )


def apply_meemi(model: MeemiModel, aligned: AlignedPair) -> AlignedPair:
    """Map both full vocabularies through their midpoint maps."""
    return AlignedPair(
        source=apply_map(model.map_src, aligned.source),
        target=apply_map(model.map_tgt, aligned.target),
        map=aligned.map,
        iterations_run=aligned.iterations_run,
    )


def similarity_shift_report(
    before: AlignedPair, after: AlignedPair, lexicon: BilingualLexicon
) -> SimilarityShift:
    """Per-pair cosine deltas between two aligned states of the same data.

    Reports the mean and standard deviation of cos(after) - cos(before)
    over resolved pairs, and the fraction of pairs that moved closer.
    """
    src_b, tgt_b, kept_b = resolve_rows(lexicon, before.source, before.target)
    src_a, tgt_a, kept_a = resolve_rows(lexicon, after.source, after.target)
    kept = kept_b & kept_a
    if not kept.any():
        raise ValueError("no lexicon pair resolves in both aligned states")
    deltas = (pair_cosines(after.source.matrix[src_a[kept]], after.target.matrix[tgt_a[kept]])
              - pair_cosines(before.source.matrix[src_b[kept]], before.target.matrix[tgt_b[kept]]))
    return SimilarityShift(
        mean_delta=float(deltas.mean()),
        std_delta=float(deltas.std()),
        fraction_positive=float((deltas > 0).mean()),
    )


def save_meemi(model: MeemiModel, manifest_path) -> None:
    """Persist as two map files plus a 3-line manifest next to them."""
    manifest_path = os.fspath(manifest_path)
    stem, _ = os.path.splitext(manifest_path)
    src_path = stem + ".src.map"
    tgt_path = stem + ".tgt.map"
    save_map(model.map_src, src_path)
    save_map(model.map_tgt, tgt_path)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(os.path.basename(src_path) + "\n")
        fh.write(os.path.basename(tgt_path) + "\n")
        fh.write(f"{model.train_pair_count}\n")


def load_meemi(manifest_path) -> MeemiModel:
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [line.strip() for line in raw if line.strip()]
    if len(lines) != 3:
        raise ValueError(f"{manifest_path}: expected 3 manifest lines, found {len(lines)}")
    try:
        count = int(lines[2])
    except ValueError:
        raise ValueError(f"{manifest_path}:3: train pair count must be an integer") from None
    _require_line_end(raw[-1], manifest_path, len(raw))
    return MeemiModel(
        map_src=load_map(os.path.join(base, lines[0])),
        map_tgt=load_map(os.path.join(base, lines[1])),
        train_pair_count=count,
    )
