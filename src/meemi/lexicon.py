"""Bilingual dictionaries plus word-similarity and hypernym datasets.

All loaders read UTF-8 text, skip blank lines and ``#`` comments, and
report parse failures, and a content line cut before its newline, with the
offending line number. Loaded datasets are plain immutable-by-convention
containers, safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .embeddings import EmbeddingSpace, _numbered_lines, _require_line_end


@dataclass
class BilingualLexicon:
    """Ordered (source, target) translation pairs.

    Exact duplicates never occur; a source token may repeat with
    different targets.
    """

    pairs: list[tuple[str, str]]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class SimilarityDataset:
    """(token A, token B, gold score) triples for correlation benchmarks."""

    triples: list[tuple[str, str, float]]

    def __len__(self) -> int:
        return len(self.triples)


@dataclass
class HypernymDataset:
    """Per-query gold hypernym lists, deduplicated, each nonempty."""

    entries: list[tuple[str, list[str]]]

    def __len__(self) -> int:
        return len(self.entries)


def _content(raw: str) -> str | None:
    """A line's stripped content, or None for a blank line or a ``#`` comment."""
    line = raw.strip()
    return None if not line or line.startswith("#") else line


def _content_lines(path):
    for line_no, raw in _numbered_lines(path):
        line = _content(raw)
        if line is not None:
            _require_line_end(raw, path, line_no)
            yield line_no, line


def _hypernym_fields(line: str) -> list[str]:
    return [f.strip() for f in line.split("\t") if f.strip()]


def load_lexicon(path) -> BilingualLexicon:
    """Read a two-column dictionary; exact-duplicate pairs are dropped."""
    pairs: dict[tuple[str, str], None] = {}
    for line_no, line in _content_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{line_no}: expected 'source target', got {len(fields)} fields")
        pairs[fields[0], fields[1]] = None
    return BilingualLexicon(list(pairs))


def save_lexicon(lexicon: BilingualLexicon, path) -> None:
    """Write one tab-separated pair per line.

    A pair that would not load back as written is an error: one the loader
    would split differently or read as a comment, or a repeat of an earlier
    pair, which the loader drops.
    """
    lines = [f"{src}\t{tgt}\n" for src, tgt in lexicon.pairs]
    seen: set[tuple[str, str]] = set()
    for pair, line in zip(lexicon.pairs, lines):
        if pair in seen or (_content(line) or "").split() != list(pair):
            raise ValueError(f"pair {pair!r} would not load back from a lexicon file")
        seen.add(pair)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def save_hypernyms(dataset: HypernymDataset, path) -> None:
    """Write a query and its golds per tab-separated line.

    An entry that would not load back as written is an error: one with no
    golds, a field the loader would split, pad or read as a comment, a
    repeated gold, or a query repeated from an earlier entry (the loader
    merges those).
    """
    lines = [query + "\t" + "\t".join(golds) + "\n" for query, golds in dataset.entries]
    seen: set[str] = set()
    for (query, golds), line in zip(dataset.entries, lines):
        fields = _hypernym_fields(_content(line) or "")
        if (query in seen or not golds or len(set(golds)) != len(golds)
                or "\r" in line or "\n" in line[:-1] or fields != [query, *golds]):
            raise ValueError(f"hypernym query {query!r} would not load back from a hypernym file")
        seen.add(query)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def resolve_rows(
    lexicon: BilingualLexicon, src_space: EmbeddingSpace, tgt_space: EmbeddingSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair's source and target row, in lexicon order, plus the mask of
    the pairs whose two tokens both resolve.

    Each token resolves as in ``EmbeddingSpace.index_of``: an exact match,
    then one lowercase-fold retry; a token that does not resolve gets row
    -1. An empty lexicon, or one where no pair resolves, is an error.
    """
    if not lexicon.pairs:
        raise ValueError("cannot resolve an empty lexicon")
    src_idx = src_space.rows_of([s for s, _ in lexicon.pairs])
    tgt_idx = tgt_space.rows_of([t for _, t in lexicon.pairs])
    kept = (src_idx >= 0) & (tgt_idx >= 0)
    if not kept.any():
        raise ValueError("no lexicon pair resolves against both vocabularies")
    return src_idx, tgt_idx, kept


def resolve(
    lexicon: BilingualLexicon, src_space: EmbeddingSpace, tgt_space: EmbeddingSpace
) -> tuple[BilingualLexicon, float]:
    """The pairs whose two tokens both resolve, and their share (kept/total)."""
    _, _, kept = resolve_rows(lexicon, src_space, tgt_space)
    pairs = list(compress(lexicon.pairs, kept))
    return BilingualLexicon(pairs), len(pairs) / len(lexicon.pairs)


def load_similarity(path) -> SimilarityDataset:
    """Read three-column `w1 w2 score` similarity data."""
    triples: list[tuple[str, str, float]] = []
    for line_no, line in _content_lines(path):
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{path}:{line_no}: expected 'w1 w2 score', got {len(fields)} fields")
        try:
            score = float(fields[2])
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric score {fields[2]!r}") from None
        if not np.isfinite(score):
            raise ValueError(f"{path}:{line_no}: non-finite score")
        triples.append((fields[0], fields[1], score))
    return SimilarityDataset(triples)


def load_hypernyms(path) -> HypernymDataset:
    """Read tab-separated hypernym data: query first, then its gold hypernyms.

    Repeated queries (the two-column one-pair-per-line layout) are grouped
    into a single entry; gold lists keep first-seen order without duplicates.
    """
    golds: dict[str, dict[str, None]] = {}
    for line_no, line in _content_lines(path):
        fields = _hypernym_fields(line)
        if len(fields) < 2:
            raise ValueError(f"{path}:{line_no}: expected 'query<TAB>hypernym...', got 1 field")
        golds.setdefault(fields[0], {}).update(dict.fromkeys(fields[1:]))
    if not golds:
        raise ValueError(f"{path}: no hypernym entries")
    return HypernymDataset([(query, list(hypernyms)) for query, hypernyms in golds.items()])
