"""Word-embedding spaces stored in the word2vec text format.

All vector arithmetic runs in 64-bit floats regardless of how many digits
the input file carried. Spaces are immutable after construction: every
transformation returns a fresh space, and the underlying matrix is marked
read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


def format_component(x: float) -> str:
    """Render one float with full round-trip precision (shortest repr)."""
    return repr(float(x))


@dataclass
class EmbeddingSpace:
    """An ordered vocabulary plus a row-major matrix of word vectors.

    Row i of ``matrix`` is the vector of ``vocab[i]``. Tokens are unique
    and contain no whitespace; all components are finite.
    """

    vocab: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        self.vocab = list(self.vocab)
        matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {matrix.shape}")
        if matrix.shape[0] != len(self.vocab):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows but vocab has {len(self.vocab)} tokens"
            )
        if matrix.size and not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite components")
        index: dict[str, int] = {}
        for i, token in enumerate(self.vocab):
            if not token or any(ch.isspace() for ch in token):
                raise ValueError(f"token {token!r} is empty or contains whitespace")
            if token in index:
                raise ValueError(f"duplicate token {token!r}")
            index[token] = i
        matrix.setflags(write=False)
        self.matrix = matrix
        self._index = index

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index_of(self, token: str) -> int | None:
        """Row index of a token: exact match, then one lowercase-fold retry."""
        i = self._index.get(token)
        if i is None:
            i = self._index.get(token.lower())
        return i


def _looks_like_header(parts: list[str]) -> bool:
    return len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts)


def _parse_row(parts: list[str], dim: int | None, line_no: int, path) -> tuple[str, list[float]]:
    token = parts[0]
    if dim is not None and len(parts) - 1 != dim:
        raise ValueError(
            f"{path}:{line_no}: expected {dim} components for {token!r}, found {len(parts) - 1}"
        )
    try:
        comps = [float(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"{path}:{line_no}: unparseable vector component") from None
    if not all(np.isfinite(comps)):
        raise ValueError(f"{path}:{line_no}: non-finite component for token {token!r}")
    if not any(comps):
        raise ValueError(f"{path}:{line_no}: all-zero vector for token {token!r}")
    return token, comps


def load_space(path, limit: int | None = None) -> EmbeddingSpace:
    """Load a word2vec text file, auto-detecting the optional count/dim header.

    Duplicate tokens keep their first occurrence (a warning reports how many
    were skipped). With ``limit``, reading stops after that many kept rows,
    in file order. Without ``limit``, a header's word count must match the
    number of rows in the file, duplicates included.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    vocab: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    duplicates = 0
    count: int | None = None
    dim: int | None = None
    with open(path, encoding="utf-8") as fh:
        line_no = 0
        for raw in fh:
            line_no += 1
            parts = raw.split()
            if not parts:
                continue
            if line_no == 1 and _looks_like_header(parts):
                count, dim = int(parts[0]), int(parts[1])
                continue
            token, comps = _parse_row(parts, dim, line_no, path)
            if dim is None:
                dim = len(comps)
            if token in seen:
                duplicates += 1
                continue
            seen.add(token)
            vocab.append(token)
            rows.append(comps)
            if limit is not None and len(vocab) >= limit:
                break
    if limit is None and count is not None and len(vocab) + duplicates != count:
        raise ValueError(
            f"{path}:{line_no}: header declares {count} rows, found {len(vocab) + duplicates}"
        )
    if not vocab:
        raise ValueError(f"{path}: no vectors found")
    if duplicates:
        log.warning("%s: skipped %d duplicate tokens (kept first occurrence)", path, duplicates)
    return EmbeddingSpace(vocab, np.array(rows, dtype=np.float64))


def save_space(space: EmbeddingSpace, path) -> None:
    """Write a space as word2vec text: header line, then one row per token."""
    if len(space) == 0:
        raise ValueError("refusing to write an empty embedding space")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for token, row in zip(space.vocab, space.matrix):
            fh.write(token + " " + " ".join(format_component(x) for x in row) + "\n")


def normalize_unit(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every row to Euclidean norm 1. Idempotent; zero rows are an error."""
    norms = np.linalg.norm(space.matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot unit-normalize zero vector of token {space.vocab[zero[0]]!r}")
    return EmbeddingSpace(space.vocab, space.matrix / norms[:, None])


def mean_center(space: EmbeddingSpace) -> EmbeddingSpace:
    """Subtract the column means so every column averages to zero."""
    if len(space) == 0:
        raise ValueError("cannot center an empty space")
    return EmbeddingSpace(space.vocab, space.matrix - space.matrix.mean(axis=0))


def lookup(space: EmbeddingSpace, token: str) -> np.ndarray | None:
    """Vector of a token, trying an exact match then one lowercase fold."""
    i = space.index_of(token)
    return None if i is None else space.matrix[i]
