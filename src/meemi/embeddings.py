"""Word-embedding spaces stored in the word2vec text format.

All vector arithmetic runs in 64-bit floats regardless of how many digits
the input file carried. Spaces are immutable after construction: every
transformation returns a fresh space, and the underlying matrix is marked
read-only, so instances are safe to share across threads.

The text file is the single source of truth. ``save_space`` also writes a
binary sidecar ``<path>.npz`` (uncompressed, about 8 bytes per component)
holding the SHA-256 of the text bytes it wrote, the vocabulary as UTF-8
and the float64 matrix. ``load_space`` takes the sidecar only when the
text's digest still matches it and its values pass the checks the text
parse makes; otherwise it parses the text, which gives the same space
because ``repr`` round-trips float64 exactly. Deleting a sidecar is always
safe: the next load parses the text.
"""

from __future__ import annotations

import hashlib
import logging
import os
import zipfile
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

HASH_CHUNK_BYTES = 1 << 20


def format_row(row: np.ndarray) -> str:
    """Space-separated shortest ``repr`` of each float: round-trips float64 exactly."""
    return " ".join(map(repr, row.tolist()))


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
        # str.split() splits on exactly the characters str.isspace() accepts,
        # so a token is nonempty and whitespace-free iff it splits to itself.
        index = dict(zip(self.vocab, range(len(self.vocab))))
        if len(index) != len(self.vocab) or not all(t.split() == [t] for t in self.vocab):
            _reject_vocab(self.vocab)
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

    def rows_of(self, tokens) -> np.ndarray:
        """Row index of each token as ``index_of`` finds it, -1 where it finds
        none; mask with ``>= 0`` before indexing, since row -1 is the last row."""
        return np.array(
            [-1 if (i := self.index_of(t)) is None else i for t in tokens], dtype=np.intp
        )


def _reject_vocab(vocab: list[str]) -> None:
    """Raise for the first empty, whitespace-holding or repeated token."""
    seen: set[str] = set()
    for token in vocab:
        if not token or any(ch.isspace() for ch in token):
            raise ValueError(f"token {token!r} is empty or contains whitespace")
        if token in seen:
            raise ValueError(f"duplicate token {token!r}")
        seen.add(token)


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


def _require_line_end(raw: str, path, line_no: int) -> None:
    """Reject a final line with no newline: the writers end every line, so the file was cut."""
    if not raw.endswith("\n"):
        raise ValueError(f"{path}:{line_no}: line has no newline; the file is truncated")


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _file_sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.digest()


def _read_matrix(npz, limit: int | None) -> np.ndarray | None:
    """The sidecar matrix's first ``limit`` rows (all of them without ``limit``).

    Only those rows are kept in memory; the rest of the member is read in
    chunks and dropped, so the zip CRC still checks every byte of it.
    """
    with npz.zip.open("matrix.npy") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"unsupported .npy version {version}")
        if dtype != np.float64 or len(shape) != 2 or fortran_order:
            return None
        matrix = np.empty((shape[0] if limit is None else min(limit, shape[0]), shape[1]))
        view = memoryview(matrix).cast("B")
        for start in range(0, len(view), HASH_CHUNK_BYTES):
            part = view[start:start + HASH_CHUNK_BYTES]
            if fh.readinto(part) != len(part):
                raise ValueError("sidecar matrix is shorter than its header")
        while fh.read(HASH_CHUNK_BYTES):
            pass
    return matrix


def _load_sidecar(path, limit: int | None) -> EmbeddingSpace | None:
    """The space ``save_space`` wrote to ``path``, if its sidecar still matches the text."""
    sidecar = _sidecar_path(path)
    if not os.path.exists(sidecar):
        return None
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            if npz["sha256"].tobytes() != _file_sha256(path):
                log.debug("%s: sidecar is stale", path)
                return None
            vocab = npz["vocab"].tobytes().decode("utf-8").split("\n")
            matrix = _read_matrix(npz, limit)
        if matrix is None:
            return None
        vocab = vocab[:limit]
        # Zero rows (and, through EmbeddingSpace, non-finite ones) go back to
        # the text parse for its line-numbered error.
        if not (matrix != 0.0).any(axis=1).all():
            return None
        return EmbeddingSpace(vocab, matrix)
    except (OSError, EOFError, KeyError, NotImplementedError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        log.debug("%s: unreadable sidecar (%s)", path, exc)
        return None


def load_space(path, limit: int | None = None) -> EmbeddingSpace:
    """Load a word2vec text file, auto-detecting the optional count/dim header.

    Duplicate tokens keep their first occurrence (a warning reports how many
    were skipped). With ``limit``, reading stops after that many kept rows,
    in file order. Without ``limit``, a header's word count must match the
    number of rows in the file, duplicates included. A matching sidecar
    ``<path>.npz`` (see the module docstring) gives the same space unparsed.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    space = _load_sidecar(path, limit)
    if space is not None:
        log.debug("%s: loaded from its sidecar", path)
        return space
    log.debug("%s: parsing text", path)
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
            _require_line_end(raw, path, line_no)
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
    """Write a space as word2vec text (header line, then one row per token) plus its sidecar."""
    if len(space) == 0:
        raise ValueError("refusing to write an empty embedding space")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def emit(line: str) -> None:
            data = line.encode("utf-8")
            digest.update(data)
            fh.write(data)

        emit(f"{len(space)} {space.dim}\n")
        for token, row in zip(space.vocab, space.matrix):
            emit(f"{token} {format_row(row)}\n")
    # np.savez stamps every member with the zip epoch, so equal spaces give equal bytes.
    np.savez(
        _sidecar_path(path),
        sha256=np.frombuffer(digest.digest(), dtype=np.uint8),
        vocab=np.frombuffer("\n".join(space.vocab).encode("utf-8"), dtype=np.uint8),
        matrix=space.matrix,
    )


def unit_rows(matrix: np.ndarray, what: str = "row", vocab: list[str] | None = None) -> np.ndarray:
    """A contiguous float64 copy of ``matrix`` with every row divided by its
    Euclidean norm. A zero row is an error naming the ``what`` vector, and
    its token when ``vocab`` labels the rows."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        token = "" if vocab is None else f" of token {vocab[zero[0]]!r}"
        raise ValueError(f"cannot unit-normalize zero {what} vector{token}")
    return matrix / norms[:, None]


def normalize_unit(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every row to Euclidean norm 1. Idempotent; zero rows are an error."""
    return EmbeddingSpace(space.vocab, unit_rows(space.matrix, vocab=space.vocab))


def mean_center(space: EmbeddingSpace) -> EmbeddingSpace:
    """Subtract the column means so every column averages to zero."""
    if len(space) == 0:
        raise ValueError("cannot center an empty space")
    return EmbeddingSpace(space.vocab, space.matrix - space.matrix.mean(axis=0))
