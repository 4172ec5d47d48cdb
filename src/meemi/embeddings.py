"""Word-embedding spaces stored in the word2vec text format.

All vector arithmetic runs in 64-bit floats regardless of how many digits
the input file carried. Spaces are immutable after construction, with a
read-only matrix, so they are safe to share across threads. A space's
vocabulary is checked once; a transformed space (``EmbeddingSpace.with_matrix``)
gets a fresh checked matrix and shares its parent's ``vocab`` list and index.

The text file is the single source of truth. ``save_space`` also writes a
binary sidecar ``<path>.npz`` (uncompressed, about 8 bytes per component)
holding the vocabulary as UTF-8, the float64 matrix and the text file's
SHA-256, taken after the write by ``_file_sha256``, which ``load_space``
checks it with. ``load_space`` takes the sidecar only when that digest
matches and its values pass the text parse's checks; otherwise it parses
the text, which gives the same space because ``repr`` round-trips float64
exactly. Deleting a sidecar is always safe: the next load parses the text.

``save_space`` and ``solvers.save_map`` (so every library caller, not only
the CLI) format text, one float ``repr`` per component, on two CPUs: with
``os.fork``, more than one usable CPU, at least two rows and at least
``2 * MIN_RANGE_COMPONENTS`` components, the rows are cut into two halves
at row ``rows // 2``. Through ``_run_forked``, the one place that forks
(the CLI's per-file writers use it too), this process formats the first
half straight into the output file and a forked child formats the second
into an unlinked temporary file, which this process copies in after it, so
the file is the one a single process writes. A child is safe because it
only formats rows and writes files, without BLAS or logging, and leaves
through ``os._exit``, so no atexit hook or stdio flush runs in it; glibc
malloc and OpenBLAS register fork handlers, so neither is left locked in
the child. Python 3.12 and later may emit a ``DeprecationWarning`` when
forking while OpenBLAS threads are alive; it is left visible, not silenced.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import logging
import os
import re
import shutil
import signal
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

HASH_CHUNK_BYTES = 1 << 20
# About 20 ms of ``repr`` per range, against 1-2 ms for a fork.
MIN_RANGE_COMPONENTS = 1 << 15
UNIT_BLOCK_ROWS = 256


def format_row(row: np.ndarray) -> str:
    """Space-separated shortest ``repr`` of each float: round-trips float64 exactly."""
    return " ".join(map(repr, row.tolist()))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _format_rows(fh, matrix, labels, start: int, stop: int) -> None:
    """Write rows ``start:stop`` as text lines, each after its label and a space
    when ``labels`` is given."""
    for i in range(start, stop):
        line = format_row(matrix[i]) + "\n"
        fh.write((line if labels is None else f"{labels[i]} {line}").encode("utf-8"))


def _format_into(tmp, matrix, labels, start: int, stop: int) -> None:
    """Format rows ``start:stop`` into ``tmp`` from its start, over whatever a
    failed child left there."""
    tmp.seek(0)
    tmp.truncate()
    _format_rows(tmp, matrix, labels, start, stop)
    tmp.flush()  # a child leaves through os._exit, which flushes nothing


def _write_rows(path, header: str, matrix: np.ndarray, labels: list[str] | None = None) -> None:
    """Write ``header`` then one line per matrix row; see the module docstring for the split."""
    rows = matrix.shape[0]
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        if not (hasattr(os, "fork") and _usable_cpus() > 1 and rows > 1
                and matrix.size >= 2 * MIN_RANGE_COMPONENTS):
            _format_rows(fh, matrix, labels, 0, rows)
            return
        half = rows // 2
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as tmp:
            _run_forked(functools.partial(_format_rows, fh, matrix, labels, 0, half),
                        functools.partial(_format_into, tmp, matrix, labels, half, rows))
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh, HASH_CHUNK_BYTES)


def _forked(job) -> int | None:
    """The pid of a forked child that calls ``job`` and exits 0 if it returns,
    or None when no child could be forked."""
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork here, or no process to spare
        return None
    if pid == 0:
        status = 1
        try:
            job()
            status = 0
        finally:
            os._exit(status)
    return pid


def _run_forked(*jobs) -> None:
    """Call the first job here and each other one in a forked child; then, in
    order, call again here each job whose child did not exit 0 or could not
    be forked (every job without ``os.fork``), so a failing job raises its own
    exception. An error here kills and reaps the children left; a killed
    child's own children, such as a ``save_space`` range, finish into their
    unlinked temporary files and exit."""
    children = [(_forked(job), job) for job in jobs[1:]]
    try:
        jobs[0]()
        while children:
            pid, job = children[0]
            failed = pid is None or os.waitpid(pid, 0)[1]
            children.pop(0)
            if failed:
                job()
    finally:
        for pid, _ in children:  # only after an error: their output is not needed
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _checked_matrix(matrix, rows: int | None = None) -> np.ndarray:
    """``matrix`` as read-only contiguous float64, checked: 2-D, ``rows`` rows if given, finite."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {matrix.shape}")
    if rows is not None and matrix.shape[0] != rows:
        raise ValueError(f"matrix has {matrix.shape[0]} rows but vocab has {rows} tokens")
    if matrix.size and not np.isfinite(matrix).all():
        raise ValueError("matrix contains non-finite components")
    matrix.setflags(write=False)
    return matrix


@dataclass
class EmbeddingSpace:
    """An ordered vocabulary plus a row-major matrix of word vectors.

    Row i of ``matrix`` is the vector of ``vocab[i]``. Tokens are unique and contain no
    whitespace; all components are finite. A C-contiguous float64 ``matrix`` is kept, not
    copied, and made read-only, so the caller's array is read-only too; any other is copied.
    """

    vocab: list[str]
    matrix: np.ndarray

    def __post_init__(self):
        self.vocab = list(self.vocab)
        self.matrix = _checked_matrix(self.matrix, len(self.vocab))
        index: dict[str, int] = {}
        for i, token in enumerate(self.vocab):
            # str.split() splits on exactly the characters str.isspace() accepts
            if token.split() != [token]:
                raise ValueError(f"token {token!r} is empty or contains whitespace")
            if index.setdefault(token, i) != i:
                raise ValueError(f"duplicate token {token!r}")
        self._index = index

    def with_matrix(self, matrix) -> EmbeddingSpace:
        """A space of ``matrix``'s rows sharing this one's checked vocab and index;
        ``matrix`` is kept or copied as the class docstring says."""
        space = copy.copy(self)
        space.matrix = _checked_matrix(matrix, len(self.vocab))
        return space

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

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


def _is_header(parts: list[str], count: int) -> bool:
    """Whether a line's fields are ``count`` runs of ASCII digits, as a header's are."""
    return len(parts) == count and all(p.isascii() and p.isdigit() for p in parts)


def _parse_row(fields, width: int | None, raw: str, path, line_no: int, token=None) -> np.ndarray:
    """A ``.map`` row's components, or a ``.vec`` row's after its ``token``, as float64, checked
    in order: ``width`` of them if given, each a float, ``raw`` ended by a newline, all finite."""
    of = "" if token is None else f" for {token!r}"
    if width is not None and len(fields) != width:
        raise ValueError(f"{path}:{line_no}: expected {width} components{of}, found {len(fields)}")
    try:
        comps = np.array(list(map(float, fields)), dtype=np.float64)
    except ValueError:
        raise ValueError(f"{path}:{line_no}: unparseable matrix entry{of}") from None
    _require_line_end(raw, path, line_no)
    if not np.isfinite(comps).all():
        row = "map matrix" if token is None else f"vector{of}"
        raise ValueError(f"{path}:{line_no}: {row} contains non-finite entries")
    return comps


def _numbered_lines(path):
    """``(line_no, raw)`` for each line of the UTF-8 text file at ``path``, from 1.
    Bytes that are not UTF-8 are an error naming the file and the first one's line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # text is decoded ahead in blocks, so re-read it with each bad byte as U+DC80-U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            bad = next(n for n, raw in enumerate(fh, start=1) if re.search("[\udc80-\udcff]", raw))
        raise ValueError(f"{path}:{bad}: not UTF-8 text") from None


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
        if version != (1, 0):
            raise ValueError(f"unsupported .npy version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
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
            # only the kept tokens become strings
            vocab = npz["vocab"].tobytes().decode("utf-8").split("\n", limit or -1)[:limit]
            matrix = _read_matrix(npz, limit)
        if matrix is None:
            return None
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
    rows: dict[str, np.ndarray] = {}
    duplicates = 0
    count: int | None = None
    dim: int | None = None
    for line_no, raw in _numbered_lines(path):
        parts = raw.split()
        if not parts:
            continue
        if line_no == 1 and _is_header(parts, 2):
            count, dim = int(parts[0]), int(parts[1])
            continue
        token = parts[0]
        comps = _parse_row(parts[1:], dim, raw, path, line_no, token)
        if not comps.any():
            raise ValueError(f"{path}:{line_no}: all-zero vector for token {token!r}")
        if dim is None:
            dim = len(comps)
        if token in rows:
            duplicates += 1
            continue
        rows[token] = comps
        if limit is not None and len(rows) >= limit:
            break
    if limit is None and count is not None and len(rows) + duplicates != count:
        raise ValueError(
            f"{path}:{line_no}: header declares {count} rows, found {len(rows) + duplicates}"
        )
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    if duplicates:
        log.warning("%s: skipped %d duplicate tokens (kept first occurrence)", path, duplicates)
    return EmbeddingSpace(list(rows), np.array(list(rows.values()), dtype=np.float64))


def save_space(space: EmbeddingSpace, path) -> None:
    """Write a space as word2vec text (header line, then one row per token) plus its sidecar.
    A space ``load_space`` would refuse raises before any file is written."""
    if len(space) == 0:
        raise ValueError("refusing to write an empty embedding space")
    zero = np.flatnonzero(~space.matrix.any(axis=1))  # an all-zero row, or dimension 0
    if zero.size:
        raise ValueError(f"refusing to write the all-zero vector of token {space.vocab[zero[0]]!r}")
    vocab = "\n".join(space.vocab).encode("utf-8")  # a token that is not UTF-8 text raises here
    _write_rows(path, f"{len(space)} {space.dim}\n", space.matrix, space.vocab)
    # np.savez stamps every member with the zip epoch, so equal spaces give equal bytes.
    np.savez(
        _sidecar_path(path),
        sha256=np.frombuffer(_file_sha256(path), dtype=np.uint8),
        vocab=np.frombuffer(vocab, dtype=np.uint8),
        matrix=space.matrix,
    )


def unit_rows(matrix: np.ndarray, what: str = "row", vocab: list[str] | None = None) -> np.ndarray:
    """A contiguous float64 copy of ``matrix`` with every row divided by its
    Euclidean norm. A zero row is an error naming the ``what`` vector, and
    its token when ``vocab`` labels the rows.

    Rows are taken UNIT_BLOCK_ROWS at a time as contiguous float64, so the
    only temporaries are one block's; each row's norm and quotient do not
    depend on the block, so the result is the whole matrix's bit for bit."""
    matrix = np.asarray(matrix)
    out = np.empty(matrix.shape, dtype=np.float64)
    for start in range(0, len(matrix), UNIT_BLOCK_ROWS):
        block = np.ascontiguousarray(matrix[start:start + UNIT_BLOCK_ROWS], dtype=np.float64)
        norms = np.linalg.norm(block, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            token = "" if vocab is None else f" of token {vocab[start + zero[0]]!r}"
            raise ValueError(f"cannot unit-normalize zero {what} vector{token}")
        np.divide(block, norms[:, None], out=out[start:start + len(block)])
    return out


def normalize_unit(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every row to Euclidean norm 1; zero rows are an error. A second pass
    agrees only within rounding, not bit for bit: each scorer normalizes once."""
    return space.with_matrix(unit_rows(space.matrix, vocab=space.vocab))
