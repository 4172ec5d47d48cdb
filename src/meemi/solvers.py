"""Closed-form matrix solvers: orthogonal Procrustes and least squares.

Everything follows the row-vector convention: maps act on the right, so a
row v is transformed as v @ matrix, and a fit minimizes ||A @ X - B||_F
over the rows of paired data. This convention matches the row-major
embedding matrices and is stated once here to avoid transposition bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import (EmbeddingSpace, _checked_matrix, _is_header, _numbered_lines,
                         _parse_row, _write_rows)

ORTHOGONALITY_TOL = 1e-8


@dataclass
class LinearMap:
    """A d_in x d_out real matrix, optionally constrained orthogonal. Like ``EmbeddingSpace``,
    it keeps a C-contiguous float64 ``matrix`` itself, made read-only, and copies any other."""

    matrix: np.ndarray
    orthogonal: bool = False

    def __post_init__(self):
        self.matrix = _checked_matrix(self.matrix)
        if self.orthogonal:
            d_in, d_out = self.matrix.shape
            if d_in != d_out:
                raise ValueError(f"orthogonal map must be square, got {d_in}x{d_out}")
            defect = np.abs(self.matrix.T @ self.matrix - np.eye(d_in)).max()
            if defect > ORTHOGONALITY_TOL:
                raise ValueError(f"matrix is not orthogonal: max |M'M - I| = {defect:.3e}")

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]


def _paired(inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both matrices as float64, checked to be 2-D, row-aligned, nonempty and finite."""
    A = np.ascontiguousarray(inputs, dtype=np.float64)
    B = np.ascontiguousarray(targets, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("paired data must be 2-dimensional matrices")
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row count mismatch: {A.shape[0]} inputs vs {B.shape[0]} targets")
    if A.shape[0] < 1:
        raise ValueError("paired data needs at least one row")
    for a, what in ((A, "inputs"), (B, "targets")):
        if not np.isfinite(a).all():
            raise ValueError(f"{what} contain non-finite values")
    return A, B


def fit_procrustes(inputs: np.ndarray, targets: np.ndarray) -> LinearMap:
    """Best orthogonal map W minimizing ||A @ W - B||_F.

    Closed form: with U S V' the SVD of A'B, the minimizer is W = U V'.
    W is unique whenever A'B has no repeated singular values; ties yield
    one of the equally optimal solutions.
    """
    A, B = _paired(inputs, targets)
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"procrustes requires equal dimensions, got {A.shape[1]} and {B.shape[1]}"
        )
    u, _, vt = np.linalg.svd(A.T @ B)
    return LinearMap(u @ vt, orthogonal=True)


def fit_least_squares(inputs: np.ndarray, targets: np.ndarray) -> LinearMap:
    """Unconstrained X minimizing sum_i ||a_i @ X - b_i||^2.

    Solved by SVD (numpy lstsq); rank-deficient systems return the
    minimum-Frobenius-norm minimizer rather than erroring.
    """
    solution, *_ = np.linalg.lstsq(*_paired(inputs, targets), rcond=None)
    return LinearMap(solution, orthogonal=False)


def apply_map(linear_map: LinearMap, space: EmbeddingSpace) -> EmbeddingSpace:
    """Transform every row of a space: v -> v @ matrix. Vocab is unchanged."""
    if space.dim != linear_map.d_in:
        raise ValueError(
            f"map expects input dimension {linear_map.d_in}, space has {space.dim}"
        )
    return space.with_matrix(space.matrix @ linear_map.matrix)


def save_map(linear_map: LinearMap, path) -> None:
    """Write `<d_in> <d_out> <orthogonal:0|1>` then one row of floats per line."""
    if 0 in linear_map.matrix.shape:  # load_map would refuse it
        raise ValueError(f"refusing to write a {linear_map.d_in}x{linear_map.d_out} map")
    header = f"{linear_map.d_in} {linear_map.d_out} {1 if linear_map.orthogonal else 0}\n"
    _write_rows(path, header, linear_map.matrix)


def load_map(path) -> LinearMap:
    lines = _numbered_lines(path)
    header = next(lines, (1, ""))[1].split()
    if not _is_header(header, 3):
        raise ValueError(f"{path}:1: expected header '<d_in> <d_out> <orthogonal:0|1>'")
    d_in, d_out, flag = (int(p) for p in header)
    if flag not in (0, 1):
        raise ValueError(f"{path}:1: orthogonal flag must be 0 or 1, got {flag}")
    if not d_in or not d_out:
        raise ValueError(f"{path}:1: map dimensions must be positive, got {d_in}x{d_out}")
    rows = []
    for line_no, raw in lines:
        parts = raw.split()
        if parts:
            rows.append(_parse_row(parts, d_out, raw, path, line_no))
    if len(rows) != d_in:
        raise ValueError(f"{path}: expected {d_in} matrix rows, found {len(rows)}")
    try:
        return LinearMap(np.array(rows), orthogonal=bool(flag))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
