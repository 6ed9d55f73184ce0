"""Embedding matrix type and interchange formats.

Two on-disk formats are supported: word2vec text ("<count> <dim>" header
followed by one token + values line per row) and headerless raw
little-endian binary32, row-major.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense |V| x n embedding matrix with an optional vocabulary.

    values is float32, shape (rows, cols). Immutable after construction;
    safe for concurrent reads.
    """

    values: np.ndarray
    vocab: list[str] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"embedding matrix must be 2-D and non-empty, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("embedding matrix contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.vocab is not None:
            if len(self.vocab) != v.shape[0]:
                raise DataError(
                    f"vocab length {len(self.vocab)} != row count {v.shape[0]}")
            if len(set(self.vocab)) != len(self.vocab):
                raise DataError("vocab contains duplicate tokens")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def row(self, w: int) -> np.ndarray:
        return self.values[w]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return (self.values.shape == other.values.shape
                and np.array_equal(self.values, other.values)
                and self.vocab == other.vocab)


def _format_f32(x: np.float32) -> str:
    # shortest decimal that parses back to the same binary32
    return np.format_float_positional(np.float32(x), unique=True, trim="-")


def load_word2vec_text(source: BinaryIO) -> EmbeddingMatrix:
    """Parse the word2vec text format into an EmbeddingMatrix."""
    # an undecodable byte cannot be part of the two integers: it fails below
    header = source.readline().decode("utf-8", errors="replace").strip()
    parts = header.split()
    if len(parts) != 2:
        raise DataError(f"malformed header: {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"malformed header: {header!r}") from None
    if count < 1 or dim < 1:
        raise DataError(f"malformed header: rows={count} cols={dim}")

    # rows are kept as they arrive: a header claiming more rows than the
    # file holds must fail as a row count mismatch, not size an allocation
    rows: list[np.ndarray] = []
    vocab: list[str] = []
    seen: set[str] = set()
    try:
        for i in range(count):
            line = source.readline().decode("utf-8").strip()
            if not line:
                raise DataError(f"row count mismatch: expected {count} rows, got {i}")
            fields = line.split()
            if len(fields) != dim + 1:
                raise DataError(
                    f"dim mismatch at row {i}: expected {dim} values, got {len(fields) - 1}")
            token = fields[0]
            if token in seen:
                raise DataError(f"duplicate token {token!r}")
            seen.add(token)
            vocab.append(token)
            try:
                # beyond binary32 range casts to inf, which the check below reports
                with np.errstate(over="ignore"):
                    row = np.array([float(f) for f in fields[1:]], dtype=np.float32)
            except ValueError:
                raise DataError(f"unparseable value at row {i}") from None
            if not np.all(np.isfinite(row)):
                raise DataError(f"non-finite value at row {i}")
            rows.append(row)
    except UnicodeDecodeError:
        raise DataError(f"row {i} is not UTF-8 text") from None
    # trailing blank lines are fine; a row beyond the header's count is not
    while line := source.readline():
        if line.decode("utf-8", errors="replace").strip():
            raise DataError(f"row count mismatch: expected {count} rows, got more")
    return EmbeddingMatrix(np.stack(rows), vocab)


def save_word2vec_text(e: EmbeddingMatrix, dest: BinaryIO) -> None:
    """Write the word2vec text format; requires a vocabulary."""
    if e.vocab is None:
        raise DataError("word2vec text format requires a vocabulary")
    for token in e.vocab:
        if any(ch.isspace() for ch in token):
            raise DataError(f"token {token!r} contains whitespace")
    dest.write(f"{e.rows} {e.cols}\n".encode("utf-8"))
    for token, row in zip(e.vocab, e.values):
        vals = " ".join(_format_f32(x) for x in row)
        dest.write(f"{token} {vals}\n".encode("utf-8"))


def load_raw(source: BinaryIO, rows: int, cols: int) -> EmbeddingMatrix:
    """Read headerless little-endian binary32, row-major."""
    if rows < 1 or cols < 1:
        raise DataError(f"invalid shape {rows}x{cols}")
    data = source.read()
    expected = rows * cols * 4
    if len(data) != expected:
        raise DataError(f"length mismatch: expected {expected} bytes, got {len(data)}")
    values = np.frombuffer(data, dtype="<f4").reshape(rows, cols)
    return EmbeddingMatrix(values)


def save_raw(e: EmbeddingMatrix, dest: BinaryIO) -> None:
    dest.write(np.ascontiguousarray(e.values, dtype="<f4").tobytes())
