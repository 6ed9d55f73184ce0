"""Embedding matrix type and interchange formats.

Two on-disk formats are supported: word2vec text ("<count> <dim>" header
followed by one token + values line per row) and headerless raw
little-endian binary32, row-major.

Word2vec text is UTF-8; fields are separated by any Unicode whitespace and
values take Python float() syntax, rounded to binary32. The loader reads
the file a chunk of rows at a time, never all of it. Each chunk has one
fast path: numpy's C parser takes all of its values in one call, rounding
as float() does. A chunk that path does not take whole (unparseable text,
a wrong shape, a repeated token, a non-finite value) goes to the one
per-row parse, one float() per value, which reports every row error. So
the accepted files, the values and the first error reported are those of
a plain per-value parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import DataError, check_finite


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense |V| x n embedding matrix with an optional vocabulary.

    values is float32, shape (rows, cols). vocab, if given, holds one
    distinct token per row, none of them empty or containing whitespace,
    so any vocabulary can be written as word2vec text. Immutable after
    construction, vocab included; safe for concurrent reads.
    """

    values: np.ndarray
    vocab: list[str] | None = None

    def __post_init__(self):
        v = to_float32(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"embedding matrix must be 2-D and non-empty, got shape {v.shape}")
        check_finite(v, "embedding matrix contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.vocab is not None:
            # a copy, so that a token the caller changes later is not written unchecked
            object.__setattr__(self, "vocab", list(self.vocab))
            if len(self.vocab) != v.shape[0]:
                raise DataError(
                    f"vocab length {len(self.vocab)} != row count {v.shape[0]}")
            # one C-speed scan, which fails on any token that is not a str
            # (before set(), which fails on an unhashable one)
            try:
                joined = "".join(self.vocab)
            except TypeError:
                token = next(t for t in self.vocab if not isinstance(t, str))
                raise DataError(f"token {token!r} is not a str") from None
            tokens = set(self.vocab)
            if len(tokens) != len(self.vocab):
                raise DataError("vocab contains duplicate tokens")
            # \s matches exactly what str.isspace does
            if "" in tokens or re.search(r"\s", joined):
                token = next(t for t in self.vocab if not t or re.search(r"\s", t))
                raise DataError(f"token {token!r} is empty or contains whitespace")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingMatrix):
            return NotImplemented
        return np.array_equal(self.values, other.values) and self.vocab == other.vocab


def to_float32(values) -> np.ndarray:
    """values as a float32 array, with no copy of float32 input. A value
    beyond binary32 range becomes inf without a warning, for check_finite
    to report."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float32)


# rows are parsed about this many values at a time, whatever the file's
# size: a chunk's text and float64 buffer stay near 600 KiB, which malloc
# reuses from chunk to chunk (2^16 left several MiB more memory resident)
_CHUNK_VALUES = 1 << 14


def _format_f32(x: np.float32) -> str:
    # shortest decimal that parses back to the same binary32
    return np.format_float_positional(np.float32(x), unique=True, trim="-")


def load_word2vec_text(source: BinaryIO) -> EmbeddingMatrix:
    """Parse the word2vec text format into an EmbeddingMatrix."""
    # an undecodable byte cannot be part of the two integers: it fails below
    header = source.readline().decode("utf-8", errors="replace").strip()
    try:
        count, dim = map(int, header.split())
    except ValueError:
        raise DataError(f"malformed header: {header!r}") from None
    if count < 1 or dim < 1:
        raise DataError(f"malformed header: rows={count} cols={dim}")

    # rows are read a chunk at a time as they arrive: a header claiming more
    # rows than the file holds must fail as a row count mismatch, not size
    # an allocation
    step = max(1, _CHUNK_VALUES // dim)
    vocab: list[str] = []
    seen: set[str] = set()
    blocks: list[np.ndarray] = []
    for first in range(0, count, step):
        tokens, values = _read_chunk(source, first, min(step, count - first), count, dim, seen)
        vocab += tokens
        blocks.append(values)
    # trailing blank lines are fine; a row beyond the header's count is not
    while line := source.readline():
        if line.decode("utf-8", errors="replace").strip():
            raise DataError(f"row count mismatch: expected {count} rows, got more")
    return EmbeddingMatrix(np.concatenate(blocks), vocab)


def _read_chunk(source: BinaryIO, first: int, n: int, count: int, dim: int,
                seen: set[str]) -> tuple[list[str], np.ndarray]:
    """Rows first .. first + n - 1: their tokens and float32 values.

    The values go through numpy's C parser in one call. It refuses some
    syntax float() takes (underscores, non-ASCII digits, a bare CR between
    values), so a chunk that does not split and parse into finite (n, dim)
    values under n new tokens takes the per-row parse, which reports the
    first bad row.
    """
    lines = [source.readline() for _ in range(n)]
    try:
        # a blank line or a token alone has no second field: IndexError
        fields = [line.decode("utf-8").strip().split(None, 1) for line in lines]
        tokens = [f[0] for f in fields]
        values = to_float32(
            np.loadtxt([f[1] for f in fields], dtype=np.float64, comments=None, ndmin=2))
        # a non-finite chunk goes to the per-row parse, which reports the row
        check_finite(values, "non-finite value")
        new = set(tokens)
        if values.shape == (n, dim) and len(new) == n and seen.isdisjoint(new):
            seen |= new
            return tokens, values
    except (ValueError, IndexError, DataError):  # UnicodeDecodeError is a ValueError
        pass
    return _parse_rows(lines, first, count, dim, seen)


def _parse_rows(lines: list[bytes], first: int, count: int, dim: int,
                seen: set[str]) -> tuple[list[str], np.ndarray]:
    """Parse rows first, first + 1, ... one float() per value, raising the
    first row's error in the order: UTF-8, blank, dim, duplicate token,
    syntax, non-finite."""
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    for i, raw in enumerate(lines, first):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise DataError(f"row {i} is not UTF-8 text") from None
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
        tokens.append(token)
        try:
            row = to_float32([float(f) for f in fields[1:]])
        except ValueError:
            raise DataError(f"unparseable value at row {i}") from None
        check_finite(row, f"non-finite value at row {i}")
        rows.append(row)
    return tokens, np.stack(rows)


def save_word2vec_text(e: EmbeddingMatrix, dest: BinaryIO) -> None:
    """Write the word2vec text format; requires a vocabulary."""
    if e.vocab is None:
        raise DataError("word2vec text format requires a vocabulary")
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
    dest.write(memoryview(np.ascontiguousarray(e.values, dtype="<f4")).cast("B"))
