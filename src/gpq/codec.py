"""GPQE container: bit-exact serialization of a quantized embedding.

Layout: 35-byte header, codebook means (LE binary32), variances if
flagged, then the index matrix packed word-major/group-major at
ceil(log2 c) bits per entry, MSB-first, zero-padded to a byte boundary
only at the end of the whole index section (decode rejects a set padding
bit, so each container has one encoding), then CRC-32 (ISO-HDLC, LE)
over everything preceding it. The payload between header and CRC is
exactly storable_bits/8 bytes.

Any 8 consecutive entries from the index's start fill `bits` whole bytes,
so the index is packed and unpacked in 8-entry groups, a chunk of groups
at a time. Entry p of a group lives in its window: the big-endian
unsigned word of the narrowest width w in {1, 2, 4, 8} bytes with
8w >= bits + 7, at byte p·bits // 8 of the group. With
r = 8w - p·bits % 8 - bits, the entry is (window >> r) & (2**bits - 1).
Since w <= bits, the windows of one p never overlap."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DataError, FormatError, check_nbytes
from .quantizer import (FLOAT_BITS, PartitionKind, PartitionScheme, QuantizedEmbedding,
                        compute_size_report, index_bit_width, size_report)

MAGIC = b"GPQE"
VERSION = 1
_HEADER = struct.Struct("<4sBBQIIIBQ")  # magic, version, flags, rows, cols, groups, clusters, f_p, seed
HEADER_SIZE = _HEADER.size  # 35

_FLAG_VARS = 0x01
_FLAG_UNIFIED = 0x02


_CHUNK = 1 << 17  # entries per pack or unpack chunk, a multiple of 8. Each chunk
# makes 16 ufunc calls, two per entry position: 2^14-entry chunks took 1.7-1.8x
# as long at 128k entries x 6 bits, and 2^20-entry chunks were slower at 16.4M.


def _windows(groups: int, bits: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Staging for `groups` 8-entry groups: a zeroed byte buffer, a temporary
    of the window width per group, and for p = 0..7 entry p's window into
    the buffer with its shift r, as the module docstring states them."""
    w = next(w for w in (1, 2, 4, 8) if 8 * w >= bits + 7)
    buf = np.zeros((groups + 1) * bits, dtype=np.uint8)  # w <= bits: one group of slack
    return buf, np.empty(groups, f"u{w}"), [
        (np.ndarray((groups,), f">u{w}", buf, p * bits // 8, (bits,)),
         8 * w - p * bits % 8 - bits) for p in range(8)]


def pack_indices(values: np.ndarray, bits: int,
                 out: np.ndarray | None = None) -> bytes | np.ndarray:
    """Pack a flat integer array at `bits` bits per entry, MSB-first; every
    value must be below 2**bits. Returns the bytes, or writes them into
    `out`, a uint8 array of exactly ceil(count·bits/8) bytes, and returns it.
    Entry p of each group is ORed into its window a chunk at a time."""
    dest = np.empty((np.size(values) * bits + 7) // 8, dtype=np.uint8) if out is None else out
    if bits == 0:
        return b"" if out is None else dest  # before ravel() copies a broadcast index
    vals = np.asarray(values, dtype=np.uint32).ravel()
    buf, tmp, windows = _windows(min(_CHUNK, vals.size + 7) // 8, bits)
    for lo in range(0, vals.size, _CHUNK):
        buf.fill(0)
        for p, (window, r) in enumerate(windows):
            src = vals[lo + p:lo + _CHUNK:8]
            np.left_shift(src, r, out=tmp[:len(src)], dtype=tmp.dtype, casting="unsafe")
            np.bitwise_or(window[:len(src)], tmp[:len(src)], out=window[:len(src)])
        part = dest[lo // 8 * bits:][:len(tmp) * bits]
        part[:] = buf[:len(part)]
    return dest.tobytes() if out is None else dest


def unpack_indices(data: bytes, count: int, bits: int) -> np.ndarray:
    """`count` entries of `bits` bits each, MSB-first, as uint32. At 0 bits
    every entry is 0, and the result is a read-only view of one zero.
    Entry p of each group is read from its window a chunk at a time."""
    if len(data) * 8 < count * bits:
        raise FormatError("truncated index section")
    if bits == 0:
        return np.broadcast_to(np.uint32(0), (count,))
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(count, dtype=np.uint32)
    buf, tmp, windows = _windows(min(_CHUNK, count + 7) // 8, bits)
    for lo in range(0, count, _CHUNK):
        # a short last chunk leaves stale bytes after its own, which only
        # reach bits past the last entry
        src = raw[lo // 8 * bits:][:len(tmp) * bits]
        buf[:len(src)] = src
        for p, (window, r) in enumerate(windows):
            dst = out[lo + p:lo + _CHUNK:8]
            np.right_shift(window[:len(dst)], r, out=tmp[:len(dst)])
            np.bitwise_and(tmp[:len(dst)], (1 << bits) - 1, out=dst, casting="unsafe")
    return out


def encode(q: QuantizedEmbedding) -> bytearray:
    """The container, written into one buffer of its final length."""
    flags = 0
    if q.codebook_vars is not None:
        flags |= _FLAG_VARS
    if q.scheme.kind is PartitionKind.UNIFIED:
        flags |= _FLAG_UNIFIED
    out = bytearray(HEADER_SIZE + size_report(q).storable_bytes + 4)
    _HEADER.pack_into(out, 0, MAGIC, VERSION, flags, q.rows, q.cols,
                      q.scheme.groups, q.clusters, FLOAT_BITS, q.seed)
    at = HEADER_SIZE
    for table in (q.codebook_means, q.codebook_vars):
        if table is not None:
            np.frombuffer(out, "<f4", table.size, at).reshape(table.shape)[...] = table
            at += table.nbytes
    pack_indices(q.index_matrix, index_bit_width(q.clusters),
                 np.frombuffer(out, np.uint8, len(out) - 4 - at, at))
    struct.pack_into("<I", out, len(out) - 4, zlib.crc32(memoryview(out)[:-4]))
    return out


def decode(data: bytes) -> QuantizedEmbedding:
    """Parse a container. Only wire-format checks live here: the header
    numbers and arrays are checked where they are defined, and any
    DataError from those checks becomes a FormatError."""
    if len(data) < HEADER_SIZE + 4:
        raise FormatError("truncated stream")
    magic, version, flags, rows, cols, groups, clusters, f_p, seed = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if f_p != FLOAT_BITS:
        raise FormatError(f"unsupported float width {f_p}")
    if flags & ~(_FLAG_VARS | _FLAG_UNIFIED):
        raise FormatError(f"unknown flag bits {flags:#04x}")
    has_vars = bool(flags & _FLAG_VARS)
    kind = PartitionKind.UNIFIED if flags & _FLAG_UNIFIED else PartitionKind.STRUCTURED
    try:
        scheme = PartitionScheme(kind, groups)
        # sized from the header alone: a huge header fails here, before any allocation
        expected = (HEADER_SIZE + compute_size_report(rows, cols, scheme, clusters,
                                                      has_vars).storable_bytes + 4)
        if len(data) < expected:
            raise FormatError("truncated stream")
        if len(data) > expected:
            raise FormatError("trailing bytes after container")
        if zlib.crc32(memoryview(data)[:-4]) != struct.unpack_from("<I", data, expected - 4)[0]:
            raise FormatError("CRC mismatch")
        # a c = 1 container stores no index bits, so its length does not bound rows
        check_nbytes(4 * rows * groups, f"an index matrix of {rows} x {groups} entries")
        pad = -(rows * groups * index_bit_width(clusters)) % 8
        if data[-5] & ((1 << pad) - 1):
            raise FormatError("non-zero padding bits after the index section")

        shape = (2 if has_vars else 1, scheme.blocks, clusters, cols // groups)
        books = np.frombuffer(data, dtype="<f4", count=np.prod(shape),
                              offset=HEADER_SIZE).reshape(shape).copy()
        index = unpack_indices(memoryview(data)[HEADER_SIZE + books.nbytes:-4], rows * groups,
                               index_bit_width(clusters)).reshape(rows, groups)
        return QuantizedEmbedding(scheme, index, books[0], books[1] if has_vars else None,
                                  seed)
    except DataError as exc:
        raise FormatError(str(exc)) from exc

