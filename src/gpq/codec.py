"""GPQE container: bit-exact serialization of a quantized embedding.

Layout: 35-byte header, codebook means (LE binary32), variances if
flagged, then the index matrix packed word-major/group-major at
ceil(log2 c) bits per entry, MSB-first, zero-padded to a byte boundary
only at the end of the whole index section (decode rejects a set padding
bit, so each container has one encoding), then CRC-32 (ISO-HDLC, LE)
over everything preceding it. The payload between header and CRC is
exactly storable_bits/8 bytes. Any 8 consecutive entries from the index's
start fill `bits` whole bytes, so the index is packed and unpacked in
8-entry groups, a chunk of groups at a time.
"""

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
# makes 8 to 2·bits + 7 ufunc calls: 2^14-entry chunks took 1.5-1.8x as long
# at 128k entries x 6 bits, and larger chunks were no faster at 16.4M.


def _pack_groups(groups: np.ndarray, packed: np.ndarray, tmp: np.ndarray) -> None:
    """Pack (n, 8) entries into (n, bits) bytes: byte j of a group is the OR
    of the entries that overlap it, each shifted into place."""
    bits = packed.shape[1]
    for j in range(bits):
        for p in range(8 * j // bits, (8 * j + 7) // bits + 1):
            r = (p + 1) * bits - 8 * j - 8  # entry p's last bit past byte j's
            shift = np.right_shift if r >= 0 else np.left_shift
            if p == 8 * j // bits:
                shift(groups[:, p], abs(r), out=packed[:, j], casting="unsafe")
            else:
                shift(groups[:, p], abs(r), out=tmp[:len(groups)])
                np.bitwise_or(packed[:, j], tmp[:len(groups)], out=packed[:, j],
                              casting="unsafe")


def pack_indices(values: np.ndarray, bits: int,
                 out: np.ndarray | None = None) -> bytes | np.ndarray:
    """Pack a flat integer array at `bits` bits per entry, MSB-first; every
    value must be below 2**bits. Returns the bytes, or writes them into
    `out`, a uint8 array of exactly ceil(count·bits/8) bytes, and returns it.
    Whole 8-entry groups are packed a chunk at a time straight into place."""
    dest = np.empty((np.size(values) * bits + 7) // 8, dtype=np.uint8) if out is None else out
    if bits == 0:
        return b"" if out is None else dest  # before ravel() copies a broadcast index
    vals = np.asarray(values, dtype=np.uint32).ravel()
    full = vals.size - vals.size % 8
    tmp = np.empty(min(_CHUNK, vals.size + 7) // 8, dtype=np.uint32)
    for lo in range(0, full, _CHUNK):
        hi = min(lo + _CHUNK, full)
        _pack_groups(vals[lo:hi].reshape(-1, 8),
                     dest[lo // 8 * bits:hi // 8 * bits].reshape(-1, bits), tmp)
    if full < vals.size:  # the last group, padded with zero entries
        last = np.zeros((1, 8), dtype=np.uint32)
        last[0, :vals.size - full] = vals[full:]
        packed = np.empty((1, bits), dtype=np.uint8)
        _pack_groups(last, packed, tmp)
        dest[full // 8 * bits:] = packed[0, :len(dest) - full // 8 * bits]
    return dest.tobytes() if out is None else dest


def unpack_indices(data: bytes, count: int, bits: int) -> np.ndarray:
    """`count` entries of `bits` bits each, MSB-first. At 0 bits every entry
    is 0, and the result is a read-only view of one zero.

    Entry p of each 8-entry group is a fixed shift of the big-endian
    8-byte window at byte p·bits // 8 of the group's `bits` bytes; the
    groups are read a chunk at a time into the uint32 result."""
    if len(data) * 8 < count * bits:
        raise FormatError("truncated index section")
    if bits == 0:
        return np.broadcast_to(np.uint32(0), (count,))
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(count + -count % 8, dtype=np.uint32)
    # a chunk's windows read up to 8 bytes past its end; bytes past the
    # data only reach bits past the last entry
    n = len(out[:_CHUNK]) // 8  # groups per chunk
    buf = np.zeros(n * bits + 8, dtype=np.uint8)
    tmp = np.empty(n, dtype=np.uint64)
    for lo in range(0, count, _CHUNK):
        groups = out[lo:lo + _CHUNK].reshape(-1, 8)
        src = raw[lo // 8 * bits:][:len(groups) * bits]
        buf[:len(src)] = src
        for p in range(8):
            at, s = divmod(p * bits, 8)
            window = np.ndarray((len(groups),), ">u8", buf, at, (bits,))
            np.left_shift(window, s, out=tmp[:len(groups)])
            np.right_shift(tmp[:len(groups)], 64 - bits, out=groups[:, p], casting="unsafe")
    return out[:count]


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


def payload_length(data: bytes) -> int:
    """Byte length of the payload (header and CRC excluded)."""
    return len(data) - HEADER_SIZE - 4
