"""GPQE container: bit-exact serialization of a quantized embedding.

Layout: 35-byte header, codebook means (LE binary32), variances if
flagged, then the index matrix packed word-major/group-major at
ceil(log2 c) bits per entry, MSB-first, zero-padded to a byte boundary
only at the end of the whole index section (decode rejects a set padding
bit, so each container has one encoding), then CRC-32 (ISO-HDLC, LE)
over everything preceding it. The payload between header and CRC is
exactly storable_bits/8 bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DataError, FormatError, check_nbytes
from .quantizer import (FLOAT_BITS, PartitionKind, PartitionScheme, QuantizedEmbedding,
                        compute_size_report, index_bit_width)

MAGIC = b"GPQE"
VERSION = 1
_HEADER = struct.Struct("<4sBBQIIIBQ")  # magic, version, flags, rows, cols, groups, clusters, f_p, seed
HEADER_SIZE = _HEADER.size  # 35

_FLAG_VARS = 0x01
_FLAG_UNIFIED = 0x02


def pack_indices(values: np.ndarray, bits: int) -> bytes:
    """Pack a flat integer array at `bits` bits per entry, MSB-first."""
    if bits == 0:
        return b""  # before ravel() copies a broadcast index
    vals = np.asarray(values, dtype=np.uint32).ravel()
    planes = np.empty((vals.size, bits), dtype=np.uint8)
    for j in range(bits):
        np.bitwise_and(vals >> (bits - 1 - j), 1, out=planes[:, j], casting="unsafe")
    return np.packbits(planes).tobytes()


def unpack_indices(data: bytes, count: int, bits: int) -> np.ndarray:
    """`count` entries of `bits` bits each, MSB-first. At 0 bits every entry
    is 0, and the result is a read-only view of one zero."""
    if len(data) * 8 < count * bits:
        raise FormatError("truncated index section")
    if bits == 0:
        return np.broadcast_to(np.uint32(0), (count,))
    planes = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                           count=count * bits).reshape(count, bits)
    out = np.zeros(count, dtype=np.uint32)
    for j in range(bits):
        out <<= 1
        out |= planes[:, j]
    return out


def encode(q: QuantizedEmbedding) -> bytes:
    flags = 0
    if q.codebook_vars is not None:
        flags |= _FLAG_VARS
    if q.scheme.kind is PartitionKind.UNIFIED:
        flags |= _FLAG_UNIFIED
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, flags, q.rows, q.cols,
                        q.scheme.groups, q.clusters, FLOAT_BITS, q.seed)
    out += np.ascontiguousarray(q.codebook_means, dtype="<f4").tobytes()
    if q.codebook_vars is not None:
        out += np.ascontiguousarray(q.codebook_vars, dtype="<f4").tobytes()
    out += pack_indices(q.index_matrix, index_bit_width(q.clusters))
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


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
