"""GPQE container: bit-exact serialization of a quantized embedding.

Layout: 35-byte header, codebook means (LE binary32), variances if
flagged, then the index matrix packed word-major/group-major at
ceil(log2 c) bits per entry, MSB-first, zero-padded to a byte boundary
only at the end of the whole index section, then CRC-32 (ISO-HDLC, LE)
over everything preceding it. The payload between header and CRC is
exactly storable_bits/8 bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import DataError, FormatError
from .quantizer import (PartitionKind, PartitionScheme, QuantizedEmbedding,
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
        return b""
    vals = np.asarray(values, dtype=np.uint32).ravel()
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    bitarr = ((vals[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bitarr).tobytes()


def unpack_indices(data: bytes, count: int, bits: int) -> np.ndarray:
    if bits == 0:
        return np.zeros(count, dtype=np.uint32)
    bitarr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    needed = count * bits
    if bitarr.size < needed:
        raise FormatError("truncated index section")
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))
    return bitarr[:needed].reshape(count, bits).astype(np.uint32) @ weights


def encode(q: QuantizedEmbedding) -> bytes:
    flags = 0
    if q.codebook_vars is not None:
        flags |= _FLAG_VARS
    if q.scheme.kind is PartitionKind.UNIFIED:
        flags |= _FLAG_UNIFIED
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, flags, q.rows, q.cols,
                        q.scheme.groups, q.clusters, 32, q.seed)
    out += np.ascontiguousarray(q.codebook_means, dtype="<f4").tobytes()
    if q.codebook_vars is not None:
        out += np.ascontiguousarray(q.codebook_vars, dtype="<f4").tobytes()
    out += pack_indices(q.index_matrix, index_bit_width(q.clusters))
    out += struct.pack("<I", zlib.crc32(bytes(out)))
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
    if f_p != 32:
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
        if zlib.crc32(data[:-4]) != struct.unpack_from("<I", data, expected - 4)[0]:
            raise FormatError("CRC mismatch")

        shape = (2 if has_vars else 1, scheme.blocks, clusters, cols // groups)
        books = np.frombuffer(data, dtype="<f4", count=np.prod(shape),
                              offset=HEADER_SIZE).reshape(shape).copy()
        index = unpack_indices(data[HEADER_SIZE + books.nbytes:-4], rows * groups,
                               index_bit_width(clusters)).reshape(rows, groups)
        return QuantizedEmbedding(scheme, index, books[0], books[1] if has_vars else None,
                                  seed)
    except DataError as exc:
        raise FormatError(str(exc)) from exc


def payload_length(data: bytes) -> int:
    """Byte length of the payload (header and CRC excluded)."""
    return len(data) - HEADER_SIZE - 4
