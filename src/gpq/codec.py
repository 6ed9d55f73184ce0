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
                        index_bit_width)

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
    if not 0 <= q.seed < 2**64:
        raise DataError(f"seed {q.seed} does not fit the header's 64 bits")
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
    if rows < 1 or cols < 1:
        raise FormatError(f"empty matrix: rows={rows} cols={cols}")
    if clusters < 1:
        raise FormatError("cluster count must be >= 1")
    if groups < 1 or cols % groups != 0:
        raise FormatError(f"group count {groups} does not divide dimension {cols}")

    has_vars = bool(flags & _FLAG_VARS)
    kind = PartitionKind.UNIFIED if flags & _FLAG_UNIFIED else PartitionKind.STRUCTURED
    scheme = PartitionScheme(kind, groups)
    sub = cols // groups
    blocks = scheme.blocks

    book_bytes = blocks * clusters * sub * 4
    index_bytes = ((rows * groups * index_bit_width(clusters)) + 7) // 8
    expected = HEADER_SIZE + book_bytes * (2 if has_vars else 1) + index_bytes + 4
    if len(data) < expected:
        raise FormatError("truncated stream")
    if len(data) > expected:
        raise FormatError("trailing bytes after container")

    stored_crc = struct.unpack_from("<I", data, expected - 4)[0]
    if zlib.crc32(data[:expected - 4]) != stored_crc:
        raise FormatError("CRC mismatch")

    off = HEADER_SIZE
    means = np.frombuffer(data, dtype="<f4", count=blocks * clusters * sub,
                          offset=off).reshape(blocks, clusters, sub)
    off += book_bytes
    vars_ = None
    if has_vars:
        vars_ = np.frombuffer(data, dtype="<f4", count=blocks * clusters * sub,
                              offset=off).reshape(blocks, clusters, sub)
        off += book_bytes
    index = unpack_indices(data[off:off + index_bytes], rows * groups,
                           index_bit_width(clusters)).reshape(rows, groups)
    if index.size and int(index.max()) >= clusters:
        raise FormatError("index entry out of range")
    try:
        return QuantizedEmbedding(scheme, rows, cols, clusters, index,
                                  means.copy(), None if vars_ is None else vars_.copy(),
                                  seed)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def payload_length(data: bytes) -> int:
    """Byte length of the payload (header and CRC excluded)."""
    return len(data) - HEADER_SIZE - 4
