import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpq import DataError, FormatError, PartitionKind, PartitionScheme, QuantizedEmbedding
from gpq.codec import HEADER_SIZE, decode, encode, pack_indices, payload_length, unpack_indices
from gpq.quantizer import index_bit_width, size_report


def random_quantized(rng, rows=None, cols=None, c=None, kind=None, with_vars=None):
    rows = rows or int(rng.integers(1, 65))
    g = int(rng.choice([d for d in range(1, 17) if (cols or 16) % d == 0])) if cols else None
    if cols is None:
        cols = int(rng.integers(1, 17))
        divisors = [d for d in range(1, cols + 1) if cols % d == 0]
        g = int(rng.choice(divisors))
    c = c or int(rng.integers(1, 10))
    kind = kind if kind is not None else rng.choice(list(PartitionKind))
    with_vars = bool(rng.integers(0, 2)) if with_vars is None else with_vars
    blocks = g if kind is PartitionKind.STRUCTURED else 1
    sub = cols // g
    means = rng.normal(size=(blocks, c, sub)).astype(np.float32)
    vars_ = np.abs(rng.normal(size=(blocks, c, sub))).astype(np.float32) if with_vars else None
    index = rng.integers(0, c, size=(rows, g)).astype(np.uint32)
    return QuantizedEmbedding(PartitionScheme(kind, g), rows, cols, c, index,
                              means, vars_, int(rng.integers(0, 2**63)))


class TestBitPacking:
    def test_zero_bits(self):
        assert pack_indices(np.zeros(5, dtype=np.uint32), 0) == b""
        assert np.array_equal(unpack_indices(b"", 5, 0), np.zeros(5))

    def test_msb_first(self):
        # 6-bit values 0b000001, 0b000010 -> bits 000001 000010 0000 pad
        packed = pack_indices(np.array([1, 2], dtype=np.uint32), 6)
        assert packed == bytes([0b00000100, 0b00100000])

    @pytest.mark.parametrize("bits", [1, 2, 3, 5, 6, 8, 11])
    def test_round_trip(self, bits):
        rng = np.random.default_rng(bits)
        vals = rng.integers(0, 2**bits, size=100).astype(np.uint32)
        assert np.array_equal(unpack_indices(pack_indices(vals, bits), 100, bits), vals)


class TestContainer:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            q = random_quantized(rng)
            assert decode(encode(q)) == q

    def test_single_cluster_empty_index_section(self):
        rng = np.random.default_rng(1)
        q = random_quantized(rng, rows=4, c=1, with_vars=False)
        data = encode(q)
        book_bytes = q.codebook_means.size * 4
        assert len(data) == HEADER_SIZE + book_bytes + 4
        assert decode(data) == q

    def test_payload_equals_storable_bits(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            q = random_quantized(rng)
            assert payload_length(encode(q)) * 8 == size_report(q).storable_bits

    def test_byte_flip_detected(self):
        rng = np.random.default_rng(3)
        q = random_quantized(rng, rows=8)
        data = bytearray(encode(q))
        for pos in range(len(data)):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x5A
            with pytest.raises(FormatError):
                decode(bytes(corrupted))

    def test_truncation_detected(self):
        rng = np.random.default_rng(4)
        data = encode(random_quantized(rng))
        with pytest.raises(FormatError, match="truncated"):
            decode(data[:-1])
        with pytest.raises(FormatError):
            decode(data[:10])

    def test_trailing_bytes_rejected(self):
        rng = np.random.default_rng(5)
        data = encode(random_quantized(rng))
        with pytest.raises(FormatError, match="trailing"):
            decode(data + b"\x00")

    def test_bad_magic_and_version(self):
        rng = np.random.default_rng(6)
        data = bytearray(encode(random_quantized(rng)))
        bad = bytearray(data)
        bad[:4] = b"NOPE"
        with pytest.raises(FormatError, match="magic"):
            decode(bytes(bad))
        bad = bytearray(data)
        bad[4] = 9
        with pytest.raises(FormatError):
            decode(bytes(bad))

    def test_out_of_range_index_rejected(self):
        # hand-build a container for c=3 (2-bit indices) holding value 3
        scheme = PartitionScheme(PartitionKind.UNIFIED, 1)
        means = np.zeros((1, 3, 2), dtype=np.float32)
        header = struct.pack("<4sBBQIIIBQ", b"GPQE", 1, 0x02, 2, 2, 1, 3, 32, 0)
        body = header + means.tobytes() + pack_indices(np.array([3, 0], dtype=np.uint32), 2)
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FormatError, match="out of range"):
            decode(data)

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0)])
    def test_empty_matrix_rejected(self, rows, cols):
        # unified, g=1, c=2 (1-bit indices), with a valid CRC
        means = np.zeros((1, 2, cols), dtype=np.float32)
        header = struct.pack("<4sBBQIIIBQ", b"GPQE", 1, 0x02, rows, cols, 1, 2, 32, 0)
        body = header + means.tobytes() + pack_indices(np.zeros(rows, dtype=np.uint32), 1)
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FormatError, match="empty matrix"):
            decode(data)

    def test_round_trip_preserves_seed_and_flags(self):
        rng = np.random.default_rng(7)
        q = random_quantized(rng, with_vars=True)
        back = decode(encode(q))
        assert back.seed == q.seed
        assert back.scheme == q.scheme
        assert np.array_equal(back.codebook_vars, q.codebook_vars)
        top = dataclasses.replace(q, seed=2**64 - 1)
        assert decode(encode(top)).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_header_range_rejected(self, seed):
        q = random_quantized(np.random.default_rng(9))
        with pytest.raises(DataError, match="seed"):
            encode(dataclasses.replace(q, seed=seed))

    def test_encoding_deterministic(self):
        rng = np.random.default_rng(8)
        q = random_quantized(rng)
        assert encode(q) == encode(q)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        q = random_quantized(rng)
        assert decode(encode(q)) == q
