import dataclasses
import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpq import (DataError, EmbeddingMatrix, FormatError, PartitionKind, PartitionScheme,
                 QuantizedEmbedding, ReconstructMode, RweConfig, gpq_compress, pq_compress,
                 reconstruct, rwe_generate)
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
    scheme = PartitionScheme(kind, g)
    sub = cols // g
    means = rng.normal(size=(scheme.blocks, c, sub)).astype(np.float32)
    vars_ = (np.abs(rng.normal(size=(scheme.blocks, c, sub))).astype(np.float32)
             if with_vars else None)
    index = rng.integers(0, c, size=(rows, g)).astype(np.uint32)
    return QuantizedEmbedding(scheme, index, means, vars_, int(rng.integers(0, 2**63)))


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

    @pytest.mark.parametrize("table", ["mean", "variance"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_codebook_rejected(self, table, value):
        # unified, g=1, c=2, with variances: one bad float, a valid CRC
        books = np.zeros((2, 1, 2, 2), dtype=np.float32)
        books[int(table == "variance"), 0, 1, 0] = value
        header = struct.pack("<4sBBQIIIBQ", b"GPQE", 1, 0x03, 2, 2, 1, 2, 32, 0)
        body = header + books.tobytes() + pack_indices(np.array([1, 0], dtype=np.uint32), 1)
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FormatError, match=f"non-finite {table}"):
            decode(data)
        with pytest.raises(DataError, match=f"non-finite {table}"):
            QuantizedEmbedding(PartitionScheme(PartitionKind.UNIFIED, 1),
                               np.array([[1], [0]], dtype=np.uint32), books[0], books[1], 0)

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
            dataclasses.replace(q, seed=seed)

    @pytest.mark.parametrize("rows, c, match", [(0, 2, "empty matrix"), (2, 0, "cluster count")])
    def test_no_rows_or_clusters_rejected(self, rows, c, match):
        with pytest.raises(DataError, match=match):
            QuantizedEmbedding(PartitionScheme(PartitionKind.STRUCTURED, 2),
                               np.zeros((rows, 2), dtype=np.uint32),
                               np.zeros((2, c, 1), dtype=np.float32), None, 0)

    @pytest.mark.parametrize("unknown", [0x04, 0x80])
    def test_unknown_flag_bits_rejected(self, unknown):
        # unified, g=1, c=2 (1-bit indices), with a valid CRC
        means = np.zeros((1, 2, 2), dtype=np.float32)
        header = struct.pack("<4sBBQIIIBQ", b"GPQE", 1, 0x02 | unknown, 2, 2, 1, 2, 32, 0)
        body = header + means.tobytes() + pack_indices(np.array([1, 0], dtype=np.uint32), 1)
        data = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(FormatError, match="flag"):
            decode(data)

    def test_set_padding_bit_rejected(self):
        # unified, g=1, c=2 (1-bit indices): 7 rows leave one padding bit
        means = np.zeros((1, 2, 2), dtype=np.float32)
        header = struct.pack("<4sBBQIIIBQ", b"GPQE", 1, 0x02, 7, 2, 1, 2, 32, 0)
        index = pack_indices(np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint32), 1)
        for last in (index[-1], index[-1] | 1):
            body = header + means.tobytes() + index[:-1] + bytes([last])
            data = body + struct.pack("<I", zlib.crc32(body))
            if last == index[-1]:
                assert encode(decode(data)) == data
            else:
                with pytest.raises(FormatError, match="padding"):
                    decode(data)

    @pytest.mark.parametrize("field, value", [
        ("codebook_means", 0.1),   # rounds when stored as binary32
        ("codebook_means", 1e39),  # beyond binary32: encode would write inf
        ("codebook_vars", 0.1),
        ("index_matrix", 1),
    ])
    def test_wrong_dtype_rejected(self, field, value):
        q = random_quantized(np.random.default_rng(4), c=2, with_vars=True)
        table = np.full(getattr(q, field).shape, value,
                        dtype=np.int64 if field == "index_matrix" else np.float64)
        with pytest.raises(DataError, match="dtype"):
            dataclasses.replace(q, **{field: table})

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


# (offset, struct code) of every header field after the magic
HEADER_FIELDS = [(4, "B"), (5, "B"), (6, "Q"), (14, "I"), (18, "I"), (22, "I"),
                 (26, "B"), (27, "Q")]


@given(st.integers(0, 2**32), st.sampled_from(HEADER_FIELDS),
       st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)))
@example(seed=8842, field=(6, "Q"), value=1)  # 7 rows to 1 moves index bits into the padding
@example(seed=13641, field=(6, "Q"), value=230_584_300_921_369_396)  # c = 1: no index bits
@settings(max_examples=200, deadline=None)
def test_decodes_only_what_encodes_back(seed, field, value):
    # one header field rewritten under a valid CRC: whatever still decodes
    # is a QuantizedEmbedding that encodes back to the same bytes. A c = 1
    # container stores no index bits, so its length does not bound the rows
    # field, and the index matrix it describes may not fit in memory.
    data = bytearray(encode(random_quantized(np.random.default_rng(seed))))
    offset, code = field
    struct.pack_into("<" + code, data, offset, value % 2 ** (8 * struct.calcsize(code)))
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    try:
        q = decode(bytes(data))
    except (FormatError, MemoryError):
        return
    assert encode(q) == data


def sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


# SHA-256 of the container and of the mean- and sample-mode reconstructions
# for fixed RWE inputs; any change to clustering, layout or lookup shows here.
# Each input is (rows, cols, g, c, distinct): RWE distinct x cols with its rows
# repeated down to `rows`. Per (method, kind): the 48x12 g=4 c=6
# input (sub-vectors of d = 3), the 64x32 g=2 c=8 input (d = 16, where
# numpy's axis sums switch to pairwise summation and a reordered distance sum
# would first round differently), the 48x12 g=12 c=6 input (d = 1, the
# paper's case), and 24x2 g=2 c=6 from two distinct rows (d = 1 with fewer
# distinct values than clusters, so empty clusters are repaired).
PINNED_INPUTS = ((48, 12, 4, 6, 48), (64, 32, 2, 8, 64), (48, 12, 12, 6, 48), (24, 2, 2, 6, 2))
PINNED = {
    ("pq", "structured"): ((
        "b65fff6fd27a2ec354e355df4642662c418d2757efc742974d18f1aa9864013b",
        "1f377207414f122b70c802bb4f05325dd305776df50c7e17a730ff17ea2f4625",
        None), (
        "fa5cb9690aaa853bd334f0f2ab3843b0ac44961ad5be17079814668d8be9f9e9",
        "a272538cbb7f5b8a01d39beeea79d1141d47aa4fd5d752f1c893b0a1a4a5deac",
        None), (
        "26342e1f21854e9d3df01ab65177698a19675b0216763dbedfab9816f36f06e8",
        "826588010fea0865f6f07dc53f65270895c6d87440e60c3f9884b6a522707e83",
        None), (
        "83fe851a2d511856ce47a0c9c1d5e71412fbc37231862214c3fd31b7902914b0",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        None)),
    ("pq", "unified"): ((
        "e7530f06becaf475c940336ce8d05b6a1787aa6a06dba9e59fd8a1be58e52d2e",
        "11223b7a67b05c19eba779fccd39b3bdde851a61e7cdd937e0444896da90b0b1",
        None), (
        "b77eef1c88906d869533745bf3dc1bda9d6dc906dffcbeebabce0c2a0870f2f5",
        "6316dbfb275dc9d5e96a8d837e0ddc65d925ab2f6c042e64b2a76e2280c1b5a3",
        None), (
        "a76dd213e95744d97ebe7f48ed133cd32686f0540b56acee390dc711d213e64c",
        "8075475489326ed224bd11bbb04f8ccd96267c72e257f31e26926e4500d1f766",
        None), (
        "8842978f6f0de2907b67d0bf49b284c53e2b76dbdf032517480e00d77b015d59",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        None)),
    ("gpq", "structured"): ((
        "0c78747c8ed257cd416332d24202731999c23d667db66c02ceb101dcb4ea59c3",
        "1f377207414f122b70c802bb4f05325dd305776df50c7e17a730ff17ea2f4625",
        "e39fba1f714070649ef3526f01f7a4ea078a4133a74d342325df981997fd2da1"), (
        "f3019156028a2372461d668203018dadaef2f489c898dea32667a3061d3303b6",
        "a272538cbb7f5b8a01d39beeea79d1141d47aa4fd5d752f1c893b0a1a4a5deac",
        "f0f084a68eea5a8ca8b44aa014dc093b96963b53d691302a1862616484d0577c"), (
        "6c99ab8cf0c733500b7c80f7704726a894a0f35a6a8581d28a2cb4fd3faaea60",
        "826588010fea0865f6f07dc53f65270895c6d87440e60c3f9884b6a522707e83",
        "5889572612d9a7785510e65dd39124668b6350c385b6e4ee818342d32ec125db"), (
        "3508e925717e4eb185092d068faf332ecf88bf83298b52a27af38a62529ae2cc",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8")),
    ("gpq", "unified"): ((
        "0f4184a31c8a98ae2bebbd90a22b41a52cb43b5974bd53cc3ef53b2bde4fc01e",
        "11223b7a67b05c19eba779fccd39b3bdde851a61e7cdd937e0444896da90b0b1",
        "b929521daed9e5633381682b2fe25eccdb5e5e3d67740103b54a44e9b041f1c8"), (
        "77c18d69bc7243547eb24114c83a08c2b0edfa9517c4df21a9190e9cb091ccb7",
        "6316dbfb275dc9d5e96a8d837e0ddc65d925ab2f6c042e64b2a76e2280c1b5a3",
        "2322f11c29be8f0e0b6fc4c997b764887e3cf02f5b0470a95c03c3cf51c16863"), (
        "3969ee57a794aa9a3ef8255cb788bf94bd3adeb463be351b9109c6e2dc49b03b",
        "8075475489326ed224bd11bbb04f8ccd96267c72e257f31e26926e4500d1f766",
        "5653b8421df2fab97796ccd43a06ae2c40a852574ef3096f99d25511c4b6db0d"), (
        "75d751459a5a660fff721ccad3fbd8b21f7cee901b0bfe8a128aa72e8baf4816",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8")),
}


@pytest.mark.parametrize("method, kind", sorted(PINNED))
def test_pinned_bytes(method, kind):
    compress = gpq_compress if method == "gpq" else pq_compress
    assert len(PINNED[method, kind]) == len(PINNED_INPUTS)
    for (rows, cols, g, c, distinct), pins in zip(PINNED_INPUTS, PINNED[method, kind]):
        e = rwe_generate(RweConfig(rows=distinct, cols=cols, seed=11))
        e = EmbeddingMatrix(np.tile(e.values, (rows // distinct, 1)))
        q = compress(e, PartitionScheme(PartitionKind(kind), g), c, seed=5, restarts=2)
        mean = reconstruct(q, ReconstructMode.MEAN).values.astype("<f4")
        got = [sha256(encode(q)), sha256(mean.tobytes())]
        if q.codebook_vars is None:
            got.append(None)
        else:
            sample = reconstruct(q, ReconstructMode.SAMPLE, seed=3).values.astype("<f4")
            got.append(sha256(sample.tobytes()))
        assert tuple(got) == pins, (rows, cols, g, c)
