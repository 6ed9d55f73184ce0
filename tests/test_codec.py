import dataclasses
import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import pack_indices as reference_pack, unpack_indices as reference_unpack
from gpq import (DataError, EmbeddingMatrix, FormatError, PartitionKind, PartitionScheme,
                 QuantizedEmbedding, ReconstructMode, RweConfig, gpq_compress, pq_compress,
                 reconstruct, rwe_generate)
from gpq.cli import main
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


@st.composite
def index_arrays(draw):
    bits = draw(st.integers(0, 32))
    count = draw(st.integers(0, 80))
    top = 2**bits - 1
    vals = draw(st.lists(st.one_of(st.sampled_from([0, top]), st.integers(0, top)),
                         min_size=count, max_size=count))
    return np.array(vals, dtype=np.uint32), bits


@given(index_arrays())
@example((np.array([0, 2**32 - 1, 1], dtype=np.uint32), 32))
@example((np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint32), 1))  # 7 bits: one padding bit
@example((np.zeros(5, dtype=np.uint32), 0))
@settings(max_examples=300, deadline=None)
def test_packing_matches_shift_table_oracle(case):
    vals, bits = case
    packed = pack_indices(vals, bits)
    assert packed == reference_pack(vals, bits)
    for unpack in (unpack_indices, reference_unpack):
        back = unpack(packed, vals.size, bits)
        assert back.dtype == np.uint32 and np.array_equal(back, vals)
        if packed:
            with pytest.raises(FormatError, match="truncated"):
                unpack(packed[:-1], vals.size, bits)


def test_codec_peak_memory_bounded_by_index():
    # a 2^22-entry, 6-bit index (8192x512 unified, c = 50): the bit planes
    # take 1.5x the uint32 index, which leaves room for one index-sized
    # temporary but not for a count x bits table of words
    rng = np.random.default_rng(0)
    index = rng.integers(0, 50, size=(8192, 512)).astype(np.uint32)
    means = rng.normal(size=(1, 50, 1)).astype(np.float32)
    q = QuantizedEmbedding(PartitionScheme(PartitionKind.UNIFIED, 512), index, means, None, 0)
    packed = pack_indices(index, 6)
    data = encode(q)

    def peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for fn, args in ((pack_indices, (index, 6)), (unpack_indices, (packed, index.size, 6)),
                     (encode, (q,)), (decode, (data,))):
        assert peak(fn, *args) <= 3 * index.nbytes, fn.__name__


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

    def test_single_cluster_index_not_materialized(self, tmp_path, capsys):
        # 43 bytes that describe 150525201 x 14 index entries, 7.85 GiB as
        # uint32: c = 1 stores no index bits, and decode builds no index
        q = QuantizedEmbedding(PartitionScheme(PartitionKind.UNIFIED, 14),
                               np.zeros((1, 14), dtype=np.uint32),
                               np.ones((1, 1, 1), dtype=np.float32), None, 0)
        data = bytearray(encode(q))
        struct.pack_into("<Q", data, 6, 150_525_201)
        struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
        data = bytes(data)
        assert len(data) == 43
        tracemalloc.start()
        try:
            q = decode(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert (q.rows, q.cols, q.clusters) == (150_525_201, 14, 1)
        assert encode(q) == data
        path = tmp_path / "c1.gpqe"
        path.write_bytes(data)
        assert main(["info", "--input", str(path)]) == 0
        assert "150525201" in capsys.readouterr().out

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
        # a broadcast index (strides 0) is checked by one of its entries
        with pytest.raises(DataError, match="out of range"):
            QuantizedEmbedding(scheme, np.broadcast_to(np.uint32(3), (2, 1)), means, None, 0)

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

    @pytest.mark.parametrize("index_shape, means_shape, variances, match", [
        ((2,), (2, 3, 1), None, "index matrix shape"),
        ((2, 1), (2, 3, 1), None, "index matrix shape"),
        ((2, 2), (2, 3), None, "codebook shape"),
        ((2, 2), (1, 3, 1), None, "codebook shape"),
        ((2, 2), (2, 3, 1), np.zeros((2, 3, 2)), "variance table shape"),
        ((2, 2), (2, 3, 1), np.full((2, 3, 1), -1e-30), "negative variance"),
    ], ids=["index-1d", "index-columns", "codebook-2d", "codebook-blocks", "variance-shape",
            "negative-variance"])
    def test_inconsistent_arrays_rejected(self, index_shape, means_shape, variances, match):
        with pytest.raises(DataError, match=match):
            QuantizedEmbedding(PartitionScheme(PartitionKind.STRUCTURED, 2),
                               np.zeros(index_shape, dtype=np.uint32),
                               np.zeros(means_shape, dtype=np.float32),
                               None if variances is None else variances.astype(np.float32), 0)

    def test_equality_needs_same_type_and_method(self):
        gpq = random_quantized(np.random.default_rng(5), with_vars=True)
        pq = dataclasses.replace(gpq, codebook_vars=None)
        assert gpq == dataclasses.replace(gpq) and pq == dataclasses.replace(pq)
        assert gpq != pq and pq != gpq
        assert gpq.__eq__(gpq.index_matrix) is NotImplemented and gpq != "GPQE"

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
    # field; decode builds no index for it, so any addressable row count
    # decodes.
    data = bytearray(encode(random_quantized(np.random.default_rng(seed))))
    offset, code = field
    struct.pack_into("<" + code, data, offset, value % 2 ** (8 * struct.calcsize(code)))
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    try:
        q = decode(bytes(data))
    except FormatError:
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
        "a088613f484380efa8a4f980b32c96bf041ff3b2cc473410cff8d673c9a1985e",
        "7865e70e47daf1017b02e467ea84da764a98bfebe6e9d3589c144c8fc0e6159c",
        None), (
        "c26f0edfaa47bd6c07b3e50eaea9c0fd674828618922f27c4ec706dee6c703d7",
        "3b939ebb66a142f1301f32a352dcf9492d8f79c094db7165dca6009723a2ea7d",
        None), (
        "26342e1f21854e9d3df01ab65177698a19675b0216763dbedfab9816f36f06e8",
        "826588010fea0865f6f07dc53f65270895c6d87440e60c3f9884b6a522707e83",
        None), (
        "83fe851a2d511856ce47a0c9c1d5e71412fbc37231862214c3fd31b7902914b0",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        None)),
    ("pq", "unified"): ((
        "efb896deb4f2a2fb4bcc67bae523fd7f2bb1aa0900085db7a182e6d3c3bd7ac2",
        "d3b6e0966dc9cb21f0e89e20986d37378f955e2495244d6a2a8d096824bbbc9f",
        None), (
        "17470da40b4bb606b99d9618d0d21530ce8bec21ef573c2888c493a06df07715",
        "00e8965a31ee3841c83ebf59a9000b8ffb583c9b04e9d49c397a4da2c0fb3f09",
        None), (
        "a76dd213e95744d97ebe7f48ed133cd32686f0540b56acee390dc711d213e64c",
        "8075475489326ed224bd11bbb04f8ccd96267c72e257f31e26926e4500d1f766",
        None), (
        "8842978f6f0de2907b67d0bf49b284c53e2b76dbdf032517480e00d77b015d59",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        None)),
    ("gpq", "structured"): ((
        "f56d93cf52da459fe0fa9323ec9fcdcb77e50efbcab7727f631c98f03c9a6eb7",
        "7865e70e47daf1017b02e467ea84da764a98bfebe6e9d3589c144c8fc0e6159c",
        "69e699f950b8b07135b58dfea8ed17be7fe88d4edfda206fdcd6ee075bdec021"), (
        "4c685c54238f93b09148f7664d3ff65f729bbc43e3c35809ae3abe51eb6a49f2",
        "3b939ebb66a142f1301f32a352dcf9492d8f79c094db7165dca6009723a2ea7d",
        "47c59e92309b58fafd667ac32b52fbcafae30bc829b11e743dc42a9e225c4b98"), (
        "6c99ab8cf0c733500b7c80f7704726a894a0f35a6a8581d28a2cb4fd3faaea60",
        "826588010fea0865f6f07dc53f65270895c6d87440e60c3f9884b6a522707e83",
        "5889572612d9a7785510e65dd39124668b6350c385b6e4ee818342d32ec125db"), (
        "3508e925717e4eb185092d068faf332ecf88bf83298b52a27af38a62529ae2cc",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8",
        "e0f088cbe3a6692365762ebc35a1944a12b4566ba6bcf8ad92654081293babc8")),
    ("gpq", "unified"): ((
        "0edfddc595bdae3d2cf3747002e1ed8a0ea52d9c2cd906772ffda20913eee053",
        "d3b6e0966dc9cb21f0e89e20986d37378f955e2495244d6a2a8d096824bbbc9f",
        "86d45f424f56b9fb5f9aa4b8e33cea475d5dd2f9b65b22f236f188f101c71b89"), (
        "cc6cba8e33820fccd7d4c717b2b5c643f3c63a7f9fcfd16611c6aa822b651b0a",
        "00e8965a31ee3841c83ebf59a9000b8ffb583c9b04e9d49c397a4da2c0fb3f09",
        "d6d723ec79c9bdc22bf149705b8815dadc15322628c2e6d95db284d4867c669c"), (
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
