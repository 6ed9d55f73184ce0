import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpq import (DataError, EmbeddingMatrix, load_raw, load_word2vec_text,
                 save_raw, save_word2vec_text)


def w2v_bytes(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


class TestWord2vecLoad:
    def test_basic(self):
        e = load_word2vec_text(w2v_bytes("2 3\na 1 0 0\nb 0 1 0\n"))
        assert e.rows == 2 and e.cols == 3
        assert e.vocab == ["a", "b"]
        assert np.array_equal(e.values, [[1, 0, 0], [0, 1, 0]])

    def test_minimal(self):
        e = load_word2vec_text(w2v_bytes("1 1\nx 0.5\n"))
        assert e.values.shape == (1, 1)
        assert e.values[0, 0] == np.float32(0.5)

    def test_crlf(self):
        e = load_word2vec_text(w2v_bytes("1 2\r\nx 1 2\r\n"))
        assert np.array_equal(e.values, [[1, 2]])

    def test_trailing_blank_lines(self):
        e = load_word2vec_text(w2v_bytes("1 2\nx 1 2\n\n  \r\n\n"))
        assert np.array_equal(e.values, [[1, 2]])

    def test_row_count_mismatch(self):
        with pytest.raises(DataError, match="row count mismatch"):
            load_word2vec_text(w2v_bytes("3 2\na 1 2\nb 3 4\n"))
        with pytest.raises(DataError, match="row count mismatch"):
            load_word2vec_text(w2v_bytes("1 2\na 1 2\nb 3 4\nnot even numbers\n"))

    def test_header_larger_than_file(self):
        with pytest.raises(DataError, match="row count mismatch"):
            load_word2vec_text(w2v_bytes("100000000000 100000\n"))

    def test_dim_mismatch(self):
        with pytest.raises(DataError, match="dim mismatch"):
            load_word2vec_text(w2v_bytes("1 3\na 1 2\n"))

    def test_duplicate_token(self):
        with pytest.raises(DataError, match="duplicate"):
            load_word2vec_text(w2v_bytes("2 1\na 1\na 2\n"))

    def test_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            load_word2vec_text(w2v_bytes("1 1\na nan\n"))

    @pytest.mark.parametrize("header", ["", "2", "a b", "2 3 4", "-1 2"])
    def test_malformed_header(self, header):
        with pytest.raises(DataError):
            load_word2vec_text(w2v_bytes(header + "\n"))

    @pytest.mark.parametrize("data", [b"2 1\na 0.5\n\xff\xfe 1\n", b"\xff\xfe 1\nx 0.5\n"])
    def test_not_utf8(self, data):
        with pytest.raises(DataError):
            load_word2vec_text(io.BytesIO(data))


class TestRaw:
    def test_basic(self):
        data = np.array([1.0, 2.0], dtype="<f4").tobytes()
        e = load_raw(io.BytesIO(data), 1, 2)
        assert np.array_equal(e.values, [[1.0, 2.0]])
        assert e.vocab is None

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            load_raw(io.BytesIO(b"\x00" * 7), 1, 2)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        e = EmbeddingMatrix(rng.normal(size=(5, 4)).astype(np.float32))
        buf = io.BytesIO()
        save_raw(e, buf)
        buf.seek(0)
        assert load_raw(buf, 5, 4) == e

    def test_identity_bytes(self):
        e = EmbeddingMatrix(np.eye(3, dtype=np.float32))
        b1, b2 = io.BytesIO(), io.BytesIO()
        save_raw(e, b1)
        buf = io.BytesIO(b1.getvalue())
        save_raw(load_raw(buf, 3, 3), b2)
        assert b1.getvalue() == b2.getvalue()

    @given(arrays(np.float32, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                  elements=st.floats(-1e6, 1e6, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        e = EmbeddingMatrix(values)
        buf = io.BytesIO()
        save_raw(e, buf)
        buf.seek(0)
        assert np.array_equal(load_raw(buf, *values.shape).values, e.values)


class TestWord2vecSave:
    def test_requires_vocab(self):
        e = EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DataError, match="vocab"):
            save_word2vec_text(e, io.BytesIO())

    def test_rejects_whitespace_token(self):
        e = EmbeddingMatrix(np.zeros((1, 1), dtype=np.float32), ["a b"])
        with pytest.raises(DataError, match="whitespace"):
            save_word2vec_text(e, io.BytesIO())

    def test_round_trip_tenth(self):
        e = EmbeddingMatrix(np.array([[0.1]], dtype=np.float32), ["x"])
        buf = io.BytesIO()
        save_word2vec_text(e, buf)
        buf.seek(0)
        assert load_word2vec_text(buf).values[0, 0] == np.float32(0.1)

    @given(arrays(np.float32, (4, 3),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_exact_binary32(self, values):
        e = EmbeddingMatrix(values, ["a", "b", "c", "d"])
        buf = io.BytesIO()
        save_word2vec_text(e, buf)
        buf.seek(0)
        back = load_word2vec_text(buf)
        assert np.array_equal(back.values, e.values)
        assert back.vocab == e.vocab


class TestEmbeddingMatrix:
    def test_vocab_length_check(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ["a"])

    def test_duplicate_vocab(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ["a", "a"])

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.array([[np.nan]], dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            EmbeddingMatrix(np.zeros((0, 3), dtype=np.float32))

    def test_row_accessor(self):
        e = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert np.array_equal(e.row(1), [3, 4, 5])
