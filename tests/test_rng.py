"""gpq.rng against a pure-Python splitmix64, bit for bit. Every test runs
under np.errstate(all="raise") as well as the suite's warnings-as-errors
filter, so uint64 wrap-around that warns on some numpy version fails here."""

import numpy as np
import pytest

from gpq import DataError
from gpq.rng import SplitMix64, derive_seed, mix64, row_hashes

from _oracles import (splitmix64_derive, splitmix64_mix, splitmix64_outputs,
                      splitmix64_row_hash, splitmix64_uniform)

SEEDS = [0, 1, 2**63, 2**64 - 1]


@pytest.fixture(autouse=True)
def raise_on_float_errors():
    with np.errstate(all="raise"):
        yield


def test_referee_known_answer():
    # the first three outputs of splitmix64 from seed 0, as published
    assert splitmix64_outputs(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                        0x06C45D188009454F]


def test_mix64_in_place():
    words = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 12345678901234567890]
    z = np.array(words, dtype=np.uint64)
    out = mix64(z)
    assert out is z
    assert z.tolist() == [splitmix64_mix(w) for w in words]


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_match_referee(seed):
    # two draws in a row: the second starts at the counter the first left
    rng = SplitMix64(seed)
    first, second = rng.uniforms(5).tolist(), rng.uniforms(3).tolist()
    want = [splitmix64_uniform(w) for w in splitmix64_outputs(seed, 8)]
    assert first + second == want


@pytest.mark.parametrize("seed", SEEDS)
def test_derive_seed_matches_referee(seed):
    for parts in [(), (0,), (7,), (3, 2**64 - 1), (2**63, 5)]:
        assert derive_seed(seed, *parts) == splitmix64_derive(seed, *parts), parts


@pytest.mark.parametrize("seed", SEEDS)
def test_row_hashes_match_referee(seed):
    pts = np.array([[0.0, 1.5], [-0.0, 1.5], [np.pi, -2.0**-1074], [3.4e38, -1e300]])
    got = row_hashes(pts, seed).tolist()
    assert got == [splitmix64_row_hash(row, seed) for row in pts]
    assert got[0] != got[1]  # 0.0 and -0.0 differ in their bits


@pytest.mark.parametrize("call", [
    lambda: SplitMix64(-1),
    lambda: SplitMix64(2**64),
    lambda: derive_seed(2**64),
    lambda: derive_seed(-1, 3),
    lambda: row_hashes(np.zeros((2, 1)), -1),
    lambda: row_hashes(np.zeros((2, 1)), 2**64),
], ids=["stream_negative", "stream_2_64", "derive_2_64", "derive_negative",
        "hash_negative", "hash_2_64"])
def test_seed_outside_64_bits_is_data_error(call):
    # none of them takes its seed mod 2**64, which would alias one in range
    with pytest.raises(DataError, match="64 bits"):
        call()
