import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bandset.retrieval_chunked import ChunkedParams, construct_chunked, query_chunked
from bandset.row_gen import (
    MASK64,
    chunk_and_word,
    chunks_and_words,
    digest_keys,
    key_digest,
    native_keyed,
    row_for_words,
    rows_for_words,
)

from conftest import chunk_for_key, make_pairs, row_for_key

SEED = 0xC0FFEE


def test_hash128_deterministic():
    assert row_for_key(b"alpha", SEED, 0, 1000, 64, False) == row_for_key(
        b"alpha", SEED, 0, 1000, 64, False
    )
    assert chunk_for_key(b"alpha", SEED, 1000) == chunk_for_key(b"alpha", SEED, 1000)


def test_hash128_retry_changes_stream():
    keys = [f"k{i}".encode() for i in range(10)]
    diffs = sum(
        row_for_key(k, SEED, 0, 1000, 64, False) != row_for_key(k, SEED, 1, 1000, 64, False)
        for k in keys
    )
    assert diffs >= 1  # in practice all 10 differ


def test_hash128_empty_key_defined():
    start, bits = row_for_key(b"", SEED, 0, 1000, 64, False)
    assert (start, bits) == row_for_key(b"", SEED, 0, 1000, 64, False)
    assert 1 <= start <= 1000 and 0 <= bits < 1 << 64
    assert chunk_for_key(b"", SEED, 10) == chunk_for_key(b"", SEED, 10)


def test_hash_seed_validation():
    # the 64-bit base seed and the 16-bit retry are checked on the parameters
    with pytest.raises(ValueError, match="base_seed"):
        ChunkedParams(epsilon=0.1, base_seed=-1)
    with pytest.raises(ValueError, match="base_seed"):
        ChunkedParams(epsilon=0.1, base_seed=1 << 64)
    ChunkedParams(epsilon=0.1, base_seed=(1 << 64) - 1)
    with pytest.raises(ValueError):
        ChunkedParams(epsilon=0.1, max_retries=(1 << 16) + 1)


def test_row_for_key_singleton_range():
    for i in range(20):
        start, _ = row_for_key(f"x{i}".encode(), SEED, 0, 1, 8, False)
        assert start == 1


def test_row_for_key_force_leading_one():
    for i in range(200):
        _, bits = row_for_key(f"y{i}".encode(), SEED, 0, 50, 16, True)
        assert bits & 1


def test_row_for_key_replay_identical():
    rows1 = [row_for_key(f"z{i}".encode(), SEED, 0, 1000, 64, False) for i in range(100)]
    rows2 = [row_for_key(f"z{i}".encode(), SEED, 0, 1000, 64, False) for i in range(100)]
    assert rows1 == rows2


def test_row_for_key_long_pattern():
    seen = set()
    for i in range(50):
        start, bits = row_for_key(f"long{i}".encode(), SEED, 0, 100, 200, False)
        assert 1 <= start <= 100
        assert 0 <= bits < 1 << 200
        seen.add(bits)
    assert len(seen) == 50
    # upper words must carry entropy, not zero padding
    assert sum(1 for b in seen if (b >> 128) != 0) > 40


def test_start_uniformity_chi_squared():
    # fixed significance 0.1%, pinned seed: deterministic, not flaky
    n, m = 256, 100_000
    counts = [0] * n
    for i in range(m):
        start, _ = row_for_key(f"u{i}".encode(), SEED, 0, n, 8, False)
        counts[start - 1] += 1
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.001


def test_pattern_bit_balance():
    m, L = 100_000, 64
    counts = [0] * L
    for i in range(m):
        _, bits = row_for_key(f"b{i}".encode(), SEED, 0, 16, L, False)
        for j in range(L):
            counts[j] += (bits >> j) & 1
    sigma = 0.5 * math.sqrt(m)
    for j, c in enumerate(counts):
        assert abs(c - m / 2) < 4.5 * sigma, f"bit {j} skewed: {c}"


def test_chunk_for_key_single_bucket():
    assert chunk_for_key(b"anything", SEED, 1) == 0


def test_chunk_for_key_deterministic():
    assert chunk_for_key(b"q", SEED, 64) == chunk_for_key(b"q", SEED, 64)


def test_chunk_for_key_disjoint_from_row_bits():
    # same key, same seed: chunk index must not be a function of the start
    # (the row the key gets in its chunk of a 100-chunk structure)
    pairs = set()
    for i in range(2000):
        key = f"c{i}".encode()
        start, _ = row_for_key(key, SEED, 0, 100, 8, False, num_chunks=100)
        pairs.add((start, chunk_for_key(key, SEED, 100)))
    # if both used the same hash bits we would see far fewer distinct combinations
    assert len(pairs) > 1500


def test_chunk_balance_binomial():
    m, k = 1_000_000, 100
    counts = [0] * k
    for i in range(m):
        counts[chunk_for_key(f"load{i}".encode(), SEED, k)] += 1
    mean = m / k
    sigma = math.sqrt(m * (1 / k) * (1 - 1 / k))
    assert max(counts) <= mean + 3 * sigma
    assert min(counts) >= mean - 3 * sigma


def _digest_words(seed: int, count: int) -> list[int]:
    rnd = random.Random(seed)
    return [0, 1, MASK64, MASK64 - 1, 1 << 63] + [rnd.getrandbits(64) for _ in range(count)]


@pytest.mark.parametrize("num_chunks", [1, 2, 3, 10_000, (1 << 32) - 1, MASK64])
def test_numpy_chunks_equal_scalar_chunks(num_chunks):
    his = _digest_words(num_chunks, 500)
    chunks, words = chunks_and_words(np.array(his, dtype=np.uint64), num_chunks)
    assert list(zip(chunks.tolist(), words.tolist())) == [
        chunk_and_word(hi, num_chunks) for hi in his
    ]


@pytest.mark.parametrize("force_leading_one", [False, True])
@pytest.mark.parametrize("L", [1, 63, 64, 65, 80, 130])
def test_numpy_rows_equal_scalar_rows(L, force_leading_one):
    s_list = _digest_words(L, 300)
    lo_list = list(reversed(_digest_words(L + 1, 300)))
    s, lo = np.array(s_list, dtype=np.uint64), np.array(lo_list, dtype=np.uint64)
    for n in (1, 2, 10_527, (1 << 32) - 1, (1 << 47) + 3):
        for retry in range(4):
            starts, words = rows_for_words(s, lo, retry, n, L, force_leading_one)
            assert len(words) == (L + 63) // 64
            patterns = [0] * len(s_list)
            for k, word in enumerate(words):
                patterns = [p | w << (64 * k) for p, w in zip(patterns, word.tolist())]
            want = [row_for_words(a, b, retry, n, L, force_leading_one)
                    for a, b in zip(s_list, lo_list)]
            assert list(zip(starts.tolist(), patterns)) == want
            assert all(1 <= start <= n for start, _ in want)


def test_build_hashes_each_key_once_and_query_once(blake2b_spy):
    # eps 3% with 2,500-key chunks: chunk 1 needs a retry
    pairs = make_pairs(20_000, r=3, tag="golden")
    params = ChunkedParams(epsilon=0.03, L=64, r=3, C=2_500, base_seed=2029)
    ds = construct_chunked(pairs, params)
    assert max(ds.directory.seeds) >= 1
    assert blake2b_spy.digests == len(pairs)
    for key, value in pairs[:200]:
        blake2b_spy.digests = 0
        assert query_chunked(ds, key) == value
        assert blake2b_spy.digests == 1


def _digest_bytes(key: bytes, base_seed: int) -> bytes:
    hi, lo = key_digest(key, base_seed)
    return (hi << 64 | lo).to_bytes(16, "little")


@pytest.mark.parametrize("seed", [0, 1, MASK64])
def test_native_digest_equals_key_digest(seed, native):
    # every key length from 0 to 300 crosses the 128-byte block edges; the
    # empty key hashes the key block as the last block
    rnd = random.Random(seed & 0xFFFF)
    keys = [rnd.randbytes(n) for n in range(301)]
    want = b"".join(_digest_bytes(key, seed) for key in keys)
    for kind in (bytes, bytearray, memoryview):
        assert native.digests(map(kind, keys), native_keyed(seed)) == want


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.binary(max_size=520), seed=st.integers(0, MASK64))
def test_native_digest_property(key, seed):
    from bandset import retrieval_flat

    native = retrieval_flat._kernel()
    if native is None:
        pytest.skip("native module unavailable")
    assert native.digests([key], native_keyed(seed)) == _digest_bytes(key, seed)


def test_digest_keys_matches_key_digest(backend):
    seed = 2**63 + 5
    keys = [b"", b"a", bytearray(b"b" * 128), memoryview(b"c" * 129)] + [
        f"dk{i}".encode() * (i % 40) for i in range(500)
    ]
    want = b"".join(_digest_bytes(bytes(k), seed) for k in keys)
    assert digest_keys(keys, seed) == want
    assert digest_keys(iter(keys), seed) == want  # no length known up front
    assert digest_keys([], seed) == b""
    with pytest.raises(TypeError):
        digest_keys([b"ok", "text"], seed)
