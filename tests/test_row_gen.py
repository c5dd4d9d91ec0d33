import math

import pytest
from scipy import stats

from bandset.retrieval_chunked import ChunkedParams
from bandset.row_gen import chunk_for_key, row_for_key

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
    pairs = set()
    for i in range(2000):
        key = f"c{i}".encode()
        start, _ = row_for_key(key, SEED, 0, 100, 8, False)
        pairs.add((start, chunk_for_key(key, SEED, 100)))
    # if streams were shared we would see far fewer distinct combinations
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
