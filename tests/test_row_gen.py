import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bandset.retrieval_chunked import ChunkedParams, construct_chunked, query_chunked, serialize
from bandset.retrieval_flat import DuplicateKey
from bandset.row_gen import (
    MASK64,
    chunk_and_word,
    chunk_bounds,
    digest_pairs,
    key_digest,
    row_for_words,
)

from conftest import chunk_for_key, make_pairs, packed_pairs, python_branch, row_for_key

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


@pytest.mark.parametrize("num_chunks", [1, 2, 3, 7, 10_000, 65_537])
def test_numpy_chunks_equal_scalar_chunks(num_chunks):
    # the first word of each chunk, ceil(c * 2^64 / num_chunks), and the
    # word below it, the last of chunk c - 1
    firsts = [-(-(c << 64) // num_chunks) for c in range(num_chunks)]
    his = sorted(_digest_words(num_chunks, 500) + firsts + [w - 1 for w in firsts[1:]])
    bounds, words = chunk_bounds(np.array(his, dtype=np.uint64), num_chunks)
    assert len(bounds) == num_chunks + 1 and bounds[0] == 0 and bounds[-1] == len(his)
    chunks = [c for c in range(num_chunks) for _ in range(bounds[c + 1] - bounds[c])]
    assert list(zip(chunks, words.tolist())) == [chunk_and_word(hi, num_chunks) for hi in his]


@pytest.mark.parametrize("force_leading_one", [False, True])
@pytest.mark.parametrize("L", [1, 63, 64, 65, 80, 128])
def test_native_rows_equal_scalar_rows(L, force_leading_one, native):
    # The C row formula is reached through the native query: one chunk at
    # an odd bit offset, its retry in the directory word, and 64 random
    # planes, so each answer is 64 parities of the key's row against the
    # planes. A wrong start or pattern bit flips each parity with
    # probability 1/2.
    keys = [b"row-%d" % i for i in range(300)]
    digests = [key_digest(key, SEED) for key in keys]
    rnd = random.Random(L)
    offset = 3
    for n in (1, 2, 10_527, (1 << 16) + 3):
        nwords = (offset + n + L + 63) // 64
        planes = [rnd.randbytes(8 * nwords) for _ in range(64)]
        for retry in range(4):
            directory = struct.pack("<2Q", offset | retry << 48, offset + n + L - 1)
            want = []
            for hi, lo in digests:
                start, pattern = row_for_words(hi, lo, retry, n, L, force_leading_one)
                assert 1 <= start <= n
                bit = offset + start - 1
                value = 0
                for t, plane in enumerate(planes):
                    window = int.from_bytes(plane[bit // 8:(bit + L) // 8 + 1], "little")
                    value |= (((window >> bit % 8) & pattern).bit_count() & 1) << t
                want.append(value)
            args = SEED, L, 64, force_leading_one, directory, b"".join(planes)
            assert native.bind(*args).query_many(keys) == want


def test_build_hashes_each_key_once_and_query_once(hash_spy):
    # eps 3% with 2,500-key chunks: chunk 2 needs a retry
    pairs = make_pairs(20_000, r=3, tag="golden")
    params = ChunkedParams(epsilon=0.03, L=64, r=3, C=2_500, base_seed=2029)
    ds = construct_chunked(pairs, params)
    assert max(ds.directory.seeds) >= 1
    assert hash_spy.digests == len(pairs)
    # the same pairs in one buffer, hashed where the keys lie
    hash_spy.digests = 0
    assert serialize(construct_chunked(packed_pairs(pairs), params)) == serialize(ds)
    assert hash_spy.digests == len(pairs)
    for key, value in pairs[:200]:
        hash_spy.digests = 0
        assert query_chunked(ds, key) == value
        assert hash_spy.digests == 1


def _digest_bytes(key: bytes, base_seed: int) -> bytes:
    hi, lo = key_digest(key, base_seed)
    return (hi << 64 | lo).to_bytes(16, "little")


# Pinned (key, seed) -> (hi, lo): both twins must give these, so they
# cannot drift together. Keys of 0, 1, 16 (one whole stripe), 17 and 80
# bytes.
KNOWN_ANSWERS = [
    (b"", 0, 0xBB27235062743AD0, 0x1F41C788A12BBB84),
    (b"", MASK64, 0x423DDA5F80EB716A, 0xAC51B31E44A16D70),
    (b"a", 1, 0xE1210C57CC1CB549, 0x61250498F1D13CA6),
    (bytes(range(16)), 0, 0x26813C9A181E7B61, 0x83D9329423DB7F10),
    (bytes(range(17)), 2, 0x7EBD0BF95B36C504, 0x88569361824F0345),
    (b"https://example.org/items/0000001234?ref=bandset&lang=en-GB&page=42&sort=asc#top",
     0x0123456789ABCDEF, 0x97129D3861037F94, 0x94E54766E1C75558),
]


@pytest.mark.parametrize("key, seed, hi, lo", KNOWN_ANSWERS)
def test_key_digest_known_answers(key, seed, hi, lo, backend):
    assert key_digest(key, seed) == (hi, lo)
    assert digest_pairs([(key, 0)], seed, 1)[0] == (hi << 64 | lo).to_bytes(16, "little")


@pytest.mark.parametrize("seed", [0, 1, MASK64])
def test_native_digest_equals_key_digest(seed, native):
    # every key length from 0 to 300 crosses every 16-byte stripe edge; the
    # empty key hashes one zero stripe
    rnd = random.Random(seed & 0xFFFF)
    keys = [rnd.randbytes(n) for n in range(301)]
    want = b"".join(_digest_bytes(key, seed) for key in keys)
    for kind in (bytes, bytearray):
        pairs = [(kind(key), 0) for key in keys]
        assert native.digest_pairs(pairs, seed, 1)[0] == want


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.binary(max_size=520), seed=st.integers(0, MASK64))
def test_native_digest_property(key, seed):
    from bandset import retrieval_flat

    native = retrieval_flat._kernel()
    if native is None:
        pytest.skip("native module unavailable")
    assert native.digest_pairs([(key, 1)], seed, 1)[0] == _digest_bytes(key, seed)


def test_digest_pairs_matches_key_digest(backend):
    seed = 2**63 + 5
    keys = [b"", b"a", bytearray(b"b" * 16), bytearray(b"c" * 17)] + [
        f"dk{i}".encode() * (i % 40) for i in range(500)
    ]
    pairs = [(key, i & 7) for i, key in enumerate(keys)]
    want = b"".join(_digest_bytes(bytes(k), seed) for k in keys)
    for given_pairs in (pairs, tuple(pairs), iter(pairs)):  # iter: no length up front
        digests, values, items = digest_pairs(given_pairs, seed, 3)
        assert digests == want
        assert values.tolist() == [v for _, v in pairs]
        assert list(items) == pairs
    assert digest_pairs(pairs, seed, 3)[2] is pairs
    digests, values, items = digest_pairs([], seed, 3)
    assert (digests, values.tolist(), items) == (b"", [], [])


@pytest.mark.parametrize("r", [3, 64])
def test_packed_pairs_digest_as_their_pairs(r, backend):
    seed = 2**63 + 5
    keys = [b"", b"a", b"b" * 16, b"c" * 17] + [f"dk{i}".encode() * (i % 40) for i in range(500)]
    pairs = [(key, i & 7 | (i & 1) << (r - 1)) for i, key in enumerate(keys)]
    packed = packed_pairs(pairs)
    assert len(packed) == len(pairs) and packed[7] == pairs[7] and list(packed) == pairs
    digests, values, items = digest_pairs(packed, seed, r)
    assert digests == b"".join(_digest_bytes(key, seed) for key in keys)
    assert values.tolist() == [v for _, v in pairs]
    assert [items[i] for i in range(len(pairs))] == pairs
    if r < 64:  # the first value of 2^r or more, as the pairs' pass names it
        wide = packed_pairs(pairs[:5] + [(b"x", 1 << r), (b"y", 1 << r | 1)])
        with pytest.raises(ValueError, match=f"^value {1 << r} does not fit in {r} bits$"):
            digest_pairs(wide, seed, r)


def test_digest_packed_checks_every_bound(native):
    data = b"abcdef"
    got = native.digest_packed(data, np.array([[1, 1], [0, 6], [2, 5]], np.int64), 5)
    assert got == _digest_bytes(b"", 5) + _digest_bytes(data, 5) + _digest_bytes(b"cde", 5)
    for bad in ([0, 7], [-1, 2], [3, 2]):
        with pytest.raises(ValueError, match="^key 1 lies outside the data$"):
            native.digest_packed(data, np.array([[0, 1], bad], np.int64), 0)
    with pytest.raises(ValueError, match="two int64 per key"):
        native.digest_packed(data, np.zeros(3, np.int64), 0)


def _ingest(make, r: int):
    """What ``digest_pairs`` and a build make of the pairs ``make()``
    gives: (digests, values, m, file bytes), or the type and message of
    the exception that stops them."""
    try:
        digests, values, _ = digest_pairs(make(), 77, r)
        ds = construct_chunked(make(), ChunkedParams(epsilon=0.2, r=r, C=40, base_seed=77))
    except Exception as exc:  # compared across backends, whatever it is
        return type(exc), str(exc)
    return bytes(digests), values.tolist(), ds.m, serialize(ds)


def _both_backends(make, r: int):
    with python_branch():
        python = _ingest(make, r)
    assert _ingest(make, r) == python
    return python


class _Index:
    """An object with ``__index__`` but no int base class."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


class _Int(int):
    pass


class _Bytes(bytes):
    pass


class _EditsItsPair:
    """An ``__index__`` object that empties the 2-list pair it sits in."""

    def __init__(self, pair, value):
        self.pair, self.value = pair, value

    def __index__(self):
        self.pair.clear()
        return self.value

    def __repr__(self):
        return f"_EditsItsPair({self.value})"


def _edited_pairs(base):
    pairs = [[k, v] for k, v in base]
    for pair in pairs[::7]:
        pair[1] = _EditsItsPair(pair, pair[1])
    return pairs


@pytest.mark.parametrize("r", [1, 8, 64, 65])
@pytest.mark.parametrize("case", [
    "ok", "str key", "float value", "bool values", "np.int64 values", "top value",
    "2**r", "negative", "np.int64 negative", "lists", "3-tuple", "1-tuple", "not iterable",
    "bytearray keys", "iterator", "generator pairs", "__index__", "bad after good",
    "repeats", "conflict", "odd after good", "int subclass values", "np.uint64 values",
    "__index__ edits its pair", "bytes subclass keys", "2**r first", "2**r middle",
])
def test_digest_pairs_native_and_python_agree(case, r, native):
    top = (1 << r) - 1
    base = [(f"in{i}".encode(), (i * 0x9E3779B97F4A7C15) & top) for i in range(100)]
    make = {
        "ok": lambda: base,
        "str key": lambda: base + [("text", 0)],
        "float value": lambda: base + [(b"f", 0.5)],
        "bool values": lambda: [(k, bool(v & 1)) for k, v in base],
        "np.int64 values": lambda: [(k, np.int64(v & 0x7FFF)) for k, v in base],
        "top value": lambda: base + [(b"top", top)],
        "2**r": lambda: base + [(b"over", 1 << r)],
        "negative": lambda: base + [(b"neg", -1)],
        "np.int64 negative": lambda: base + [(b"neg", np.int64(-3))],
        "lists": lambda: [[k, v] for k, v in base],
        "3-tuple": lambda: base + [(b"three", 0, 0)],
        "1-tuple": lambda: base + [(b"one",)],
        "not iterable": lambda: base + [7],
        "bytearray keys": lambda: [(bytearray(k), v) for k, v in base],
        "iterator": lambda: iter(base),
        "generator pairs": lambda: (iter(pair) for pair in base),
        "__index__": lambda: [(k, _Index(v)) for k, v in base] + [(b"x", _Index(1 << r))],
        "bad after good": lambda: base + [(b"bad", 0.5), ("text", 0)],
        "repeats": lambda: base + base[::3] + base[:5],
        "conflict": lambda: base + [(base[40][0], base[40][1] ^ 1)],
        "odd after good": lambda: base + [iter((b"late", 1))],
        "int subclass values": lambda: [(k, _Int(v)) for k, v in base],
        "np.uint64 values": lambda: [(k, np.uint64(v & MASK64)) for k, v in base],
        "__index__ edits its pair": lambda: _edited_pairs(base),
        "bytes subclass keys": lambda: [(_Bytes(k), v) for k, v in base],
        "2**r first": lambda: [(b"over", 1 << r)] + base,
        "2**r middle": lambda: base[:50] + [(b"over", 1 << r)] + base[50:],
    }[case]
    got = _both_backends(make, r)
    expect_error = {"str key": TypeError, "float value": TypeError, "2**r": ValueError,
                    "negative": ValueError, "np.int64 negative": ValueError,
                    "3-tuple": ValueError, "1-tuple": ValueError, "not iterable": TypeError,
                    "__index__": ValueError, "bad after good": TypeError,
                    "2**r first": ValueError, "2**r middle": ValueError}
    if case in expect_error:
        assert got[0] is expect_error[case]
    elif case == "conflict":
        assert got[0] is DuplicateKey and repr(base[40][0]) in got[1]
    else:
        assert got[2] == 100 + (case in ("top value", "odd after good"))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.binary(max_size=3), st.integers(0, 3)), max_size=60),
       r=st.sampled_from([2, 65]))
def test_digest_pairs_property_with_repeats(pairs, r):
    from bandset import retrieval_flat

    if retrieval_flat._kernel() is None:
        pytest.skip("native module unavailable")
    got = _both_backends(lambda: pairs, r)
    first = {}
    for key, value in pairs:
        first.setdefault(key, value)
    if any(first[key] != value for key, value in pairs):
        assert got[0] is DuplicateKey
    else:
        assert got[2] == len(first)
        assert got[3] == _ingest(lambda: list(first.items()), r)[3]

