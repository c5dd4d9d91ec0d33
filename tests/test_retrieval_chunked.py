import hashlib
import math
import random
import time

import pytest

from bandset.bitkit import BitVec, CountingWords
from bandset.retrieval_chunked import (
    ChunkDirectory,
    ChunkedParams,
    ChunkedRetrieval,
    FormatError,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    serialize,
)
from bandset.retrieval_flat import DuplicateKey, RetriesExhausted
from bandset.row_gen import chunk_for_key

from conftest import make_pairs


def build(m, **kw):
    kw.setdefault("epsilon", 0.1)
    kw.setdefault("L", 64)
    kw.setdefault("base_seed", 404)
    params = ChunkedParams(**kw)
    pairs = make_pairs(m, r=params.r)
    return pairs, construct_chunked(pairs, params)


def one_chunk(pairs, **kw):
    """Build with C >= m: one chunk, the unpartitioned band system."""
    ds = construct_chunked(pairs, ChunkedParams(**kw))
    assert ds.directory.num_chunks == 1
    return ds


def test_empty_input_queries_do_not_fault():
    ds = one_chunk([], epsilon=0.1)
    assert ds.m == 0
    assert ds.plane_bits == 64  # n = 1
    assert query_chunked(ds, b"whatever") in (0, 1)


def test_single_key():
    ds = one_chunk([(b"only", 1)], epsilon=0.5, L=16, base_seed=5)
    assert query_chunked(ds, b"only") == 1
    assert ds.plane_bits == 2 + 16 - 1  # n = ceil(1 / 0.5)


def test_end_to_end_10k_keys():
    pairs = make_pairs(10_000)
    ds = one_chunk(pairs, epsilon=0.1, L=64, base_seed=99)
    assert all(query_chunked(ds, k) == v for k, v in pairs)


def test_space_formula_exact():
    # the (1+2eps)m bound is a small-eps statement: at eps=1/2 the series
    # 1/(1-eps) meets 1+2*eps exactly and the additive L-1 tips it over
    for m, eps, L in [(10_000, 0.05, 64), (777, 0.25, 32), (50, 0.5, 8)]:
        ds = one_chunk(make_pairs(m), epsilon=eps, L=L, base_seed=3)
        expect = math.ceil(m / (1 - eps)) + L - 1
        assert ds.plane_bits == expect
        if m >= L / eps and eps <= 0.25:
            assert expect < (1 + 2 * eps) * m


def test_multibit_values():
    pairs = make_pairs(3000, r=8)
    ds = one_chunk(pairs, epsilon=0.15, L=64, r=8, base_seed=21)
    assert all(query_chunked(ds, k) == v for k, v in pairs)


def test_duplicate_keys_dedup_and_conflict():
    ds = one_chunk([(b"a", 1), (b"a", 1), (b"b", 0)], epsilon=0.3, L=16, base_seed=1)
    assert ds.m == 2
    with pytest.raises(DuplicateKey):
        one_chunk([(b"a", 1), (b"a", 0)], epsilon=0.3, L=16)


def test_value_out_of_range_rejected():
    with pytest.raises(ValueError):
        one_chunk([(b"a", 2)], epsilon=0.3, L=16, r=1)


def test_non_integer_value_rejected():
    with pytest.raises(TypeError, match="0.5"):
        construct_chunked([(b"a", 0.5)], ChunkedParams(epsilon=0.3, L=16))


def test_non_bytes_key_rejected():
    with pytest.raises(TypeError):
        one_chunk([("text", 0)], epsilon=0.3, L=16)


def test_unknown_keys_return_bits_without_fault():
    ds = one_chunk(make_pairs(500), epsilon=0.2, base_seed=11)
    for i in range(200):
        assert query_chunked(ds, f"stranger-{i}".encode()) in (0, 1)


def test_query_determinism():
    ds = one_chunk(make_pairs(100), epsilon=0.2, base_seed=2)
    assert [query_chunked(ds, b"p")] * 5 == [query_chunked(ds, b"p") for _ in range(5)]


def test_retry_zero_mostly_wins():
    ok_at_zero = 0
    for seed in range(10):
        ds = one_chunk(make_pairs(2000, tag=f"s{seed}"), epsilon=0.1, L=64, base_seed=seed)
        ok_at_zero += ds.directory.seeds[0] == 0
    assert ok_at_zero >= 9


def test_force_leading_one_structure_still_correct():
    pairs = make_pairs(3000)
    ds = one_chunk(pairs, epsilon=0.1, L=64, base_seed=31, force_leading_one=True)
    assert all(query_chunked(ds, k) == v for k, v in pairs)


def test_spec_scale_overhead_and_correctness():
    pairs = make_pairs(100_000)
    params = ChunkedParams(epsilon=0.05, L=64, C=10_000, base_seed=1234)
    ds = construct_chunked(pairs, params)
    assert all(query_chunked(ds, k) == v for k, v in pairs)
    assert overhead(ds) <= 0.08


def test_empty_chunks_get_minimum_tables():
    # m=3 with C=1 gives 3 chunks; collisions leave some empty
    pairs = [(b"aaa", 1), (b"bbb", 0), (b"ccc", 1)]
    params = ChunkedParams(epsilon=0.5, L=16, C=1, base_seed=2)
    ds = construct_chunked(pairs, params)
    offsets = ds.directory.offsets
    sizes = [offsets[k + 1] - offsets[k] for k in range(ds.directory.num_chunks)]
    counts = [0] * ds.directory.num_chunks
    for key, _ in pairs:
        counts[chunk_for_key(key, 2, ds.directory.num_chunks)] += 1
    for k, cnt in enumerate(counts):
        if cnt == 0:
            assert sizes[k] == params.L  # n=1 convention
        else:
            assert sizes[k] == math.ceil(cnt / (1 - 0.5)) + params.L - 1
    for key, v in pairs:
        assert query_chunked(ds, key) == v
    # querying a key that lands in an empty chunk must not fault
    for i in range(50):
        assert query_chunked(ds, f"probe{i}".encode()) in (0, 1)


def test_empty_structure():
    params = ChunkedParams(epsilon=0.1, L=64, C=100, base_seed=0)
    ds = construct_chunked([], params)
    assert ds.m == 0 and ds.directory.num_chunks == 1
    assert query_chunked(ds, b"ghost") in (0, 1)
    ds2 = deserialize(serialize(ds))
    assert query_chunked(ds2, b"ghost") == query_chunked(ds, b"ghost")
    with pytest.raises(ValueError):
        overhead(ds)


def test_directory_prefix_sums_match_chunk_sizes():
    pairs, ds = build(20_000, epsilon=0.05, C=2_000)
    num_chunks = ds.directory.num_chunks
    counts = [0] * num_chunks
    for key, _ in pairs:
        counts[chunk_for_key(key, 404, num_chunks)] += 1
    offsets = ds.directory.offsets
    for k in range(num_chunks):
        m_k = counts[k]
        expect = (math.ceil(m_k / 0.95) if m_k else 1) + 64 - 1
        assert offsets[k + 1] - offsets[k] == expect


def test_serialize_roundtrip_bytes_and_queries():
    pairs, ds = build(5_000, C=1_000, r=3)
    blob = serialize(ds)
    ds2 = deserialize(blob)
    assert serialize(ds2) == blob
    for key, v in pairs[:500]:
        assert query_chunked(ds2, key) == v
    for i in range(100):
        probe = f"nonkey{i}".encode()
        assert query_chunked(ds2, probe) == query_chunked(ds, probe)


def test_deserialize_rejects_corruption():
    _, ds = build(500, C=100)
    blob = serialize(ds)
    with pytest.raises(FormatError):
        deserialize(b"XSET" + blob[4:])  # magic
    with pytest.raises(FormatError):
        deserialize(blob[:4] + b"\x02\x00" + blob[6:])  # version
    with pytest.raises(FormatError):
        deserialize(blob[:30])  # truncated header
    with pytest.raises(FormatError):
        deserialize(blob[:-3])  # truncated payload
    with pytest.raises(FormatError):
        deserialize(blob + b"\x00")  # trailing junk
    flag_corrupt = blob[:6] + b"\xfe\x00" + blob[8:]
    with pytest.raises(FormatError):
        deserialize(flag_corrupt)
    # nonzero padding above the plane length
    tail = bytearray(blob)
    tail[-1] |= 0x80
    if (ds.plane_bits % 64) != 0:
        with pytest.raises(FormatError):
            deserialize(bytes(tail))


def test_input_order_never_changes_serialized_output():
    pairs = make_pairs(4_000)
    params = ChunkedParams(epsilon=0.1, L=64, C=500, base_seed=55)
    blob = serialize(construct_chunked(pairs, params))
    for seed in (1, 2):
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        assert serialize(construct_chunked(shuffled, params)) == blob


def test_threaded_build_matches_sequential():
    pairs = make_pairs(6_000)
    params = ChunkedParams(epsilon=0.1, L=64, C=500, base_seed=90)
    a = serialize(construct_chunked(pairs, params, threads=1))
    b = serialize(construct_chunked(pairs, params, threads=4))
    assert a == b


def test_query_word_budget():
    pairs, ds = build(3_000, C=1_000, r=2)
    ds.directory.packed = CountingWords(ds.directory.packed)
    plane_counters = []
    for plane in ds.tables:
        plane.words = CountingWords(plane.words)
        plane_counters.append(plane.words)
    budget_per_plane = (64 + 63) // 64 + 1
    for key, v in pairs[:300]:
        ds.directory.packed.reset()
        for c in plane_counters:
            c.reset()
        assert query_chunked(ds, key) == v
        assert len(ds.directory.packed.reads) <= 2
        for c in plane_counters:
            assert len(c.reads) <= budget_per_plane
            assert sorted(set(c.reads)) == list(range(min(c.reads), max(c.reads) + 1))


def test_overhead_counts_directory_and_r_scales_it():
    pairs1, ds1 = build(8_000, epsilon=0.05, C=1_000, r=1, base_seed=13)
    pairs2, ds2 = build(8_000, epsilon=0.05, C=1_000, r=2, base_seed=13)
    K = ds1.directory.num_chunks
    dir_bits = 64 * (K + 1) + 16 * K
    expect1 = (ds1.plane_bits + dir_bits) / 8_000 - 1
    assert overhead(ds1) == pytest.approx(expect1)
    # directory bits amortise over m*r, so r=2 halves that share
    share1 = dir_bits / (8_000 * 1)
    share2 = dir_bits / (8_000 * 2)
    assert overhead(ds2) - (ds2.plane_bits * 2) / (8_000 * 2) + 1 == pytest.approx(share2)
    assert share2 == pytest.approx(share1 / 2)


def test_multiword_blocks_end_to_end():
    # L > 64 exercises the extra pattern words and two-word-plus windows
    pairs = make_pairs(4_000, r=3, tag="wide")
    params = ChunkedParams(epsilon=0.1, L=80, r=3, C=1_500, base_seed=66)
    ds = construct_chunked(pairs, params)
    assert all(query_chunked(ds, k) == v for k, v in pairs)
    ds2 = deserialize(serialize(ds))
    assert all(query_chunked(ds2, k) == v for k, v in pairs)


def test_retries_exhausted_reports_chunk():
    pairs = make_pairs(200)
    params = ChunkedParams(epsilon=0.02, L=1, C=50, max_retries=2, base_seed=3)
    with pytest.raises(RetriesExhausted) as exc_info:
        construct_chunked(pairs, params)
    assert exc_info.value.chunk is not None


def _round_trip_seconds(plane_bits: int) -> float:
    rnd = random.Random(plane_bits)
    plane = BitVec(plane_bits, [rnd.getrandbits(64) for _ in range((plane_bits + 63) // 64)])
    ds = ChunkedRetrieval(
        ChunkedParams(epsilon=0.05), ChunkDirectory.from_parts([0, plane_bits], [0]), [plane], 1
    )
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ds2 = deserialize(serialize(ds))
        best = min(best, time.perf_counter() - t0)
    assert ds2.tables[0] == plane
    return best


def test_save_load_time_is_linear_in_plane_bits():
    # 16x the bits: linear code takes ~16x the time, a big-int path > 100x
    assert _round_trip_seconds(1 << 22) < 40 * _round_trip_seconds(1 << 18)


@pytest.mark.parametrize("eps, L, base_seed, digest", [
    # chunk 4 retries once in this configuration
    (0.03, 64, 2028, "60a09b3658855a22899485a978d90aed990a0cc7c87fc470b8d37a99f977229a"),
    (0.05, 80, 2026, "356415c40ecf1f482da1ea1ce1eeb28671c9fb44020fc772db9e7fa920cf647c"),
])
def test_format_v1_golden_digest(eps, L, base_seed, digest):
    # pins the v1 bytes; a deliberate format change updates these digests
    pairs = make_pairs(20_000, r=3, tag="golden")
    params = ChunkedParams(epsilon=eps, L=L, r=3, C=2_500, base_seed=base_seed)
    assert hashlib.sha256(serialize(construct_chunked(pairs, params))).hexdigest() == digest
