import copy
import hashlib
import math
import pickle
import random
import struct
import sys
import threading
import time
import types
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandset import retrieval_chunked, retrieval_flat
from bandset.retrieval_chunked import (
    HEADER_BYTES,
    ChunkDirectory,
    ChunkedParams,
    ChunkedRetrieval,
    FormatError,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    query_many,
    serialize,
)
from bandset.retrieval_flat import ConstructError, DuplicateKey, RetriesExhausted
from conftest import (
    CountingBytes,
    chunk_for_key,
    make_pairs,
    noisy_words,
    python_branch,
    query_window,
    reference_query,
)


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


def test_chunk_size_must_fit_in_64_bits():
    # the header stores C as a uint64: the largest one builds and loads,
    # one more is refused before any build
    pairs = make_pairs(10)
    ds = construct_chunked(pairs, ChunkedParams(epsilon=0.1, C=(1 << 64) - 1))
    assert ds.directory.num_chunks == 1
    assert deserialize(serialize(ds)).params.C == (1 << 64) - 1
    with pytest.raises(ValueError, match="C must fit in 64 bits"):
        ChunkedParams(epsilon=0.1, C=1 << 64)


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
    for version in (1, 2, 3, 5):
        with pytest.raises(FormatError, match=f"unsupported version {version}"):
            deserialize(blob[:4] + version.to_bytes(2, "little") + blob[6:])
    with pytest.raises(FormatError):
        deserialize(blob[:30])  # truncated header
    with pytest.raises(FormatError):
        deserialize(blob[:-3])  # truncated payload
    with pytest.raises(FormatError):
        deserialize(blob + b"\x00")  # trailing junk
    flag_corrupt = blob[:6] + b"\xfe\x00" + blob[8:]
    with pytest.raises(FormatError):
        deserialize(flag_corrupt)
    # the terminal word is the plane length alone: any bit above 48 in it
    # would give one structure a second file
    terminal = HEADER_BYTES + 8 * ds.directory.num_chunks
    for bit in (48, 63):
        high = bytearray(blob)
        high[terminal + bit // 8] |= 1 << (bit % 8)
        with pytest.raises(FormatError, match="terminal directory word has bits above 48"):
            deserialize(bytes(high))
    # nonzero padding above the plane length
    tail = bytearray(blob)
    tail[-1] |= 0x80
    if (ds.plane_bits % 64) != 0:
        with pytest.raises(FormatError):
            deserialize(bytes(tail))


# header: magic, version, flags, r, L, epsilon, C, m, num_chunks, base_seed
_HEADER = struct.Struct("<4sHHHHdQQQQ")
_U16 = st.integers(0, (1 << 16) - 1)
_U64 = st.one_of(st.sampled_from([0, 1, (1 << 64) - 1]), st.integers(0, (1 << 64) - 1))
_EPSILON = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0]), st.floats())
_HEADER_FIELDS = [st.binary(min_size=4, max_size=4), _U16, _U16, _U16, _U16, _EPSILON,
                  _U64, _U64, _U64, _U64]
_FUZZ_BLOB = serialize(construct_chunked(
    make_pairs(60, r=2, tag="fuzz"), ChunkedParams(epsilon=0.1, L=16, r=2, C=20, base_seed=7)
))


@st.composite
def _damaged_blobs(draw):
    blob = bytearray(_FUZZ_BLOB)
    how = draw(st.sampled_from(["truncate", "flip", "header"]))
    if how == "truncate":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if how == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1, max_size=4)):
            blob[bit >> 3] ^= 1 << (bit & 7)
        return bytes(blob)
    fields = list(_HEADER.unpack_from(blob))
    i = draw(st.integers(0, len(fields) - 1))
    fields[i] = draw(_HEADER_FIELDS[i])
    return _HEADER.pack(*fields) + bytes(blob[_HEADER.size :])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_damaged_blobs())
def test_deserialize_fuzz_loads_or_raises_format_error(blob):
    try:
        ds = deserialize(blob)
    except FormatError:
        return
    assert 0 <= query_chunked(ds, b"fuzz-probe") < (1 << ds.params.r)


def test_input_order_never_changes_serialized_output():
    pairs = make_pairs(4_000)
    params = ChunkedParams(epsilon=0.1, L=64, C=500, base_seed=55)
    blob = serialize(construct_chunked(pairs, params))
    for seed in (1, 2):
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        assert serialize(construct_chunked(shuffled, params)) == blob


# L = 1 takes force_leading_one (a 1-bit pattern is otherwise 0 half the
# time) and small, sparse chunks (its starts must all differ); C = 37 gives
# chunks of about 1.6 words, so most plane words hold the ends of two
# chunks, also at r = 8 and r = 64, where the native kernel fills every
# plane in one pass
@pytest.mark.parametrize("shape", [dict(L=64), dict(L=80), dict(L=128), dict(L=130),
                                   dict(L=1, force_leading_one=True, epsilon=0.9, C=20),
                                   dict(C=37), dict(C=37, r=8), dict(C=37, r=64)],
                         ids=["64", "80", "128", "130", "1-lead", "37", "37-r8", "37-r64"])
def test_backends_and_thread_counts_write_the_same_file(shape):
    # the file is a function of the pairs and the seed alone; neighbouring
    # chunks, solved at once, share the plane word at their boundary, and
    # an update lost there changes the file
    params = ChunkedParams(**{"epsilon": 0.1, "C": 500, "r": 3, **shape}, base_seed=90)
    pairs = make_pairs(6_000, r=3)
    if params.r != 3:  # values that fill every plane
        rnd = random.Random(params.r)
        pairs = [(key, rnd.getrandbits(params.r)) for key, _ in pairs]
    ds = construct_chunked(pairs, params)
    offsets = ds.directory.offsets
    assert sum(offset % 64 != 0 for offset in offsets) > len(offsets) / 2
    blob = serialize(ds)
    assert blob[4:6] == b"\x04\x00"  # format v4
    for threads in (1, 2, 4):
        assert serialize(construct_chunked(pairs, params, threads=threads)) == blob
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with python_branch():
            for threads in (1, 2, 4):
                assert serialize(construct_chunked(pairs, params, threads=threads)) == blob
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("L", [64, 80])
def test_retried_chunks_take_the_same_seeds_on_every_backend(L):
    # at eps 3% a chunk of 2,500 keys sometimes needs a second seed; which
    # retry wins must not depend on the backend or the thread count, and
    # base seed 0 makes a chunk retry at both widths
    params = ChunkedParams(epsilon=0.03, C=2_500, L=L, r=3, base_seed=0)
    pairs = make_pairs(10_000, r=3)
    ds = construct_chunked(pairs, params)
    assert any(ds.directory.seeds)
    blob = serialize(ds)
    builds = [construct_chunked(pairs, params, threads=threads) for threads in (1, 2)]
    with python_branch():
        builds += [construct_chunked(pairs, params, threads=threads) for threads in (1, 2)]
    for other in builds:
        assert other.directory.packed == ds.directory.packed
        assert serialize(other) == blob


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_1_rejected(threads):
    with pytest.raises(ValueError, match="threads"):
        construct_chunked(make_pairs(10), ChunkedParams(epsilon=0.1), threads=threads)


def _plane_reads(ds, keys) -> list[list[list[int]]]:
    """Per key, the words of each plane that the Python lookup reads, with
    its answers checked against ``reference_query``. Where the native
    module loaded, its answers must be the same with every other plane
    word random."""
    planes = ds.planes
    want = [reference_query(ds, key) for key in keys]
    counting = CountingBytes(planes)
    reads, words = [], []
    with python_branch():
        # made and first queried here, so it binds the Python lookup
        counted = replace(ds, planes=counting)
        for key, value in zip(keys, want):
            counting.reads.clear()
            assert query_chunked(counted, key) == value
            reads.append(list(counting.reads))
            words.append(counting.words_read(ds.params.r))
    if retrieval_flat._kernel() is not None:
        rnd = random.Random(len(planes))
        for key, value, read in zip(keys, want, reads):
            assert query_chunked(replace(ds, planes=noisy_words(planes, read, rnd)), key) == value
    return words


def _differential_params(L, r, force_leading_one):
    if L < 8:  # short rows are often dependent: one-key chunks, many retries
        return ChunkedParams(epsilon=0.5, L=L, r=r, C=1, max_retries=4096, base_seed=1000 * L + r,
                             force_leading_one=force_leading_one)
    return ChunkedParams(epsilon=0.1, L=L, r=r, C=100, base_seed=1000 * L + r,
                         force_leading_one=force_leading_one)


@pytest.mark.parametrize("force_leading_one", [False, True])
@pytest.mark.parametrize("r", [1, 3, 8, 65])
@pytest.mark.parametrize("L", [1, 7, 63, 64, 65, 80, 130])
def test_query_matches_reference_query(L, r, force_leading_one):
    # the one plane read of the Python lookup, for every L, against one
    # dot_window per plane, stored and never-inserted keys
    params = _differential_params(L, r, force_leading_one)
    pairs = make_pairs(60 if L < 8 else 200, r=r, tag=f"diff{L}")
    ds = construct_chunked(pairs, params)
    if L == 1:
        assert max(ds.directory.seeds) > 0  # some chunk answers from a retry
    for key, v in pairs:
        assert query_chunked(ds, key) == reference_query(ds, key) == v
    for i in range(200):
        key = f"never{i}".encode()
        assert query_chunked(ds, key) == reference_query(ds, key)


@pytest.mark.parametrize("force_leading_one", [False, True])
@pytest.mark.parametrize("r", [1, 3, 8, 64])
@pytest.mark.parametrize("L", [1, 7, 63, 64, 65, 80, 128])
def test_query_and_query_many_match_reference_on_both_backends(L, r, force_leading_one, backend):
    # the native lookup covers L <= 128 and r <= 64; it and the Python lookup
    # must both agree with one dot_window per plane
    params = _differential_params(L, r, force_leading_one)
    pairs = make_pairs(60 if L < 8 else 200, r=r, tag=f"both{L}")
    ds = construct_chunked(pairs, params)
    keys = [key for key, _ in pairs] + [f"never{i}".encode() for i in range(200)]
    want = [reference_query(ds, key) for key in keys]
    assert want[: len(pairs)] == [v for _, v in pairs]
    assert [query_chunked(ds, key) for key in keys] == want
    assert query_many(ds, keys) == want
    assert query_many(ds, iter(keys)) == want


@pytest.mark.parametrize("L, r", [(130, 3), (64, 65), (130, 65)])
def test_wide_rows_or_values_fall_back_to_python(L, r, native, monkeypatch):
    def refuse(*args):
        raise AssertionError("the native lookup ran")

    monkeypatch.setattr(native, "bind", refuse)
    pairs = make_pairs(200, r=r, tag="wide")
    ds = construct_chunked(pairs, ChunkedParams(epsilon=0.1, L=L, r=r, C=100, base_seed=9))
    keys = [key for key, _ in pairs] + [b"never"]
    want = [reference_query(ds, key) for key in keys]
    assert want[:-1] == [v for _, v in pairs]
    assert [query_chunked(ds, key) for key in keys] == want == query_many(ds, keys)


def test_keys_must_be_bytes_like(backend):
    pairs, ds = build(300, C=100, r=3)
    key, v = pairs[7]
    assert query_chunked(ds, bytearray(key)) == query_chunked(ds, memoryview(key)) == v
    assert query_many(ds, [bytearray(key), memoryview(key)]) == [v, v]
    with pytest.raises(TypeError):
        query_chunked(ds, key.decode())
    with pytest.raises(TypeError):
        query_many(ds, [key, key.decode()])
    with pytest.raises(BufferError):
        query_chunked(ds, memoryview(key * 2)[::2])


@pytest.mark.parametrize("buffer", [bytes, CountingBytes])
def test_short_plane_word_lists_raise_index_error(buffer, backend):
    # every plane loses its last word: keys whose window reaches it raise,
    # the others still answer; a buffer that is not r runs of whole words
    # raises ValueError
    pairs, ds = build(2_000, C=1_000, r=2)
    planes = ds.planes
    size = len(planes) // 2
    last_word = size // 8 - 1
    for cut in (1, 8):
        short = replace(ds, planes=buffer(planes[:-cut]))
        with pytest.raises(ValueError, match="runs of whole 64-bit words"):
            query_chunked(short, pairs[0][0])
    ds = replace(ds, planes=buffer(planes[: size - 8] + planes[size:-8]))
    raised = 0
    for key, v in pairs:
        if (query_window(ds, key)[0] + ds.params.L - 1) >> 6 == last_word:
            with pytest.raises(IndexError):
                query_chunked(ds, key)
            raised += 1
        else:
            assert query_chunked(ds, key) == v
    assert raised
    with pytest.raises(IndexError):
        query_many(ds, [key for key, _ in pairs])


@pytest.mark.parametrize("edit", ["empty chunk", "end past the planes", "not whole words"])
def test_edited_directory_raises_instead_of_reading_past_it(edit, backend):
    # both lookups check the directory's length and every entry and word
    # index they use; keys of the damaged chunks raise, the others still
    # answer, and a directory cut inside a word or to one word raises for
    # every key
    pairs, ds = build(3_000, C=1_000, r=2)
    packed = bytearray(ds.directory.packed)
    if edit == "not whole words":
        for cut in (packed[:-1], packed[:8]):
            ds = replace(ds, directory=ChunkDirectory(bytes(cut)))
            with pytest.raises(ValueError, match="two or more whole"):
                query_chunked(ds, pairs[0][0])
            with pytest.raises(ValueError, match="two or more whole"):
                query_many(ds, [key for key, _ in pairs])
        return
    if edit == "empty chunk":
        packed[8:16] = packed[0:6] + bytes(2)  # chunk 0 ends where it starts
    else:
        packed[-8:] = (int.from_bytes(packed[-8:], "little") + (1 << 40)).to_bytes(8, "little")
    ds = replace(ds, directory=ChunkDirectory(packed))
    errors = 0
    for key, v in pairs:
        try:
            got = query_chunked(ds, key)
        except (IndexError, ValueError):
            errors += 1
        else:
            assert 0 <= got < 4
    assert 0 < errors < len(pairs)
    with pytest.raises((IndexError, ValueError)):
        query_many(ds, [key for key, _ in pairs])


@pytest.mark.parametrize("bad", ["L 0", "L 129", "L -1", "r 0", "r 65", "one-word directory",
                                 "15-byte directory", "17-byte directory",
                                 "planes not r runs of words", "str directory", "seed -1",
                                 "seed 2**64", "str seed"])
def test_native_query_checks_its_own_bounds(bad, native):
    # bind is callable without query_chunked's checks in front of it; each
    # bad argument must raise, never answer or read outside its buffers
    pairs, ds = build(300, C=100, r=3)
    p = ds.params
    args = {"seed": p.base_seed, "L": p.L, "r": p.r, "lead": p.force_leading_one,
            "directory": ds.directory.packed, "planes": ds.planes}
    key, v = pairs[0]
    assert native.bind(*args.values())(key) == v
    name, _, value = bad.partition(" ")
    if name == "L":
        args["L"] = int(value)
    elif name == "r":
        # 64 * 65 words: r runs of whole words for r = 64 or 65, so only
        # the r check can fail
        args["r"], args["planes"] = int(value), ds.planes[:8] * (64 * 65)
    elif bad == "one-word directory":
        args["directory"] = ds.directory.packed[:8]
    elif name in ("15-byte", "17-byte"):
        args["directory"] = ds.directory.packed[: int(name[:2])]
    elif bad == "planes not r runs of words":
        args["planes"] = ds.planes[:-8]
    elif bad == "str directory":
        args["directory"] = "x" * len(ds.directory.packed)
    else:
        args["seed"] = {"seed -1": -1, "seed 2**64": 1 << 64, "str seed": str(p.base_seed)}[bad]
    errors = (TypeError, OverflowError) if "seed" in bad else (ValueError, TypeError, OverflowError)
    with pytest.raises(errors):
        native.bind(*args.values())(key)
    with pytest.raises(errors):
        native.bind(*args.values()).query_many([key])
    with pytest.raises(errors):
        native.bind(*args.values()).query_block(key, None)
    if "directory" in bad or "planes" in bad:  # the Python lookup's own checks
        with pytest.raises((ValueError, TypeError)):
            retrieval_chunked._query_words(*args.values(), key)


def test_a_lookup_is_made_only_by_bind_and_takes_one_key(native):
    # a Lookup made any other way would read through empty buffer views
    pairs, ds = build(300, C=100, r=3)
    p = ds.params
    lookup = native.bind(p.base_seed, p.L, p.r, p.force_leading_one, ds.directory.packed,
                         ds.planes)
    key, v = pairs[0]
    assert lookup(key) == v
    with pytest.raises(TypeError):
        native.Lookup()
    for call in (lambda: lookup(), lambda: lookup(key, key), lambda: lookup(key=key),
                 lambda: pickle.dumps(lookup)):
        with pytest.raises(TypeError):
            call()


def test_structures_are_frozen(backend):
    # a structure's lookup is bound at its first query, so no field of it
    # may change afterwards; edits go through dataclasses.replace
    pairs, ds = build(300, C=100, r=3)
    query_chunked(ds, pairs[0][0])
    for obj in (ds, ds.params, ds.directory):
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))


def test_replaced_planes_answer_from_the_new_planes(backend):
    pairs, ds = build(2_000, C=500, r=3)
    keys = [key for key, _ in pairs] + [f"never{i}".encode() for i in range(200)]
    assert query_many(ds, keys[:2_000]) == [v for _, v in pairs]
    noisy = replace(ds, planes=random.Random(3).randbytes(len(ds.planes)))
    want = [reference_query(noisy, key) for key in keys]
    assert want != [reference_query(ds, key) for key in keys]
    assert [query_chunked(noisy, key) for key in keys] == want == query_many(noisy, keys)
    assert [query_chunked(ds, key) for key, _ in pairs] == [v for _, v in pairs]


def test_a_structure_is_bound_at_its_first_query(backend):
    # neither a build nor a load binds the lookup; the first query binds
    # the backend that is live then
    pairs, ds = build(300, C=100, r=3)
    loaded = deserialize(serialize(ds))
    assert ds._lookup is None and loaded._lookup is None
    native = retrieval_flat._kernel()
    for first in (lambda s: query_chunked(s, pairs[0][0]), lambda s: query_many(s, [])):
        for s in (ds, loaded):
            s = replace(s)
            assert s._lookup is None
            first(s)
            if native is None:
                assert s._lookup.func is retrieval_chunked._query_words
            else:
                assert type(s._lookup) is native.Lookup
    assert replace(ds)._lookup is None


def test_copies_of_a_queried_structure_start_unbound_and_answer_alike(backend):
    # a copy holds the four fields alone, not the lookup bound to this
    # process's backend, and binds its own at its first query
    pairs, ds = build(300, C=100, r=3)
    keys = [key for key, _ in pairs] + [f"never{i}".encode() for i in range(100)]
    want = [query_chunked(ds, key) for key in keys]
    assert ds._lookup is not None
    for copied in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
        assert copied == ds and copied._lookup is None
        assert [query_chunked(copied, key) for key in keys] == want
        assert query_many(copied, keys) == want


def test_threads_that_race_to_bind_one_structure_answer_right(backend):
    # four threads, started together, make the first queries on one fresh
    # structure: each may bind, one store wins, and every answer is right
    pairs, ds = build(2_000, C=500, r=3)
    want = [v for _, v in pairs]
    barrier = threading.Barrier(4, timeout=60)
    answers = [None] * 4

    def first_queries(i):
        barrier.wait()
        answers[i] = [query_chunked(ds, key) for key, _ in pairs]

    threads = [threading.Thread(target=first_queries, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [want] * 4
    assert [ds._lookup(key) for key, _ in pairs] == want


def test_queries_load_the_backend_once_per_structure(backend):
    # the count guard against per-call dispatch: 1,000 single-key queries
    # and one batch on one structure ask for the native module at most once
    pairs, ds = build(1_000, C=250, r=3)
    kernel = retrieval_flat._kernel
    calls = []

    def counted():
        calls.append(1)
        return kernel()

    keys = [key for key, _ in pairs]
    with mock.patch.object(retrieval_flat, "_kernel", counted):
        assert [query_chunked(ds, key) for key in keys] == [v for _, v in pairs]
        assert query_many(ds, keys) == [v for _, v in pairs]
    assert len(calls) <= 1


@pytest.mark.parametrize("L, eps, C, m, base_seed", [(8, 0.3, 50, 200, 0), (64, 0.22, 1_000, 100, 4)])
def test_windows_in_the_last_plane_word_answer_exactly(L, eps, C, m, base_seed):
    # at L = 64 the one chunk has n = 129 and 192 plane bits, so a key that
    # starts at n reads exactly the last word; no read may pass it
    pairs = make_pairs(m, r=3, tag="tail")
    ds = construct_chunked(pairs, ChunkedParams(epsilon=eps, L=L, r=3, C=C, base_seed=base_seed))
    last_word = (ds.plane_bits - 1) >> 6
    tail = [(key, v) for key, v in pairs if query_window(ds, key)[0] >> 6 == last_word]
    assert tail
    assert [query_chunked(ds, key) for key, _ in tail] == [v for _, v in tail]
    for words in _plane_reads(ds, [key for key, _ in tail]):
        assert words == [[last_word]] * 3


@pytest.mark.parametrize("L", [8, 64])
def test_empty_structure_reads_its_one_word(L):
    # m = 0: one L-bit plane per value bit, every window is the whole plane
    ds = construct_chunked([], ChunkedParams(epsilon=0.1, L=L, r=3, base_seed=8))
    assert ds.plane_bits == L
    rnd = random.Random(L)
    keys = [f"ghost{i}".encode() for i in range(100)]
    assert all(query_chunked(ds, key) == 0 for key in keys)
    ds = replace(ds, planes=b"".join(rnd.getrandbits(L).to_bytes(8, "little") for _ in range(3)))
    for words in _plane_reads(ds, keys):
        assert words == [[0]] * 3


def test_overhead_counts_directory_and_r_scales_it():
    pairs1, ds1 = build(8_000, epsilon=0.05, C=1_000, r=1, base_seed=13)
    pairs2, ds2 = build(8_000, epsilon=0.05, C=1_000, r=2, base_seed=13)
    K = ds1.directory.num_chunks
    dir_bits = 64 * (K + 1)  # one word per chunk plus the terminal word
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
    # one-bit blocks make every chunk fail; the first in chunk order is reported
    pairs = make_pairs(200)
    params = ChunkedParams(epsilon=0.02, L=1, C=50, max_retries=2, base_seed=3)
    for threads in (1, 2):
        with pytest.raises(RetriesExhausted) as exc_info:
            construct_chunked(pairs, params, threads=threads)
        assert exc_info.value.chunk == 0
        assert "in chunk 0" in str(exc_info.value)


def test_build_calls_construct_flat_per_chunk_and_solve_per_attempt(solve_calls):
    # the call contract the benchmark's per-chunk probes and attempt counts
    # rely on; eps 3% with 2,500-key chunks retries chunk 2 once
    pairs = make_pairs(20_000, r=3, tag="golden")
    params = ChunkedParams(epsilon=0.03, L=64, r=3, C=2_500, base_seed=2029)
    ds = construct_chunked(pairs, params)
    assert solve_calls.chunks == list(range(ds.directory.num_chunks))
    assert [solve_calls.attempts[k] for k in solve_calls.chunks] == [
        retry + 1 for retry in ds.directory.seeds
    ]
    assert max(ds.directory.seeds) >= 1


def test_oversized_table_fails_before_any_chunk_is_solved(monkeypatch, solve_calls):
    # the offsets follow from the chunk sizes alone, so the 48-bit check
    # runs before the first solve; a 1,000-bit limit stands in for 2^48
    monkeypatch.setattr(retrieval_chunked, "_OFFSET_MASK", 999)
    pairs = make_pairs(2_000, tag="huge")
    with pytest.raises(ValueError, match="48-bit offsets"):
        construct_chunked(pairs, ChunkedParams(epsilon=0.05, C=500, base_seed=8))
    assert solve_calls.chunks == []


@pytest.mark.parametrize("C", [3_000, 1_000])
def test_colliding_digests_fail_on_the_first_attempt(C, hash_spy, solve_calls):
    # two distinct keys forced onto one digest: every retry gives them one
    # row, so the build names the chunk instead of trying 64 seeds; the
    # all-ones digest falls in the last chunk
    pairs = make_pairs(3_000, tag="twins")
    hash_spy.collide = {pairs[10][0], pairs[20][0]}
    params = ChunkedParams(epsilon=0.1, L=64, C=C, base_seed=21)
    with pytest.raises(ConstructError) as exc_info:
        construct_chunked(pairs, params)
    assert not isinstance(exc_info.value, RetriesExhausted)
    last = 3_000 // C - 1
    assert f"chunk {last}" in str(exc_info.value)
    assert solve_calls.chunks == []


@pytest.mark.parametrize("conflict", [False, True])
def test_repeated_key_in_the_middle_of_a_run_of_one_hi(conflict, hash_spy, solve_calls):
    # keys a, b, c share one hi with lo in that order, and b comes again
    # last: in input order the run is a b c b, so only the order by lo puts
    # the two b side by side
    pairs = make_pairs(500, tag="run")
    a, b, c = (pairs[i][0] for i in (5, 6, 7))
    for key, lo in ((a, 0x1111_1111_1111_1111), (b, 0x5555_5555_5555_5555),
                    (c, 0x9999_9999_9999_9999)):
        hash_spy.forced[key] = (1 << 127 | lo).to_bytes(16, "little")
    params = ChunkedParams(epsilon=0.1, L=64, C=200, base_seed=4)
    repeated = pairs + [(b, pairs[6][1] ^ conflict)]
    if conflict:
        with pytest.raises(DuplicateKey) as exc_info:
            construct_chunked(repeated, params)
        assert exc_info.value.key == b
        assert solve_calls.chunks == []
    else:
        ds = construct_chunked(repeated, params)
        assert ds.m == len(pairs)
        assert serialize(ds) == serialize(construct_chunked(pairs, params))


def test_same_value_repeats_write_the_same_file(backend):
    pairs = make_pairs(3_000, r=3, tag="repeats")
    rnd = random.Random(7)
    mixed = pairs + rnd.sample(pairs, 500) + rnd.sample(pairs, 200)
    rnd.shuffle(mixed)
    params = ChunkedParams(epsilon=0.1, r=3, C=1_000, base_seed=5)
    ds = construct_chunked(mixed, params)
    assert ds.m == len(pairs)
    assert serialize(ds) == serialize(construct_chunked(pairs, params))


def test_pairs_that_read_once_deduplicate(backend):
    # pairs given as one-shot iterators: the repeat check reads the pairs
    # of a repeated digest again, so the build keeps what it unpacked
    ds = construct_chunked([iter((b"a", 1)), iter((b"b", 0)), iter((b"a", 1))],
                           ChunkedParams(epsilon=0.1))
    assert ds.m == 2
    pairs = make_pairs(2_000, r=3, tag="once")
    params = ChunkedParams(epsilon=0.1, r=3, C=1_000, base_seed=6)
    given = [iter(pair) for pair in pairs + pairs[:50]]
    iterators = list(given)
    ds = construct_chunked(given, params)
    assert given == iterators  # the caller's list is left alone
    assert ds.m == len(pairs)
    assert serialize(ds) == serialize(construct_chunked(pairs, params))
    key, value = pairs[7]
    with pytest.raises(DuplicateKey) as exc_info:
        construct_chunked(tuple(iter(pair) for pair in pairs + [(key, value ^ 1)]), params)
    assert exc_info.value.key == key


def _round_trip_seconds(plane_bits: int) -> float:
    # plane_bits is a multiple of 64, so random words have no padding bits
    planes = random.Random(plane_bits).randbytes(plane_bits // 8)
    directory = ChunkDirectory(struct.pack("<2Q", 0, plane_bits))
    ds = ChunkedRetrieval(ChunkedParams(epsilon=0.05), directory, planes, 1)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ds2 = deserialize(serialize(ds))
        best = min(best, time.perf_counter() - t0)
    assert ds2.planes == planes
    return best


def test_save_load_time_is_linear_in_plane_bits():
    # 16x the bits: linear code takes ~16x the time, a big-int path > 100x
    assert _round_trip_seconds(1 << 22) < 40 * _round_trip_seconds(1 << 18)


@pytest.mark.parametrize("eps, L, base_seed, retries, digest, planes_digest", [
    # chunk 2 retries once in this configuration
    pytest.param(0.03, 64, 2029, [0, 0, 1, 0, 0, 0, 0, 0],
                 "eef6b5ada9ed80c4c99a11390ab67efc8b4d62d4114a3421261c27bcbb5d473e",
                 "c3b872c530828a4572d685f61d5413dd3b5bf25ba7084de356d1905182b35e93",
                 id="L64-retry"),
    pytest.param(0.05, 80, 2026, [0] * 8,
                 "ad3424347b1827bb1bb19b431d5be29a3f9fe49141089b48ef01178f3b1b1cb6",
                 "2342ab43bb0936d210a2fe8b71c239e36589a95d75cab8bfcf6b5f324078c4ce",
                 id="L80"),
])
def test_format_v4_golden_digest(eps, L, base_seed, retries, digest, planes_digest):
    # pins the v4 bytes; a deliberate format change updates these digests.
    # The planes digests were taken from the v3 files, whose plane section
    # v4 keeps unchanged.
    pairs = make_pairs(20_000, r=3, tag="golden")
    params = ChunkedParams(epsilon=eps, L=L, r=3, C=2_500, base_seed=base_seed)
    ds = construct_chunked(pairs, params)
    assert ds.directory.seeds == retries
    assert hashlib.sha256(ds.planes).hexdigest() == planes_digest
    header = _HEADER.pack(b"BSET", 4, 0, 3, L, eps, 2_500, 20_000, 8, base_seed)
    blob = serialize(ds)
    assert blob == header + ds.directory.packed + ds.planes
    assert serialize(deserialize(blob)) == blob
    assert hashlib.sha256(blob).hexdigest() == digest


# ---------------------------------------------------------------------------
# the build's order: the native order_rows against the reference path (the
# argsort of hi, the gathers and chunk_bounds)


@pytest.fixture
def chunk_rows(monkeypatch):
    """Per chunk, the rows that ``construct_chunked`` hands to
    ``construct_flat``, as (s, lo, values) lists; one-thread builds only."""
    rows = []
    real = retrieval_chunked.construct_flat

    def recorded(s, lo, values, *args):
        rows.append((s.tolist(), lo.tolist(), values.tolist()))
        return real(s, lo, values, *args)

    monkeypatch.setattr(retrieval_chunked, "construct_flat", recorded)
    return rows


@pytest.fixture
def order_calls(native, monkeypatch):
    """The native ``order_rows`` spied on: ``.results`` holds what each
    call returned (None, or True for an order); ``.decline`` set makes
    every call return None, so the build takes the reference path on the
    native digests."""
    calls = types.SimpleNamespace(results=[], decline=False)
    real = native.order_rows

    def order_rows(*args):
        got = None if calls.decline else real(*args)
        calls.results.append(got if got is None else True)
        return got

    monkeypatch.setattr(native, "order_rows", order_rows)
    return calls


@pytest.mark.parametrize("m, kw", [
    (0, {}), (1, {}),
    (3_000, dict(C=10_000)),  # C >= m: one chunk
    (300, dict(C=1)),  # a chunk per key: about a third of them empty
    (3_000, dict(C=500)),
    (2_000, dict(C=300, r=64)),
    (2_000, dict(C=300, r=72)),  # r > 64: the reference path alone
], ids=["m0", "m1", "one-chunk", "C1", "C500", "r64", "r72"])
def test_native_order_matches_the_reference_order(m, kw, chunk_rows, order_calls):
    params = ChunkedParams(**{"epsilon": 0.2, "r": 3, **kw}, base_seed=31)
    rnd = random.Random(m)
    pairs = [(key, rnd.getrandbits(params.r)) for key, _ in make_pairs(m, tag="order")]
    built = []
    for decline in (False, True):  # the native order, then the reference one
        order_calls.decline = decline
        chunk_rows.clear()
        built.append((serialize(construct_chunked(pairs, params)), list(chunk_rows)))
    (native_file, native_rows), (reference_file, reference_rows) = built
    # the same bounds and, chunk by chunk, the same s, lo and values
    assert native_rows == reference_rows
    assert len(native_rows) == retrieval_chunked.num_chunks_for(m, params.C)
    assert native_file == reference_file
    with python_branch():
        assert serialize(construct_chunked(pairs, params)) == native_file
    if params.r > 64:
        assert order_calls.results == []
    else:
        assert order_calls.results == [True, None]
        # in each chunk the start words ascend, so no two are equal
        assert all(s == sorted(set(s)) for s, _, _ in native_rows)
    if kw.get("C") == 1:
        assert [] in (s for s, _, _ in native_rows)


@pytest.mark.parametrize("case", ["same value", "conflict", "collision"])
def test_repeats_take_the_reference_order(case, hash_spy, solve_calls, order_calls):
    # two keys that share hi make order_rows give up; the reference path
    # then drops, rejects or names them as it does without the native order
    pairs = make_pairs(3_000, tag="repeat")
    params = ChunkedParams(epsilon=0.1, C=1_000, base_seed=12)
    given = {
        "same value": pairs + [pairs[100], pairs[2_000]],
        "conflict": pairs + [(pairs[100][0], pairs[100][1] ^ 1)],
        "collision": pairs,
    }[case]
    if case == "collision":
        hash_spy.collide = {pairs[10][0], pairs[20][0]}

    def outcome():
        try:
            return serialize(construct_chunked(given, params))
        except ConstructError as exc:
            assert solve_calls.chunks == []
            return type(exc), str(exc)

    got = outcome()
    assert order_calls.results == [None]
    with python_branch():
        assert outcome() == got
    if case == "same value":
        assert got == serialize(construct_chunked(pairs, params))
    elif case == "conflict":
        assert got[0] is DuplicateKey
    else:  # the all-ones digest lies in the last chunk
        assert got[0] is ConstructError and "in chunk 2;" in got[1]


def test_keys_crafted_into_one_radix_run_write_the_reference_file(hash_spy):
    # The base seed is in the file, so keys can be chosen whose hi share
    # their top 16 bits: one run of the chunk's radix passes, which the
    # finishing sort must take in O(n log n). Their starts crowd at retry 0,
    # so the build retries.
    pairs = make_pairs(3_000, r=2, tag="crafted")
    rnd = random.Random(16)
    for key, _ in pairs:
        hi = 0xB5E7 << 48 | rnd.getrandbits(48)
        hash_spy.forced[key] = (hi << 64 | rnd.getrandbits(64)).to_bytes(16, "little")
    params = ChunkedParams(epsilon=0.1, r=2, C=10_000, base_seed=17)
    ds = construct_chunked(pairs, params)
    assert ds.m == len(pairs) and ds.directory.seeds[0] >= 1
    with python_branch():
        assert serialize(construct_chunked(pairs, params)) == serialize(ds)


def _order_reference(digests, values, num_chunks):
    """order_rows' answer by the reference path's numpy calls."""
    import numpy as np

    from bandset.row_gen import chunk_bounds

    words = np.frombuffer(digests, "<u8").reshape(-1, 2)
    order = np.argsort(words[:, 1], kind="stable")
    hi = words[:, 1][order]
    bounds, s = chunk_bounds(hi, num_chunks)
    return bounds, s.tolist(), words[:, 0][order].tolist(), values[order].tolist()


def _order_native(native, digests, values, num_chunks):
    import numpy as np

    got = native.order_rows(digests, values, num_chunks)
    if got is None:
        return None
    bounds, *columns = got
    return bounds, *(np.frombuffer(column, np.uint64).tolist() for column in columns)


@pytest.mark.parametrize("top_bits", [0, 8, 16, 24])
@pytest.mark.parametrize("m, num_chunks", [(0, 1), (1, 1), (40, 1), (5_000, 1), (5_000, 7),
                                           (5_000, 5_000), (60_000, 3)])
def test_order_rows_equals_argsort(m, num_chunks, top_bits, native):
    # hi words that share their top bits (of the start word too, for one
    # chunk) fill few radix buckets, which the finishing sort then orders
    import numpy as np

    rnd = np.random.default_rng(m + top_bits)
    words = rnd.integers(0, 2**64, size=(m, 2), dtype=np.uint64)
    if top_bits:
        shift = np.uint64(64 - top_bits)
        prefix = np.uint64(0xA5C3F00F96E1D22B) >> shift << shift
        words[:, 1] = words[:, 1] >> np.uint64(top_bits) | prefix
    digests = words.tobytes()
    values = rnd.integers(0, 2**64, size=m, dtype=np.uint64)
    want = _order_reference(digests, values, num_chunks)
    assert _order_native(native, digests, values, num_chunks) == want
    if m >= 2:  # a second key with the hi of another: None
        words[m // 2, 1] = words[m - 1, 1]
        assert native.order_rows(words.tobytes(), values, num_chunks) is None


def test_order_rows_checks_its_arguments(native):
    import numpy as np

    digests, values = bytes(32), np.zeros(2, np.uint64)
    for bad in [(bytes(31), values, 1), (digests, values[:1], 1), (digests, values, 0),
                (digests, values, 3), (bytes(0), values[:0], 2)]:
        with pytest.raises(ValueError, match="order_rows takes"):
            native.order_rows(*bad)
    with pytest.raises(TypeError):
        native.order_rows(digests, values)
    assert native.order_rows(b"", values[:0], 1) == ([0, 0], bytearray(), bytearray(),
                                                     bytearray())


def test_order_rows_is_not_quadratic_in_one_run(native):
    # 100k hi words in one chunk and one run of the radix passes: heapsort
    # takes them in a few times the time of random words in chunks of 1,000,
    # insertion sort would take hundreds of times as long
    import numpy as np

    m = 100_000
    words = np.random.default_rng(3).integers(0, 2**64, size=(m, 2), dtype=np.uint64)
    values = np.zeros(m, np.uint64)
    crafted = words.copy()
    crafted[:, 1] = crafted[:, 1] >> np.uint64(16) | np.uint64(0xB5E7 << 48)

    def seconds(w, num_chunks):
        data = w.tobytes()
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            assert native.order_rows(data, values, num_chunks) is not None
            best = min(best, time.perf_counter() - t0)
        return best

    assert seconds(crafted, 1) < 50 * seconds(words, m // 1_000)
