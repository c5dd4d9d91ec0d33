"""Shared test helpers: naive reference oracles and instance generators.

The reference implementations here are deliberately bit-at-a-time and
independent of the word-packed production code paths they check.
"""

from __future__ import annotations

import random
import shutil
import sysconfig
import types
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from bandset import retrieval_chunked, retrieval_flat, row_gen
from bandset.band_solver import eliminate, solve, verify
from bandset.bitkit import BitVec, dot_window
from bandset.row_gen import MASK64, PackedPairs, chunk_and_word, key_digest, row_for_words


# What building the native module needs: a C compiler and the CPython headers.
HAVE_CC = (shutil.which("cc") is not None
           and Path(sysconfig.get_path("include"), "Python.h").is_file())


def python_branch():
    """Run in pure Python while the context is open: the native module's
    solve and hash step aside, and a structure first queried inside it
    binds the Python lookup for good."""
    return mock.patch.object(retrieval_flat, "_kernel", lambda: None)


@pytest.fixture(params=["python", "native"])
def backend(request):
    """Run the test in pure Python, then with the native module (skipped
    when no ``cc`` is on PATH)."""
    if request.param == "python":
        with python_branch():
            yield request.param
    elif not HAVE_CC:
        pytest.skip("no C compiler (cc) on PATH or no CPython headers")
    else:
        assert retrieval_flat._kernel() is not None
        yield request.param


@pytest.fixture(scope="session")
def native():
    """The native module; the test is skipped where it did not load."""
    module = retrieval_flat._kernel()
    if module is None:
        pytest.skip("native module unavailable (no cc or no CPython headers)")
    return module


def naive_dot_window(z_bits: list[int], offset: int, pattern_bits: list[int]) -> int:
    acc = 0
    for j, p in enumerate(pattern_bits):
        acc ^= z_bits[offset + j] & p
    return acc


def bitvec_from_bits(bits: list[int]) -> BitVec:
    bv = BitVec(len(bits))
    for i, b in enumerate(bits):
        if b:
            bv.set_bit(i)
    return bv


def bits_of(bv: BitVec) -> list[int]:
    return [bv.get_bit(i) for i in range(bv.length)]


def chunk_for_key(key: bytes, base_seed: int, num_chunks: int) -> int:
    """The chunk a structure with ``num_chunks`` chunks puts the key in."""
    return chunk_and_word(key_digest(key, base_seed)[0], num_chunks)[0]


def row_for_key(
    key: bytes, base_seed: int, retry: int, n: int, L: int, force_leading_one: bool,
    num_chunks: int = 1,
) -> tuple[int, int]:
    """The key's row at ``retry`` in a chunk of ``n`` positions, in a
    structure with ``num_chunks`` chunks: the query's path from key to row."""
    hi, lo = key_digest(key, base_seed)
    s = chunk_and_word(hi, num_chunks)[1]
    return row_for_words(s, lo, retry, n, L, force_leading_one)


def query_window(ds, key: bytes) -> tuple[int, int]:
    """The window a query of ``key`` reads in every plane: (bit offset of
    its first bit, L-bit pattern), from one hash and two directory reads."""
    params = ds.params
    L = params.L
    directory = ds.directory
    hi, lo = key_digest(key, params.base_seed)
    chunk, s = chunk_and_word(hi, directory.num_chunks)
    offsets, retries = directory.offsets, directory.seeds
    n_chunk = offsets[chunk + 1] - offsets[chunk] - (L - 1)
    start, bits = row_for_words(s, lo, retries[chunk], n_chunk, L, params.force_leading_one)
    return offsets[chunk] + start - 1, bits


def reference_query(ds, key: bytes) -> int:
    """The key's value with one ``dot_window`` per plane, on ``BitVec``s
    rebuilt from ``ds.planes`` with numpy: the reference for the plane read
    in ``query_chunked``."""
    import numpy as np

    bit_offset, bits = query_window(ds, key)
    value = 0
    for t, words in enumerate(np.frombuffer(ds.planes, "<u8").reshape(ds.params.r, -1)):
        plane = BitVec(ds.plane_bits, words.tolist())
        value |= dot_window(plane, bit_offset, bits, ds.params.L) << t
    return value


def reference_back_substitute(out, n: int, L: int, r: int) -> list[BitVec]:
    """Back-substitution with one ``dot_window`` read of each plane per row
    and plane, last pivot first: the reference for the sliding-window
    version in ``band_solver``."""
    planes = [BitVec(n + L - 1) for _ in range(r)]
    for i in range(len(out.starts) - 1, -1, -1):
        offset = out.starts[i] - 1
        for t in range(r):
            if dot_window(planes[t], offset, out.patterns[i], L) ^ ((out.rhs[i] >> t) & 1):
                planes[t].set_bit(out.pivots[i] - 1)
    return planes


class CountingWords(list):
    """Drop-in word list that records every index read and written.

    Swap it in for ``BitVec.words`` to check the contiguous-access
    contracts: ``reads``/``writes`` accumulate indices in access order.
    Query buffers (``ChunkDirectory.packed``, ``ChunkedRetrieval.planes``)
    are ``bytes``; see ``CountingBytes`` for those.
    """

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.reads: list[int] = []
        self.writes: list[int] = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.writes.append(i)
        super().__setitem__(i, value)

    def reset(self) -> None:
        self.reads.clear()
        self.writes.clear()


class CountingBytes(bytes):
    """A word buffer that records the words each slice of it covers.

    Put it in a new structure (``dataclasses.replace``) as
    ``ChunkedRetrieval.planes`` or ``ChunkDirectory.packed`` to check what
    the Python lookup reads: ``reads`` accumulates one range of buffer
    word indices per slice, in access order. The native query reads the
    buffer's memory directly, which no wrapper sees; see ``noisy_words``
    for its check.
    """

    def __init__(self, data=b""):
        self.reads: list[range] = []

    def __getitem__(self, i: slice):
        start, stop, _ = i.indices(len(self))
        self.reads.append(range(start // 8, (stop + 7) // 8))
        return super().__getitem__(i)

    def words_read(self, r: int = 1) -> list[list[int]]:
        """The words read so far, per plane of ``r`` equal planes (the
        whole buffer for r = 1), as sorted word indices within the plane."""
        nwords = len(self) // 8 // r
        out = [[] for _ in range(r)]
        for w in sorted({w for words in self.reads for w in words}):
            out[w // nwords].append(w % nwords)
        return out


def noisy_words(buffer: bytes, reads, rnd: random.Random) -> bytes:
    """``buffer`` with every word outside the word ranges ``reads``
    overwritten by random bytes: a lookup that reads only those words
    answers as it did on ``buffer``."""
    noise = bytearray(rnd.randbytes(len(buffer)))
    for words in reads:
        noise[8 * words.start : 8 * words.stop] = buffer[8 * words.start : 8 * words.stop]
    return bytes(noise)


class RandomSystem(NamedTuple):
    """A random band system as the solver takes it (start-sorted lists)
    plus its rows as drawn, as (start, pattern, rhs) triples."""

    n: int
    L: int
    r: int
    starts: list[int]
    patterns: list[int]
    rhs: list[int]
    drawn: list[tuple[int, int, int]]

    @property
    def m(self) -> int:
        return len(self.starts)


def random_band_system(
    rnd: random.Random, n: int, L: int, m: int, r: int = 1
) -> RandomSystem:
    drawn = []
    for _ in range(m):
        start = rnd.randint(1, n)
        bits = rnd.getrandbits(L)
        rhs = rnd.getrandbits(r)
        drawn.append((start, bits, rhs))
    rows = sorted(drawn, key=lambda row: row[0])  # stable: ties keep draw order
    return RandomSystem(
        n, L, r, [s for s, _, _ in rows], [b for _, b, _ in rows], [v for _, _, v in rows], drawn
    )


def eliminate_system(sys_: RandomSystem):
    """Forward elimination of copies of a random system's rows."""
    return eliminate(list(sys_.starts), list(sys_.patterns), list(sys_.rhs), sys_.L)


def solve_system(sys_: RandomSystem):
    """The r planes solving a random system, or None; the system's own
    lists stay untouched."""
    return solve(sys_.n, sys_.L, sys_.r, list(sys_.starts), list(sys_.patterns), list(sys_.rhs))


def verify_system(sys_: RandomSystem, planes) -> bool:
    return verify(sys_.n, sys_.L, sys_.starts, sys_.patterns, sys_.rhs, planes)


DENSE_ORACLE_MAX_COLS = 64


def dense_rank_oracle(n: int, L: int, starts: list[int], patterns: list[int]) -> int:
    """Rank of the densified matrix by textbook full Gaussian elimination.

    Deliberately independent of the band path: rows are expanded to full
    (n + L - 1)-bit ints and eliminated with column pivoting and row swaps.
    Desk-scale only (n + L - 1 <= 64).
    """
    width = n + L - 1
    if width > DENSE_ORACLE_MAX_COLS:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_MAX_COLS} columns")
    dense = [bits << (start - 1) for start, bits in zip(starts, patterns)]
    rank = 0
    for col in range(width):
        pivot_row = None
        for rr in range(rank, len(dense)):
            if (dense[rr] >> col) & 1:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        dense[rank], dense[pivot_row] = dense[pivot_row], dense[rank]
        for rr in range(len(dense)):
            if rr != rank and ((dense[rr] >> col) & 1):
                dense[rr] ^= dense[rank]
        rank += 1
        if rank == len(dense):
            break
    return rank


def reference_coin_elimination(starts: list[int], patterns: list[int], L: int):
    """Sorted elimination one bit at a time that records each row's coins
    as it picks the pivot: (pivots, transcripts), both cut after a row
    that cancels to zero (its pivot is 0).

    Row i scans its window left to right, skipping columns an earlier row
    took as pivot; each scanned bit is a coin, and the first 1 is the
    pivot. The row is then added, bit by bit, into every later row that
    starts at or before the pivot and holds a 1 there.
    """
    rows = [[(bits >> j) & 1 for j in range(L)] for bits in patterns]
    taken: set[int] = set()
    pivots: list[int] = []
    transcripts: list[list[int]] = []
    for i, start in enumerate(starts):
        coins = []
        piv = 0
        for off in range(L):
            if start + off in taken:
                continue
            coins.append(rows[i][off])
            if rows[i][off]:
                piv = start + off
                break
        pivots.append(piv)
        transcripts.append(coins)
        if piv == 0:
            break
        taken.add(piv)
        for i2 in range(i + 1, len(starts)):
            s2 = starts[i2]
            if s2 > piv:
                break
            if rows[i2][piv - s2]:
                for off in range(L):
                    if rows[i][off]:
                        assert start + off >= s2, "addition spills left of the window"
                        rows[i2][start + off - s2] ^= 1
    return pivots, transcripts


def packed_pairs(pairs) -> PackedPairs:
    """The (key, value) pairs as a ``PackedPairs``: the keys joined in one
    buffer, with their bounds in it and the values."""
    import numpy as np

    keys = [bytes(key) for key, _ in pairs]
    ends = list(accumulate(map(len, keys), initial=0))
    bounds = np.array([ends[:-1], ends[1:]], np.int64).T.copy()
    return PackedPairs(b"".join(keys), bounds, np.array([v for _, v in pairs], np.uint64))


def make_pairs(m: int, r: int = 1, tag: str = "key") -> list[tuple[bytes, int]]:
    """Distinct keys with deterministic r-bit values."""
    mask = (1 << r) - 1
    return [(f"{tag}:{i}".encode(), (i * 0x9E3779B9) & mask) for i in range(m)]


@pytest.fixture
def hash_spy(monkeypatch):
    """The key hash spied on, on whichever backend runs: ``key_digest``
    (the pure-Python path, in ``row_gen`` and ``retrieval_chunked``) and,
    where the native module loaded, its ``digest_pairs``, ``digest_packed``
    and ``bind`` are replaced by wrappers that count the digests they hand
    out (``spy.digests``; a bound lookup made then counts one per call,
    since it hashes its key once inside the call, and answers single keys
    only) and force chosen build digests: every key in ``spy.collide`` gets
    ``spy.collision_digest``, and every key in the dict ``spy.forced`` gets
    its value there (16 bytes, ``lo`` then ``hi``, little-endian)."""
    spy = types.SimpleNamespace(digests=0, collide=set(), collision_digest=b"\xff" * 16,
                                forced={})

    def forced(key):
        key = bytes(key)
        if key in spy.forced:
            return spy.forced[key]
        return spy.collision_digest if key in spy.collide else None

    def spied_key_digest(key, base_seed):
        spy.digests += 1
        digest = forced(key)
        if digest is None:
            return key_digest(key, base_seed)
        d = int.from_bytes(digest, "little")
        return d >> 64, d & MASK64

    native = retrieval_flat._kernel()
    if native is not None:
        real_digest_pairs, real_bind = native.digest_pairs, native.bind
        real_digest_packed = native.digest_packed

        def digest_pairs(items, seed, r):
            done = real_digest_pairs(items, seed, r)
            if done is not None:  # else the spied Python pass runs
                spy.digests += len(items)
                for i, (key, _) in enumerate(items):
                    digest = forced(key)
                    if digest is not None:
                        done[0][16 * i : 16 * i + 16] = digest
            return done

        def digest_packed(data, bounds, seed):
            digests = real_digest_packed(data, bounds, seed)
            spy.digests += len(bounds)
            for i, (start, end) in enumerate(bounds.tolist()):
                digest = forced(data[start:end])
                if digest is not None:
                    digests[16 * i : 16 * i + 16] = digest
            return digests

        def bind(*args):
            lookup = real_bind(*args)

            def query(key):
                spy.digests += 1
                return lookup(key)

            return query

        monkeypatch.setattr(native, "digest_pairs", digest_pairs)
        monkeypatch.setattr(native, "digest_packed", digest_packed)
        monkeypatch.setattr(native, "bind", bind)
    monkeypatch.setattr(row_gen, "key_digest", spied_key_digest)
    monkeypatch.setattr(retrieval_chunked, "key_digest", spied_key_digest)
    return spy


@pytest.fixture
def solve_calls(monkeypatch):
    """Per chunk, the ``retrieval_flat.solve`` calls of its build, recorded
    through the module-global names the build looks up: the chunks in the
    order ``construct_chunked`` called ``construct_flat`` (``.chunks``) and
    the solve calls of each (``.attempts``). One-thread builds only."""
    calls = types.SimpleNamespace(chunks=[], attempts={})
    construct_flat, solve = retrieval_chunked.construct_flat, retrieval_flat.solve

    def counted_construct_flat(*args):
        chunk = args[-1]
        calls.chunks.append(chunk)
        calls.attempts[chunk] = 0
        return construct_flat(*args)

    def counted_solve(*args):
        calls.attempts[calls.chunks[-1]] += 1
        return solve(*args)

    monkeypatch.setattr(retrieval_chunked, "construct_flat", counted_construct_flat)
    monkeypatch.setattr(retrieval_flat, "solve", counted_solve)
    return calls
