"""Partitioned retrieval: first-level hash to chunks, one band system per
chunk, concatenated bit-planes plus a directory of table offsets and retry
seeds. With C >= m there is one chunk, which is the unpartitioned
structure.

Every chunk's table size follows from its key count, so the offsets are
fixed before any chunk is solved. Each chunk then solves straight into its
slice of one buffer of all the planes, in the file's form: r runs of
packed little-endian words, the same form in the build, in memory and on
disk. Chunks may be solved on a thread pool. Their slices share only the
words at their ends, into which each solve ORs its bits (see
``retrieval_flat.solve``), so the output is a pure function of the
key/value set and the base seed. The directory is one buffer of the same
kind: a little-endian 64-bit word per chunk that packs the chunk's retry
seed into the top 16 bits of its 48-bit table offset, plus a terminal
offset, so a query resolves offset, seed, and table span with one read of
two adjacent words. The file holds both buffers as they are, after its
header, so ``serialize`` joins them and ``deserialize`` checks and slices.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from . import retrieval_flat
from .retrieval_flat import ConstructError, DuplicateKey, construct_flat, positions_for
from .row_gen import MASK64, chunk_and_word, chunk_bounds, digest_pairs, key_digest, row_for_words

__all__ = [
    "ChunkedParams",
    "ChunkDirectory",
    "ChunkedRetrieval",
    "FormatError",
    "construct_chunked",
    "query_chunked",
    "query_many",
    "serialize",
    "deserialize",
    "overhead",
]

MAGIC = b"BSET"
VERSION = 4
FLAG_FORCE_LEADING_ONE = 1
_HEADER = struct.Struct("<4sHHHHdQQQQ")
HEADER_BYTES = _HEADER.size  # 52

_OFFSET_BITS = 48
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1


class FormatError(Exception):
    """Serialized input is not a valid structure."""


@dataclass(frozen=True, slots=True)
class ChunkedParams:
    epsilon: float
    L: int = 64
    r: int = 1
    C: int = 10_000
    max_retries: int = 64
    base_seed: int = 0
    force_leading_one: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.L < 1 or self.r < 1 or self.C < 1:
            raise ValueError("L, r, C must all be >= 1")
        if self.C > MASK64:
            raise ValueError("C must fit in 64 bits")
        if self.L >= (1 << 16) or self.r >= (1 << 16):
            raise ValueError("L and r must fit in 16 bits")
        if not 1 <= self.max_retries <= (1 << 16):
            raise ValueError("max_retries must be in [1, 65536]")
        if not 0 <= self.base_seed <= MASK64:
            raise ValueError("base_seed must fit in 64 bits")


@dataclass(frozen=True, slots=True)
class ChunkDirectory:
    """Per-chunk table offsets (bit positions, prefix sums with a terminal
    entry) and retry seeds, in one buffer: ``packed`` is num_chunks + 1
    little-endian 64-bit words, word k offset_k | seed_k << 48 (the
    terminal word holds the last offset alone). The file's directory
    section is these bytes."""

    packed: bytes

    def _words(self) -> tuple[int, ...]:
        return struct.unpack(f"<{len(self.packed) // 8}Q", self.packed)

    @property
    def num_chunks(self) -> int:
        return len(self.packed) // 8 - 1

    @property
    def offsets(self) -> list[int]:
        return [w & _OFFSET_MASK for w in self._words()]

    @property
    def seeds(self) -> list[int]:
        return [w >> _OFFSET_BITS for w in self._words()[:-1]]


@dataclass(frozen=True, slots=True)
class ChunkedRetrieval:
    """``planes`` is the file's plane payload: r runs of
    ceil(plane_bits / 64) little-endian 64-bit words, plane t from word
    t * ceil(plane_bits / 64) on, each the concatenation over chunks with
    bit j in bit j % 64 of word j // 64 and zero padding.

    Frozen, like its params and directory: ``_lookup`` (a native ``Lookup``
    or a ``PythonLookup``) is filled at the first query (``_bind``) from
    the buffers held then, so an edit is a new structure,
    ``dataclasses.replace(ds, ...)``, which starts unbound. A copy
    (``copy``, ``copy.deepcopy``, ``pickle``) starts unbound too: it holds
    the four fields alone, and its first query binds the backend of the
    process it is in."""

    params: ChunkedParams
    directory: ChunkDirectory
    planes: bytes
    m: int
    _lookup: PythonLookup | None = field(init=False, default=None, repr=False, compare=False)

    def __reduce__(self):
        return ChunkedRetrieval, (self.params, self.directory, self.planes, self.m)

    @property
    def plane_bits(self) -> int:
        return int.from_bytes(self.directory.packed[-8:], "little") & _OFFSET_MASK


def num_chunks_for(m: int, C: int) -> int:
    return max(1, math.ceil(m / C))


def construct_chunked(pairs, params: ChunkedParams, threads: int = 1) -> ChunkedRetrieval:
    """Check and hash every pair in one pass, put the rows in chunk order
    (dropping repeated pairs), lay out the chunk tables, solve each chunk
    into its slice.

    ``pairs`` is an iterable of (key, value) pairs: bytes or bytearray
    keys, integer values in [0, 2^r). A key may repeat with the same
    value. Raises TypeError or ValueError for the first bad pair,
    DuplicateKey for a key repeated with another value, and
    ConstructError naming the chunk when two distinct keys share one
    digest, all before any chunk is solved. Raises ValueError when the
    table does not fit 48-bit offsets (also before any solve) or
    ``threads`` is below 1, and RetriesExhausted naming the first chunk (in
    chunk order) that no retry could solve.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    import numpy as np

    digests, values, items = digest_pairs(pairs, params.base_seed, params.r)
    # The rows go to the solves in chunk order, each chunk by its start
    # word. The chunk (hi * num_chunks) >> 64 only grows with hi, and so
    # does the start word, its low 64 bits, within a chunk, so this is the
    # order of hi. The first solve thus gets its rows in start order, which
    # keeps its walks short; the planes do not depend on row order. The
    # native order_rows gives that order in one partition pass with a radix
    # sort of each chunk in cache, and None when two keys share hi. The
    # reference path, one argsort of hi, the gathers and chunk_bounds, runs
    # then, and without the native module or for r > 64: it puts repeated
    # digests side by side, so repeats are dropped and collisions named.
    native = retrieval_flat._kernel()
    ordered = None
    if native is not None and values.dtype == np.uint64:
        ordered = native.order_rows(digests, np.ascontiguousarray(values),
                                    num_chunks_for(len(values), params.C))
    if ordered is not None:
        del digests, items
        bounds, *columns = ordered
        s, lo, values = (np.frombuffer(column, np.uint64) for column in columns)
    else:
        words = np.frombuffer(digests, "<u8").reshape(-1, 2)
        order = np.argsort(words[:, 1])
        hi, lo, values = words[:, 1][order], words[:, 0][order], values[order]
        del digests, words
        collided = None
        if np.any(hi[1:] == hi[:-1]):
            keep, collided = _drop_repeats(hi, lo, values, order, items)
            hi, lo, values = hi[keep], lo[keep], values[keep]
        del order, items
        num_chunks = num_chunks_for(len(hi), params.C)
        if collided is not None:
            raise ConstructError(f"two keys share one digest in chunk "
                                 f"{chunk_and_word(collided, num_chunks)[0]}; "
                                 "build with another base seed")
        bounds, s = chunk_bounds(hi, num_chunks)
        del hi
    m, num_chunks = bounds[-1], len(bounds) - 1

    sizes = (positions_for(b - a, params.epsilon) + params.L - 1
             for a, b in zip(bounds, bounds[1:]))
    offsets = list(accumulate(sizes, initial=0))
    if offsets[-1] > _OFFSET_MASK:
        raise ValueError("table too large for 48-bit offsets")
    planes = np.zeros((params.r, (offsets[-1] + 63) // 64), "<u8")
    parts = [(s[a:b], lo[a:b], values[a:b]) for a, b in zip(bounds, bounds[1:])]
    args = (*zip(*parts), repeat(params), repeat(planes), offsets[:-1], offsets[1:],
            range(num_chunks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            retries = list(pool.map(construct_flat, *args))
    else:
        retries = list(map(construct_flat, *args))

    words = [offset | retry << _OFFSET_BITS for offset, retry in zip(offsets, retries)]
    directory = ChunkDirectory(struct.pack(f"<{num_chunks + 1}Q", *words, offsets[-1]))
    return ChunkedRetrieval(params, directory, planes.tobytes(), m)


def _drop_repeats(hi, lo, values, order, items):
    """The slow path for runs of equal ``hi`` in the hi-sorted arrays.

    Within the runs, entries are ordered by (``hi``, ``lo``, input
    position), so equal digests sit side by side and each group is led by
    its first pair in input order. A later pair of a group with the
    leader's key and value is dropped, one with its key and another value
    raises DuplicateKey, and one with another key is a digest collision.
    ``order`` maps sorted positions to input positions, ``items`` are the
    input pairs. Returns the mask of entries to keep and the ``hi`` of the
    first collision in ``hi`` order, or None.
    """
    import numpy as np

    same = hi[1:] == hi[:-1]
    in_run = np.zeros(len(hi), bool)
    in_run[1:] = same
    in_run[:-1] |= same
    run = np.flatnonzero(in_run)
    run = run[np.lexsort((order[run], lo[run], hi[run]))]
    keep = np.ones(len(hi), bool)
    collided = lead_digest = lead_key = lead_value = None
    digests = zip(hi[run].tolist(), lo[run].tolist())
    for p, digest, i, value in zip(run.tolist(), digests, order[run].tolist(),
                                   values[run].tolist()):
        key = bytes(items[i][0])
        if digest != lead_digest:
            lead_digest, lead_key, lead_value = digest, key, value
        elif key != lead_key:
            if collided is None:
                collided = digest[0]
        elif value == lead_value:
            keep[p] = False
        else:
            raise DuplicateKey(key)
    return keep, collided


def query_chunked(ds: ChunkedRetrieval, key: bytes) -> int:
    """The value of ``key``: one hash, two directory reads, then one
    windowed dot product per plane. ``key`` is bytes-like; a ``str``
    raises TypeError.

    One call of the structure's lookup, which its first query binds (see
    ``_bind``): a native ``Lookup`` where the native module loaded
    (``retrieval_flat._kernel()``), L <= 128 and r <= 64, else a
    ``PythonLookup``. The backend is fixed then for the structure's life;
    a structure made by ``dataclasses.replace`` or copied starts unbound.
    Both lookups check the same bounds (see ``_query_words``): the native
    one checks the structure's words once, when it is bound, and each
    key's on every call.
    """
    return (ds._lookup or _bind(ds))(key)


def _bind(ds: ChunkedRetrieval) -> PythonLookup:
    """Make, store and return the lookup of ``ds`` from the words
    ``(base_seed, L, r, force_leading_one, directory, planes)``: the
    native ``bind`` of them, a ``Lookup`` that checks them once and holds
    views of the two buffers, or a ``PythonLookup`` of them. Both answer
    the same three calls. A native bind that fails (the ValueError that
    ``_query_words`` raises for a directory or planes of the wrong length)
    stores nothing, so every later query raises again.
    Threads that race to bind one structure make equal lookups, so the
    lost store does no harm."""
    params = ds.params
    native = retrieval_flat._kernel()
    words = (params.base_seed, params.L, params.r, params.force_leading_one,
             ds.directory.packed, ds.planes)
    native_fits = native is not None and params.L <= 128 and params.r <= 64
    lookup = (native.bind if native_fits else PythonLookup)(*words)
    object.__setattr__(ds, "_lookup", lookup)  # the one field a frozen structure fills late
    return lookup


class PythonLookup:
    """The native ``Lookup``'s Python twin, for any L and r: made from
    ``bind``'s words, it answers ``lookup(key)``, ``query_many(keys)`` and
    ``query_block(data, bounds)`` by the native calls' rules, each key
    through ``_query_words``; only ``query_block`` of r > 64 values, which
    no uint64 holds, answers in a list of ints."""

    __slots__ = ("words",)

    def __init__(self, *words):
        self.words = words

    def __call__(self, key) -> int:
        return _query_words(*self.words, key)

    def query_many(self, keys) -> list[int]:
        return [_query_words(*self.words, key) for key in keys]

    def query_block(self, data, bounds):
        data = bytes(data)
        if bounds is None:
            keys = data.split(b"\n")
            if not keys[-1]:  # the empty piece after a final \n, or empty data
                keys.pop()
            keys = [key.rstrip(b"\r") for key in keys]
        else:
            pairs = list(struct.iter_unpack("qq", bytes(bounds)))
            for i, (start, end) in enumerate(pairs):
                if not 0 <= start <= end <= len(data):
                    raise ValueError(f"key {i} lies outside the data")
            keys = [data[start:end] for start, end in pairs]
        answers = self.query_many(keys)
        if self.words[2] > 64:  # r > 64: values that no uint64 holds
            return answers
        return struct.pack(f"{len(answers)}Q", *answers)


def _query_words(seed: int, L: int, r: int, lead: bool, directory, planes, key) -> int:
    """The lookup in Python, which ``PythonLookup`` runs and the tests
    check the native ``Lookup`` against: ``bind``'s arguments, then the key.
    ``directory`` and ``planes`` are ``ds.directory.packed`` and
    ``ds.planes``. It takes the chunk count from the length of
    ``directory`` (ValueError unless it is two or more whole 64-bit words),
    checks the two entries it reads (ValueError for a chunk with fewer than
    L bits) and takes the plane length from ``planes``: ValueError unless
    it is r equal runs of whole words, IndexError for a window that ends
    past a plane.

    Each plane's window is one read of the words ``wi`` to ``last`` that
    hold its first and last bit, ANDed with the pattern shifted to the
    window's bit offset. A window inside one word has ``last == wi``, so no
    read leaves the plane and no padding word is needed.
    """
    hi, lo = key_digest(key, seed)
    entries, rest = divmod(len(directory), 8)
    if rest or entries < 2:
        raise ValueError("directory is not two or more whole 64-bit words")
    chunk, s = chunk_and_word(hi, entries - 1)
    p = int.from_bytes(directory[8 * chunk : 8 * chunk + 16], "little")
    offset = p & _OFFSET_MASK
    retry = (p & MASK64) >> _OFFSET_BITS
    end = (p >> 64) & _OFFSET_MASK
    if end < offset + L:
        raise ValueError(f"directory gives chunk {chunk} fewer than L bits")
    n_chunk = end - offset - (L - 1)
    start, bits = row_for_words(s, lo, retry, n_chunk, L, lead)
    bit_offset = offset + start - 1
    size, rest = divmod(len(planes), r)  # bytes per plane
    if rest or size & 7:
        raise ValueError("planes are not r runs of whole 64-bit words")
    a = 8 * (bit_offset >> 6)
    b = 8 * ((bit_offset + L - 1) >> 6) + 8
    if b > size:
        raise IndexError(f"window ends past a plane of {size // 8} words")
    bits <<= bit_offset & 63
    value = 0
    for t in range(r):
        w = int.from_bytes(planes[t * size + a : t * size + b], "little")
        value |= ((w & bits).bit_count() & 1) << t
    return value


def query_many(ds: ChunkedRetrieval, keys) -> list[int]:
    """``query_chunked`` of every key of the iterable ``keys``, in order:
    one ``query_many`` call of the structure's bound lookup."""
    return (ds._lookup or _bind(ds)).query_many(keys)


def serialize(ds: ChunkedRetrieval) -> bytes:
    """The file: header, then ``ds.directory.packed`` and ``ds.planes`` as they are."""
    p, d = ds.params, ds.directory
    flags = FLAG_FORCE_LEADING_ONE if p.force_leading_one else 0
    header = _HEADER.pack(MAGIC, VERSION, flags, p.r, p.L, p.epsilon, p.C, ds.m,
                          d.num_chunks, p.base_seed)
    return b"".join([header, d.packed, ds.planes])


def deserialize(data: bytes) -> ChunkedRetrieval:
    if len(data) < HEADER_BYTES:
        raise FormatError("truncated header")
    magic, version, flags, r, L, epsilon, C, m, num_chunks, base_seed = _HEADER.unpack(
        data[:HEADER_BYTES]
    )
    if magic != MAGIC:
        raise FormatError("bad magic")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if flags & ~FLAG_FORCE_LEADING_ONE:
        raise FormatError("unknown flag bits set")
    try:
        params = ChunkedParams(
            epsilon=epsilon, L=L, r=r, C=C, base_seed=base_seed,
            force_leading_one=bool(flags & FLAG_FORCE_LEADING_ONE),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if num_chunks != num_chunks_for(m, C):
        raise FormatError("chunk count inconsistent with m and C")

    pos = HEADER_BYTES + (num_chunks + 1) * 8
    if len(data) < pos:
        raise FormatError("truncated directory")
    words = struct.unpack_from(f"<{num_chunks + 1}Q", data, HEADER_BYTES)
    plane_bits = words[-1]
    if plane_bits > _OFFSET_MASK:
        raise FormatError("terminal directory word has bits above 48")
    offsets = [w & _OFFSET_MASK for w in words]
    if offsets[0] != 0:
        raise FormatError("first offset must be zero")
    for a, b in zip(offsets, offsets[1:]):
        if b - a < L:
            raise FormatError("chunk table shorter than one block")

    nwords = (plane_bits + 63) // 64
    if len(data) != pos + r * nwords * 8:
        raise FormatError("plane payload length mismatch")
    tail_bits = plane_bits - (nwords - 1) * 64
    for end in range(pos + nwords * 8, len(data) + 1, nwords * 8):
        if int.from_bytes(data[end - 8 : end], "little") >> tail_bits:
            raise FormatError("nonzero padding bits in plane")
    return ChunkedRetrieval(params, ChunkDirectory(bytes(data[HEADER_BYTES:pos])),
                            bytes(data[pos:]), m)


def overhead(ds: ChunkedRetrieval) -> float:
    """Stored bits per key-bit beyond the information minimum, N/(m r) - 1.

    Counts the solution planes plus the directory, one 64-bit word per
    chunk and the terminal word; the fixed-size header is excluded.
    """
    if ds.m == 0:
        raise ValueError("overhead undefined for empty structure")
    bits = ds.params.r * ds.plane_bits + 8 * len(ds.directory.packed)
    return bits / (ds.m * ds.params.r) - 1.0
