"""Partitioned retrieval: first-level hash to chunks, one band system per
chunk, concatenated bit-planes plus an offsets/seeds directory. With C >= m
there is one chunk, which is the unpartitioned structure.

Chunks are built independently (optionally on a thread pool) and merged in
chunk order, so the output is a pure function of the key/value set and the
base seed. The in-memory directory packs each chunk's retry seed into the
top 16 bits of its 48-bit table offset, letting a query resolve offset,
seed, and table span with two directory reads; the on-disk format keeps
seeds and offsets as separate arrays.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .bitkit import BitVec, dot_window, xor_window
from .retrieval_flat import RetriesExhausted, construct_flat, normalize_pairs
from .row_gen import MASK64, chunk_for_key, row_for_key

__all__ = [
    "ChunkedParams",
    "ChunkDirectory",
    "ChunkedRetrieval",
    "FormatError",
    "construct_chunked",
    "query_chunked",
    "serialize",
    "deserialize",
    "overhead",
]

MAGIC = b"BSET"
VERSION = 1
FLAG_FORCE_LEADING_ONE = 1
_HEADER = struct.Struct("<4sHHHHdQQQQ")
HEADER_BYTES = _HEADER.size  # 52

_OFFSET_BITS = 48
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1


class FormatError(Exception):
    """Serialized input is not a valid structure."""


@dataclass(slots=True)
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
        if self.L >= (1 << 16) or self.r >= (1 << 16):
            raise ValueError("L and r must fit in 16 bits")
        if not 1 <= self.max_retries <= (1 << 16):
            raise ValueError("max_retries must be in [1, 65536]")
        if not 0 <= self.base_seed <= MASK64:
            raise ValueError("base_seed must fit in 64 bits")


@dataclass(slots=True)
class ChunkDirectory:
    """Per-chunk table offsets (bit positions, prefix sums with a terminal
    entry) and retry seeds, stored packed: entry k is offset | seed << 48."""

    num_chunks: int
    packed: list[int]

    @classmethod
    def from_parts(cls, offsets: list[int], seeds: list[int]) -> "ChunkDirectory":
        num_chunks = len(seeds)
        if len(offsets) != num_chunks + 1:
            raise ValueError("need one more offset than seeds")
        if offsets[-1] > _OFFSET_MASK:
            raise ValueError("table too large for 48-bit offsets")
        packed = [offsets[k] | (seeds[k] << _OFFSET_BITS) for k in range(num_chunks)]
        packed.append(offsets[num_chunks])
        return cls(num_chunks, packed)

    @property
    def offsets(self) -> list[int]:
        return [p & _OFFSET_MASK for p in self.packed]

    @property
    def seeds(self) -> list[int]:
        return [self.packed[k] >> _OFFSET_BITS for k in range(self.num_chunks)]


@dataclass(slots=True)
class ChunkedRetrieval:
    params: ChunkedParams
    directory: ChunkDirectory
    tables: list[BitVec]  # r planes, each the concatenation over chunks
    m: int

    @property
    def plane_bits(self) -> int:
        return self.tables[0].length


def num_chunks_for(m: int, C: int) -> int:
    return max(1, math.ceil(m / C))


def construct_chunked(pairs, params: ChunkedParams, threads: int = 1) -> ChunkedRetrieval:
    """Normalize once, partition, solve each chunk, concatenate.

    RetriesExhausted is re-raised with the failing chunk index attached.
    """
    mapping = normalize_pairs(pairs, params.r)
    m = len(mapping)
    num_chunks = num_chunks_for(m, params.C)
    buckets: list[list[tuple[bytes, int]]] = [[] for _ in range(num_chunks)]
    for key, value in mapping.items():
        buckets[chunk_for_key(key, params.base_seed, num_chunks)].append((key, value))

    def build(k: int) -> tuple[int, int, list[BitVec]]:
        try:
            return construct_flat(buckets[k], params)
        except RetriesExhausted as exc:
            raise RetriesExhausted(exc.retries, chunk=k) from None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(build, range(num_chunks)))
    else:
        chunks = [build(k) for k in range(num_chunks)]

    offsets = [0]
    for _, n, _ in chunks:
        offsets.append(offsets[-1] + n + params.L - 1)
    directory = ChunkDirectory.from_parts(offsets, [retry for retry, _, _ in chunks])

    planes = [BitVec(offsets[-1]) for _ in range(params.r)]
    for k, (_, _, chunk_planes) in enumerate(chunks):
        for plane, chunk_plane in zip(planes, chunk_planes):
            xor_window(plane, offsets[k], chunk_plane)
    return ChunkedRetrieval(params, directory, planes, m)


def query_chunked(ds: ChunkedRetrieval, key: bytes) -> int:
    """Two directory reads, then one windowed dot product per plane."""
    params = ds.params
    L = params.L
    base_seed = params.base_seed
    directory = ds.directory
    chunk = chunk_for_key(key, base_seed, directory.num_chunks)
    packed = directory.packed
    p0 = packed[chunk]
    p1 = packed[chunk + 1]
    offset = p0 & _OFFSET_MASK
    retry = p0 >> _OFFSET_BITS
    n_chunk = (p1 & _OFFSET_MASK) - offset - (L - 1)
    start, bits = row_for_key(key, base_seed, retry, n_chunk, L, params.force_leading_one)
    bit_offset = offset + start - 1
    value = 0
    for t, plane in enumerate(ds.tables):
        value |= dot_window(plane, bit_offset, bits, L) << t
    return value


def serialize(ds: ChunkedRetrieval) -> bytes:
    p = ds.params
    flags = FLAG_FORCE_LEADING_ONE if p.force_leading_one else 0
    out = [
        _HEADER.pack(
            MAGIC, VERSION, flags, p.r, p.L, p.epsilon, p.C, ds.m,
            ds.directory.num_chunks, p.base_seed,
        )
    ]
    num_chunks = ds.directory.num_chunks
    out.append(struct.pack(f"<{num_chunks}H", *ds.directory.seeds))
    out.append(struct.pack(f"<{num_chunks + 1}Q", *ds.directory.offsets))
    nwords = len(ds.tables[0].words)
    for plane in ds.tables:
        out.append(struct.pack(f"<{nwords}Q", *plane.words))
    return b"".join(out)


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

    pos = HEADER_BYTES
    seeds_bytes = num_chunks * 2
    offsets_bytes = (num_chunks + 1) * 8
    if len(data) < pos + seeds_bytes + offsets_bytes:
        raise FormatError("truncated directory")
    seeds = list(struct.unpack_from(f"<{num_chunks}H", data, pos))
    pos += seeds_bytes
    offsets = list(struct.unpack_from(f"<{num_chunks + 1}Q", data, pos))
    pos += offsets_bytes
    if offsets[0] != 0:
        raise FormatError("first offset must be zero")
    for a, b in zip(offsets, offsets[1:]):
        if b - a < L:
            raise FormatError("chunk table shorter than one block")
    if offsets[-1] > _OFFSET_MASK:
        raise FormatError("table too large for 48-bit offsets")

    plane_bits = offsets[-1]
    nwords = (plane_bits + 63) // 64
    if len(data) != pos + r * nwords * 8:
        raise FormatError("plane payload length mismatch")
    tail_bits = plane_bits - (nwords - 1) * 64
    planes = []
    for _ in range(r):
        words = list(struct.unpack_from(f"<{nwords}Q", data, pos))
        if words[-1] >> tail_bits:
            raise FormatError("nonzero padding bits in plane")
        planes.append(BitVec(plane_bits, words))
        pos += nwords * 8
    directory = ChunkDirectory.from_parts(offsets, seeds)
    return ChunkedRetrieval(params, directory, planes, m)


def overhead(ds: ChunkedRetrieval) -> float:
    """Stored bits per key-bit beyond the information minimum, N/(m r) - 1.

    Counts the solution planes plus the offsets and seeds directory; the
    fixed-size header is excluded.
    """
    if ds.m == 0:
        raise ValueError("overhead undefined for empty structure")
    num_chunks = ds.directory.num_chunks
    bits = ds.params.r * ds.plane_bits + 64 * (num_chunks + 1) + 16 * num_chunks
    return bits / (ds.m * ds.params.r) - 1.0
