"""Seeded hashing of keys to band rows and chunks.

All randomness is derived from a keyed 128-bit hash (BLAKE2b-128 with the
seed material as the MAC key), so replaying the same (key, seed) always
reproduces the same row, bit-exact across platforms. Split convention:
the high 64 hash bits pick the start position, the low bits fill the
pattern; the chunk hash uses a separate stream so its bits are disjoint
from the row bits. Start and chunk come from a multiply-high reduction of
the high 64 bits onto their range. These two functions are the only place
that knows the formulas; build and query both call them.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

MASK64 = (1 << 64) - 1

# Independent hash streams carved out of the seed space.
_STREAM_ROW = 0
_STREAM_CHUNK = 1
_STREAM_PATTERN_EXT = 2  # first of the extra-word streams for L > 64


@lru_cache(maxsize=256)
def _keyed_hasher(base_seed: int, retry: int, stream: int):
    key = struct.pack("<QHH", base_seed, retry, stream)
    return hashlib.blake2b(digest_size=16, key=key)


def _hash128(key: bytes, base_seed: int, retry: int, stream: int) -> int:
    h = _keyed_hasher(base_seed, retry, stream).copy()
    h.update(key)
    return int.from_bytes(h.digest(), "little")


def row_for_key(
    key: bytes, base_seed: int, retry: int, n: int, L: int, force_leading_one: bool
) -> tuple[int, int]:
    """Hash a key to its band row: (start in [1, n], L-bit pattern as an int).

    ``base_seed`` is 64 bits and ``retry`` 16 bits; ``retry`` selects the
    hash function. Patterns longer than 64 bits pull extra words from
    additional hash streams so one key still yields independent-looking
    bits everywhere.
    """
    h = _hash128(key, base_seed, retry, _STREAM_ROW)
    start = 1 + (((h >> 64) * n) >> 64)
    if L <= 64:
        bits = (h & MASK64) & ((1 << L) - 1)
    else:
        bits = h & MASK64
        filled = 64
        ext = _STREAM_PATTERN_EXT
        while filled < L:
            bits |= _hash128(key, base_seed, retry, ext) << filled
            filled += 128
            ext += 1
        bits &= (1 << L) - 1
    if force_leading_one:
        bits |= 1
    return start, bits


def chunk_for_key(key: bytes, base_seed: int, num_chunks: int) -> int:
    """First-level hash onto [0, num_chunks), independent of the row hash."""
    return ((_hash128(key, base_seed, 0, _STREAM_CHUNK) >> 64) * num_chunks) >> 64
