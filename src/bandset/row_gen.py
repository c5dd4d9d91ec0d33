"""Seeded hashing of keys to chunks and band rows.

Each key gets one keyed 128-bit hash (BLAKE2b-128 with the 64-bit base
seed as the MAC key), its digest, split into two 64-bit words ``hi`` and
``lo`` (the digest read as a little-endian int is ``hi << 64 | lo``).
Everything else is cheap arithmetic on those words, so replaying the same
(key, base seed) reproduces the same chunk and rows bit-exact everywhere:

* ``hi * num_chunks`` is split at bit 64: the high part is the chunk, the
  low 64 bits are the start word ``s``, the bits of ``hi`` the chunk choice
  left over;
* retry t >= 1 remixes both ``s`` and ``lo`` with ``_remix(x, t)`` (the
  "hash once, re-seed by remixing" scheme of Ribbon, Dillinger & Walzer
  2021); retry 0 uses them as they are;
* the start is ``1 + mulhi(s, n)``, the pattern's low 64 bits are ``lo``,
  and pattern word k >= 1 (for L > 64) is ``_remix(lo, _EXTRA + k)``.

The scalar functions are what a query runs on the pure-Python path; the
``numpy`` twins (plural names) are what a build runs over a whole chunk.
They hold the same formulas and a test checks that both give identical
ints. A build hashes its keys in ``digest_pairs``, the one pass over its
input that also checks every pair and keeps its value. Where the native
module loaded (see ``retrieval_flat``), its C twins of that pass and of the
query's arithmetic run instead, while ``key_digest`` stays pure
``hashlib``, the fallback and the independent reference the tests check
the C hash against.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from functools import lru_cache

MASK64 = (1 << 64) - 1

# The retry remix: x -> ((x ^ t*_K1) * _K2) mod 2^64, then x ^= x >> 31.
_K1 = 0x9E3779B97F4A7C15
_K2 = 0xBF58476D1CE4E5B9
# Remix tags of the extra pattern words; retries stay below 2^16.
_EXTRA = 1 << 16


@lru_cache(maxsize=256)
def _keyed_hasher(base_seed: int):
    return hashlib.blake2b(digest_size=16, key=struct.pack("<Q", base_seed))


def key_digest(key: bytes, base_seed: int) -> tuple[int, int]:
    """The key's one hash: its (hi, lo) 64-bit digest words."""
    h = _keyed_hasher(base_seed).copy()
    h.update(key)
    d = int.from_bytes(h.digest(), "little")
    return d >> 64, d & MASK64


@lru_cache(maxsize=256)
def native_keyed(base_seed: int) -> bytes:
    """The native hash's state after the key block of ``base_seed``, which
    the native module's ``digest_pairs`` and query functions take;
    computed once per seed. Call it only while ``retrieval_flat._kernel()``
    returns the module."""
    from .retrieval_flat import _kernel

    return _kernel().keyed(base_seed)


def digest_pairs(pairs, base_seed: int, r: int):
    """A build's one pass over its (key, value) pairs: unpack each as
    ``for key, value in pairs`` does, check it, hash its key once and keep
    its value. Returns ``(digests, values, items)``: the 16-byte digests
    concatenated in input order (``lo``, then ``hi``, little-endian), the
    values as a numpy array (uint64, or object ints for r > 64), and the
    pairs as a list or tuple, which the caller reads again only for
    repeated digests; a pair that is not an exact tuple or list (it may
    read only once) is kept there as the (key, value) it gave. Repeated
    keys are kept; ``construct_chunked`` finds them by sorting the digests.

    Raises TypeError for a key that is not bytes or bytearray or a value
    that is not an integer, and ValueError for a value outside [0, 2^r),
    both for the first bad pair in input order. Where the native module
    loaded and r <= 64, its ``digest_pairs`` runs first and takes the
    pairs when all are exact 2-tuples or 2-lists that pass these checks;
    at the first other pair it gives up, and the Python loop below runs
    over the same items and raises the error or takes the pair.
    """
    import numpy as np

    from .retrieval_flat import _kernel

    items = pairs if type(pairs) in (list, tuple) else list(pairs)
    native = _kernel()
    if native is not None and r <= 64:
        done = native.digest_pairs(items, native_keyed(base_seed), r)
        if done is not None:
            return done[0], np.frombuffer(done[1], np.uint64), items
    base = _keyed_hasher(base_seed)
    limit = 1 << r
    digests = bytearray()
    values = []
    for i, pair in enumerate(items):
        key, value = pair
        if type(pair) is not tuple and type(pair) is not list:
            items = list(items) if items is pairs else items
            items[i] = key, value
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("keys must be byte strings")
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"value {value!r} is not an integer") from None
        if not 0 <= value < limit:
            raise ValueError(f"value {value} does not fit in {r} bits")
        h = base.copy()
        h.update(key)
        digests += h.digest()
        values.append(value)
    return digests, np.array(values, np.uint64 if r <= 64 else object), items


def _remix(x: int, t: int) -> int:
    x = ((x ^ ((t * _K1) & MASK64)) * _K2) & MASK64
    return x ^ (x >> 31)


def chunk_and_word(hi: int, num_chunks: int) -> tuple[int, int]:
    """The key's chunk in [0, num_chunks) and its start word."""
    x = hi * num_chunks
    return x >> 64, x & MASK64


def row_for_words(
    s: int, lo: int, retry: int, n: int, L: int, force_leading_one: bool
) -> tuple[int, int]:
    """The key's band row at ``retry``: (start in [1, n], L-bit pattern)."""
    if retry:
        s = _remix(s, retry)
        lo = _remix(lo, retry)
    start = 1 + ((s * n) >> 64)
    bits = lo
    for k in range(1, (L + 63) >> 6):  # empty for L <= 64
        bits |= _remix(lo, _EXTRA + k) << (64 * k)
    bits &= (1 << L) - 1
    if force_leading_one:
        bits |= 1
    return start, bits


# ---------------------------------------------------------------------------
# numpy twins: the same formulas over uint64 arrays, for the build


def _remix_np(x, t: int):
    import numpy as np

    x = (x ^ np.uint64((t * _K1) & MASK64)) * np.uint64(_K2)
    return x ^ (x >> np.uint64(31))


def _mulhi_np(a, b: int):
    """High 64 bits of a * b for a uint64 array and an int b < 2^64, from
    32-bit halves (numpy has no 64x64 multiply-high). The partial products
    are formed in place, which keeps a build's peak memory down."""
    import numpy as np

    m32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    b1, b0 = np.uint64(b >> 32), np.uint64(b & 0xFFFFFFFF)
    a1 = a >> s32
    a0 = a & m32
    mid = a0 * b0
    mid >>= s32  # the carry word of a0 * b0
    a0 *= b1
    hi = a1 * b1
    a1 *= b0
    for cross in (a0, a1):
        hi += cross >> s32
        cross &= m32
        mid += cross
    mid >>= s32
    hi += mid
    return hi


def chunks_and_words(hi, num_chunks: int):
    """``chunk_and_word`` over a uint64 array: (chunks, start words)."""
    import numpy as np

    return _mulhi_np(hi, num_chunks), hi * np.uint64(num_chunks)


def rows_for_words(s, lo, retry: int, n: int, L: int, force_leading_one: bool):
    """``row_for_words`` over uint64 arrays: (starts, pattern words), the
    words low first, each a uint64 array, the last one masked to L bits."""
    import numpy as np

    if retry:
        s = _remix_np(s, retry)
        lo = _remix_np(lo, retry)
    starts = _mulhi_np(s, n) + np.uint64(1)
    words = [lo] + [_remix_np(lo, _EXTRA + k) for k in range(1, (L + 63) >> 6)]
    if L & 63:
        words[-1] = words[-1] & np.uint64((1 << (L & 63)) - 1)
    if force_leading_one:
        words[0] = words[0] | np.uint64(1)
    return starts, words
