"""Seeded hashing of keys to chunks and band rows.

Each key gets one seeded 128-bit hash, its digest: two 64-bit words ``hi``
and ``lo`` (the digest read as a little-endian int is ``hi << 64 | lo``).
The hash is a multiply-fold hash in the style of wyhash and XXH3, not
bit-compatible with either. Two 64-bit lanes take in the key 16 bytes at a
time (the last stripe zero-padded, the empty key one zero stripe): each
stripe is XORed into the lanes, and each lane becomes the XOR of the two
halves of a 64x64->128 product of both. The 64-bit base seed enters the
first multiply and the key length the final mix, which turns the lanes
into ``hi`` and ``lo``. The seed is stored in the file header, so the hash
guards no secret; the paper's analysis needs only values that behave as
uniform and independent on the key set, which a seeded statistical test
checks. Everything else is cheap arithmetic on ``hi`` and ``lo``, so
replaying the same (key, base seed) reproduces the same chunk and rows
bit-exact everywhere:

* ``hi * num_chunks`` is split at bit 64: the high part is the chunk, the
  low 64 bits are the start word ``s``, the bits of ``hi`` the chunk choice
  left over;
* retry t >= 1 remixes both ``s`` and ``lo`` with ``_remix(x, t)`` (the
  "hash once, re-seed by remixing" scheme of Ribbon, Dillinger & Walzer
  2021); retry 0 uses them as they are;
* the start is ``1 + mulhi(s, n)``, the pattern's low 64 bits are ``lo``,
  and pattern word k >= 1 (for L > 64) is ``_remix(lo, _EXTRA + k)``.

These scalar functions are the one Python copy of the row formula: the
pure-Python query runs them, and so does the pure-Python branch of
``retrieval_flat.solve``, which derives every row of a build from its
digest words. The only array work here is ``chunk_bounds``, the
partition of the build's reference path, which runs once over the sorted
``hi`` words where the native ``order_rows`` does not (see
``construct_chunked``). A build hashes its keys in ``digest_pairs``, the
one pass over its input that also checks every pair and keeps its value;
its input is a list of pairs or a ``PackedPairs``, the keys and values
of one buffer, which ``bandset build`` reads. Where the native module
loaded (see ``retrieval_flat``), its C twins of the hash, of that pass
and of the row formula (one helper that its solve and its query share)
run instead, while ``key_digest`` stays the fallback and the reference
the tests check the C hash against.
"""

from __future__ import annotations

import operator
import struct

MASK64 = (1 << 64) - 1

# The retry remix: x -> ((x ^ t*_K1) * _K2) mod 2^64, then x ^= x >> 31.
_K1 = 0x9E3779B97F4A7C15
_K2 = 0xBF58476D1CE4E5B9
# Remix tags of the extra pattern words; retries stay below 2^16.
_EXTRA = 1 << 16
# The key hash's constants: odd words with 32 of 64 bits set (wyhash's
# default secret).
_P0 = 0xA0761D6478BD642F
_P1 = 0xE7037ED1A0B428DB
_P2 = 0x8EBC6AF09C88C6E3
_P3 = 0x589965CC75374CC3


def key_digest(key: bytes, base_seed: int) -> tuple[int, int]:
    """The key's one hash: its (hi, lo) 64-bit digest words. The same
    function as the native module's hash, one product fold at a time."""
    view = memoryview(key)  # TypeError unless key is bytes-like
    if not view.c_contiguous:  # as the native hash's buffer request
        raise BufferError("memoryview: underlying buffer is not C-contiguous")
    data = view.tobytes()
    n = len(data)
    data += bytes(-n % 16 if n else 16)  # zero-pad to whole stripes, at least one
    words = struct.unpack_from(f"<{len(data) >> 3}Q", data)
    a = base_seed ^ _P0
    p = (base_seed ^ _P1) * _P2
    b = (p ^ p >> 64) & MASK64
    stripes = iter(words)
    for w0, w1 in zip(stripes, stripes):
        x, y = w0 ^ a, w1 ^ b
        p = (x ^ _P0) * (y ^ _P1)
        a = (p ^ p >> 64) & MASK64
        p = (x ^ _P2) * (y ^ _P3)
        b = (p ^ p >> 64) & MASK64
    b ^= n
    p = (a ^ _P1) * (b ^ _P2)
    q = (a ^ _P3) * (b ^ _P0)
    return (p ^ p >> 64) & MASK64, (q ^ q >> 64) & MASK64


class PackedPairs:
    """(key, value) pairs held as one buffer: ``len``, indexing and
    iteration give ``(data[start:end], value)``. ``data`` is the bytes the
    keys lie in, ``bounds`` an int64 array of shape (m, 2), each row a key's
    ``(start, end)`` in ``data``, and ``values`` a uint64 array of m
    values. A build of them hashes each key where it lies (see
    ``digest_pairs``) and makes no Python object per key."""

    __slots__ = ("data", "bounds", "values")

    def __init__(self, data, bounds, values):
        self.data, self.bounds, self.values = data, bounds, values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> tuple[bytes, int]:
        start, end = self.bounds[i].tolist()
        return self.data[start:end], int(self.values[i])

    def __iter__(self):
        data = self.data
        for (start, end), value in zip(self.bounds.tolist(), self.values.tolist()):
            yield data[start:end], value


def digest_pairs(pairs, base_seed: int, r: int):
    """A build's one pass over its (key, value) pairs: unpack each as
    ``for key, value in pairs`` does, check it, hash its key once and keep
    its value. Returns ``(digests, values, items)``: the 16-byte digests
    concatenated in input order (``lo``, then ``hi``, little-endian), the
    values as a numpy array (uint64, or object ints for r > 64), and the
    pairs as a list, tuple or ``PackedPairs``, which the caller reads again
    only for repeated digests; a pair that is not an exact tuple or list
    (it may read only once) is kept there as the (key, value) it gave.
    Repeated keys are kept; ``construct_chunked`` finds them by sorting the
    digests.

    Raises TypeError for a key that is not bytes or bytearray or a value
    that is not an integer, and ValueError for a value outside [0, 2^r),
    both for the first bad pair in input order. Where the native module
    loaded and r <= 64, its C pass runs: over a ``PackedPairs``,
    ``digest_packed`` hashes each key where it lies in the buffer, after
    one numpy comparison checks every value against r; over a list or
    tuple, ``digest_pairs`` takes the pairs when all are exact 2-tuples or
    2-lists that pass these checks, and at the first other pair it gives
    up, and the Python loop below runs over the same items and raises the
    error or takes the pair. Without the native module the Python loop
    iterates a ``PackedPairs`` as pairs.
    """
    import numpy as np

    from .retrieval_flat import _kernel

    native = _kernel()
    if native is not None and r <= 64 and type(pairs) is PackedPairs:
        wide = np.flatnonzero(pairs.values >> np.uint64(r)) if r < 64 else ()
        if len(wide):
            raise ValueError(f"value {int(pairs.values[wide[0]])} does not fit in {r} bits")
        return native.digest_packed(pairs.data, pairs.bounds, base_seed), pairs.values, pairs
    items = pairs if type(pairs) in (list, tuple) else list(pairs)
    if native is not None and r <= 64:
        done = native.digest_pairs(items, base_seed, r)
        if done is not None:
            return done[0], np.frombuffer(done[1], np.uint64), items
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
        hi, lo = key_digest(key, base_seed)
        digests += struct.pack("<QQ", lo, hi)
        values.append(value)
    return digests, np.array(values, np.uint64 if r <= 64 else object), items


def _remix(x: int, t: int) -> int:
    x = ((x ^ ((t * _K1) & MASK64)) * _K2) & MASK64
    return x ^ (x >> 31)


def chunk_and_word(hi: int, num_chunks: int) -> tuple[int, int]:
    """The key's chunk in [0, num_chunks) and its start word."""
    x = hi * num_chunks
    return x >> 64, x & MASK64


def chunk_bounds(hi, num_chunks: int):
    """``chunk_and_word`` over an ascending uint64 array ``hi``: the chunk
    bounds, a list of num_chunks + 1 indices (chunk c is
    ``hi[bounds[c]:bounds[c + 1]]``), and the start words as a uint64
    array. A key is in chunk c or later iff hi >= ceil(c * 2^64 /
    num_chunks), so one binary search per chunk finds the bounds; the
    start words are the low 64 bits of hi * num_chunks, numpy's wrapping
    multiply."""
    import numpy as np

    firsts = np.array([-(-(c << 64) // num_chunks) for c in range(num_chunks)], np.uint64)
    return [*np.searchsorted(hi, firsts).tolist(), len(hi)], hi * np.uint64(num_chunks)


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
