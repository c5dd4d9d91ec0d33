"""One band system per chunk: the per-chunk builder of the retrieval
structure, plus input normalization and the construction errors.

Construction turns the digest words of a chunk's keys into rows, solves
the resulting system by pivot insertion (``solve``) straight into the
chunk's slice of the structure's bit-planes, and returns the winning
retry. A structure with C >= m has one chunk and so solves one system
over the whole key set. The paper's sorted elimination lives on in
``band_solver`` as the reference that the model checks and the
differential tests use; the build does not load it.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .row_gen import rows_for_words

if TYPE_CHECKING:
    from .retrieval_chunked import ChunkedParams


class ConstructError(Exception):
    """Construction could not produce a valid structure."""


class DuplicateKey(ConstructError):
    def __init__(self, key: bytes):
        super().__init__(f"duplicate key with conflicting values: {key!r}")
        self.key = key


class RetriesExhausted(ConstructError):
    def __init__(self, retries: int, chunk: int):
        super().__init__(f"construction failed after {retries} retries in chunk {chunk}")
        self.retries = retries
        self.chunk = chunk


def normalize_pairs(pairs, r: int) -> dict[bytes, int]:
    """Dedup (key, value) pairs; equal keys must agree on the value."""
    out: dict[bytes, int] = {}
    limit = 1 << r
    for key, value in pairs:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("keys must be byte strings")
        key = bytes(key)
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"value {value!r} is not an integer") from None
        if not 0 <= value < limit:
            raise ValueError(f"value {value} does not fit in {r} bits")
        old = out.get(key)
        if old is None:
            out[key] = value
        elif old != value:
            raise DuplicateKey(key)
    return out


def positions_for(m: int, epsilon: float) -> int:
    """Start-position count: ceil(m / (1 - eps)), floored at 1 so the empty
    structure still has a valid L-bit table."""
    if m == 0:
        return 1
    return math.ceil(m / (1.0 - epsilon))


# Trailing zeros of a byte; 8 for the zero byte.
_CTZ8 = [8] + [(i & -i).bit_length() - 1 for i in range(1, 256)]


def solve(
    n: int, L: int, starts: list[int], patterns: list[int], rhs: list[int],
    planes: list[bytearray], offset: int,
) -> bool:
    """Solve a band system into ``planes``; False when its rows are
    dependent.

    Rows are parallel int lists in any order: starts in [1, n], L-bit
    patterns (bit j is column start + j) and right-hand sides (bit t
    belongs to plane t). Each row is inserted on the fly: it walks to its
    lowest 1, and if a pivot row already sits in that column it XORs that
    row and its right-hand side in and walks on. A row that reaches 0 is
    dependent. Back-substitution then fills each plane from the highest
    pivot down, sliding one L-bit window int.

    ``planes`` holds one byte per bit; column s of plane t is
    ``planes[t][offset + s - 1]``. The n + L - 1 bytes from ``offset`` on
    must be zero on entry: only 1 bits are written, so non-pivot columns
    stay 0. Nothing is written unless every row was inserted.

    Row order cannot change the result. The pivot columns of any echelon
    basis are the columns where some vector of the row space has its
    lowest 1, a property of the row space alone; the paper's sorted
    elimination (``band_solver``) reaches the same set. A full-rank system
    has exactly one solution that is 0 off those columns. So every order
    gives the same planes, and the same verdict: some row reaches 0 iff
    the rank is below the row count.
    """
    width = n + L - 1
    pivot_rows = [0] * (width + 1)  # by column; bit 0 of a row is its pivot
    pivot_rhs = [0] * (width + 1)
    ctz = _CTZ8
    for s, c, b in zip(starts, patterns, rhs):
        while True:
            # walk to the lowest 1, at most 8 columns per step
            t = ctz[c & 255]
            s += t
            c >>= t
            if c & 1:
                p = pivot_rows[s]
                if not p:
                    pivot_rows[s] = c
                    pivot_rhs[s] = b
                    break
                c ^= p
                b ^= pivot_rhs[s]
            elif not c:
                return False

    pivots = [s for s in range(width, 0, -1) if pivot_rows[s]]
    mask = (1 << L) - 1
    base = offset - 1
    for t, z in enumerate(planes):
        window = 0  # bit j is column s + j
        prev = width
        for s in pivots:
            window = (window << (prev - s)) & mask
            prev = s
            if ((window & pivot_rows[s]).bit_count() ^ (pivot_rhs[s] >> t)) & 1:
                window |= 1
                z[base + s] = 1
    return True


def construct_flat(
    s, lo, values, params: ChunkedParams, planes: list[bytearray], offset: int, chunk: int
) -> int:
    """Solve chunk ``chunk`` into ``planes`` from bit ``offset`` on: retry
    seeds until its band system solves, and return the winning retry.

    ``s``, ``lo`` and ``values`` are the chunk's start words, low digest
    words (uint64 arrays, see ``row_gen``) and values (an array), one entry
    per key. ``planes`` are the structure's r one-byte-per-bit planes (see
    ``solve``); the chunk's n + L - 1 columns must be zero on entry. Raises
    ConstructError naming the chunk when two of its keys share one digest,
    and RetriesExhausted naming it when every retry produced a dependent
    system.
    """
    import numpy as np

    n = positions_for(len(s), params.epsilon)
    L, lead = params.L, params.force_leading_one
    for retry in range(params.max_retries):
        starts, words = rows_for_words(s, lo, retry, n, L, lead)
        # The planes do not depend on row order; start order keeps each
        # insertion walk short.
        order = np.argsort(starts, kind="stable")
        patterns = words[0][order].tolist()
        for k in range(1, len(words)):
            patterns = [p | w << (64 * k) for p, w in zip(patterns, words[k][order].tolist())]
        if solve(n, L, starts[order].tolist(), patterns, values[order].tolist(), planes, offset):
            return retry
        if retry == 0:
            # Keys with one digest get one row at every retry.
            by_digest = np.lexsort((lo, s))
            s_o, lo_o = s[by_digest], lo[by_digest]
            if np.any((s_o[1:] == s_o[:-1]) & (lo_o[1:] == lo_o[:-1])):
                raise ConstructError(f"two keys share one digest in chunk {chunk}; "
                                     "build with another base seed")
    raise RetriesExhausted(params.max_retries, chunk)
