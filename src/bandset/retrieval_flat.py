"""One band system per chunk: the per-chunk builder of the retrieval
structure, plus input normalization and the construction errors.

Construction turns the digest words of a chunk's keys into rows, solves
the resulting system, and keeps only the solution bit-planes plus the
winning retry. A structure with C >= m has one chunk and so solves one
system over the whole key set.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .band_solver import solve
from .bitkit import BitVec
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


def construct_flat(
    s, lo, values, params: ChunkedParams, chunk: int
) -> tuple[int, int, list[BitVec]]:
    """Solve chunk ``chunk``: retry seeds until its band system solves.

    ``s``, ``lo`` and ``values`` are the chunk's start words, low digest
    words (uint64 arrays, see ``row_gen``) and values (an array), one entry
    per key. Returns (winning retry, n, planes); each of the r planes is
    n + L - 1 bits long. Raises ConstructError naming the chunk when two of
    its keys share one digest, and RetriesExhausted naming it when every
    retry produced a dependent system.
    """
    import numpy as np

    n = positions_for(len(s), params.epsilon)
    L, r, lead = params.L, params.r, params.force_leading_one
    for retry in range(params.max_retries):
        starts, words = rows_for_words(s, lo, retry, n, L, lead)
        # Canonical order (start, pattern, digest): input permutations must
        # not change the solved table. lexsort's last key is the primary one.
        order = np.lexsort((lo, s, *words, starts))
        patterns = words[0][order].tolist()
        for k in range(1, len(words)):
            patterns = [p | w << (64 * k) for p, w in zip(patterns, words[k][order].tolist())]
        planes = solve(n, L, r, starts[order].tolist(), patterns, values[order].tolist())
        if planes is not None:
            return retry, n, planes
        if retry == 0:
            # Keys with one digest get one row at every retry; equal digests
            # end up adjacent in the canonical order.
            s_o, lo_o = s[order], lo[order]
            if np.any((s_o[1:] == s_o[:-1]) & (lo_o[1:] == lo_o[:-1])):
                raise ConstructError(f"two keys share one digest in chunk {chunk}; "
                                     "build with another base seed")
    raise RetriesExhausted(params.max_retries, chunk)
