"""One band system per chunk: the per-chunk builder of the retrieval
structure, plus input normalization and the construction errors.

Construction hashes every key of a chunk to a row, solves the resulting
system, and keeps only the solution bit-planes plus the winning retry.
A structure with C >= m has one chunk and so solves one system over the
whole key set.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .band_solver import solve
from .bitkit import BitVec
from .row_gen import row_for_key

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
    items: list[tuple[bytes, int]], params: ChunkedParams, chunk: int
) -> tuple[int, int, list[BitVec]]:
    """Solve chunk ``chunk``: retry seeds until its band system solves.

    ``items`` are the chunk's (key, value) pairs, already normalized.
    Returns (winning retry, n, planes); each of the r planes is n + L - 1
    bits long. Raises RetriesExhausted naming the chunk when every retry
    produced a dependent system.
    """
    n = positions_for(len(items), params.epsilon)
    L, r, base_seed, lead = params.L, params.r, params.base_seed, params.force_leading_one
    for retry in range(params.max_retries):
        rows = []
        for key, value in items:
            start, bits = row_for_key(key, base_seed, retry, n, L, lead)
            rows.append((start, bits, key, value))
        # Canonical order (start, pattern, key): input permutations must not
        # change the solved table. Keys are distinct, so values never compare.
        rows.sort()
        planes = solve(n, L, r, [t[0] for t in rows], [t[1] for t in rows], [t[3] for t in rows])
        if planes is not None:
            return retry, n, planes
    raise RetriesExhausted(params.max_retries, chunk)
