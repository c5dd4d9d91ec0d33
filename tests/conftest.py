"""Shared test helpers: naive reference oracles and instance generators.

The reference implementations here are deliberately bit-at-a-time and
independent of the word-packed production code paths they check.
"""

from __future__ import annotations

import random

from bandset.band_solver import BandRow, BandSystem, eliminate, solve, sort_rows
from bandset.bitkit import BitVec, Block


def naive_xor_window(dst_bits: list[int], offset: int, src_bits: list[int]) -> list[int]:
    out = list(dst_bits)
    for j, b in enumerate(src_bits):
        out[offset + j] ^= b
    return out


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


def random_band_system(
    rnd: random.Random, n: int, L: int, m: int, r: int = 1
) -> BandSystem:
    rows = []
    for _ in range(m):
        start = rnd.randint(1, n)
        bits = rnd.getrandbits(L)
        rhs = rnd.getrandbits(r)
        rows.append(BandRow(start, Block(bits, L), rhs))
    return BandSystem(n, L, r, rows)


def eliminate_system(sys_: BandSystem):
    """Forward elimination of a hand-built system, through sort_rows."""
    return eliminate(*sort_rows(sys_), sys_.L)


def solve_system(sys_: BandSystem):
    """The r planes solving a hand-built system, or None, through sort_rows."""
    return solve(sys_.n, sys_.L, sys_.r, *sort_rows(sys_))


def make_pairs(m: int, r: int = 1, tag: str = "key") -> list[tuple[bytes, int]]:
    """Distinct keys with deterministic r-bit values."""
    mask = (1 << r) - 1
    return [(f"{tag}:{i}".encode(), (i * 0x9E3779B9) & mask) for i in range(m)]
