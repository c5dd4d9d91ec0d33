"""The key hash's quality, as a correctness gate: the paper's bounds hold
for hash values that behave as uniform and independent on the key set.

Structured key families are where weak hashes fail, so each family is
checked for balanced chunk loads, uniform start words and balanced ``lo``
bits, and random keys for avalanche. Every input is seeded, so each run
hashes the same keys. The thresholds were fixed before the first run:
every statistical check must reach p > 1e-6 (scipy), and every avalanche
frequency must lie in [0.4, 0.6].
"""

import random

import numpy as np
import pytest
from scipy import stats

from bandset.row_gen import chunk_bounds, digest_pairs

SEED = 0x5EED_0F_C0DE
P_MIN = 1e-6
AVALANCHE_BAND = (0.4, 0.6)
CHUNKS = 100


def _flips(key: bytes) -> list[bytes]:
    out = []
    for bit in range(8 * len(key)):
        flipped = bytearray(key)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        out.append(bytes(flipped))
    return out


FAMILIES = {
    "decimal counters": lambda: [b"%d" % i for i in range(20_000)],
    "8-byte LE counters": lambda: [i.to_bytes(8, "little") for i in range(20_000)],
    "200-byte prefix + counter": lambda: [b"p" * 200 + b"%d" % i for i in range(20_000)],
    "one-bit flips": lambda: _flips(random.Random(SEED).randbytes(256)),
    "lengths 0-300": lambda: [b""] + [bytes([fill]) * n for fill in range(0, 256, 16)
                                      for n in range(1, 301)],
}


def _digests(keys: list[bytes]):
    """(hi, lo) uint64 arrays of the keys, on whichever backend runs; the
    differential tests show that both give the same words."""
    digests, _, _ = digest_pairs([(key, 0) for key in keys], SEED, 1)
    words = np.frombuffer(digests, "<u8").reshape(-1, 2)
    return words[:, 1], words[:, 0]


@pytest.fixture(scope="module", params=list(FAMILIES))
def family(request):
    keys = FAMILIES[request.param]()
    assert len(set(keys)) == len(keys)
    return _digests(keys)


def test_no_digest_repeats(family):
    hi, lo = family
    assert len(np.unique(hi)) == len(hi)
    assert len(np.unique(lo)) == len(lo)


def test_chunk_loads_are_uniform(family):
    bounds, _ = chunk_bounds(np.sort(family[0]), CHUNKS)
    counts = np.diff(bounds)
    assert stats.chisquare(counts).pvalue > P_MIN


def test_start_word_top_bits_are_uniform(family):
    # the start is 1 + mulhi(s, n): the top bits of s pick it
    _, s = chunk_bounds(np.sort(family[0]), CHUNKS)
    counts = np.bincount((s >> np.uint64(58)).astype(np.int64), minlength=64)
    assert stats.chisquare(counts).pvalue > P_MIN


def test_lo_bits_are_balanced(family):
    lo = family[1]
    for j in range(64):
        ones = int(np.count_nonzero(lo & np.uint64(1 << j)))
        assert stats.binomtest(ones, len(lo)).pvalue > P_MIN, f"lo bit {j}: {ones} of {len(lo)}"


@pytest.mark.parametrize("length", [7, 16, 24])
def test_avalanche(length):
    # one random key per row; each of its bits flipped in turn must flip
    # each of the 128 output bits in 40-60% of the rows
    rnd = random.Random(SEED + length)
    rows = 1_000
    keys = [rnd.randbytes(length) for _ in range(rows)]
    base_hi, base_lo = _digests(keys)
    flips = _digests([f for key in keys for f in _flips(key)])
    bits = 8 * length
    # output bit j of row i, input bit k: the 128-bit change as two words
    d_hi = flips[0].reshape(rows, bits) ^ base_hi[:, None]
    d_lo = flips[1].reshape(rows, bits) ^ base_lo[:, None]
    for name, delta in (("hi", d_hi), ("lo", d_lo)):
        for j in range(64):
            freq = np.count_nonzero(delta & np.uint64(1 << j), axis=0) / rows
            low, high = AVALANCHE_BAND
            worst = int(np.argmax(np.abs(freq - 0.5)))
            assert low <= freq.min() and freq.max() <= high, (
                f"input bit {worst} flips {name} bit {j} with frequency {freq[worst]}")
