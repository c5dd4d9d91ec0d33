import math
import random
import time

import pytest

from bandset.bitkit import BitVec, Block, CountingWords, dot_window, xor_window

from conftest import bits_of, bitvec_from_bits, naive_dot_window, naive_xor_window


def test_xor_window_basic_example():
    dst = BitVec(6)
    xor_window(dst, 2, bitvec_from_bits([1, 1, 1]))
    assert bits_of(dst) == [0, 0, 1, 1, 1, 0]


def test_xor_window_zero_block_is_identity():
    rnd = random.Random(1)
    bits = [rnd.getrandbits(1) for _ in range(40)]
    dst = bitvec_from_bits(bits)
    xor_window(dst, 7, BitVec(9))
    assert bits_of(dst) == bits


def test_xor_window_involution():
    rnd = random.Random(2)
    for _ in range(50):
        length = rnd.randint(1, 200)
        L = rnd.randint(1, length)
        offset = rnd.randint(0, length - L)
        bits = [rnd.getrandbits(1) for _ in range(length)]
        dst = bitvec_from_bits(bits)
        src = bitvec_from_bits([rnd.getrandbits(1) for _ in range(L)])
        xor_window(dst, offset, src)
        xor_window(dst, offset, src)
        assert bits_of(dst) == bits


def test_xor_window_matches_reference():
    rnd = random.Random(3)
    for _ in range(300):
        length = rnd.randint(1, 192)
        L = rnd.randint(1, length)
        offset = rnd.randint(0, length - L)
        bits = [rnd.getrandbits(1) for _ in range(length)]
        src_bits = [rnd.getrandbits(1) for _ in range(L)]
        dst = bitvec_from_bits(bits)
        xor_window(dst, offset, bitvec_from_bits(src_bits))
        assert bits_of(dst) == naive_xor_window(bits, offset, src_bits)


def test_xor_window_splice_matches_reference_at_word_edges():
    rnd = random.Random(7)
    cases = [(offset, length) for offset in (0, 1, 63, 64, 65) for length in (1, 63, 64, 65, 130)]
    cases += [(rnd.randint(0, 300), rnd.randint(1, 300)) for _ in range(100)]
    for offset, length in cases:
        for tail in (0, rnd.randint(1, 100)):  # tail 0: the window ends at the last bit
            bits = [rnd.getrandbits(1) for _ in range(offset + length + tail)]
            src_bits = [rnd.getrandbits(1) for _ in range(length)]
            dst = bitvec_from_bits(bits)
            xor_window(dst, offset, bitvec_from_bits(src_bits))
            assert bits_of(dst) == naive_xor_window(bits, offset, src_bits)


def _splice_seconds(src_bits: int) -> float:
    rnd = random.Random(src_bits)
    src = BitVec(src_bits, [rnd.getrandbits(64) for _ in range((src_bits + 63) // 64)])
    best = math.inf
    for _ in range(3):
        dst = BitVec(src_bits + 100)
        t0 = time.perf_counter()
        xor_window(dst, 37, src)
        best = min(best, time.perf_counter() - t0)
    return best


def test_xor_window_time_is_linear_in_source_bits():
    # 16x the bits: linear code takes ~16x the time, a big-int path > 100x
    assert _splice_seconds(1 << 22) < 40 * _splice_seconds(1 << 18)


def test_dot_window_examples():
    # window 101 vs pattern 110: AND = 100, parity 1
    assert dot_window(bitvec_from_bits([1, 0, 1]), 0, Block.from_string("110").bits, 3) == 1
    # all-zero pattern annihilates anything
    assert dot_window(bitvec_from_bits([1, 1, 1]), 0, 0, 3) == 0
    # 111 vs 111: popcount 3, parity 1
    assert dot_window(bitvec_from_bits([1, 1, 1]), 0, Block.from_string("111").bits, 3) == 1


def test_dot_window_matches_reference():
    rnd = random.Random(4)
    for _ in range(400):
        length = rnd.randint(1, 192)
        L = rnd.randint(1, length)
        offset = rnd.randint(0, length - L)
        bits = [rnd.getrandbits(1) for _ in range(length)]
        pattern_bits = [rnd.getrandbits(1) for _ in range(L)]
        z = bitvec_from_bits(bits)
        pattern = sum(b << i for i, b in enumerate(pattern_bits))
        assert dot_window(z, offset, pattern, L) == naive_dot_window(bits, offset, pattern_bits)


def test_out_of_range_windows_raise():
    z = BitVec(10)
    with pytest.raises(ValueError):
        dot_window(z, 8, 1, 3)
    with pytest.raises(ValueError):
        xor_window(z, -1, BitVec(3, [1]))
    with pytest.raises(ValueError):
        xor_window(z, 9, BitVec(2, [3]))


def test_word_access_counts_and_contiguity():
    rnd = random.Random(6)
    for _ in range(150):
        length = rnd.randint(64, 400)
        L = rnd.randint(1, min(length, 192))
        offset = rnd.randint(0, length - L)
        z = bitvec_from_bits([rnd.getrandbits(1) for _ in range(length)])
        z.words = CountingWords(z.words)
        budget = (L + 63) // 64 + 1

        dot_window(z, offset, rnd.getrandbits(L), L)
        reads = z.words.reads
        assert len(set(reads)) <= budget
        assert sorted(set(reads)) == list(range(min(reads), max(reads) + 1))
        assert not z.words.writes

        z.words.reset()
        xor_window(z, offset, bitvec_from_bits([rnd.getrandbits(1) for _ in range(L)]))
        touched = set(z.words.reads) | set(z.words.writes)
        assert len(touched) <= budget
        assert sorted(touched) == list(range(min(touched), max(touched) + 1))


def test_bitvec_words_and_padding():
    bv = BitVec(91, [0b1011, 1 << 26])
    assert [i for i in range(91) if bv.get_bit(i)] == [0, 1, 3, 90]
    assert bv == bitvec_from_bits(bits_of(bv))
    with pytest.raises(ValueError):
        BitVec(20, [0, 0])  # word count does not fit the length


def test_bitvec_set_clear():
    bv = BitVec(70)
    bv.set_bit(69)
    assert bv.get_bit(69) == 1
    bv.set_bit(69, 0)
    assert bv.words == [0, 0]
    with pytest.raises(IndexError):
        bv.get_bit(70)


def test_block_validation():
    with pytest.raises(ValueError):
        Block(0, 0)
    with pytest.raises(ValueError):
        Block(4, 2)  # bits exceed length
    assert Block.from_string("011").bits == 0b110
