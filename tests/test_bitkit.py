import random

import pytest

from bandset.bitkit import BitVec, dot_window

from conftest import CountingWords, bits_of, bitvec_from_bits, naive_dot_window


def test_dot_window_examples():
    # window 101 vs pattern 110 (bits in index order): AND = 100, parity 1
    assert dot_window(bitvec_from_bits([1, 0, 1]), 0, 0b011, 3) == 1
    # all-zero pattern annihilates anything
    assert dot_window(bitvec_from_bits([1, 1, 1]), 0, 0, 3) == 0
    # 111 vs 111: popcount 3, parity 1
    assert dot_window(bitvec_from_bits([1, 1, 1]), 0, 0b111, 3) == 1


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

