"""Word-packed bit vectors and windowed block operations.

Bit order is LSB-first: bit ``j`` of a vector lives in bit ``j % 64`` of
word ``j // 64``. This makes an unaligned L-bit window extractable with a
single shift over at most ``ceil(L/64) + 1`` consecutive words. It serves
the reference solver and the tests; queries read the packed plane bytes.
"""

from __future__ import annotations

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


class BitVec:
    """Fixed-length bit vector stored as a list of 64-bit words.

    Bits at indices >= length are kept zero (canonical padding), so two
    vectors are equal iff their lengths and word lists are equal. Not
    internally synchronized: concurrent reads are fine, writers need
    external exclusion.
    """

    __slots__ = ("length", "words")

    def __init__(self, length: int, words: list[int] | None = None):
        if length < 0:
            raise ValueError("length must be >= 0")
        nwords = (length + WORD_BITS - 1) // WORD_BITS
        if words is None:
            words = [0] * nwords
        elif len(words) != nwords:
            raise ValueError("word count does not match length")
        self.length = length
        self.words = words

    def get_bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        return (self.words[i >> 6] >> (i & 63)) & 1

    def set_bit(self, i: int, value: int = 1) -> None:
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        if value:
            self.words[i >> 6] |= 1 << (i & 63)
        else:
            self.words[i >> 6] &= WORD_MASK ^ (1 << (i & 63))

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        return self.length == other.length and self.words == other.words

    def __repr__(self) -> str:
        shown = "".join(str(self.get_bit(i)) for i in range(min(self.length, 64)))
        suffix = "..." if self.length > 64 else ""
        return f"BitVec({self.length}, {shown!r}{suffix})"


def dot_window(z: BitVec, offset: int, bits: int, L: int) -> int:
    """Parity of AND between z's window [offset, offset+L) and the L-bit
    pattern ``bits``.

    Reads only the ceil(L/64)+1 (at most) consecutive words covering the
    window; parity comes from a popcount fold on the masked AND.
    """
    if offset < 0 or offset + L > z.length:
        raise ValueError("window out of range")
    shift = offset & 63
    wi = offset >> 6
    words = z.words
    acc = 0
    for k in range((shift + L + 63) >> 6):
        acc |= words[wi + k] << (k * WORD_BITS)
    window = (acc >> shift) & ((1 << L) - 1)
    return (window & bits).bit_count() & 1

