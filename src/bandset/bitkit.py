"""Word-packed bit vectors and windowed block operations.

Bit order is LSB-first: bit ``j`` of a vector lives in bit ``j % 64`` of
word ``j // 64``. This makes an unaligned L-bit window extractable with a
single shift over at most ``ceil(L/64) + 1`` consecutive words, which is
the access pattern everything above this module relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


@dataclass(slots=True)
class Block:
    """A packed run of exactly ``length`` bits (canonical: no padding junk)."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("block length must be >= 1")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError("block bits exceed declared length")

    @classmethod
    def from_string(cls, s: str) -> "Block":
        """Parse an index-order bit string ('011' means bit 1 and bit 2 set)."""
        if not s or any(c not in "01" for c in s):
            raise ValueError("bit string must be non-empty and contain only 0/1")
        bits = 0
        for i, c in enumerate(s):
            if c == "1":
                bits |= 1 << i
        return cls(bits, len(s))

    def to_string(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))


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

    def copy(self) -> "BitVec":
        return BitVec(self.length, list(self.words))

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


def xor_window(dst: BitVec, offset: int, src: BitVec) -> None:
    """XOR ``src`` into dst bits [offset, offset + src.length); rest untouched.

    Word by word: source word k lands on destination words wi + k and
    wi + k + 1, so the cost is linear in ``src.length``. The second word is
    touched only when bits land there, which keeps every write inside the
    window (``src`` has zero padding).
    """
    if offset < 0 or offset + src.length > dst.length:
        raise ValueError("window out of range")
    shift = offset & 63
    wi = offset >> 6
    words = dst.words
    back = WORD_BITS - shift
    for k, w in enumerate(src.words):
        words[wi + k] ^= (w << shift) & WORD_MASK
        high = w >> back
        if high:
            words[wi + k + 1] ^= high


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


class CountingWords(list):
    """Drop-in word list that records every index read and written.

    Swap it in for ``BitVec.words`` (or any plain word list) to verify the
    contiguous-access contracts: ``reads``/``writes`` accumulate indices in
    access order.
    """

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.reads: list[int] = []
        self.writes: list[int] = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)

    def __setitem__(self, i, value):
        self.writes.append(i)
        super().__setitem__(i, value)

    def reset(self) -> None:
        self.reads.clear()
        self.writes.clear()
