"""Sorted-band Gaussian elimination over GF(2).

Systems have one L-bit random block per row at a start column in [1, n];
sorting rows by start turns the matrix into a near-band matrix that a
forward elimination pass solves without ever creating a 1 outside a row's
original window. Failure (a row cancelling to zero) signals linear
dependence and is reported as a value, not an exception.

The solver works on start-sorted parallel lists of plain ints: starts,
patterns (bit j is column ``start + j``) and right-hand sides (bit t is
right-hand side t of the r simultaneous ones). ``BandRow``/``BandSystem``
are the hand-built input type of tests and analysis; ``sort_rows`` turns
one into the lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitkit import BitVec, Block, dot_window

DENSE_ORACLE_MAX_COLS = 64


@dataclass(slots=True)
class BandRow:
    start: int  # 1-based start column in [1, n]
    pattern: Block
    rhs: int = 0


@dataclass(slots=True)
class BandSystem:
    """m rows over columns [1, n+L-1], each a window of L bits at a start."""

    n: int
    L: int
    r: int
    rows: list[BandRow]

    def __post_init__(self) -> None:
        if self.n < 1 or self.L < 1 or self.r < 1:
            raise ValueError("n, L, r must all be >= 1")
        for row in self.rows:
            if not 1 <= row.start <= self.n:
                raise ValueError(f"row start {row.start} outside [1, {self.n}]")
            if row.pattern.length != self.L:
                raise ValueError("row pattern length differs from system L")
            if not 0 <= row.rhs < (1 << self.r):
                raise ValueError("rhs does not fit in r bits")

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return self.n + self.L - 1


@dataclass(slots=True)
class EliminationOutcome:
    """Forward-phase result, all in start-sorted row order: starts, pivots
    (0 marks the failed row), the transformed patterns and right-hand sides,
    the row-addition count, and optionally per-row coin transcripts.

    A transcript lists the bits of row i scanned at window columns that were
    not already pivots, in column order, cut right after the first 1; a row
    that cancelled to zero leaves a transcript of bare zeros.
    """

    starts: list[int]
    pivots: list[int]
    patterns: list[int]
    rhs: list[int]
    additions: int
    failed_row: int | None = None
    coin_transcripts: list[list[int]] | None = None

    @property
    def success(self) -> bool:
        return self.failed_row is None


def sort_rows(sys: BandSystem) -> tuple[list[int], list[int], list[int]]:
    """The rows as start-sorted parallel lists (starts, patterns, rhs);
    rows with equal starts keep their input order."""
    rows = sorted(sys.rows, key=lambda row: row.start)
    return (
        [row.start for row in rows],
        [row.pattern.bits for row in rows],
        [row.rhs for row in rows],
    )


def eliminate(
    starts: list[int], patterns: list[int], rhs: list[int], L: int, record_coins: bool = False
) -> EliminationOutcome:
    """Forward elimination on start-sorted rows, in place.

    Row i's pivot is the leftmost 1 in its current window; the row is then
    XORed into every later row that starts at or before the pivot and has a
    1 in the pivot column. Proliferation outside original windows cannot
    happen, so patterns stay L-bit ints throughout. ``patterns`` and
    ``rhs`` end up transformed and are the outcome's lists.
    """
    m = len(starts)
    pivots = [0] * m
    additions = 0
    failed_row: int | None = None
    transcripts: list[list[int]] | None = [] if record_coins else None
    is_pivot = bytearray(starts[-1] + L if starts else 0) if record_coins else None

    for i in range(m):
        w = patterns[i]
        s_i = starts[i]
        if record_coins:
            bits: list[int] = []
            piv = 0
            for off in range(L):
                col = s_i + off
                if is_pivot[col]:
                    continue
                bit = (w >> off) & 1
                bits.append(bit)
                if bit:
                    piv = col
                    break
            transcripts.append(bits)
            if piv == 0:
                failed_row = i
                break
            is_pivot[piv] = 1
        else:
            if w == 0:
                failed_row = i
                break
            piv = s_i + ((w & -w).bit_length() - 1)
        pivots[i] = piv

        rhs_i = rhs[i]
        i2 = i + 1
        while i2 < m:
            s2 = starts[i2]
            if s2 > piv:
                break
            if (patterns[i2] >> (piv - s2)) & 1:
                patterns[i2] ^= w >> (s2 - s_i)
                rhs[i2] ^= rhs_i
                additions += 1
            i2 += 1

    return EliminationOutcome(
        starts=starts,
        pivots=pivots,
        patterns=patterns,
        rhs=rhs,
        additions=additions,
        failed_row=failed_row,
        coin_transcripts=transcripts,
    )


def back_substitute(out: EliminationOutcome, n: int, L: int, r: int) -> list[BitVec]:
    """Solve for the r planes z from a successful elimination, last pivot
    first.

    Every non-pivot position stays 0; each pivot position gets the window
    dot of the already-filled suffix XOR the row's right-hand side.
    """
    if not out.success:
        raise ValueError("cannot back-substitute a failed elimination")
    width = n + L - 1
    planes = [BitVec(width) for _ in range(r)]
    for i in range(len(out.starts) - 1, -1, -1):
        offset = out.starts[i] - 1
        bits = out.patterns[i]
        rhs = out.rhs[i]
        for t in range(r):
            if dot_window(planes[t], offset, bits, L) ^ ((rhs >> t) & 1):
                planes[t].set_bit(out.pivots[i] - 1)
    return planes


def solve(
    n: int, L: int, r: int, starts: list[int], patterns: list[int], rhs: list[int]
) -> list[BitVec] | None:
    """Eliminate the start-sorted rows, then back-substitute: the r planes,
    or None when the rows are dependent. ``patterns`` and ``rhs`` are
    transformed in place."""
    out = eliminate(starts, patterns, rhs, L)
    if not out.success:
        return None
    return back_substitute(out, n, L, r)


def verify(original: BandSystem, planes: list[BitVec]) -> bool:
    """Check A*z = b for every row and bit-plane of the original system."""
    if len(planes) != original.r:
        raise ValueError("plane count does not match system r")
    width = original.num_cols
    for plane in planes:
        if plane.length != width:
            raise ValueError("plane length does not match system columns")
    for row in original.rows:
        offset = row.start - 1
        for t in range(original.r):
            if dot_window(planes[t], offset, row.pattern.bits, original.L) != ((row.rhs >> t) & 1):
                return False
    return True


def dense_rank_oracle(sys: BandSystem) -> int:
    """Rank of the densified matrix by textbook full Gaussian elimination.

    Deliberately independent of the band path: rows are expanded to full
    num_cols-bit ints and eliminated with column pivoting and row swaps.
    Desk-scale only (num_cols <= 64).
    """
    width = sys.num_cols
    if width > DENSE_ORACLE_MAX_COLS:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_MAX_COLS} columns")
    dense = [row.pattern.bits << (row.start - 1) for row in sys.rows]
    rank = 0
    for col in range(width):
        pivot_row = None
        for rr in range(rank, len(dense)):
            if (dense[rr] >> col) & 1:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        dense[rank], dense[pivot_row] = dense[pivot_row], dense[rank]
        for rr in range(len(dense)):
            if rr != rank and ((dense[rr] >> col) & 1):
                dense[rr] ^= dense[rank]
        rank += 1
        if rank == len(dense):
            break
    return rank
