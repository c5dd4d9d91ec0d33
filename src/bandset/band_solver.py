"""Sorted-band Gaussian elimination over GF(2).

Systems have one L-bit random block per row at a start column in [1, n];
sorting rows by start turns the matrix into a near-band matrix that a
forward elimination pass solves without ever creating a 1 outside a row's
original window. Failure (a row cancelling to zero) signals linear
dependence and is reported as a value, not an exception.

Patterns and right-hand sides are plain ints: bit j of ``pattern`` is
column ``start + j``, bit t of ``rhs`` is right-hand side t of the r
simultaneous ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitkit import BitVec, Block, _dot_raw, dot_window

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


@dataclass(slots=True)
class SolutionTable:
    """r bit-planes of length n+L-1 satisfying every row equation."""

    z: list[BitVec]
    pivots: list[int]


def sort_rows(sys: BandSystem) -> BandSystem:
    """Stable counting sort of the rows by start column, O(m + n)."""
    counts = [0] * (sys.n + 1)
    for row in sys.rows:
        counts[row.start] += 1
    pos = [0] * (sys.n + 1)
    total = 0
    for s in range(1, sys.n + 1):
        pos[s] = total
        total += counts[s]
    out: list[BandRow | None] = [None] * len(sys.rows)
    for row in sys.rows:
        out[pos[row.start]] = row
        pos[row.start] += 1
    return BandSystem(sys.n, sys.L, sys.r, out)  # type: ignore[arg-type]


def eliminate(sys: BandSystem, record_coins: bool = False) -> EliminationOutcome:
    """Forward elimination on the start-sorted system.

    Row i's pivot is the leftmost 1 in its current window; the row is then
    XORed into every later row that starts at or before the pivot and has a
    1 in the pivot column. Proliferation outside original windows cannot
    happen, so patterns stay L-bit ints throughout.
    """
    sorted_sys = sort_rows(sys)
    L = sys.L
    m = len(sorted_sys.rows)
    starts = [row.start for row in sorted_sys.rows]
    patts = [row.pattern.bits for row in sorted_sys.rows]
    rhss = [row.rhs for row in sorted_sys.rows]
    pivots = [0] * m
    additions = 0
    failed_row: int | None = None
    transcripts: list[list[int]] | None = [] if record_coins else None
    is_pivot = bytearray(sys.num_cols + 2) if record_coins else None

    for i in range(m):
        w = patts[i]
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

        patt_i = patts[i]
        rhs_i = rhss[i]
        i2 = i + 1
        while i2 < m:
            s2 = starts[i2]
            if s2 > piv:
                break
            if (patts[i2] >> (piv - s2)) & 1:
                patts[i2] ^= patt_i >> (s2 - s_i)
                rhss[i2] ^= rhs_i
                additions += 1
            i2 += 1

    return EliminationOutcome(
        starts=starts,
        pivots=pivots,
        patterns=patts,
        rhs=rhss,
        additions=additions,
        failed_row=failed_row,
        coin_transcripts=transcripts,
    )


def back_substitute(out: EliminationOutcome, n: int, L: int, r: int) -> SolutionTable:
    """Solve for z from a successful elimination, last pivot first.

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
            if _dot_raw(planes[t], offset, bits, L) ^ ((rhs >> t) & 1):
                planes[t].set_bit(out.pivots[i] - 1)
    return SolutionTable(z=planes, pivots=list(out.pivots))


def solve(sys: BandSystem) -> SolutionTable | None:
    """Sort, eliminate, back-substitute. None when the rows are dependent."""
    out = eliminate(sys)
    if not out.success:
        return None
    return back_substitute(out, sys.n, sys.L, sys.r)


def verify(original: BandSystem, table: SolutionTable) -> bool:
    """Check A*z = b for every row and bit-plane of the original system."""
    if len(table.z) != original.r:
        raise ValueError("plane count does not match system r")
    width = original.num_cols
    for plane in table.z:
        if plane.length != width:
            raise ValueError("plane length does not match system columns")
    for row in original.rows:
        offset = row.start - 1
        for t in range(original.r):
            if dot_window(table.z[t], offset, row.pattern) != ((row.rhs >> t) & 1):
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
