"""Sorted-band Gaussian elimination over GF(2): the paper-faithful
reference solver.

Systems have one L-bit random block per row at a start column in [1, n];
sorting rows by start turns the matrix into a near-band matrix that a
forward elimination pass solves without ever creating a 1 outside a row's
original window. Failure (a row cancelling to zero) signals linear
dependence and is reported as a value, not an exception.

Builds do not use this module: they solve by pivot insertion
(``retrieval_flat.solve``), which gives the same planes and the same
failures. The elimination here exposes the paper's quantities (pivots,
row additions) that ``analysis_sim`` and the acceptance criteria check,
and it is the reference the insertion solver is tested against.

Rows are start-sorted parallel lists of plain ints: starts in [1, n],
L-bit patterns (bit j is column ``start + j``) and right-hand sides (bit t
is right-hand side t of the r simultaneous ones). The solver and
``verify`` both take this one form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitkit import BitVec, dot_window


@dataclass(slots=True)
class EliminationOutcome:
    """Forward-phase result, all in start-sorted row order: starts, pivots
    (0 marks the failed row), the transformed patterns and right-hand sides,
    and the row-addition count."""

    starts: list[int]
    pivots: list[int]
    patterns: list[int]
    rhs: list[int]
    additions: int
    failed_row: int | None = None

    @property
    def success(self) -> bool:
        return self.failed_row is None


def eliminate(starts: list[int], patterns: list[int], rhs: list[int], L: int) -> EliminationOutcome:
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

    for i in range(m):
        w = patterns[i]
        if w == 0:
            failed_row = i
            break
        s_i = starts[i]
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
    )


def back_substitute(out: EliminationOutcome, n: int, L: int, r: int) -> list[BitVec]:
    """Solve for the r planes z from a successful elimination, last pivot
    first.

    Every non-pivot position stays 0; each pivot position gets the window
    dot of the already-filled suffix XOR the row's right-hand side. Each
    plane's window [start - 1, start - 1 + L) is kept as an L-bit int that
    slides down as the start decreases: the bits it shifts in are still 0,
    because every pivot so far lies at or above its row's start.
    """
    if not out.success:
        raise ValueError("cannot back-substitute a failed elimination")
    width = n + L - 1
    planes = [BitVec(width) for _ in range(r)]
    words = [plane.words for plane in planes]
    windows = [0] * r
    mask = (1 << L) - 1
    offset = width
    starts, pivots, patterns, rhs = out.starts, out.pivots, out.patterns, out.rhs
    for i in range(len(starts) - 1, -1, -1):
        shift = offset - starts[i] + 1
        offset -= shift
        bits = patterns[i]
        rhs_i = rhs[i]
        p = pivots[i] - 1
        for t in range(r):
            w = (windows[t] << shift) & mask
            if ((w & bits).bit_count() ^ (rhs_i >> t)) & 1:
                w |= 1 << (p - offset)
                words[t][p >> 6] |= 1 << (p & 63)
            windows[t] = w
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


def verify(
    n: int, L: int, starts: list[int], patterns: list[int], rhs: list[int], planes: list[BitVec]
) -> bool:
    """Check A*z = b for every row and bit-plane. There is one plane per
    right-hand side, so every rhs must fit in ``len(planes)`` bits."""
    if not planes or max(rhs, default=0) >> len(planes):
        raise ValueError("plane count does not match system r")
    width = n + L - 1
    for plane in planes:
        if plane.length != width:
            raise ValueError("plane length does not match system columns")
    for start, bits, value in zip(starts, patterns, rhs):
        offset = start - 1
        for t, plane in enumerate(planes):
            if dot_window(plane, offset, bits, L) != ((value >> t) & 1):
                return False
    return True
