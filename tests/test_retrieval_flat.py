"""The build's pivot-insertion solver (``retrieval_flat.solve``) against the
sorted-elimination reference (``band_solver.solve``), and its independence
of row order."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandset import band_solver
from bandset.band_solver import DENSE_ORACLE_MAX_COLS, dense_rank_oracle, verify
from bandset.bitkit import BitVec
from bandset.retrieval_flat import solve

from conftest import bits_of


def random_rows(rnd: random.Random, n: int, L: int, r: int) -> list[tuple[int, int, int]]:
    """Start-sorted (start, pattern, rhs) rows at a random load, with start
    ties, and in some systems zero patterns and duplicate rows."""
    m = rnd.randint(0, n + 2)
    defects = rnd.choice([0.0, 0.0, 0.03, 0.2])
    rows = []
    for _ in range(m):
        roll = rnd.random()
        if rows and roll < defects / 2:
            rows.append(rnd.choice(rows))
        elif roll < defects:
            rows.append((rnd.randint(1, n), 0, rnd.getrandbits(r)))
        else:
            rows.append((rnd.randint(1, n), rnd.getrandbits(L), rnd.getrandbits(r)))
    rows.sort(key=lambda row: row[0])
    return rows


def columns(rows) -> tuple[list[int], list[int], list[int]]:
    """Starts, patterns and right-hand sides of (start, pattern, rhs) rows."""
    return [s for s, _, _ in rows], [p for _, p, _ in rows], [b for _, _, b in rows]


def solve_rows(n: int, L: int, r: int, rows) -> list[BitVec] | None:
    """``solve`` into fresh one-byte-per-bit buffers, packed into the r
    BitVec planes that ``band_solver.solve`` returns; None when dependent."""
    width = n + L - 1
    planes = [bytearray((width + 63) & ~63) for _ in range(r)]
    if not solve(n, L, *columns(rows), planes, 0):
        return None
    return [BitVec(width, np.packbits(z, bitorder="little").view("<u8").tolist())
            for z in planes]


def reference_rows(n: int, L: int, r: int, rows) -> list[BitVec] | None:
    return band_solver.solve(n, L, r, *columns(rows))


@pytest.mark.parametrize("r", [1, 3, 8, 65])
@pytest.mark.parametrize("L", [1, 2, 63, 64, 65, 80, 130])
def test_solve_matches_sorted_elimination(L, r):
    rnd = random.Random(1000 * L + r)
    solved = failed = 0
    for _ in range(100):
        n = rnd.randint(1, 40)
        rows = random_rows(rnd, n, L, r)
        want = reference_rows(n, L, r, rows)
        got = solve_rows(n, L, r, rows)
        if want is None:
            assert got is None
            failed += 1
        else:
            assert got == want
            solved += 1
    assert solved >= 5 and failed >= 5


@pytest.mark.parametrize("L,r", [(1, 1), (8, 2), (64, 1), (80, 3), (130, 8)])
def test_row_order_does_not_change_the_planes(L, r):
    rnd = random.Random(L * r)
    solved = 0
    for _ in range(100):
        n = rnd.randint(1, 40)
        rows = random_rows(rnd, n, L, r)
        want = solve_rows(n, L, r, rows)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert solve_rows(n, L, r, shuffled) == want
        assert solve_rows(n, L, r, rows[::-1]) == want
        solved += want is not None
    assert solved >= 10


@pytest.mark.parametrize("L,r", [(1, 1), (8, 2), (64, 1), (65, 3), (130, 2)])
def test_solve_writes_only_its_slice(L, r):
    # buffers full of random bytes around the slice: a dependent system
    # changes no byte, even inside it; a solvable one, given a zero slice,
    # changes bytes only inside it, to the reference planes' bits
    rnd = random.Random(7 * L + r)
    solved = failed = 0
    for _ in range(100):
        n = rnd.randint(1, 40)
        rows = random_rows(rnd, n, L, r)
        width = n + L - 1
        offset = rnd.randint(1, 100)
        end = offset + width
        size = end + rnd.randint(0, 100)
        before = [bytearray(rnd.randbytes(size)) for _ in range(r)]
        want = reference_rows(n, L, r, rows)
        if want is not None:
            for z in before:
                z[offset:end] = bytes(width)
        planes = [bytearray(z) for z in before]
        assert solve(n, L, *columns(rows), planes, offset) == (want is not None)
        if want is None:
            assert planes == before
            failed += 1
            continue
        for z, old, plane in zip(planes, before, want):
            assert z[:offset] == old[:offset] and z[end:] == old[end:]
            assert list(z[offset:end]) == bits_of(plane)
        solved += 1
    assert solved >= 10 and failed >= 5


def test_solve_leaves_its_inputs_alone():
    rnd = random.Random(5)
    rows = random_rows(rnd, 30, 16, 2)
    starts, patterns, rhs = columns(rows)
    copies = (list(starts), list(patterns), list(rhs))
    solve(30, 16, starts, patterns, rhs, [bytearray(45), bytearray(45)], 0)
    assert (starts, patterns, rhs) == copies


@st.composite
def _small_systems(draw):
    L = draw(st.integers(1, 16))
    n = draw(st.integers(1, DENSE_ORACLE_MAX_COLS - L + 1))
    rows = draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, (1 << L) - 1),
                                   st.integers(0, 1)), max_size=n + 2))
    return n, L, rows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_small_systems())
def test_solve_fails_exactly_below_full_rank(system):
    # the rows in the order drawn, unsorted
    n, L, rows = system
    starts, patterns, rhs = columns(rows)
    planes = solve_rows(n, L, 1, rows)
    full_rank = dense_rank_oracle(n, L, starts, patterns) == len(rows)
    assert (planes is not None) == full_rank
    if planes is not None:
        assert verify(n, L, starts, patterns, rhs, planes)
