import random

import pytest

from bandset.analysis_sim import heights_from_pivots
from bandset.band_solver import (
    BandRow,
    BandSystem,
    back_substitute,
    dense_rank_oracle,
    eliminate,
    solve,
    sort_rows,
    verify,
)
from bandset.bitkit import Block

from conftest import bits_of, random_band_system


def rows_from_starts(starts, n, tag_rhs=False):
    return BandSystem(
        n, 1, 1,
        [BandRow(s, Block(1, 1), (i & 1) if tag_rhs else 0) for i, s in enumerate(starts)],
    )


def test_sort_rows_permutation():
    sys_ = rows_from_starts([3, 1, 2], 3)
    assert [r.start for r in sort_rows(sys_).rows] == [1, 2, 3]


def test_sort_rows_identity_on_sorted():
    sys_ = rows_from_starts([1, 2, 3], 3)
    assert sort_rows(sys_).rows == sys_.rows


def test_sort_rows_stable_on_ties():
    a = BandRow(2, Block(1, 1), 0)
    b = BandRow(2, Block(1, 1), 1)
    c = BandRow(1, Block(1, 1), 0)
    sys_ = BandSystem(2, 1, 1, [a, b, c])
    assert sort_rows(sys_).rows == [c, a, b]


def test_eliminate_diagonal():
    sys_ = BandSystem(2, 1, 1, [BandRow(1, Block(1, 1), 1), BandRow(2, Block(1, 1), 0)])
    out = eliminate(sys_)
    assert out.success and out.pivots == [1, 2] and out.additions == 0


def test_eliminate_dependent_rows_fail():
    sys_ = BandSystem(2, 2, 1, [BandRow(1, Block(3, 2), 1), BandRow(1, Block(3, 2), 0)])
    out = eliminate(sys_)
    assert not out.success
    assert out.failed_row == 1
    assert out.additions == 1
    assert dense_rank_oracle(sys_) == 1


def test_eliminate_hand_case():
    sys_ = BandSystem(2, 2, 1, [BandRow(1, Block(1, 2), 1), BandRow(1, Block(3, 2), 1)])
    out = eliminate(sys_)
    assert out.pivots == [1, 2]
    assert out.additions == 1
    assert Block(out.patterns[1], 2).to_string() == "01"
    assert out.rhs[1] == 0


def test_eliminate_zero_pattern_row_fails():
    sys_ = BandSystem(4, 3, 1, [BandRow(2, Block(0, 3), 1)])
    out = eliminate(sys_)
    assert not out.success and out.pivots == [0]


def test_back_substitute_examples():
    diag = BandSystem(2, 1, 1, [BandRow(1, Block(1, 1), 1), BandRow(2, Block(1, 1), 0)])
    tab = back_substitute(eliminate(diag), 2, 1, 1)
    assert bits_of(tab.z[0]) == [1, 0]

    hand = BandSystem(2, 2, 1, [BandRow(1, Block(1, 2), 1), BandRow(1, Block(3, 2), 1)])
    tab2 = back_substitute(eliminate(hand), 2, 2, 1)
    assert bits_of(tab2.z[0]) == [1, 0, 0]
    assert verify(hand, tab2)


def test_back_substitute_homogeneous_is_zero():
    rnd = random.Random(11)
    sys_ = random_band_system(rnd, 30, 6, 20)
    for row in sys_.rows:
        row.rhs = 0
    tab = solve(sys_)
    if tab is not None:
        assert all(plane.to_int() == 0 for plane in tab.z)


def test_back_substitute_rejects_failure():
    sys_ = BandSystem(2, 2, 1, [BandRow(1, Block(3, 2), 1), BandRow(1, Block(3, 2), 0)])
    out = eliminate(sys_)
    with pytest.raises(ValueError):
        back_substitute(out, 2, 2, 1)


def test_solve_empty_system():
    sys_ = BandSystem(5, 4, 2, [])
    tab = solve(sys_)
    assert tab is not None
    assert len(tab.z) == 2 and tab.z[0].length == 8
    assert verify(sys_, tab)


def test_verify_flipped_pivot_bit_fails():
    rnd = random.Random(12)
    while True:
        sys_ = random_band_system(rnd, 20, 5, 15)
        tab = solve(sys_)
        if tab is not None:
            break
    assert verify(sys_, tab)
    piv = tab.pivots[0]
    tab.z[0].set_bit(piv - 1, 1 - tab.z[0].get_bit(piv - 1))
    assert not verify(sys_, tab)


def test_verify_dimension_mismatch():
    sys_ = BandSystem(5, 4, 2, [])
    tab = solve(BandSystem(5, 4, 1, []))
    with pytest.raises(ValueError):
        verify(sys_, tab)


def test_solve_agrees_with_rank_oracle():
    rnd = random.Random(13)
    successes = failures = 0
    for _ in range(1500):
        n = rnd.randint(2, 24)
        L = rnd.randint(1, 8)
        m = rnd.randint(1, n)
        sys_ = random_band_system(rnd, n, L, m)
        tab = solve(sys_)
        full_rank = dense_rank_oracle(sys_) == m
        assert (tab is not None) == full_rank
        if tab is not None:
            successes += 1
            assert verify(sys_, tab)
        else:
            failures += 1
    # the mix must actually exercise both branches
    assert successes > 100 and failures > 100


def test_pivot_bounds_and_no_proliferation():
    rnd = random.Random(14)
    checked = 0
    while checked < 60:
        sys_ = random_band_system(rnd, 40, 7, 30)
        out = eliminate(sys_)
        if not out.success:
            continue
        checked += 1
        assert len(set(out.pivots)) == len(out.pivots)
        for s, piv, bits in zip(out.starts, out.pivots, out.patterns):
            assert s <= piv <= s + sys_.L - 1
            # support stays inside the original window by representation,
            # plus everything below the pivot is eliminated
            assert bits < (1 << sys_.L)


def test_addition_bound_by_heights():
    rnd = random.Random(15)
    checked = 0
    while checked < 80:
        sys_ = random_band_system(rnd, 60, 8, 45)
        out = eliminate(sys_)
        if not out.success:
            continue
        checked += 1
        heights = heights_from_pivots(out.starts, out.pivots, sys_.num_cols)
        assert out.additions <= sum(heights)
        assert sum(heights) == sum(p - s for s, p in zip(out.starts, out.pivots))


def test_multi_rhs_matches_independent_planes():
    rnd = random.Random(16)
    solved = 0
    while solved < 25:
        sys_ = random_band_system(rnd, 30, 6, 22, r=3)
        tab = solve(sys_)
        if tab is None:
            continue
        solved += 1
        for t in range(3):
            single = BandSystem(
                sys_.n, sys_.L, 1,
                [BandRow(r.start, r.pattern, (r.rhs >> t) & 1) for r in sys_.rows],
            )
            tab1 = solve(single)
            assert tab1 is not None
            assert tab1.pivots == tab.pivots
            assert tab1.z[0] == tab.z[t]


def dense_forward_eliminate(sys_):
    """Independent replay on full-width rows: sort by start, pivot on the
    lowest set bit, add into any later row holding that bit. Returns the
    transformed dense rows or None on a zero row."""
    order = sorted(range(len(sys_.rows)), key=lambda i: sys_.rows[i].start)
    starts = [sys_.rows[i].start for i in order]
    dense = [sys_.rows[i].pattern.bits << (sys_.rows[i].start - 1) for i in order]
    for i in range(len(dense)):
        if dense[i] == 0:
            return None
        piv = (dense[i] & -dense[i]).bit_length()  # 1-based column
        for i2 in range(i + 1, len(dense)):
            if starts[i2] > piv:
                break
            if (dense[i2] >> (piv - 1)) & 1:
                dense[i2] ^= dense[i]
    return starts, dense


def test_eliminate_matches_dense_replay_and_stays_in_window():
    rnd = random.Random(18)
    compared = 0
    while compared < 120:
        sys_ = random_band_system(rnd, 24, 6, rnd.randint(1, 20))
        out = eliminate(sys_)
        replay = dense_forward_eliminate(sys_)
        assert out.success == (replay is not None)
        if replay is None:
            continue
        compared += 1
        starts, dense = replay
        for s, bits, full in zip(starts, out.patterns, dense):
            window_mask = ((1 << sys_.L) - 1) << (s - 1)
            assert full & ~window_mask == 0  # no spill outside the window
            assert bits << (s - 1) == full


def test_dense_rank_oracle_cases():
    ident = BandSystem(4, 1, 1, [BandRow(i, Block(1, 1), 0) for i in range(1, 5)])
    assert dense_rank_oracle(ident) == 4
    dup = BandSystem(4, 2, 1, [BandRow(2, Block(3, 2), 0), BandRow(2, Block(3, 2), 1)])
    assert dense_rank_oracle(dup) == 1
    with pytest.raises(ValueError):
        dense_rank_oracle(BandSystem(100, 8, 1, []))


def test_full_window_patterns_against_oracle():
    rnd = random.Random(17)
    agree_success = agree_failure = 0
    for _ in range(60):
        n, m, L = 20, 18, 20
        rows = [
            BandRow(rnd.randint(1, n), Block(rnd.getrandbits(L), L), rnd.getrandbits(1))
            for _ in range(m)
        ]
        sys_ = BandSystem(n, L, 1, rows)
        tab = solve(sys_)
        if dense_rank_oracle(sys_) == m:
            assert tab is not None
            agree_success += 1
        else:
            assert tab is None
            agree_failure += 1
    assert agree_success > 0
