import random

import pytest

from bandset.analysis_sim import heights_from_pivots
from bandset.band_solver import back_substitute, eliminate, solve, verify

from conftest import (
    bits_of,
    dense_rank_oracle,
    eliminate_system,
    random_band_system,
    reference_back_substitute,
    solve_system,
    verify_system,
)


def test_eliminate_diagonal():
    out = eliminate([1, 2], [1, 1], [1, 0], 1)
    assert out.success and out.pivots == [1, 2] and out.additions == 0


def test_eliminate_dependent_rows_fail():
    out = eliminate([1, 1], [0b11, 0b11], [1, 0], 2)
    assert not out.success
    assert out.failed_row == 1
    assert out.additions == 1
    assert dense_rank_oracle(2, 2, [1, 1], [0b11, 0b11]) == 1


def test_eliminate_hand_case():
    out = eliminate([1, 1], [0b01, 0b11], [1, 1], 2)
    assert out.pivots == [1, 2]
    assert out.additions == 1
    assert out.patterns[1] == 0b10  # only the second window bit is left
    assert out.rhs[1] == 0


def test_eliminate_zero_pattern_row_fails():
    out = eliminate([2], [0], [1], 3)
    assert not out.success and out.pivots == [0]


def test_back_substitute_examples():
    planes = back_substitute(eliminate([1, 2], [1, 1], [1, 0], 1), 2, 1, 1)
    assert bits_of(planes[0]) == [1, 0]

    planes2 = back_substitute(eliminate([1, 1], [0b01, 0b11], [1, 1], 2), 2, 2, 1)
    assert bits_of(planes2[0]) == [1, 0, 0]
    assert verify(2, 2, [1, 1], [0b01, 0b11], [1, 1], planes2)


def test_back_substitute_homogeneous_is_zero():
    rnd = random.Random(11)
    sys_ = random_band_system(rnd, 30, 6, 20)
    planes = solve(sys_.n, sys_.L, 1, list(sys_.starts), list(sys_.patterns), [0] * sys_.m)
    if planes is not None:
        assert not any(w for plane in planes for w in plane.words)


def test_back_substitute_rejects_failure():
    out = eliminate([1, 1], [0b11, 0b11], [1, 0], 2)
    with pytest.raises(ValueError):
        back_substitute(out, 2, 2, 1)


def test_solve_empty_system():
    planes = solve(5, 4, 2, [], [], [])
    assert planes is not None
    assert len(planes) == 2 and planes[0].length == 8
    assert verify(5, 4, [], [], [], planes)


def test_verify_flipped_pivot_bit_fails():
    rnd = random.Random(12)
    while True:
        sys_ = random_band_system(rnd, 20, 5, 15)
        out = eliminate_system(sys_)
        if out.success:
            break
    planes = back_substitute(out, sys_.n, sys_.L, sys_.r)
    assert verify_system(sys_, planes)
    piv = out.pivots[0]
    planes[0].set_bit(piv - 1, 1 - planes[0].get_bit(piv - 1))
    assert not verify_system(sys_, planes)


def test_verify_dimension_mismatch():
    planes = solve(5, 4, 1, [], [], [])
    with pytest.raises(ValueError):
        verify(5, 4, [1], [1], [0b10], planes)  # rhs needs a second plane
    with pytest.raises(ValueError):
        verify(5, 4, [], [], [], [])  # no plane at all
    with pytest.raises(ValueError):
        verify(6, 4, [], [], [], planes)  # planes one column short


def test_solve_agrees_with_rank_oracle():
    rnd = random.Random(13)
    successes = failures = 0
    for _ in range(1500):
        n = rnd.randint(2, 24)
        L = rnd.randint(1, 8)
        m = rnd.randint(1, n)
        sys_ = random_band_system(rnd, n, L, m)
        planes = solve_system(sys_)
        full_rank = dense_rank_oracle(n, L, sys_.starts, sys_.patterns) == m
        assert (planes is not None) == full_rank
        if planes is not None:
            successes += 1
            assert verify_system(sys_, planes)
        else:
            failures += 1
    # the mix must actually exercise both branches
    assert successes > 100 and failures > 100


def test_pivot_bounds_and_no_proliferation():
    rnd = random.Random(14)
    checked = 0
    while checked < 60:
        sys_ = random_band_system(rnd, 40, 7, 30)
        out = eliminate_system(sys_)
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
        out = eliminate_system(sys_)
        if not out.success:
            continue
        checked += 1
        heights = heights_from_pivots(out.starts, out.pivots, sys_.n + sys_.L - 1)
        assert out.additions <= sum(heights)
        assert sum(heights) == sum(p - s for s, p in zip(out.starts, out.pivots))


def test_multi_rhs_matches_independent_planes():
    rnd = random.Random(16)
    solved = 0
    while solved < 25:
        sys_ = random_band_system(rnd, 30, 6, 22, r=3)
        out = eliminate_system(sys_)
        if not out.success:
            continue
        planes = back_substitute(out, sys_.n, sys_.L, sys_.r)
        solved += 1
        for t in range(3):
            plane_rhs = [(value >> t) & 1 for value in sys_.rhs]
            out1 = eliminate(list(sys_.starts), list(sys_.patterns), plane_rhs, sys_.L)
            assert out1.success
            assert out1.pivots == out.pivots
            assert back_substitute(out1, sys_.n, sys_.L, 1)[0] == planes[t]


def test_back_substitute_matches_dot_window_reference():
    # small n makes start ties common; L crosses the 64- and 128-bit marks
    rnd = random.Random(19)
    for L in range(1, 131):
        solved = 0
        while solved < 3:
            n = rnd.randint(1, 100)
            sys_ = random_band_system(rnd, n, L, rnd.randint(1, min(n + L - 1, 60)), r=3)
            out = eliminate_system(sys_)
            if not out.success:
                continue
            solved += 1
            planes = back_substitute(out, sys_.n, sys_.L, sys_.r)
            assert planes == reference_back_substitute(out, sys_.n, sys_.L, sys_.r)
            assert verify_system(sys_, planes)


def dense_forward_eliminate(sys_):
    """Independent replay on full-width rows: sort by start, pivot on the
    lowest set bit, add into any later row holding that bit. Returns the
    transformed dense rows or None on a zero row."""
    rows = sorted(sys_.drawn, key=lambda row: row[0])
    starts = [start for start, _, _ in rows]
    dense = [bits << (start - 1) for start, bits, _ in rows]
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
        out = eliminate_system(sys_)
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
    assert dense_rank_oracle(4, 1, [1, 2, 3, 4], [1, 1, 1, 1]) == 4
    assert dense_rank_oracle(4, 2, [2, 2], [0b11, 0b11]) == 1
    with pytest.raises(ValueError):
        dense_rank_oracle(100, 8, [], [])


def test_full_window_patterns_against_oracle():
    rnd = random.Random(17)
    agree_success = agree_failure = 0
    for _ in range(60):
        n, m, L = 20, 18, 20
        sys_ = random_band_system(rnd, n, L, m)
        planes = solve_system(sys_)
        if dense_rank_oracle(n, L, sys_.starts, sys_.patterns) == m:
            assert planes is not None
            agree_success += 1
        else:
            assert planes is None
            agree_failure += 1
    assert agree_success > 0
