import math
import random

import numpy as np
import pytest

from bandset.analysis_sim import (
    RandomCoins,
    TranscriptCoins,
    TranscriptExhausted,
    coin_transcripts,
    coupled_poissonised_runs,
    coupled_replay,
    draw_poissonised_input,
    fit_tail_rate,
    heights_from_pivots,
    make_rng,
    mdone_mean,
    poissonised_cfrh,
    run_cfrh,
    simulate_x,
    simulate_z,
    tail_estimate,
)
from bandset.band_solver import eliminate

from conftest import random_band_system, reference_coin_elimination


# ---------------------------------------------------------------------------
# CFRH


def test_cfrh_single_key_immediate():
    t = run_cfrh([1], TranscriptCoins([[1]]), L=4)
    assert t.positions == [1]
    assert t.sum_heights == 0
    assert not t.failed


def test_cfrh_two_keys_collide():
    t = run_cfrh([1, 1], TranscriptCoins([[1], [1]]), L=4)
    assert t.positions == [1, 2]
    assert t.heights[0] == 1 and sum(t.heights[1:]) == 0
    assert not t.failed


def test_cfrh_forced_failure_by_transcript():
    L = 5
    t = run_cfrh([1], TranscriptCoins([[0] * L + [1]]), L=L)
    assert t.positions == [1 + L]
    assert t.failed


def test_cfrh_rejects_unsorted():
    with pytest.raises(ValueError):
        run_cfrh([3, 1], RandomCoins(make_rng(0)), L=4)


def test_cfrh_transcript_exhaustion():
    with pytest.raises(TranscriptExhausted):
        run_cfrh([1, 1], TranscriptCoins([[1], [0]]), L=4)


def test_cfrh_positions_injective_and_past_hash():
    rng = make_rng(42)
    hs = sorted(int(rng.integers(1, 500)) for _ in range(400))
    t = run_cfrh(hs, RandomCoins(rng), L=64, n=500)
    assert len(set(t.positions)) == len(t.positions)
    assert all(p >= h for h, p in zip(t.hash_values, t.positions))


def test_cfrh_heights_match_definition():
    rng = make_rng(43)
    hs = sorted(int(rng.integers(1, 80)) for _ in range(60))
    t = run_cfrh(hs, RandomCoins(rng), L=32, n=80)
    table_len = 80 + 32 - 1
    for j in range(1, table_len + 1):
        expect = sum(1 for h, p in zip(t.hash_values, t.positions) if h <= j < p)
        assert t.heights[j - 1] == expect


# ---------------------------------------------------------------------------
# heights_from_pivots


def test_heights_zero_when_pivots_equal_starts():
    assert heights_from_pivots([1, 2, 3], [1, 2, 3], 5) == [0] * 5


def test_heights_single_displaced_row():
    assert heights_from_pivots([1], [3], 4) == [1, 1, 0, 0]


def test_heights_sum_identity():
    rnd = random.Random(7)
    starts = sorted(rnd.randint(1, 50) for _ in range(40))
    pivots = [s + rnd.randint(0, 10) for s in starts]
    hs = heights_from_pivots(starts, pivots, 70)
    assert sum(hs) == sum(p - s for s, p in zip(starts, pivots))


def test_heights_rejects_bad_input():
    with pytest.raises(ValueError):
        heights_from_pivots([1, 2], [1], 5)
    with pytest.raises(ValueError):
        heights_from_pivots([3], [2], 5)


# ---------------------------------------------------------------------------
# elimination <-> insertion coupling


def test_coupled_replay_diagonal_no_collisions():
    rep = coupled_replay(8, 4, [1, 3, 5, 7], [0b1] * 4)
    assert rep is not None
    out, trace = rep
    assert coin_transcripts(out, 4) == [[1]] * 4
    assert trace.positions == [1, 3, 5, 7] == out.pivots
    assert trace.sum_heights == 0


def test_coupled_replay_positions_equal_pivots():
    rnd = random.Random(8)
    checked = 0
    while checked < 300:
        sys_ = random_band_system(rnd, 120, 16, 100)
        rep = coupled_replay(sys_.n, sys_.L, sys_.starts, sys_.patterns)
        if rep is None:
            continue
        checked += 1
        out, trace = rep
        assert out.pivots == trace.positions
        assert out.additions <= trace.sum_heights


def test_coupled_replay_failure_returns_none():
    assert coupled_replay(2, 2, [1, 1], [0b11, 0b11]) is None


def test_coupled_replay_leaves_its_rows_alone():
    rnd = random.Random(9)
    sys_ = random_band_system(rnd, 40, 8, 30)
    starts, patterns = list(sys_.starts), list(sys_.patterns)
    coupled_replay(sys_.n, sys_.L, starts, patterns)
    assert starts == sys_.starts and patterns == sys_.patterns


def test_derived_transcripts_match_coin_recording_elimination():
    """coupled_replay reads each row's coins off the finished elimination;
    a reference that records them bit by bit while it eliminates must
    agree on every transcript and pivot, failed systems included."""
    rnd = random.Random(10)
    shapes = [(16, 4, 10), (40, 8, 32), (60, 20, 57), (50, 70, 48), (30, 130, 29)]
    replayed = failed = 0
    for k in range(300):
        n, L, m = shapes[k % len(shapes)]
        sys_ = random_band_system(rnd, n, L, m)
        pivots, transcripts = reference_coin_elimination(sys_.starts, sys_.patterns, L)
        out = eliminate(list(sys_.starts), list(sys_.patterns), [0] * m, L)
        assert coin_transcripts(out, L) == transcripts
        assert out.pivots[: len(pivots)] == pivots
        rep = coupled_replay(n, L, sys_.starts, sys_.patterns)
        if 0 in pivots:
            assert rep is None
            failed += 1
            continue
        replayed += 1
        assert rep[0].pivots == pivots == rep[1].positions
    assert replayed > 150 and failed > 50


# ---------------------------------------------------------------------------
# Poisson sampling


def test_poisson_zero_rate():
    # eps' = 1 is arrival rate 1 - eps' = 0
    assert not draw_poissonised_input(100, 1.0, make_rng(1)).any()


def test_poisson_moments():
    lam = 0.95
    samples = draw_poissonised_input(1_000_000, 1.0 - lam, make_rng(2))
    assert abs(samples.mean() - lam) < 0.005
    assert abs(samples.var() - lam) / lam < 0.01


def test_poisson_negative_rate_rejected():
    # eps' > 1 is a negative arrival rate
    with pytest.raises(ValueError):
        draw_poissonised_input(10, 1.1, make_rng(0))


# ---------------------------------------------------------------------------
# queue chains


def test_x_stays_zero_without_arrivals():
    trace = simulate_x(0.2, 1000, make_rng(3), shared_d=np.zeros(1000, dtype=np.int64))
    assert trace.states.max() == 0


def test_x_obeys_recurrence():
    trace = simulate_x(0.1, 50_000, make_rng(4))
    x, d = trace.states, trace.arrivals
    assert x[0] == 0
    expect = np.maximum(0, x[:-1] + d[1:] - 1)
    assert np.array_equal(x[1:], expect)


def test_z_obeys_two_case_recurrence():
    trace = simulate_z(0.8, 50_000, make_rng(5))
    z, d = trace.states, trace.arrivals
    assert z[0] == 0
    for j in range(1, len(z)):
        expect = d[j] if z[j - 1] == 0 else z[j - 1] + d[j] - 1
        if z[j] != expect:
            pytest.fail(f"recurrence broken at step {j}")


def test_x_z_identity_with_shared_arrivals():
    x = simulate_x(0.2, 100_000, make_rng(6))
    z = simulate_z(1 - 0.2 / 2, 100_000, make_rng(999), shared_d=x.arrivals[1:])
    assert np.array_equal(x.states, np.maximum(0, z.states - 1))


def test_z_time_average_near_formula():
    for rho, seed in [(0.5, 10), (0.9, 11)]:
        trace = simulate_z(rho, 200_000, make_rng(seed))
        avg = float(np.mean(trace.states))
        assert abs(avg - mdone_mean(rho)) / mdone_mean(rho) < 0.1


def test_mdone_mean_values():
    assert mdone_mean(0.0) == 0.0
    assert mdone_mean(0.5) == pytest.approx(0.75)
    assert mdone_mean(0.9) == pytest.approx(4.95)
    with pytest.raises(ValueError):
        mdone_mean(1.0)


def test_tail_estimate_properties():
    trace = simulate_z(0.9, 20_000, make_rng(12))
    top = int(trace.states.max())
    assert tail_estimate(trace, top) == 0.0
    assert tail_estimate(trace, -1) == 1.0
    prev = 1.0
    for k in range(0, top + 1):
        cur = tail_estimate(trace, k)
        assert cur <= prev
        prev = cur


def test_tail_rate_fit_reported():
    trace = simulate_z(0.9, 500_000, make_rng(13))
    rate = fit_tail_rate(trace)
    assert rate > 0  # decay rate only reported, no target value


# ---------------------------------------------------------------------------
# Poissonised insertion


def test_poissonised_input_counts():
    counts = draw_poissonised_input(5_000, 0.1, make_rng(14))
    assert abs(counts.mean() - 0.9) < 0.02


def test_poissonised_cfrh_zero_rate_is_empty():
    trace = poissonised_cfrh(100, 1.0, 16, make_rng(15))
    assert trace.positions == []
    assert all(h == 0 for h in trace.heights)


def test_poissonised_heights_dominate_ordinary():
    for seed in range(12):
        ordinary, poiss = coupled_poissonised_runs(1500, 0.1, 64, make_rng(100 + seed))
        assert len(poiss.positions) >= len(ordinary.positions)
        assert all(hp >= ho for ho, hp in zip(ordinary.heights, poiss.heights))


def test_mean_height_decreases_when_eps_doubles():
    t1 = poissonised_cfrh(20_000, 0.05, 64, make_rng(16))
    t2 = poissonised_cfrh(20_000, 0.10, 64, make_rng(16))
    mean1 = sum(t1.heights) / len(t1.heights)
    mean2 = sum(t2.heights) / len(t2.heights)
    assert mean2 < mean1


def test_max_height_bounded_by_max_z_plus_shift():
    # statistical observable standing in for the pointwise majorisation:
    # max_j H'_j <= max_j Z_j + ceil(log2(4/eps')) in >= 95% of trials
    eps_prime = 0.15
    n = 2_000
    shift = math.ceil(math.log2(4 / eps_prime))
    rho = 1 - eps_prime / 2
    hold = 0
    trials = 200
    for t in range(trials):
        h_trace = poissonised_cfrh(n, eps_prime, 256, make_rng(3000 + t))
        z_trace = simulate_z(rho, n, make_rng(7000 + t))
        hold += h_trace.max_height <= int(z_trace.states.max()) + shift
    frac = hold / trials
    print(f"height-vs-queue shift bound held in {frac:.0%} of trials")
    assert frac >= 0.95
