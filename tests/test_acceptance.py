"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The large-scale builds
(criterion 8) dominate the runtime; everything is seeded and deterministic
apart from wall-clock measurements.
"""

import math
import random
import time

import numpy as np
import pytest

from bandset.analysis_sim import (
    coupled_replay,
    make_rng,
    mdone_mean,
    simulate_x,
    simulate_z,
)
from bandset.band_solver import dense_rank_oracle, verify
from bandset.bitkit import CountingWords
from bandset.cli import synthetic_pairs
from bandset.retrieval_chunked import (
    ChunkedParams,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    serialize,
)

from conftest import make_pairs, random_band_system, solve_system


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy work


@pytest.fixture(scope="session")
def small_system_suite():
    rnd = random.Random(20250801)
    results = []
    t0 = time.perf_counter()
    for _ in range(1200):
        n = rnd.randint(2, 24)
        L = rnd.randint(1, 8)
        m = rnd.randint(1, n)
        sys_ = random_band_system(rnd, n, L, m)
        table = solve_system(sys_)
        rank = dense_rank_oracle(sys_)
        results.append((sys_, table, rank))
    elapsed = time.perf_counter() - t0
    return results, elapsed


@pytest.fixture(scope="session")
def coupling_suite():
    rnd = random.Random(31337)
    runs = []
    for m, L, want in ((100, 16, 700), (1000, 24, 320)):
        n = round(m / 0.9)
        got = 0
        while got < want:
            sys_ = random_band_system(rnd, n, L, m)
            rep = coupled_replay(sys_)
            if rep is None:
                continue
            runs.append(rep)
            got += 1
    return runs


@pytest.fixture(scope="session")
def large_scale_builds():
    """Criterion 8 material: m=1e6 builds at three slack settings plus an
    m=1e5 build for the query-cost comparison."""
    m_large, m_small = 1_000_000, 100_000
    pairs = synthetic_pairs(m_large, 1, 20260809)
    out = {"overheads": {}, "construct_s": {}}
    keep_eps = 0.05
    for eps in (0.07, 0.05, 0.03):
        params = ChunkedParams(epsilon=eps, L=64, r=1, C=10_000, base_seed=20260809)
        t0 = time.perf_counter()
        ds = construct_chunked(pairs, params)
        out["construct_s"][eps] = time.perf_counter() - t0
        out["overheads"][eps] = overhead(ds)
        if eps == keep_eps:
            out["ds_large"] = ds
    small_pairs = pairs[:m_small]
    params = ChunkedParams(epsilon=keep_eps, L=64, r=1, C=10_000, base_seed=20260809)
    out["ds_small"] = construct_chunked(small_pairs, params)
    out["pairs"] = pairs
    out["m_small"] = m_small
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_solver_matches_rank_oracle(small_system_suite):
    results, elapsed = small_system_suite
    mismatches = sum((table is not None) != (rank == sys_.m)
                     for sys_, table, rank in results)
    ok = mismatches == 0 and len(results) >= 1000 and elapsed < 5.0
    report(1, "solve <-> full-rank oracle equivalence", ok,
           f"{len(results)} systems, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_02_solutions_verify(small_system_suite):
    results, _ = small_system_suite
    solved = [(s, t) for s, t, _ in results if t is not None]
    bad = sum(not verify(s, t) for s, t in solved)
    ok = bad == 0 and len(solved) > 100
    report(2, "every successful solve satisfies A*z = b", ok,
           f"{len(solved)} solved systems, {bad} verification failures")


def test_criterion_03_pivots_equal_positions(coupling_suite):
    mismatches = sum(out.pivots != trace.positions for out, trace in coupling_suite)
    ok = mismatches == 0 and len(coupling_suite) >= 1000
    report(3, "elimination pivots equal insertion positions", ok,
           f"{len(coupling_suite)} successful instances, {mismatches} mismatches")


def test_criterion_04_additions_bounded_by_heights(coupling_suite):
    violations = sum(out.additions > trace.sum_heights for out, trace in coupling_suite)
    ok = violations == 0
    report(4, "row additions <= sum of heights", ok,
           f"{len(coupling_suite)} instances, {violations} violations")


def test_criterion_05_slack_queue_identity():
    steps = 1_000_000
    x = simulate_x(0.2, steps, make_rng(501))
    z = simulate_z(1 - 0.2 / 2, steps, make_rng(0), shared_d=x.arrivals[1:])
    exact = np.array_equal(x.states, np.maximum(0, z.states - 1))
    report(5, "X = max(0, Z - 1) with shared arrivals", exact, f"{steps} steps, exact")


def test_criterion_06_queue_mean_matches_formula():
    t0 = time.perf_counter()
    details = []
    ok = True
    for rho, seed in ((0.5, 601), (0.9, 602)):
        trace = simulate_z(rho, 1_000_000, make_rng(seed))
        avg = float(np.mean(trace.states))
        target = mdone_mean(rho)
        rel = abs(avg - target) / target
        details.append(f"rho={rho}: avg={avg:.4f} target={target:.2f} rel={rel:.3f}")
        ok &= rel < 0.10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(6, "queue time-average within 10% of closed form", ok,
           "; ".join(details) + f"; {elapsed:.2f}s")


def test_criterion_07_end_to_end_retrieval():
    m = 100_000
    pairs = synthetic_pairs(m, 1, 70707)
    params = ChunkedParams(epsilon=0.05, L=64, r=1, C=10_000, base_seed=70707)
    t0 = time.perf_counter()
    ds = construct_chunked(pairs, params)
    wrong = sum(query_chunked(ds, k) != v for k, v in pairs)
    elapsed = time.perf_counter() - t0
    ok = wrong == 0 and elapsed < 10.0
    report(7, "1e5-key build + full query pass", ok,
           f"{wrong} wrong answers, {elapsed:.2f}s")


def test_criterion_08_overhead_reproduction(large_scale_builds):
    data = large_scale_builds
    targets = {0.07: 0.088, 0.05: 0.065, 0.03: 0.043}
    details = []
    ok = True
    for eps, target in targets.items():
        got = data["overheads"][eps]
        ok &= abs(got - target) <= 0.007
        details.append(
            f"eps={eps:.0%}: overhead={got:.2%} target={target:.1%} "
            f"construct={data['construct_s'][eps] * 1e9 / 1_000_000:.0f}ns/key"
        )

    sample = [k for k, _ in data["pairs"][: data["m_small"]]]
    t0 = time.perf_counter()
    for key in sample:
        query_chunked(data["ds_small"], key)
    small_ns = (time.perf_counter() - t0) * 1e9 / len(sample)
    t0 = time.perf_counter()
    for key in sample:
        query_chunked(data["ds_large"], key)
    large_ns = (time.perf_counter() - t0) * 1e9 / len(sample)
    ratio = max(small_ns, large_ns) / min(small_ns, large_ns)
    ok &= ratio <= 2.0
    details.append(f"query {small_ns:.0f}ns/key @1e5 vs {large_ns:.0f}ns/key @1e6, ratio {ratio:.2f}")
    report(8, "overhead matches reference figures at 1e6 keys", ok, "; ".join(details))


def test_criterion_09_serialization_round_trip():
    pairs = make_pairs(10_000, tag="ser")
    params = ChunkedParams(epsilon=0.05, L=64, r=1, C=1_000, base_seed=909)
    ds = construct_chunked(pairs, params)
    blob = serialize(ds)
    ds2 = deserialize(blob)
    byte_identity = serialize(ds2) == blob
    query_identity = all(query_chunked(ds2, k) == query_chunked(ds, k) for k, _ in pairs)
    strangers = [f"ser-nonkey:{i}".encode() for i in range(1000)]
    query_identity &= all(
        query_chunked(ds2, k) == query_chunked(ds, k) for k in strangers
    )
    ok = byte_identity and query_identity
    report(9, "serialize/deserialize byte- and query-identity", ok,
           f"{len(blob)} bytes, {len(pairs)} keys")


def test_criterion_10_query_word_locality():
    pairs = make_pairs(5_000, r=2, tag="loc")
    params = ChunkedParams(epsilon=0.1, L=64, r=2, C=1_000, base_seed=1010)
    ds = construct_chunked(pairs, params)
    ds.directory.packed = CountingWords(ds.directory.packed)
    counters = []
    for plane in ds.tables:
        plane.words = CountingWords(plane.words)
        counters.append(plane.words)
    per_plane_budget = (64 + 63) // 64 + 1
    worst_dir = worst_plane = 0
    noncontig = 0
    for key, v in pairs:
        ds.directory.packed.reset()
        for c in counters:
            c.reset()
        assert query_chunked(ds, key) == v
        worst_dir = max(worst_dir, len(ds.directory.packed.reads))
        for c in counters:
            worst_plane = max(worst_plane, len(c.reads))
            span = sorted(set(c.reads))
            noncontig += span != list(range(span[0], span[-1] + 1))
    ok = worst_dir <= 2 and worst_plane <= per_plane_budget and noncontig == 0
    report(10, "query reads 2 directory words + short table window", ok,
           f"max dir reads {worst_dir}, max plane reads {worst_plane} "
           f"(budget {per_plane_budget}), noncontiguous {noncontig}")


def test_criterion_11_first_seed_success_rate():
    wins = 0
    for seed in range(50):
        pairs = make_pairs(10_000, tag=f"whp{seed}")
        ds = construct_chunked(
            pairs, ChunkedParams(epsilon=0.1, L=64, C=10_000, max_retries=8, base_seed=seed)
        )
        wins += ds.directory.seeds[0] == 0
    ok = wins >= 45
    report(11, "first-seed construction success rate", ok, f"{wins}/50 at retry 0")
