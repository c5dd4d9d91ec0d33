"""Empirical validation of the solver's probabilistic model.

Three layers, each checkable against the one below:

* coin-flipping Robin Hood insertion (keys probe cells left to right, an
  empty cell accepts only on heads) and its per-cell heights;
* the elimination coupling: replaying a successful elimination's scanned
  bits as coin flips reproduces the pivots as placement positions;
* integer queue chains: the slack chain X with Poisson arrivals and the
  discretised single-server queue Z, which share arrivals and satisfy
  X = max(0, Z - 1) pointwise.

Randomness comes from counter-based Philox generators so coupled runs can
share arrival streams deterministically; see make_rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .band_solver import BandSystem, EliminationOutcome, eliminate, sort_rows

MASK64 = (1 << 64) - 1


class TranscriptExhausted(Exception):
    """A replayed run needed more coin bits than the transcript holds."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Distinct (seed, stream) pairs give independent streams; coupled
    simulations that must share randomness pass arrays around instead of
    sharing a generator.
    """
    return np.random.Generator(np.random.Philox(key=(stream << 64) | (seed & MASK64)))


# ---------------------------------------------------------------------------
# Coin sources


class RandomCoins:
    """Fair coins from a generator, served from an internal buffer."""

    def __init__(self, rng: np.random.Generator, buffer_size: int = 8192):
        self._rng = rng
        self._size = buffer_size
        self._buf = rng.integers(0, 2, size=buffer_size, dtype=np.uint8)
        self._pos = 0

    def _next_bit(self) -> int:
        if self._pos == self._size:
            self._buf = self._rng.integers(0, 2, size=self._size, dtype=np.uint8)
            self._pos = 0
        bit = int(self._buf[self._pos])
        self._pos += 1
        return bit

    def flip(self, key_id: int, cell: int) -> int:
        return self._next_bit()


class TranscriptCoins:
    """Replays explicit per-key bit sequences; raises when a key runs dry."""

    def __init__(self, transcripts: list[list[int]]):
        self._transcripts = transcripts
        self._pos = [0] * len(transcripts)

    def flip(self, key_id: int, cell: int) -> int:
        t = self._transcripts[key_id]
        p = self._pos[key_id]
        if p >= len(t):
            raise TranscriptExhausted(f"key {key_id} exhausted after {p} coins")
        self._pos[key_id] = p + 1
        return t[p]


class KeyCellCoins(RandomCoins):
    """Random coins memoised per (key_id, cell).

    Two runs sharing one instance see identical flips whenever the same key
    probes the same cell, which is exactly the sharing the dominance
    coupling between an ordinary and a Poissonised run requires.
    """

    def __init__(self, rng: np.random.Generator, buffer_size: int = 8192):
        super().__init__(rng, buffer_size)
        self._memo: dict[tuple[int, int], int] = {}

    def flip(self, key_id: int, cell: int) -> int:
        memo = self._memo
        k = (key_id, cell)
        bit = memo.get(k)
        if bit is None:
            bit = self._next_bit()
            memo[k] = bit
        return bit


# ---------------------------------------------------------------------------
# Coin-flipping Robin Hood insertion


@dataclass(slots=True)
class CFRHTrace:
    """Placements, per-cell heights over [1, n+L-1], and the failure flag."""

    hash_values: list[int]
    positions: list[int]
    heights: list[int]
    failed: bool

    @property
    def sum_heights(self) -> int:
        return sum(self.heights)

    @property
    def max_height(self) -> int:
        return max(self.heights, default=0)


def _heights_from_ranges(los, his, table_len: int) -> list[int]:
    """Count, per cell j in [1, table_len], pairs with lo <= j < hi."""
    diff = [0] * (table_len + 2)
    for lo, hi in zip(los, his):
        if hi > lo:
            diff[lo] += 1
            diff[min(hi, table_len + 1)] -= 1
    heights = []
    acc = 0
    for j in range(1, table_len + 1):
        acc += diff[j]
        heights.append(acc)
    return heights


def run_cfrh(
    hash_values,
    coins,
    L: int,
    n: int | None = None,
    key_ids=None,
) -> CFRHTrace:
    """Insert keys in hash order on an unbounded array.

    Each key probes cells hash, hash+1, ...; occupied cells are skipped
    without a flip, empty cells accept on heads. The failure flag is set
    after the fact iff some displacement reached L.
    """
    hs = list(hash_values)
    for a, b in zip(hs, hs[1:]):
        if a > b:
            raise ValueError("hash_values must be nondecreasing")
    if n is None:
        n = max(hs, default=1)
    table_len = n + L - 1
    occupied: set[int] = set()
    positions: list[int] = []
    for i, h in enumerate(hs):
        kid = key_ids[i] if key_ids is not None else i
        j = h
        while True:
            if j not in occupied and coins.flip(kid, j):
                occupied.add(j)
                positions.append(j)
                break
            j += 1
    failed = any(p - h >= L for h, p in zip(hs, positions))
    heights = _heights_from_ranges(hs, positions, table_len)
    return CFRHTrace(hs, positions, heights, failed)


def heights_from_pivots(starts, pivots, table_len: int) -> list[int]:
    """Per-cell counts of rows whose start <= cell < pivot."""
    if len(starts) != len(pivots):
        raise ValueError("starts and pivots must have equal length")
    for s, p in zip(starts, pivots):
        if p < s:
            raise ValueError("pivot below start")
    return _heights_from_ranges(starts, pivots, table_len)


def coupled_replay(sys: BandSystem) -> tuple[EliminationOutcome, CFRHTrace] | None:
    """Eliminate with coin recording, then replay the transcripts through
    the Robin Hood insertion. On success the placement positions coincide
    with the pivots; returns None when elimination fails.
    """
    out = eliminate(*sort_rows(sys), sys.L, record_coins=True)
    if not out.success:
        return None
    trace = run_cfrh(out.starts, TranscriptCoins(out.coin_transcripts), sys.L, n=sys.n)
    return out, trace


# ---------------------------------------------------------------------------
# Poisson sampling (inversion; per-cell and per-step rates are < 30 here)


def _poisson_cdf(lam: float) -> np.ndarray:
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    terms = [math.exp(-lam)]
    k = 0
    while terms[-1] > 0 and 1.0 - sum(terms) > 1e-18:
        k += 1
        terms.append(terms[-1] * lam / k)
        if k > 64 + int(8 * lam):
            break
    return np.cumsum(terms)


def sample_poisson(lam: float, rng: np.random.Generator) -> int:
    """One Poisson draw by sequential inversion."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        return 0
    u = rng.random()
    p = math.exp(-lam)
    cum = p
    k = 0
    while u > cum:
        k += 1
        p *= lam / k
        cum += p
        if p == 0.0:  # beyond double range; mass here is ~0
            break
    return k


def _poisson_array(lam: float, size: int, rng: np.random.Generator) -> np.ndarray:
    if lam == 0:
        return np.zeros(size, dtype=np.int64)
    cdf = _poisson_cdf(lam)
    return np.searchsorted(cdf, rng.random(size), side="left").astype(np.int64)


# ---------------------------------------------------------------------------
# Queue chains


@dataclass(slots=True)
class QueueTrace:
    """States with index 0 the empty start; arrivals[j] fed step j >= 1."""

    states: np.ndarray
    arrivals: np.ndarray
    rho: float
    kind: str


def _lindley(arrivals: np.ndarray) -> np.ndarray:
    """States of X_j = max(0, X_{j-1} + d_j - 1) with X_0 = 0, vectorised
    as the running sum minus its running minimum."""
    steps = len(arrivals)
    t = np.empty(steps + 1, dtype=np.int64)
    t[0] = 0
    np.cumsum(arrivals - 1, out=t[1:])
    return t - np.minimum.accumulate(t)


def simulate_x(
    epsilon_prime: float,
    steps: int,
    rng: np.random.Generator,
    shared_d: np.ndarray | None = None,
) -> QueueTrace:
    """Slack chain with Poisson(1 - eps'/2) arrivals and unit drain.

    shared_d overrides the arrival draw (coupling and forced-arrival tests).
    """
    if not 0.0 < epsilon_prime < 1.0:
        raise ValueError("epsilon_prime must be in (0, 1)")
    lam = 1.0 - epsilon_prime / 2.0
    if shared_d is not None:
        d = np.asarray(shared_d, dtype=np.int64)
    else:
        d = _poisson_array(lam, steps, rng)
    states = _lindley(d)
    arrivals = np.concatenate(([0], d))
    return QueueTrace(states, arrivals, lam, "X")


def simulate_z(
    rho: float,
    steps: int,
    rng: np.random.Generator,
    shared_d: np.ndarray | None = None,
) -> QueueTrace:
    """Discretised single-server queue: Z_j = d_j when the queue was empty,
    else Z_{j-1} + d_j - 1. With shared arrivals this couples to the slack
    chain via Z_j = X_{j-1} + d_j, which the implementation uses directly.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    if shared_d is not None:
        d = np.asarray(shared_d, dtype=np.int64)
    else:
        d = _poisson_array(rho, steps, rng)
    x = _lindley(d)
    states = np.empty(len(d) + 1, dtype=np.int64)
    states[0] = 0
    states[1:] = x[:-1] + d
    arrivals = np.concatenate(([0], d))
    return QueueTrace(states, arrivals, rho, "Z")


def mdone_mean(rho: float) -> float:
    """Stationary mean queue length: rho + rho^2 / (2 (1 - rho))."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    return rho + 0.5 * rho * rho / (1.0 - rho)


def tail_estimate(trace: QueueTrace, k: int) -> float:
    """Empirical fraction of trace states exceeding k."""
    if len(trace.states) == 0:
        raise ValueError("empty trace")
    return float(np.mean(trace.states > k))


def fit_tail_rate(trace: QueueTrace, k_lo: int = 5, k_hi: int = 50) -> float:
    """Least-squares decay rate of log Pr[state > k] over k in [k_lo, k_hi].

    Reported as a diagnostic only; NaN when fewer than two nonzero tail
    points exist in the window.
    """
    ks, logs = [], []
    for k in range(k_lo, k_hi + 1):
        t = tail_estimate(trace, k)
        if t > 0:
            ks.append(k)
            logs.append(math.log(t))
    if len(ks) < 2:
        return float("nan")
    slope = np.polyfit(ks, logs, 1)[0]
    return -float(slope)


# ---------------------------------------------------------------------------
# Poissonised insertion


@dataclass(slots=True)
class PoissonisedInput:
    """Per-cell arrival counts k_j ~ Poisson(1 - eps') and their total."""

    counts: np.ndarray
    m_prime: int
    epsilon_prime: float


def draw_poissonised_input(
    n: int, epsilon_prime: float, rng: np.random.Generator
) -> PoissonisedInput:
    counts = _poisson_array(1.0 - epsilon_prime, n, rng)
    return PoissonisedInput(counts, int(counts.sum()), epsilon_prime)


def poissonised_cfrh(
    n: int, epsilon_prime: float, L: int, rng: np.random.Generator
) -> CFRHTrace:
    """Draw per-cell Poisson arrivals, expand to a sorted hash multiset,
    and run the coin-flipping insertion with fresh coins."""
    inp = draw_poissonised_input(n, epsilon_prime, rng)
    hs = np.repeat(np.arange(1, n + 1), inp.counts)
    return run_cfrh(hs.tolist(), RandomCoins(rng), L, n=n)


def coupled_poissonised_runs(
    n: int,
    epsilon_prime: float,
    L: int,
    rng: np.random.Generator,
) -> tuple[CFRHTrace, CFRHTrace]:
    """Ordinary run vs Poissonised run on a shared probability space.

    The ordinary run places m = round((1 - 2 eps') n) uniform keys. The
    Poissonised run, conditioned on m' >= m by rejection, handles the same
    m keys plus m' - m fresh ones; coins are shared per (key, cell). Under
    this coupling the Poissonised heights dominate the ordinary heights
    cellwise.
    """
    m = int(round((1.0 - 2.0 * epsilon_prime) * n))
    if m < 1:
        raise ValueError("epsilon_prime too large for this n")
    h_ord = np.sort(rng.integers(1, n + 1, size=m))
    while True:
        inp = draw_poissonised_input(n, epsilon_prime, rng)
        if inp.m_prime >= m:
            break
    extras = rng.integers(1, n + 1, size=inp.m_prime - m)
    merged = sorted(
        [(int(h), i) for i, h in enumerate(h_ord)]
        + [(int(h), m + i) for i, h in enumerate(extras)]
    )
    coins = KeyCellCoins(rng)
    ordinary = run_cfrh(h_ord.tolist(), coins, L, n=n)
    poissonised = run_cfrh(
        [h for h, _ in merged], coins, L, n=n, key_ids=[kid for _, kid in merged]
    )
    return ordinary, poissonised
