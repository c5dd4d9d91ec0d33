"""The build's pivot-insertion solver (``retrieval_flat.solve``) against the
sorted-elimination reference (``band_solver.solve``), and its independence
of row order. Every solve runs on both backends, the C kernel and the
pure-Python branch, which must write the same bytes. Then the kernel's
loader: its cache, its one compile and its fallback."""

import os
import random
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandset
from bandset import ChunkedParams, band_solver, construct_chunked, retrieval_flat, serialize
from bandset.band_solver import verify
from bandset.bitkit import BitVec
from bandset.retrieval_flat import positions_for, solve
from bandset.row_gen import MASK64, row_for_words

from conftest import (
    DENSE_ORACLE_MAX_COLS,
    HAVE_CC,
    bits_of,
    dense_rank_oracle,
    make_pairs,
    python_branch,
)


def solve_both(n: int, L: int, lead: bool, retry: int, s, lo, rhs, planes, r: int,
               offset: int) -> bool:
    """``solve`` on the pure-Python branch into a copy of ``planes``, then
    on the default backend (the C kernel where ``cc`` is present) into
    ``planes``: both must give the same verdict and the same words."""
    copy = planes.copy()
    with python_branch():
        want = solve(n, L, lead, retry, s, lo, rhs, copy, r, offset)
    assert (retrieval_flat._kernel() is not None) == HAVE_CC
    got = solve(n, L, lead, retry, s, lo, rhs, planes, r, offset)
    assert got == want and np.array_equal(planes, copy)
    return got


def word_planes(r: int, bits: int):
    """A zeroed plane buffer as the build makes one: r runs of the whole
    64-bit words that hold ``bits`` bits."""
    return np.zeros((r, (bits + 63) // 64), "<u8")


def bitvecs(planes, width: int) -> list[BitVec]:
    """The plane runs of ``planes`` as ``width``-bit BitVecs."""
    return [BitVec(width, words.tolist()) for words in planes]


def bits_in(words) -> list[int]:
    """Every bit of one plane run, bit j of the list bit j of the plane."""
    x = int.from_bytes(words.tobytes(), "little")
    return [(x >> j) & 1 for j in range(64 * len(words))]


class System(NamedTuple):
    """A band system as ``solve`` takes it: n, lead and retry, and one
    (s, lo, rhs) triple of digest words and right-hand side per row."""

    n: int
    lead: bool
    retry: int
    words: list[tuple[int, int, int]]


def random_system(rnd: random.Random, r: int) -> System:
    """Random digest words at a random load, retry in 0-3 and lead on or
    off; in some systems a digest pair repeats, which repeats its row."""
    n = rnd.randint(1, 40)
    m = rnd.randint(0, n + 2)
    repeats = rnd.choice([0.0, 0.0, 0.03, 0.2])
    words = []
    for _ in range(m):
        if words and rnd.random() < repeats:
            s, lo, _ = rnd.choice(words)
        else:
            s, lo = rnd.getrandbits(64), rnd.getrandbits(64)
        words.append((s, lo, rnd.getrandbits(r)))
    return System(n, rnd.random() < 0.5, rnd.randrange(4), words)


def rows_of(L: int, sys_: System) -> list[tuple[int, int, int]]:
    """The start-sorted (start, pattern, rhs) rows of ``sys_``, each from
    the scalar ``row_for_words``."""
    rows = [(*row_for_words(s, lo, sys_.retry, sys_.n, L, sys_.lead), b) for s, lo, b in sys_.words]
    return sorted(rows, key=lambda row: row[0])


def columns(rows) -> tuple[list[int], list[int], list[int]]:
    """Starts, patterns and right-hand sides of (start, pattern, rhs) rows."""
    return [s for s, _, _ in rows], [p for _, p, _ in rows], [b for _, _, b in rows]


def arrays(words, r: int):
    """``solve``'s arrays for (s, lo, rhs) triples: uint64 ``s`` and ``lo``,
    and the right-hand sides (uint64, or object ints for r > 64)."""
    s, lo, rhs = columns(words)
    return (np.array(s, np.uint64), np.array(lo, np.uint64),
            np.array(rhs, np.uint64 if r <= 64 else object))


def solve_rows(L: int, r: int, sys_: System) -> list[BitVec] | None:
    """``solve`` into a fresh plane buffer, read as the r BitVec planes
    that ``band_solver.solve`` returns; None when dependent."""
    width = sys_.n + L - 1
    planes = word_planes(r, width)
    if not solve_both(sys_.n, L, sys_.lead, sys_.retry, *arrays(sys_.words, r), planes, r, 0):
        return None
    return bitvecs(planes, width)


def reference_rows(L: int, r: int, sys_: System) -> list[BitVec] | None:
    return band_solver.solve(sys_.n, L, r, *columns(rows_of(L, sys_)))


@pytest.mark.parametrize("r", [1, 3, 8, 64, 65])
@pytest.mark.parametrize("L", [1, 2, 63, 64, 65, 80, 127, 128, 130])
def test_solve_matches_sorted_elimination(L, r):
    rnd = random.Random(1000 * L + r)
    solved = failed = 0
    for _ in range(100):
        sys_ = random_system(rnd, r)
        want = reference_rows(L, r, sys_)
        got = solve_rows(L, r, sys_)
        if want is None:
            assert got is None
            failed += 1
        else:
            assert got == want
            solved += 1
    assert solved >= 5 and failed >= 5


@pytest.mark.parametrize("L,r", [(1, 1), (8, 2), (64, 1), (80, 3), (128, 64), (130, 8)])
def test_row_order_does_not_change_the_planes(L, r):
    rnd = random.Random(L * r)
    solved = 0
    for _ in range(100):
        sys_ = random_system(rnd, r)
        want = solve_rows(L, r, sys_)
        shuffled = list(sys_.words)
        rnd.shuffle(shuffled)
        assert solve_rows(L, r, sys_._replace(words=shuffled)) == want
        assert solve_rows(L, r, sys_._replace(words=sys_.words[::-1])) == want
        solved += want is not None
    assert solved >= 10


@pytest.mark.parametrize("L,r", [(1, 1), (8, 2), (64, 1), (64, 8), (64, 64), (65, 3), (127, 64),
                                 (128, 8), (130, 2)])
def test_solve_writes_only_its_slice(L, r):
    # planes full of random words around the slice, which mostly starts
    # and ends inside a word: a dependent system changes no bit, even
    # inside it; a solvable one, given a zero slice, changes bits only
    # inside it, to the reference planes' bits, and keeps every other bit
    # of the words it shares with its neighbours
    rnd = random.Random(7 * L + r)
    solved = failed = 0
    for _ in range(100):
        sys_ = random_system(rnd, r)
        width = sys_.n + L - 1
        offset = rnd.randint(1, 200)
        end = offset + width
        nwords = (end + rnd.randint(0, 100) + 63) // 64
        want = reference_rows(L, r, sys_)
        keep = -1 if want is None else ~(((1 << width) - 1) << offset)
        runs = [rnd.getrandbits(64 * nwords) & keep for _ in range(r)]
        before = np.array([[x >> 64 * w & MASK64 for w in range(nwords)] for x in runs], "<u8")
        planes = before.copy()
        got = solve_both(sys_.n, L, sys_.lead, sys_.retry, *arrays(sys_.words, r), planes, r,
                         offset)
        assert got == (want is not None)
        if want is None:
            assert np.array_equal(planes, before)
            failed += 1
            continue
        for z, old, plane in zip(planes, before, want):
            z, old = bits_in(z), bits_in(old)
            assert z[:offset] == old[:offset] and z[end:] == old[end:]
            assert z[offset:end] == bits_of(plane)
        solved += 1
    assert solved >= 10 and failed >= 5


# The native kernel walks rows [0, m/2) and [m/2, m) as two interleaved
# lanes, with one 64-bit word per row for L <= 64 and two above: at L = 64
# and L = 65 each lane edge runs on both row widths.


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("L", [64, 65])
def test_lanes_of_one_row_match_sorted_elimination(L, m):
    # m = 2 gives each lane one row, m = 3 the first lane one row and the
    # second two
    rnd = random.Random(10 * L + m)
    solved = 0
    for _ in range(60):
        n = rnd.randint(1, 6)
        words = [(rnd.getrandbits(64), rnd.getrandbits(64), rnd.getrandbits(2)) for _ in range(m)]
        sys_ = System(n, rnd.random() < 0.5, rnd.randrange(4), words)
        got = solve_rows(L, 2, sys_)
        assert got == reference_rows(L, 2, sys_)
        solved += got is not None
    assert solved >= 10


def _independent_rows(L: int, m: int) -> list[tuple[int, int, int]]:
    """m (s, lo, rhs) triples whose rows at L and n = 64 m solve, and
    would not if any row were repeated or zero: starts 64 columns apart,
    each with a 1 in bit 0 of lo."""
    rnd = random.Random(L)
    return [((64 * i << 58) // m, rnd.getrandbits(64) | 1, rnd.getrandbits(3)) for i in range(m)]


@pytest.mark.parametrize("rows", ["first half", "second half", "across halves"])
@pytest.mark.parametrize("L", [64, 65])
def test_a_repeated_row_in_either_lane_is_dependent(L, rows):
    # m = 8 splits into lanes of rows 0-3 and 4-7; one digest pair
    # repeated, with another right-hand side, within a lane or across
    m = 8
    words = _independent_rows(L, m)
    sys_ = System(64 * m, False, 0, words)
    assert solve_rows(L, 3, sys_) is not None
    src, dst = {"first half": (0, 2), "second half": (5, 7), "across halves": (1, 6)}[rows]
    words[dst] = (*words[src][:2], words[src][2] ^ 1)
    planes = word_planes(3, 64 * m + L - 1)
    assert not solve_both(64 * m, L, False, 0, *arrays(words, 3), planes, 3, 0)
    assert not planes.any()


@pytest.mark.parametrize("at", [0, 2, 3, 5])
@pytest.mark.parametrize("L", [1, 64])
def test_a_zero_row_in_either_lane_is_dependent(L, at):
    # with lead off, lo = 0 gives a row with no 1 at L = 1 and, at retry 0,
    # at L = 64 too; m = 6 puts rows 0-2 in the first lane and 3-5 in the
    # second. Such a row is dependent before it walks a column
    m = 6
    words = _independent_rows(L, m)
    sys_ = System(64 * m, False, 0, words)
    assert solve_rows(L, 1, sys_) is not None
    words[at] = (words[at][0], 0, 1)
    planes = word_planes(1, 64 * m + L - 1)
    assert not solve_both(64 * m, L, False, 0, *arrays(words, 1), planes, 1, 0)
    assert not planes.any()


def test_solve_leaves_its_inputs_alone():
    rnd = random.Random(5)
    sys_ = random_system(rnd, 2)
    s, lo, rhs = arrays(sys_.words, 2)
    copies = (s.copy(), lo.copy(), rhs.copy())
    solve_both(sys_.n, 16, sys_.lead, 1, s, lo, rhs, word_planes(2, sys_.n + 15), 2, 0)
    for got, want in zip((s, lo, rhs), copies):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("L,r", [(64, 8), (64, 33), (64, 64), (80, 2), (128, 3)])
def test_chunk_sized_system_matches_sorted_elimination(L, r, backend):
    # a build's chunk: 10k keys at eps 3%, retried until it solves (at
    # L = 64 about half of first tries fail); every attempt agrees. Its
    # walks are long enough to reach the top bits of a pattern, where
    # L = 80 masks the second pattern word; the small systems above are not
    rnd = np.random.default_rng(L + r)
    m = 10_000
    s, lo = (rnd.integers(0, 1 << 64, m, dtype=np.uint64) for _ in range(2))
    rhs = rnd.integers(0, 1 << r, m, dtype=np.uint64)
    n = positions_for(m, 0.03)
    for retry in range(8):
        planes = word_planes(r, n + L - 1)
        got = solve(n, L, False, retry, s, lo, rhs, planes, r, 0)
        sys_ = System(n, False, retry, list(zip(s.tolist(), lo.tolist(), rhs.tolist())))
        want = reference_rows(L, r, sys_)
        assert got == (want is not None)
        if got:
            assert bitvecs(planes, n + L - 1) == want
            break
    else:
        pytest.fail("no retry solved")


def test_failed_allocation_raises_memory_error(backend):
    # 2^59 columns: the pivot table cannot be allocated, which must not read
    # as a dependent system (a build would burn every retry on it)
    empty = np.zeros(0, np.uint64)
    with pytest.raises(MemoryError):
        solve(1 << 59, 64, False, 0, empty, empty, empty, word_planes(1, 64), 1, 0)


def test_empty_system_solves_at_any_offset(backend):
    # no row reaches a column, so no offset is past the planes
    empty = np.zeros(0, np.uint64)
    planes = word_planes(1, 64)
    assert solve(5, 8, False, 0, empty, empty, empty, planes, 1, 200)
    assert not planes.any()


def _two_rows(bad: str):
    """Two rows with pivots at column 1 and column n (s = 0 and
    s = 2^64 - 1 give the first and the last start; bit 0 of lo puts each
    pivot at its start) and a 1 in both pivots' bits, with ``lo`` or
    ``rhs`` a row short when ``bad`` says so."""
    s, lo, rhs = arrays([(0, 1, 1), (MASK64, 3, 1)], 1)
    if bad == "short lo":
        lo = lo[:1]
    elif bad == "short rhs":
        rhs = rhs[:1]
    return s, lo, rhs


@pytest.mark.parametrize("bad", ["short plane", "short lo", "short rhs", "part word"])
def test_solve_rejects_rows_outside_its_table(bad, backend):
    # the rows' n + L - 1 = 59 columns fit one word from offset 0, and
    # reach past it from offset 6
    n, L = 20, 40
    offset = 6 if bad == "short plane" else 0
    planes = np.zeros(12 if bad == "part word" else 8, np.uint8)
    with pytest.raises(ValueError):
        solve(n, L, False, 0, *_two_rows(bad), planes, 1, offset)
    assert not planes.any()


@pytest.mark.parametrize("bad", ["short plane", "short lo", "short rhs", "negative offset",
                                 "r = 0", "r = 65", "part word", "misaligned"])
def test_native_solve_checks_its_own_bounds(bad, native):
    # the module function is callable without solve's checks in front of
    # it; it must still write nothing outside its buffer (it ORs whole
    # 64-bit words in place, so that buffer must be aligned to them). The
    # highest pivot is column 20: in the first word from offset 0, one bit
    # past it from offset 45
    n, L = 20, 100
    r = {"r = 0": 0, "r = 65": 65}.get(bad, 1)
    memory = np.zeros(8 * 2 * 65 + 8, np.uint8)  # 8-byte aligned, as numpy aligns
    planes = {"short plane": memory[:8], "part word": memory[:12], "misaligned": memory[1:17],
              "r = 65": memory[: 8 * 2 * 65]}.get(bad, memory[:16])
    offset = {"short plane": 45, "negative offset": -1}.get(bad, 0)
    with pytest.raises(ValueError):
        native.solve(n, L, False, 0, *_two_rows(bad), planes, r, offset)
    assert not memory.any()


def test_native_solve_fills_its_buffer_to_the_last_bit(native):
    # from offset 44 the highest pivot, column 20, is the last bit of the
    # one word: it is written, and nothing past the word
    memory = np.zeros(16, np.uint8)
    assert native.solve(20, 100, False, 0, *_two_rows(""), memory[:8], 1, 44)
    assert memory[:8].view("<u8")[0] == 1 << 44 | 1 << 63
    assert not memory[8:].any()


def test_native_solve_fills_each_plane_to_its_last_bit(native):
    # the same two pivots at r = 2, with right-hand sides 0b11 at column 1
    # and 0b10 at column 20: plane 0 gets only the bit of column 1, plane 1
    # both, up to the last bit of its one word, and nothing past the runs
    memory = np.zeros(24, np.uint8)
    s, lo, _ = _two_rows("")
    rhs = np.array([0b11, 0b10], np.uint64)
    assert native.solve(20, 100, False, 0, s, lo, rhs, memory[:16], 2, 44)
    assert memory[:16].view("<u8").tolist() == [1 << 44, 1 << 44 | 1 << 63]
    assert not memory[16:].any()


def test_python_branch_writes_its_words_under_the_planes_lock(monkeypatch):
    # neighbouring chunks share their boundary words and solve at once, so
    # the Python branch changes its words only while it holds the module's
    # planes lock, all in one step; from offset 50 the two pivots' bits
    # fall in two words
    planes = word_planes(1, 128)
    seen = []

    class SpyLock:
        def __enter__(self):
            seen.append(planes.copy())

        def __exit__(self, *exc):
            seen.append(planes.copy())

    monkeypatch.setattr(retrieval_flat, "_planes_lock", SpyLock())
    with python_branch():
        assert solve(20, 40, False, 0, *_two_rows(""), planes, 1, 50)
    assert bits_in(planes[0]).count(1) == 2 and planes.all()
    assert len(seen) == 2 and not seen[0].any() and np.array_equal(seen[1], planes)


@st.composite
def _small_systems(draw):
    L = draw(st.integers(1, 16))
    n = draw(st.integers(1, DENSE_ORACLE_MAX_COLS - L + 1))
    words = draw(st.lists(st.tuples(st.integers(0, MASK64), st.integers(0, MASK64),
                                    st.integers(0, 1)), max_size=n + 2))
    return L, System(n, draw(st.booleans()), draw(st.integers(0, 3)), words)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_small_systems())
def test_solve_fails_exactly_below_full_rank(system):
    # the rows in the order drawn, unsorted
    L, sys_ = system
    starts, patterns, rhs = columns(rows_of(L, sys_))
    planes = solve_rows(L, 1, sys_)
    full_rank = dense_rank_oracle(sys_.n, L, starts, patterns) == len(sys_.words)
    assert (planes is not None) == full_rank
    if planes is not None:
        assert verify(sys_.n, L, starts, patterns, rhs, planes)


# ---------------------------------------------------------------------------
# the kernel's loader


def _fresh_cache(tmp_path, monkeypatch) -> Path:
    """An empty kernel cache under ``tmp_path`` and a loader that has not
    run yet in this process; returns the cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(retrieval_flat, "_kernel_loaded", [])
    return tmp_path / "bandset"


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    return _fresh_cache(tmp_path, monkeypatch)


def _build_bytes(threads: int = 1) -> bytes:
    params = ChunkedParams(epsilon=0.05, r=3, C=500, base_seed=11)
    return serialize(construct_chunked(make_pairs(4_000, r=3), params, threads=threads))


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH")
def test_loader_returns_the_kernel_when_cc_is_present(fresh_loader):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert retrieval_flat._kernel() is not None
    assert [p.name[:5] for p in fresh_loader.iterdir()] == ["band-"]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH")
def test_cold_cache_compiles_once_and_a_second_process_only_loads(fresh_loader, monkeypatch):
    compiles = []
    compile_ = retrieval_flat._compile

    def slow_compile(*args):
        compiles.append(threading.get_ident())
        time.sleep(0.2)  # keeps the second build thread waiting at the lock
        compile_(*args)

    monkeypatch.setattr(retrieval_flat, "_compile", slow_compile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _build_bytes(threads=2)
    assert len(compiles) == 1
    (lib,) = fresh_loader.iterdir()
    stamp = lib.stat().st_mtime_ns

    # no cc on this PATH: the kernel loads only if nothing is compiled
    code = ("import warnings; warnings.simplefilter('error')\n"
            "from bandset import retrieval_flat\n"
            "assert retrieval_flat._kernel() is not None")
    env = {**os.environ, "PATH": str(fresh_loader.parent / "no-such-dir"),
           "PYTHONPATH": str(Path(bandset.__file__).parent.parent)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert list(fresh_loader.iterdir()) == [lib] and lib.stat().st_mtime_ns == stamp


def test_failed_compile_warns_once_and_builds_the_same_file(tmp_path, monkeypatch):
    want = _build_bytes()  # the kernel when cc is present, else the Python branch

    def broken_compile(*args):
        raise OSError("cc exited 1: simulated failure")

    monkeypatch.setattr(shutil, "which", lambda name: "/usr/bin/cc")  # found, but it fails
    monkeypatch.setattr(retrieval_flat, "_compile", broken_compile)
    cache = _fresh_cache(tmp_path, monkeypatch)
    with pytest.warns(RuntimeWarning, match="simulated failure"):
        assert _build_bytes() == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _build_bytes() == want
    assert retrieval_flat._kernel() is None
    assert list(cache.iterdir()) == []  # no temporary file left behind


def test_world_writable_cache_directory_is_refused(fresh_loader):
    fresh_loader.mkdir()
    fresh_loader.chmod(0o777)
    with pytest.warns(RuntimeWarning, match="not private"):
        assert retrieval_flat._kernel() is None
    assert list(fresh_loader.iterdir()) == []


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH")
def test_missing_python_headers_warn_once_and_build_the_same_file(tmp_path, monkeypatch):
    want = _build_bytes()
    empty = tmp_path / "include"
    empty.mkdir()
    get_path = sysconfig.get_path
    monkeypatch.setattr(sysconfig, "get_path",
                        lambda name, *args: str(empty) if name == "include" else get_path(name, *args))
    cache = _fresh_cache(tmp_path, monkeypatch)
    with pytest.warns(RuntimeWarning, match="Python.h") as record:
        assert _build_bytes() == want
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _build_bytes() == want
        pairs = make_pairs(500, r=3)
        ds = construct_chunked(pairs, ChunkedParams(epsilon=0.05, r=3, C=100, base_seed=2))
        assert bandset.query_many(ds, [k for k, _ in pairs]) == [v for _, v in pairs]
    assert retrieval_flat._kernel() is None
    assert list(cache.iterdir()) == []


def test_threads_share_one_structure_and_the_seed_cache(native):
    # queries, batch queries and builds with several base seeds at once, on
    # a short switch interval: every answer and every file must come out
    # as in one thread
    params = [ChunkedParams(epsilon=0.05, r=3, C=500, base_seed=seed) for seed in range(4)]
    pairs = make_pairs(2_000, r=3, tag="threads")
    want = [serialize(construct_chunked(pairs, p)) for p in params]
    ds = construct_chunked(pairs, params[0])
    keys = [k for k, _ in pairs]
    values = [v for _, v in pairs]
    results = []

    def work(i):
        p = params[i % 4]
        results.append(serialize(construct_chunked(pairs, p)) == want[i % 4]
                       and bandset.query_many(ds, keys) == values
                       and [bandset.query_chunked(ds, k) for k in keys[:500]] == values[:500])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 6
