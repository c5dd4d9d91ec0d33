"""Command-line front door: build, query, bench, simulate.

Batch only. Exit codes: 0 success, 1 construction failure, 2 input error,
3 format error. The base seed comes from --seed, falling back to the
BANDSET_SEED environment variable, then 0.

``main(argv)`` may be called many times in one process. It builds its
argument parser once, at its first call, and keeps nothing else between
calls: each call parses its own argv into a new namespace and reads
BANDSET_SEED and the terminal width (for help) afresh.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import struct
import sys
import time
from collections import Counter

import numpy as np

from . import retrieval_flat
from .analysis_sim import (
    coupled_replay,
    fit_tail_rate,
    make_rng,
    mdone_mean,
    poissonised_cfrh,
    simulate_z,
    tail_estimate,
)
from .retrieval_chunked import (
    ChunkedParams,
    ChunkedRetrieval,
    FormatError,
    block_lookup,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    query_many,
    serialize,
)
from .retrieval_flat import ConstructError, DuplicateKey
from .row_gen import PackedPairs

EXIT_OK = 0
EXIT_CONSTRUCT = 1
EXIT_INPUT = 2
EXIT_FORMAT = 3


class InputError(Exception):
    pass


def _params_from_args(args) -> ChunkedParams:
    """The build parameters of `build` and `bench`, from their shared flags."""
    return ChunkedParams(
        epsilon=args.eps,
        L=args.block_len,
        r=args.value_bits,
        C=args.chunk_size,
        max_retries=args.retries,
        base_seed=args.seed,
        force_leading_one=args.force_leading_one,
    )


def _params_dict(p: ChunkedParams) -> dict:
    return {
        "epsilon": p.epsilon,
        "L": p.L,
        "r": p.r,
        "C": p.C,
        "base_seed": p.base_seed,
        "force_leading_one": p.force_leading_one,
    }


def _hex_width(r: int) -> int:
    return (r + 3) // 4


def read_tsv_pairs(path: str, r: int) -> PackedPairs | list[tuple[bytes, int]]:
    """The pairs of a TSV file, key<TAB>value-hex per line, as a sequence of
    (key, value); raises InputError with the line number.

    The file is read with one ``read()``. Where the native module loaded,
    its ``read_tsv`` scans those bytes once and gives each key's bounds in
    them and each value, returned as a ``PackedPairs`` over the bytes, so
    that a build hashes the keys where they lie. It takes only plain lines,
    key<TAB> and 1 to 16 ASCII hex digits of a value below 2^r, with
    r <= 64; for any other input the Python loop below reads the same
    bytes into a list, and so gives every error and takes every other form
    that ``int(_, 16)`` takes. Both skip blank lines and strip each line's
    trailing run of ``\r`` and ``\n``."""
    with open(path, "rb") as fh:
        data = fh.read()
    native = retrieval_flat._kernel()
    if native is not None:
        done = native.read_tsv(data, r)
        if done is not None:
            bounds, values = done
            return PackedPairs(data, np.frombuffer(bounds, np.int64).reshape(-1, 2),
                               np.frombuffer(values, np.uint64))
    pairs = []
    limit = 1 << r
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        key, sep, hexval = line.partition(b"\t")
        if not sep:
            raise InputError(f"line {lineno}: missing tab separator")
        try:
            value = int(hexval, 16)
        except ValueError:
            raise InputError(f"line {lineno}: malformed hex value {hexval!r}") from None
        if not 0 <= value < limit:
            raise InputError(f"line {lineno}: value does not fit in {r} bits")
        pairs.append((key, value))
    return pairs


def _binary_records(data: bytes, value_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """Length-prefixed records: u32 key length, key bytes, then a
    ``value_bytes``-byte little-endian value (0 or 8 bytes; every value is
    0 when ``value_bytes`` is 0). Returns the keys' (start, end) in
    ``data`` as an int64 array of shape (m, 2) and the values as a uint64
    array. Raises InputError naming a truncated record.

    Where the native module loaded, its ``scan_records`` reads the records
    in one pass; it declines data with a truncated record, which the
    Python loop below then reads to name it."""
    native = retrieval_flat._kernel()
    if native is not None and (done := native.scan_records(data, value_bytes)) is not None:
        bounds, values = done
        return np.frombuffer(bounds, np.int64).reshape(-1, 2), np.frombuffer(values, np.uint64)
    bounds = []
    values = []
    pos = 0
    rec = 0
    while pos < len(data):
        rec += 1
        if pos + 4 > len(data):
            raise InputError(f"record {rec}: truncated length prefix")
        (klen,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + klen + value_bytes > len(data):
            raise InputError(f"record {rec}: truncated record")
        bounds += pos, pos + klen
        pos += klen
        values.append(struct.unpack_from("<Q", data, pos)[0] if value_bytes else 0)
        pos += value_bytes
    return np.array(bounds, np.int64).reshape(-1, 2), np.array(values, np.uint64)


def read_binary_pairs(path: str, r: int) -> PackedPairs:
    """Length-prefixed records: u32 key length, key bytes, u64 value."""
    if r > 64:
        raise InputError("binary key mode supports r <= 64")
    with open(path, "rb") as fh:
        data = fh.read()
    bounds, values = _binary_records(data, 8)
    if r < 64 and len(wide := np.flatnonzero(values >> np.uint64(r))):
        raise InputError(f"record {wide[0] + 1}: value does not fit in {r} bits")
    return PackedPairs(data, bounds, values)


def synthetic_keys(m: int, seed: int) -> list[bytes]:
    """Deterministic 80-byte URL-shaped keys for benchmarking."""
    tag = f"{seed & 0xFFFFFFFF:08x}"
    keys = []
    for i in range(m):
        base = f"https://host-{tag}.example.eu/corpus/{i:016d}/item"
        key = base + "x" * (80 - len(base))
        keys.append(key.encode("ascii"))
    return keys


def synthetic_pairs(m: int, r: int, seed: int) -> list[tuple[bytes, int]]:
    keys = synthetic_keys(m, seed)
    rng = make_rng(seed, stream=101)
    if r <= 63:
        values = rng.integers(0, 1 << r, size=m, dtype=np.uint64)
        return [(k, int(v)) for k, v in zip(keys, values)]
    values = [int(rng.integers(0, 1 << 32)) for _ in range(2 * m)]
    return [
        (k, (values[2 * i] | values[2 * i + 1] << 32) & ((1 << r) - 1))
        for i, k in enumerate(keys)
    ]


def _build(pairs, params: ChunkedParams, threads: int) -> tuple[ChunkedRetrieval, dict]:
    """The structure of ``pairs`` and what `build` reports of it: size,
    parameters, overhead and build time per key (both None when empty) and
    the per-chunk retry histogram."""
    t0 = time.perf_counter()
    ds = construct_chunked(pairs, params, threads=threads)
    construct_seconds = time.perf_counter() - t0
    hist = Counter(ds.directory.seeds)
    return ds, {
        "m": ds.m,
        "params": _params_dict(ds.params),
        "overhead": overhead(ds) if ds.m else None,
        "construct_ns_per_key": construct_seconds * 1e9 / ds.m if ds.m else None,
        "retries_histogram": {str(k): v for k, v in sorted(hist.items())},
    }


def cmd_build(
    input_path: str, output_path: str, params: ChunkedParams, threads: int = 1,
    binary_keys: bool = False,
) -> int:
    reader = read_binary_pairs if binary_keys else read_tsv_pairs
    ds, report = _build(reader(input_path, params.r), params, threads)
    blob = serialize(ds)  # before the output is opened, which truncates it
    with open(output_path, "wb") as fh:
        fh.write(blob)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# Characters of text (with the rest of the last line) or keys of a binary
# stream per lookup call in `query`: enough that the cost of a call is
# spread thin, few enough that a block's keys and answers take little memory.
QUERY_BLOCK = 1 << 16

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _blocks(in_stream, binary_keys: bool):
    """The keys of ``in_stream`` a block at a time, as the bytes they lie
    in and their bounds: ``QUERY_BLOCK`` records of a binary stream, with
    their int64 (start, end) pairs in all its bytes, or the lines of
    ``QUERY_BLOCK`` characters of text and the rest of the last one,
    encoded as UTF-8, with bounds None (the keys are the lines)."""
    if binary_keys:
        data = in_stream.read()
        bounds = _binary_records(data, 0)[0]
        for start in range(0, len(bounds), QUERY_BLOCK):
            yield data, bounds[start : start + QUERY_BLOCK]
        return
    while text := in_stream.read(QUERY_BLOCK):
        # the rest of the last line too, so that no key spans two blocks
        yield (text + in_stream.readline()).encode("utf-8"), None


def _key_blocks(in_stream, binary_keys: bool):
    """The keys of each block of ``_blocks`` as a list: a binary block's
    key slices, or a text block's lines without their ``\\n`` and trailing
    ``\\r``s (the keys of iterating the text by lines)."""
    for data, bounds in _blocks(in_stream, binary_keys):
        if bounds is not None:
            yield [data[a:b] for a, b in bounds.tolist()]
        else:
            keys = data.removesuffix(b"\n").split(b"\n")
            yield [key.rstrip(b"\r") for key in keys] if b"\r" in data else keys


def _hex_lines(values, width: int) -> str:
    """The lines ``f"{value:0{width}x}\\n"`` of ``values`` (a sequence of
    ints or a uint64 array, taken as it is), joined: each value's digits
    through ``_HEX_DIGITS``, one pass over all values per digit, all in
    uint64 arithmetic. Up to 16 digits a value is one word; wider values
    (r > 64, the Python lookup's ints) are split into 64-bit words, low
    word first, and each digit is read from the word that holds it."""
    if width <= 16:
        words = np.asarray(values, np.uint64).reshape(-1, 1)
    else:
        size = 8 * -(-width // 16)
        data = b"".join(v.to_bytes(size, "little") for v in values)
        words = np.frombuffer(data, "<u8").reshape(-1, size // 8)
    text = np.empty((len(words), width + 1), dtype=np.uint8)
    for j in range(width):
        word, bit = divmod(4 * (width - 1 - j), 64)
        text[:, j] = _HEX_DIGITS[(words[:, word] >> bit & 15).astype(np.intp)]
    text[:, width] = ord("\n")
    return text.tobytes().decode("ascii")


def cmd_query(path: str, in_stream=None, out_stream=None, binary_keys: bool = False) -> int:
    """Answer keys, one per line of text or, with ``binary_keys``, one per
    length-prefixed record of a binary stream; one hex line each. Each
    block of ``_blocks`` is one lookup call and one write: where the
    structure's lookup is native, one call of its ``query_block`` over
    the block's bytes (``block_lookup``), which hashes each key where it
    lies and answers in a uint64 array, so no Python object is made per
    key; otherwise one ``query_many`` call over the block's keys from
    ``_key_blocks``."""
    if in_stream is None:
        in_stream = sys.stdin.buffer if binary_keys else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    with open(path, "rb") as fh:
        ds = deserialize(fh.read())
    width = _hex_width(ds.params.r)
    answer = block_lookup(ds)
    if answer is None:
        for keys in _key_blocks(in_stream, binary_keys):
            out_stream.write(_hex_lines(query_many(ds, keys), width))
        return EXIT_OK
    for data, bounds in _blocks(in_stream, binary_keys):
        out_stream.write(_hex_lines(np.frombuffer(answer(data, bounds), np.uint64), width))
    return EXIT_OK


def cmd_bench(m: int, params: ChunkedParams, seed: int, threads: int = 1) -> int:
    """The build report of a synthetic build plus the time of one query
    per key (None when empty)."""
    pairs = synthetic_pairs(m, params.r, seed)
    ds, report = _build(pairs, params, threads)
    t0 = time.perf_counter()
    for key, _ in pairs:
        query_chunked(ds, key)
    query_seconds = time.perf_counter() - t0
    report["query_ns_per_key"] = query_seconds * 1e9 / ds.m if ds.m else None
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _emit_csv(rows: list[list], header: list[str], out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(v) for v in row) + "\n")


def _simulate_cfrh(args, out) -> int:
    rng = make_rng(args.seed, stream=1)
    trace = poissonised_cfrh(args.n, args.eps_prime, args.block_len, rng)
    header = ["n", "epsilon_prime", "L", "seed", "statistic", "value"]
    meta = [args.n, args.eps_prime, args.block_len, args.seed]
    mean_h = sum(trace.heights) / len(trace.heights)
    rows = [
        meta + ["num_keys", len(trace.positions)],
        meta + ["mean_height", mean_h],
        meta + ["max_height", trace.max_height],
        meta + ["sum_heights", trace.sum_heights],
        meta + ["failed", int(trace.failed)],
    ]
    _emit_csv(rows, header, out)
    return EXIT_OK


def _simulate_queue(args, out) -> int:
    rng = make_rng(args.seed, stream=2)
    trace = simulate_z(args.rho, args.steps, rng)
    d = trace.arrivals[1:]
    x = np.maximum(trace.states - 1, 0)
    recur = np.maximum(0, x[:-1] + d - 1)
    eq2_violations = int(np.count_nonzero(recur != x[1:]))
    time_avg = float(np.mean(trace.states))
    formula = mdone_mean(args.rho)
    header = ["rho", "steps", "seed", "statistic", "value"]
    meta = [args.rho, args.steps, args.seed]
    rows = [
        meta + ["time_avg_z", time_avg],
        meta + ["stationary_mean_formula", formula],
        meta + ["rel_err", abs(time_avg - formula) / formula],
        meta + ["max_z", int(trace.states.max())],
        meta + ["tail_gt_10", tail_estimate(trace, 10)],
        meta + ["tail_rate_fit", fit_tail_rate(trace)],
        meta + ["slack_chain_violations", eq2_violations],
    ]
    _emit_csv(rows, header, out)
    return EXIT_OK


def _random_band_system(m: int, eps: float, L: int, rng) -> tuple[int, list[int], list[int]]:
    """n and the start-sorted starts and patterns of m random rows; rows
    with equal starts keep their draw order."""
    n = max(1, round(m / (1.0 - eps)))
    drawn = rng.integers(1, n + 1, size=m)
    rows = []
    for s in drawn:
        bits = 0
        for shift in range(0, L, 64):  # fair coins, one 64-bit word per 64 columns
            bits |= (int(rng.integers(0, 1 << 32)) | int(rng.integers(0, 1 << 32)) << 32) << shift
        rng.integers(0, 2)  # the rhs draw: unused, kept so a seed draws the same rows
        rows.append((int(s), bits & ((1 << L) - 1)))
    rows.sort(key=lambda row: row[0])
    return n, [s for s, _ in rows], [bits for _, bits in rows]


def _simulate_coupling(args, out) -> int:
    rng = make_rng(args.seed, stream=3)
    header = [
        "trial", "m", "success", "pos_eq_piv",
        "additions", "sum_heights", "addition_bound_holds",
    ]
    rows = []
    for trial in range(args.trials):
        n, starts, patterns = _random_band_system(args.m, args.eps, args.block_len, rng)
        replay = coupled_replay(n, args.block_len, starts, patterns)
        if replay is None:
            rows.append([trial, args.m, 0, "", "", "", ""])
            continue
        outcome, trace = replay
        pos_eq_piv = outcome.pivots == trace.positions
        bound = outcome.additions <= trace.sum_heights
        rows.append(
            [
                trial, args.m, 1, str(pos_eq_piv).lower(),
                outcome.additions, trace.sum_heights, str(bound).lower(),
            ]
        )
    _emit_csv(rows, header, out)
    return EXIT_OK


def _simulate_sweep(args, out) -> int:
    header = [
        "epsilon", "epsilon_prime", "n", "L", "seed",
        "num_keys", "mean_height", "max_height", "failed",
    ]
    rows = []
    for idx, eps in enumerate(args.eps_list):
        rng = make_rng(args.seed, stream=10 + idx)
        eps_prime = eps / 2.0
        trace = poissonised_cfrh(args.n, eps_prime, args.block_len, rng)
        mean_h = sum(trace.heights) / len(trace.heights)
        rows.append(
            [
                eps, eps_prime, args.n, args.block_len, args.seed,
                len(trace.positions), mean_h, trace.max_height, int(trace.failed),
            ]
        )
    _emit_csv(rows, header, out)
    return EXIT_OK


def cmd_simulate(args, out_stream=None) -> int:
    if not 0.0 < args.eps < 1.0:
        raise InputError("--eps must be in (0, 1)")
    if not all(0.0 < eps < 1.0 for eps in args.eps_list):
        raise InputError("--eps-list entries must be in (0, 1)")
    if args.block_len < 1:
        raise InputError("--block-len must be >= 1")
    if args.kind in ("cfrh", "sweep") and args.n < 1:
        raise InputError("--n must be >= 1")
    if args.kind == "cfrh" and not 0.0 < args.eps_prime < 1.0:
        raise InputError("--eps-prime must be in (0, 1)")
    if args.kind == "queue" and not 0.0 < args.rho < 1.0:
        raise InputError("--rho must be in (0, 1)")
    if args.kind == "queue" and args.steps < 1:
        raise InputError("--steps must be >= 1")
    if args.kind == "coupling" and args.m < 1:
        raise InputError("--m must be >= 1")
    if args.kind == "coupling" and args.trials < 1:
        raise InputError("--trials must be >= 1")
    out = out_stream if out_stream is not None else sys.stdout
    dispatch = {
        "cfrh": _simulate_cfrh,
        "queue": _simulate_queue,
        "coupling": _simulate_coupling,
        "sweep": _simulate_sweep,
    }
    return dispatch[args.kind](args, out)


# ---------------------------------------------------------------------------
# argument parsing


def _default_seed() -> int:
    env = os.environ.get("BANDSET_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError(f"BANDSET_SEED={env!r} is not an integer") from None


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=0.05, help="slack fraction in (0,1)")
    p.add_argument("--block-len", type=int, default=64, help="block length L in bits")
    p.add_argument("--chunk-size", type=int, default=10_000, help="target chunk size C")
    p.add_argument("--value-bits", type=int, default=1, help="value width r in bits")
    p.add_argument("--seed", type=int, default=None, help="base seed (env BANDSET_SEED)")
    p.add_argument("--retries", type=int, default=64, help="max retry seeds per chunk")
    p.add_argument("--threads", type=int, default=1, help="chunk build thread pool size")
    p.add_argument("--force-leading-one", action="store_true",
                   help="pin the first pattern bit of every row to 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built at the first call. Its
    defaults are immutable, so no parse can change a later one's."""
    parser = argparse.ArgumentParser(
        prog="bandset",
        description="Build, query and benchmark band-system retrieval structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a structure from a TSV file")
    p_build.add_argument("input", help="TSV input: key<TAB>value-hex per line")
    p_build.add_argument("output", help="output structure file")
    p_build.add_argument("--binary-keys", action="store_true",
                         help="input is length-prefixed binary records")
    _add_param_args(p_build)

    p_query = sub.add_parser("query", help="answer keys from stdin, one per line")
    p_query.add_argument("file", help="structure file")
    p_query.add_argument("--binary-keys", action="store_true",
                         help="stdin is length-prefixed binary key records")

    p_bench = sub.add_parser("bench", help="synthetic build + full query pass")
    p_bench.add_argument("--m", type=int, required=True, help="number of keys")
    _add_param_args(p_bench)

    p_sim = sub.add_parser("simulate", help="emit simulation statistics as CSV")
    p_sim.add_argument("kind", choices=["cfrh", "queue", "coupling", "sweep"])
    p_sim.add_argument("--n", type=int, default=10_000)
    p_sim.add_argument("--eps", type=float, default=0.1)
    p_sim.add_argument("--eps-prime", type=float, default=0.05)
    p_sim.add_argument("--rho", type=float, default=0.9)
    p_sim.add_argument("--steps", type=int, default=1_000_000)
    p_sim.add_argument("--m", type=int, default=1000)
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--block-len", type=int, default=64)
    p_sim.add_argument("--eps-list", type=lambda s: tuple(float(x) for x in s.split(",")),
                       default=(0.05, 0.1, 0.2))
    p_sim.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in args and args.seed is None:  # query has no --seed
            args.seed = _default_seed()
        if "threads" in args and args.threads < 1:  # before any input is read
            raise InputError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "build":
            return cmd_build(
                args.input, args.output, _params_from_args(args), args.threads,
                args.binary_keys,
            )
        if args.command == "query":
            return cmd_query(args.file, binary_keys=args.binary_keys)
        if args.command == "bench":
            return cmd_bench(args.m, _params_from_args(args), args.seed, threads=args.threads)
        if args.command == "simulate":
            return cmd_simulate(args)
    except (InputError, DuplicateKey, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
