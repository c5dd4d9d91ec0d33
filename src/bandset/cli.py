"""Command-line front door: build, query, bench, simulate.

Batch only. Exit codes: 0 success, 1 construction failure, 2 input error,
3 format error. The base seed comes from --seed, falling back to the
BANDSET_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analysis_sim import (
    coupled_replay,
    fit_tail_rate,
    make_rng,
    mdone_mean,
    poissonised_cfrh,
    simulate_z,
    tail_estimate,
)
from .band_solver import BandRow, BandSystem
from .bitkit import Block
from .retrieval_chunked import (
    ChunkedParams,
    ChunkedRetrieval,
    FormatError,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    serialize,
)
from .retrieval_flat import DuplicateKey, RetriesExhausted

EXIT_OK = 0
EXIT_CONSTRUCT = 1
EXIT_INPUT = 2
EXIT_FORMAT = 3


@dataclass(slots=True)
class BuildSpec:
    input_path: str
    output_path: str
    epsilon: float
    L: int
    C: int
    r: int
    base_seed: int
    force_leading_one: bool
    threads: int
    max_retries: int = 64
    binary_keys: bool = False

    def params(self) -> ChunkedParams:
        return ChunkedParams(
            epsilon=self.epsilon,
            L=self.L,
            r=self.r,
            C=self.C,
            max_retries=self.max_retries,
            base_seed=self.base_seed,
            force_leading_one=self.force_leading_one,
        )


class InputError(Exception):
    pass


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


def read_tsv_pairs(path: str, r: int) -> list[tuple[bytes, int]]:
    """key<TAB>value-hex per line; raises InputError with the line number."""
    pairs = []
    limit = 1 << r
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def read_binary_pairs(path: str, r: int) -> list[tuple[bytes, int]]:
    """Length-prefixed records: u32 key length, key bytes, u64 value."""
    if r > 64:
        raise InputError("binary key mode supports r <= 64")
    pairs = []
    limit = 1 << r
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    rec = 0
    while pos < len(data):
        rec += 1
        if pos + 4 > len(data):
            raise InputError(f"record {rec}: truncated length prefix")
        (klen,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + klen + 8 > len(data):
            raise InputError(f"record {rec}: truncated record")
        key = data[pos : pos + klen]
        pos += klen
        (value,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if value >= limit:
            raise InputError(f"record {rec}: value does not fit in {r} bits")
        pairs.append((key, value))
    return pairs


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


def _build_report(ds: ChunkedRetrieval, construct_seconds: float) -> dict:
    """What `build` reports: size, parameters, overhead, build time and the
    per-chunk retry histogram."""
    hist = Counter(ds.directory.seeds)
    return {
        "m": ds.m,
        "params": _params_dict(ds.params),
        "overhead": overhead(ds) if ds.m else float("nan"),
        "construct_ns_per_key": construct_seconds * 1e9 / max(ds.m, 1),
        "retries_histogram": {str(k): v for k, v in sorted(hist.items())},
    }


def cmd_build(spec: BuildSpec) -> int:
    reader = read_binary_pairs if spec.binary_keys else read_tsv_pairs
    pairs = reader(spec.input_path, spec.r)
    params = spec.params()
    t0 = time.perf_counter()
    ds = construct_chunked(pairs, params, threads=spec.threads)
    construct_seconds = time.perf_counter() - t0
    with open(spec.output_path, "wb") as fh:
        fh.write(serialize(ds))
    print(json.dumps(_build_report(ds, construct_seconds), sort_keys=True))
    return EXIT_OK


def cmd_query(path: str, in_stream=None, out_stream=None) -> int:
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    with open(path, "rb") as fh:
        ds = deserialize(fh.read())
    width = _hex_width(ds.params.r)
    for line in in_stream:
        key = line.rstrip("\n").rstrip("\r").encode("utf-8")
        value = query_chunked(ds, key)
        out_stream.write(f"{value:0{width}x}\n")
    return EXIT_OK


def cmd_bench(m: int, params: ChunkedParams, seed: int, threads: int = 1) -> int:
    """The build report of a synthetic build plus the time of one query
    per key."""
    pairs = synthetic_pairs(m, params.r, seed)
    t0 = time.perf_counter()
    ds = construct_chunked(pairs, params, threads=threads)
    construct_seconds = time.perf_counter() - t0
    report = _build_report(ds, construct_seconds)
    t0 = time.perf_counter()
    for key, _ in pairs:
        query_chunked(ds, key)
    report["query_ns_per_key"] = (time.perf_counter() - t0) * 1e9 / max(ds.m, 1)
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


def _random_band_system(m: int, eps: float, L: int, r: int, rng) -> BandSystem:
    n = max(1, round(m / (1.0 - eps)))
    starts = rng.integers(1, n + 1, size=m)
    rows = []
    for s in starts:
        bits = int(rng.integers(0, 1 << 32)) | int(rng.integers(0, 1 << 32)) << 32
        bits &= (1 << L) - 1
        rhs = int(rng.integers(0, 1 << min(r, 32)))
        rows.append(BandRow(int(s), Block(bits, L), rhs))
    return BandSystem(n, L, r, rows)


def _simulate_coupling(args, out) -> int:
    rng = make_rng(args.seed, stream=3)
    header = [
        "trial", "m", "success", "pos_eq_piv",
        "additions", "sum_heights", "addition_bound_holds",
    ]
    rows = []
    for trial in range(args.trials):
        sys_ = _random_band_system(args.m, args.eps, args.block_len, 1, rng)
        replay = coupled_replay(sys_)
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
    return int(env) if env else 0


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


def build_parser() -> argparse.ArgumentParser:
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
    p_sim.add_argument("--eps-list", type=lambda s: [float(x) for x in s.split(",")],
                       default=[0.05, 0.1, 0.2])
    p_sim.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = _default_seed()
    try:
        if args.command == "build":
            spec = BuildSpec(
                input_path=args.input,
                output_path=args.output,
                epsilon=args.eps,
                L=args.block_len,
                C=args.chunk_size,
                r=args.value_bits,
                base_seed=args.seed,
                force_leading_one=args.force_leading_one,
                threads=args.threads,
                max_retries=args.retries,
                binary_keys=args.binary_keys,
            )
            return cmd_build(spec)
        if args.command == "query":
            return cmd_query(args.file)
        if args.command == "bench":
            params = ChunkedParams(
                epsilon=args.eps,
                L=args.block_len,
                r=args.value_bits,
                C=args.chunk_size,
                max_retries=args.retries,
                base_seed=args.seed,
                force_leading_one=args.force_leading_one,
            )
            return cmd_bench(args.m, params, args.seed, threads=args.threads)
        if args.command == "simulate":
            return cmd_simulate(args)
    except RetriesExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT
    except (InputError, DuplicateKey, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
