"""The benchmark's workloads and the rounds it times on them.

Every workload runs the same stages, so every end-to-end metric exists on
every workload; the workloads differ in size, slack, value width, lookup mix
and thread count, which moves the balance between the layers:

* the build: ``construct_chunked`` in the round, in set-up, or inside
  ``bandset build`` (``Workload.build_in_setup`` / ``build_via_cli``);
* save (``serialize`` + file write) and load (file read + ``deserialize``),
  each repeated ``IO_REPEATS`` times per round because one is only a few ms;
* a closed-loop lookup pass: one client, no think time, one
  ``query_chunked`` call timed at a time, answers checked;
* ``bandset build`` and ``bandset query`` run in-process through
  ``bandset.cli.main`` on the first ``cli_m`` pairs.

Rounds cycle over ``BASE_SEEDS`` structure seeds, so the median of a run
averages over several retry patterns instead of one, and a round that
repeats a base seed must write byte-identical files.

Host speed. The machines this was written on run at full speed or at about
half speed, per CPU, for one to twenty seconds at a time (measured with the
probe below: ~200 us or ~370 us, with no steal time in /proc/stat). No
statistic over one run removes a slowdown that covers most of it, so every
timed sample is bracketed by two runs of ``probe_ns``, a fixed slice of
interpreter and BLAKE2b work that does not touch bandset, and is scaled by
``PROBE_REF_NS / mean(probes)``: the numbers read as time at the reference
speed. The unscaled medians are kept in the detail line.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import operator
import statistics
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bandset import bitkit, band_solver, cli, retrieval_chunked, retrieval_flat, row_gen

from inputs import Inputs, make_inputs

BASE_SEEDS = 8
SETUP_REPEATS = 5
IO_REPEATS = 5
MIN_ROUNDS = 3
BEFORE_SAVE_SAMPLE = 2_000
COMPONENT_SAMPLE = 20_000
# Lookup timings are summarised per batch of calls, each batch bracketed by
# probes; 2,000 calls leave 20 beyond the p99.
LOOKUP_BATCH = 2_000
QUIET_QUARTILE = {"lookup_p99_ns"}
CHECKPOINT_LINES = 5_000
# probe_ns() at full speed on a 2-core x86-64 VM at 2.1 GHz, Python 3.11.
PROBE_REF_NS = 200_000


def probe_ns() -> int:
    """Nanoseconds for a fixed slice of interpreter and BLAKE2b work."""
    h = hashlib.blake2b
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(256):
        acc ^= int.from_bytes(h(i.to_bytes(2, "little") * 40, digest_size=16).digest(), "little") >> (i & 63)
    return time.perf_counter_ns() - t0


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    m: int
    r: int
    eps: float
    lookups: str  # "stored" or "mixed", see inputs.make_inputs
    cli_m: int
    cli_threads: int
    n_lookups: int = 0
    build_in_setup: bool = False
    build_via_cli: bool = False  # the structure under test is the one `bandset build` makes
    L: int = 64
    C: int = 10_000


WORKLOADS = {
    # Build layers do most of the run; at r = 1 a lookup is hash-bound.
    # The CLI stages run on the first 40k pairs only.
    "build-e5-r1": Workload(
        "build-e5-r1", m=200_000, r=1, eps=0.05, lookups="stored",
        cli_m=40_000, cli_threads=1,
    ),
    # Build is set-up; eight window dots per lookup make bitkit outweigh
    # hashing, and half the keys were never inserted. The CLI stages run on
    # the first 20k pairs only, to leave the run to the lookups.
    "lookup-e5-r8": Workload(
        "lookup-e5-r8", m=50_000, r=8, eps=0.05, lookups="mixed",
        n_lookups=300_000, cli_m=20_000, cli_threads=1, build_in_setup=True,
    ),
    # The user's command line: tight slack (more additions and retries),
    # the thread pool, TSV parsing, hex output and the report's query pass.
    # The structure under test is the one `bandset build` writes; the
    # library lookups take 60k of its keys, `bandset query` takes them all.
    # Chunks of 2,500 keys: at eps 3% a 10,000-key chunk retries ~40% of the
    # time, and ten such chunks made the build time of one input swing by
    # a fifth; forty smaller chunks average that out.
    "cli-e3-r4-t2": Workload(
        "cli-e3-r4-t2", m=100_000, r=4, eps=0.03, lookups="stored",
        cli_m=100_000, cli_threads=2, build_via_cli=True, n_lookups=60_000, C=2_500,
    ),
}


def smoke(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    m = 3_000
    return replace(w, m=m, C=1_000, cli_m=m * w.cli_m // w.m, n_lookups=min(w.n_lookups, 4_000))


def base_seed(seed: int, k: int) -> int:
    return ((seed & 0xFFFF_FFFF) << 8) | (k % BASE_SEEDS)


# Names wrapped in a traced round: (owner, attribute, metric name). Each is
# patched where its caller looks it up; the name is the defining module's.
TRACE_SPANS = [
    (retrieval_chunked, "construct_chunked", "retrieval_chunked.construct_chunked"),
    (cli, "construct_chunked", "retrieval_chunked.construct_chunked"),
    (retrieval_chunked, "normalize_pairs", "retrieval_flat.normalize_pairs"),
    (retrieval_flat, "normalize_pairs", "retrieval_flat.normalize_pairs"),
    (retrieval_chunked, "construct_flat", "retrieval_flat.construct_flat"),
    (retrieval_flat, "solve", "band_solver.solve"),
    (band_solver, "eliminate", "band_solver.eliminate"),
    (band_solver, "sort_rows", "band_solver.sort_rows"),
    (band_solver, "back_substitute", "band_solver.back_substitute"),
    (retrieval_chunked, "xor_window", "bitkit.xor_window"),
    (bitkit.BitVec, "to_int", "bitkit.to_int"),
    (bitkit.BitVec, "from_int", "bitkit.from_int"),
    (retrieval_chunked, "serialize", "retrieval_chunked.serialize"),
    (cli, "serialize", "retrieval_chunked.serialize"),
    (retrieval_chunked, "deserialize", "retrieval_chunked.deserialize"),
    (cli, "deserialize", "retrieval_chunked.deserialize"),
    (cli, "read_tsv_pairs", "cli.read_tsv_pairs"),
    (cli, "cmd_build", "cli.cmd_build"),
    (cli, "cmd_query", "cli.cmd_query"),
]
TRACE_COUNTERS = [
    (retrieval_chunked, "chunk_for_key", "row_gen.chunk_for_key"),
    (retrieval_flat, "row_for_key", "row_gen.row_for_key"),
    (cli, "query_chunked", "cli.query_chunked"),
]


def _keep_elimination(out):
    return (out.additions, out.success, out.starts, out.pivots)


def _keep_structure(ds):
    return (ds.m, ds.directory.num_chunks)


TRACE_KEEP = {
    "band_solver.eliminate": _keep_elimination,
    "retrieval_chunked.construct_chunked": _keep_structure,
}


def summary(name: str, values: list[float]) -> dict:
    """Median, quartiles and count of a metric's samples, and the value the
    run reports: the median, except for the lookup tail. The p99 of a batch
    is set by the other tenants of the host more than by the program (on
    unchanged code the batch p99/p50 ratio moved between 1.08 in a quiet
    minute and 1.75 in a busy one), so the run reports the lower quartile of
    the batch p99s, the tail of the quieter batches."""
    if len(values) == 1:
        v = values[0]
        return {"value": v, "median": v, "q1": v, "q3": v, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    value = q1 if name in QUIET_QUARTILE else med
    return {"value": value, "median": med, "q1": q1, "q3": q3, "n": len(values)}


@dataclass(slots=True)
class Round:
    walls: dict[str, float]  # stage -> wall seconds
    answers: list  # lookup answers, in lookup order
    structure: object  # the loaded structure the lookups ran on


class Checks:
    """Correctness accounting: every operation attempted, every one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str, weight: int = 1, bad: int | None = None) -> bool:
        self.attempted += weight
        if not ok:
            self.failed += weight if bad is None else bad
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


class Probes:
    """The probes taken before, during and after one timed sample, from
    whichever threads do its work (each thread's CPU may run at its own
    speed)."""

    def __init__(self):
        self.values = [probe_ns()]
        self.spent_ns = 0  # time inside probes taken during the sample
        self._lock = threading.Lock()

    def checkpoint(self) -> None:
        t0 = time.perf_counter_ns()
        value = probe_ns()
        spent = time.perf_counter_ns() - t0
        with self._lock:
            self.values.append(value)
            self.spent_ns += spent

    def mean(self) -> float:
        """Mean probe, each capped at 2.5 times the fastest: the host's slow
        phases stay under 2x, while a probe in a pool thread that loses the
        interpreter lock to the other thread midway reads 25x or more."""
        cap = 2.5 * min(self.values)
        return sum(min(v, cap) for v in self.values) / len(self.values)


class ProbingLines(io.StringIO):
    """Standard input for ``bandset query`` that takes a probe every
    ``CHECKPOINT_LINES`` lines it hands out, so that a long query pass gets
    the host's speed while it runs; a reader that does not iterate by lines
    just gets no probes."""

    def __init__(self, text: str, probes: Probes):
        super().__init__(text)
        self.probes = probes
        self.lines = 0

    def __next__(self) -> str:
        self.lines += 1
        if self.lines % CHECKPOINT_LINES == 0:
            self.probes.checkpoint()
        return super().__next__()


def run_cli(argv: list[str], stdin: io.TextIOBase | None = None) -> tuple[int, str]:
    """``bandset <argv>`` in this process, stdout captured, stdin replaced."""
    buf = io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


class Bench:
    """One workload at one seed: set-up, then rounds of the timed stages."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.seed = seed
        self.dir = workdir
        self.checks = Checks()
        self.samples: dict[str, list[float]] = {}  # scaled to the reference speed
        self.raw: dict[str, list[float]] = {}  # as measured
        self.digests: dict[str, str] = {}
        self.tsv_path = workdir / "input.tsv"
        self.inputs: Inputs | None = None
        self.setup_ds = None
        self.setup_b = 0
        self.setups = 0
        self.checkpoints = True
        self.probes: Probes | None = None

    def params(self, b: int) -> retrieval_chunked.ChunkedParams:
        w = self.w
        return retrieval_chunked.ChunkedParams(epsilon=w.eps, L=w.L, r=w.r, C=w.C, base_seed=b)

    def record(self, metric: str, value: float, probe: float) -> None:
        """Keep a sample as measured and scaled by the mean probe around it."""
        self.raw.setdefault(metric, []).append(value)
        self.samples.setdefault(metric, []).append(value * PROBE_REF_NS / probe)

    def timed(self, metric: str, scale: float, fn):
        """Run ``fn`` once between two probes; record its ns times ``scale``.
        Returns (result, seconds, mean probe).

        A build or a query pass takes seconds, long enough for the host to
        change speed, so probes are also taken while ``fn`` runs: after
        every chunk build, in the thread that made it
        (``retrieval_chunked.construct_flat``), and every ``CHECKPOINT_LINES``
        lines that ``bandset query`` reads (``ProbingLines``, via
        ``self.probes``). Their time is taken out of the sample. Traced runs
        take neither, so that no probe lands in a layer's self time."""
        gc.collect()
        self.probes = probes = Probes()
        hooked = retrieval_chunked.__dict__.get("construct_flat") if self.checkpoints else None
        if hooked is not None:

            def checkpoint(*args, **kwargs):
                result = hooked(*args, **kwargs)
                probes.checkpoint()
                return result

            retrieval_chunked.construct_flat = checkpoint
        try:
            t0 = time.perf_counter_ns()
            result = fn()
            ns = time.perf_counter_ns() - t0 - probes.spent_ns
        finally:
            if hooked is not None:
                retrieval_chunked.construct_flat = hooked
        probes.checkpoint()
        self.record(metric, ns * scale, probes.mean())
        return result, ns / 1e9, probes.mean()

    def record_file(self, n_keys: int, b: int, data: bytes) -> None:
        """Same keys and base seed must give the same bytes, whichever path
        (library or CLI) or thread count wrote them."""
        key = f"{n_keys}/{b}"
        digest = hashlib.sha256(data).hexdigest()
        old = self.digests.setdefault(key, digest)
        self.checks.op(old == digest, f"structure file for {key} differs between builds")

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Make the inputs (and, where it is not the measured work, the
        structure); the time goes to ``setup_s``."""
        self.timed("setup_s", 1e-9, self._setup)

    def _setup(self) -> None:
        w = self.w
        inputs = make_inputs(self.seed, w.m, w.r, w.lookups, w.cli_m, w.n_lookups)
        self.tsv_path.write_bytes(inputs.cli_tsv)
        if self.inputs is not None:
            self.checks.op(
                inputs.pairs == self.inputs.pairs
                and inputs.lookup_keys == self.inputs.lookup_keys
                and inputs.cli_tsv == self.inputs.cli_tsv,
                "the same seed gave different inputs",
            )
        self.inputs = inputs
        if w.build_in_setup:
            # Each set-up builds with the next base seed, so that the median
            # averages over retry patterns as the rounds of other workloads do.
            b = self.setup_b = base_seed(self.seed, self.setups)
            self.setups += 1
            self.setup_ds, *_ = self.timed(
                "build_ns_per_key", 1 / w.m,
                lambda: retrieval_chunked.construct_chunked(inputs.pairs, self.params(b)),
            )
            self.record_file(w.m, b, retrieval_chunked.serialize(self.setup_ds))

    # -- one round ---------------------------------------------------------

    def round(self, k: int, stage=None) -> Round:
        """Run every stage once with the k-th base seed.

        ``stage(name)`` is a context manager wrapped around each stage (the
        traced run passes the tracer's span); timings go to ``self.samples``.
        """
        stage = stage or (lambda name: contextlib.nullcontext())
        w, inp, checks = self.w, self.inputs, self.checks
        walls: dict[str, float] = {}

        if w.build_in_setup:
            b = self.setup_b
            ds = self.setup_ds
        elif w.build_via_cli:
            b = base_seed(self.seed, k)
            ds = self.cli_build(b, stage, walls)
        else:
            b = base_seed(self.seed, k)
            with stage("stage.build"):
                ds, walls["build"], *_ = self.timed(
                    "build_ns_per_key", 1 / w.m,
                    lambda: retrieval_chunked.construct_chunked(inp.pairs, self.params(b)),
                )
        if ds is None:
            raise RuntimeError("bandset build failed: " + "; ".join(checks.messages))
        checks.op(ds.m == w.m, f"built structure has m={ds.m}, not {w.m}")

        sample = inp.lookup_keys[:BEFORE_SAVE_SAMPLE]
        before = [retrieval_chunked.query_chunked(ds, key) for key in sample]

        path = self.dir / "lib.bin"

        def save() -> bytes:
            data = retrieval_chunked.serialize(ds)
            with open(path, "wb") as fh:
                fh.write(data)
            return data

        def load():
            with open(path, "rb") as fh:
                return retrieval_chunked.deserialize(fh.read())

        walls["save"] = walls["load"] = 0.0
        with stage("stage.save"):
            for _ in range(IO_REPEATS):
                data, seconds, *_ = self.timed("save_ns_per_key", 1 / w.m, save)
                walls["save"] += seconds
        checks.op(True, "save", weight=IO_REPEATS)
        self.record_file(w.m, b, data)
        self.samples.setdefault("disk_bits_per_value_bit", []).append(
            8 * path.stat().st_size / (w.m * w.r)
        )
        with stage("stage.load"):
            for _ in range(IO_REPEATS):
                loaded, seconds, *_ = self.timed("load_ns_per_key", 1 / w.m, load)
                walls["load"] += seconds
        checks.op(True, "load", weight=IO_REPEATS)

        with stage("stage.lookup"):
            answers, batches = timed_lookups(loaded, inp.lookup_keys)
        walls["lookup"] = sum(bt[0] * bt[1] for bt in batches) / 1e9
        self.check_answers(answers, inp.lookup_expected)
        bad = sum(1 for x, y in zip(before, answers) if x != y)
        checks.op(bad == 0, f"{bad} answers changed across save/load", weight=len(before), bad=bad)
        for per_key, _, p50, p99, pb, pa in batches:
            self.record("lookup_ns_per_key", per_key, (pb + pa) / 2)
            self.record("lookup_p50_ns", p50, (pb + pa) / 2)
            self.record("lookup_p99_ns", p99, (pb + pa) / 2)

        if not w.build_via_cli:
            self.cli_build(b, stage, walls)

        with stage("stage.cli_query"):
            (code, out), walls["cli_query"], *_ = self.timed(
                "cli_query_ns_per_key", 1 / w.cli_m,
                lambda: run_cli(
                    ["query", str(self.dir / "cli.bin")],
                    ProbingLines(inp.cli_query_text, self.probes)
                    if self.checkpoints else io.StringIO(inp.cli_query_text),
                ),
            )
        checks.op(code == 0, f"bandset query exited {code}")
        got, want = out.splitlines(), inp.cli_expected_out.splitlines()
        wrong = sum(1 for x, y in zip(got, want) if x != y) + abs(len(got) - len(want))
        checks.op(wrong == 0, f"bandset query: {wrong} wrong lines", weight=len(want), bad=wrong)
        return Round(walls, answers, loaded)

    def cli_build(self, b: int, stage, walls: dict):
        """``bandset build`` on the TSV; returns the structure it built.

        The ``construct_chunked`` call inside is timed through the name the
        CLI looks up, which is the build time where the CLI is the build."""
        w, checks = self.w, self.checks
        built = []
        inner = cli.construct_chunked

        def timed_construct(*args, **kwargs):
            t0 = time.perf_counter_ns()
            ds = inner(*args, **kwargs)
            built.append((time.perf_counter_ns() - t0, ds))
            return ds

        out_path = self.dir / "cli.bin"
        argv = [
            "build", str(self.tsv_path), str(out_path), "--eps", repr(w.eps),
            "--block-len", str(w.L), "--chunk-size", str(w.C), "--value-bits", str(w.r),
            "--seed", str(b), "--threads", str(w.cli_threads),
        ]
        cli.construct_chunked = timed_construct
        try:
            with stage("stage.cli_build"):
                (code, out), walls["cli_build"], probe = self.timed(
                    "cli_build_ns_per_key", 1 / w.cli_m, lambda: run_cli(argv)
                )
        finally:
            cli.construct_chunked = inner
        if not checks.op(code == 0 and len(built) == 1, f"bandset build exited {code}"):
            return None
        try:
            report_m = json.loads(out.strip().splitlines()[-1])["m"]
        except (ValueError, IndexError, KeyError, TypeError):
            report_m = None
        checks.op(report_m == w.cli_m, f"bandset build reported m={report_m}")
        self.record_file(w.cli_m, b, out_path.read_bytes())
        ns, ds = built[0]
        if w.build_via_cli:
            self.record("build_ns_per_key", ns / w.m, probe)
        return ds

    def check_thread_independence(self) -> None:
        """Where the CLI builds on a pool, a one-thread library build of the
        same pairs and base seed must write the same bytes."""
        w = self.w
        if w.cli_threads > 1 and w.cli_m == w.m:
            b = base_seed(self.seed, 0)
            ds = retrieval_chunked.construct_chunked(self.inputs.pairs, self.params(b), threads=1)
            self.record_file(w.m, b, retrieval_chunked.serialize(ds))

    def check_answers(self, answers: list, expected: list) -> None:
        limit = 1 << self.w.r
        wrong = 0
        for got, want in zip(answers, expected):
            if want is None:
                if not (isinstance(got, int) and 0 <= got < limit):
                    wrong += 1
            elif got != want:
                wrong += 1
        self.checks.op(wrong == 0, f"{wrong} lookups answered wrong", weight=len(expected), bad=wrong)


def timed_lookups(ds, keys: list[bytes]) -> tuple[list, list[tuple]]:
    """One closed-loop client, each call timed alone. Returns the answers
    and, per batch of ``LOOKUP_BATCH`` calls, (loop ns per key, calls, p50 ns,
    p99 ns, probe before, probe after). A call that raises answers None,
    which the answer check counts as wrong."""
    query = retrieval_chunked.query_chunked
    clock = time.perf_counter_ns
    out: list = []
    batches = []
    probe = probe_ns()
    for b in range(0, len(keys), LOOKUP_BATCH):
        batch = keys[b : b + LOOKUP_BATCH]
        got: list = [None] * len(batch)
        lat = [0] * len(batch)
        i = 0
        start = clock()
        for key in batch:
            t0 = clock()
            try:
                got[i] = query(ds, key)
            except Exception:
                pass
            lat[i] = clock() - t0
            i += 1
        loop_ns = clock() - start
        after = probe_ns()
        p50, p99 = np.percentile(lat, [50, 99])
        batches.append((loop_ns / len(batch), len(batch), float(p50), float(p99), probe, after))
        probe = after
        out.extend(got)
    return out, batches


def lookup_components(ds, keys: list[bytes]) -> dict[str, float]:
    """Mean ns per call of the public pieces a lookup is made of, each timed
    as a bulk loop over the same keys as a plain ``query_chunked`` loop, less
    the cost of the same loop with an empty body. The public functions add a
    frame and argument objects that the inline query path does not, so
    ``query_self_ns`` (what is left of a lookup) can come out below zero.

    A piece whose public signature no longer fits reports 0."""
    clock = time.perf_counter_ns
    n = len(keys)
    query = retrieval_chunked.query_chunked
    t0 = clock()
    for key in keys:
        pass
    t1 = clock()
    for key in keys:
        query(ds, key)
    t2 = clock()
    empty = t1 - t0
    lookup_ns = (t2 - t1 - empty) / n
    out = {"row_gen.chunk_for_key.ns": 0.0, "row_gen.row_for_key.ns": 0.0, "bitkit.dot_window.ns": 0.0}
    try:
        p = ds.params
        d = ds.directory
        offsets, retries = d.offsets, d.seeds
        seed0 = row_gen.HashSeed(p.base_seed, 0)
        nc = d.num_chunks
        chunk_for_key = row_gen.chunk_for_key
        t1 = clock()
        for key in keys:
            chunk_for_key(key, seed0, nc)
        t2 = clock()
        out["row_gen.chunk_for_key.ns"] = (t2 - t1 - empty) / n

        chunks = [chunk_for_key(key, seed0, nc) for key in keys]
        seeds = [row_gen.HashSeed(p.base_seed, s) for s in retries]
        rps = [row_gen.RowParams(offsets[c + 1] - offsets[c] - (p.L - 1), p.L) for c in range(nc)]
        args = [(key, seeds[c], rps[c]) for key, c in zip(keys, chunks)]
        row_for_key = row_gen.row_for_key
        flo = p.force_leading_one
        t0 = clock()
        for key, s, rp in args:
            pass
        t1 = clock()
        for key, s, rp in args:
            row_for_key(key, s, rp, flo)
        t2 = clock()
        out["row_gen.row_for_key.ns"] = ((t2 - t1) - (t1 - t0)) / n

        rows = [row_for_key(key, s, rp, flo) for key, s, rp in args]
        dargs = [(offsets[c] + start - 1, blk) for c, (start, blk) in zip(chunks, rows)]
        dot_window = bitkit.dot_window
        t0 = clock()
        for plane in ds.tables:
            for off, blk in dargs:
                pass
        t1 = clock()
        for plane in ds.tables:
            for off, blk in dargs:
                dot_window(plane, off, blk)
        t2 = clock()
        out["bitkit.dot_window.ns"] = ((t2 - t1) - (t1 - t0)) / (n * len(ds.tables))
        parts = (
            out["row_gen.chunk_for_key.ns"]
            + out["row_gen.row_for_key.ns"]
            + len(ds.tables) * out["bitkit.dot_window.ns"]
        )
    except (AttributeError, TypeError, ValueError, IndexError):
        parts = 0.0
    out["retrieval_chunked.query_self_ns"] = lookup_ns - parts
    return out


def layer_metrics(tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer numbers of one traced round: (all metrics, the exact counts)."""
    t = tracer.totals()

    def get(name: str, field: str) -> float:
        return t.get(name, {}).get(field, 0)

    builds = [s for s in tracer.spans if s.name == "retrieval_chunked.construct_chunked"]
    keys_built = sum(s.returned[0] for s in builds if s.returned) or 1
    chunks = sum(s.returned[1] for s in builds if s.returned)
    additions = 0
    disp_sum = disp_n = disp_max = 0
    for s in tracer.spans:
        if s.name != "band_solver.eliminate" or not s.returned:
            continue
        adds, ok, starts, pivots = s.returned
        additions += adds
        if ok:
            disp_sum += sum(pivots) - sum(starts)
            disp_n += len(pivots)
            disp_max = max(disp_max, max(map(operator.sub, pivots, starts), default=0))
    flats = get("retrieval_flat.construct_flat", "calls")
    query_spans = [s for s in tracer.spans if s.name == "cli.cmd_query"]
    queried = sum(s.counted.get("cli.query_chunked", (0, 0))[0] for s in query_spans)
    kids = tracer.children()
    cmd_query_self = sum(tracer.self_ns(s, kids.get(id(s), [])) for s in query_spans)

    counts = {
        "row_gen.chunk_for_key.calls_per_key": get("row_gen.chunk_for_key", "calls") / keys_built,
        "row_gen.row_for_key.calls_per_key": get("row_gen.row_for_key", "calls") / keys_built,
        "band_solver.additions_per_key": additions / keys_built,
        "band_solver.displacement_mean": disp_sum / disp_n if disp_n else 0.0,
        "band_solver.displacement_max": disp_max,
        "retrieval_flat.normalize_pairs.calls": get("retrieval_flat.normalize_pairs", "calls"),
        "retrieval_flat.attempts_per_chunk": get("band_solver.solve", "calls") / flats if flats else 0.0,
        "retrieval_chunked.chunks": chunks,
        "cli.build_query_calls": sum(
            s.counted.get("cli.query_chunked", (0, 0))[0]
            for s in tracer.spans if s.name == "cli.cmd_build"
        ),
    }
    metrics = dict(counts)
    metrics.update({
        "row_gen.row_for_key.s": get("row_gen.row_for_key", "ns") / 1e9,
        "band_solver.eliminate.self_s": get("band_solver.eliminate", "self_ns") / 1e9,
        "band_solver.sort_rows.s": get("band_solver.sort_rows", "ns") / 1e9,
        "band_solver.back_substitute.s": get("band_solver.back_substitute", "ns") / 1e9,
        "retrieval_flat.normalize_pairs.s": get("retrieval_flat.normalize_pairs", "ns") / 1e9,
        "retrieval_flat.construct_flat.self_s": get("retrieval_flat.construct_flat", "self_ns") / 1e9,
        "retrieval_chunked.construct_chunked.self_s":
            get("retrieval_chunked.construct_chunked", "self_ns") / 1e9,
        "retrieval_chunked.serialize.s": get("retrieval_chunked.serialize", "ns") / 1e9,
        "retrieval_chunked.deserialize.s": get("retrieval_chunked.deserialize", "ns") / 1e9,
        "bitkit.to_int.s": get("bitkit.to_int", "ns") / 1e9,
        "bitkit.from_int.s": get("bitkit.from_int", "ns") / 1e9,
        "bitkit.xor_window.s": get("bitkit.xor_window", "ns") / 1e9,
        "cli.read_tsv_pairs.s": get("cli.read_tsv_pairs", "ns") / 1e9,
        "cli.cmd_query.self_ns_per_key": cmd_query_self / queried if queried else 0.0,
        "trace.build_wall_s": sum(s.dur for s in builds) / 1e9,
        "trace.build_self_sum_s": sum(tracer.subtree_self_ns(s) for s in builds) / 1e9,
    })
    return metrics, counts
