"""Benchmark for bandset: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload build-e5-r1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, so nothing has to be installed. ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json`` (timed with tracing off);
``--trace 1`` runs untraced and traced rounds in pairs on the same input and
prints the per-layer metrics, the tracing overhead, and checks that tracing
changed no byte and no answer. ``--smoke`` shrinks every workload to a few
thousand keys, for the benchmark's own schema test.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it holds the medians with quartiles and sample counts, the
run environment and any failed checks; the same goes to
``.bench_out/results/``, and a traced run writes its spans to
``.bench_out/traces/``. Scratch files live in ``.bench_out/work/`` and are
removed at exit. A ledger in ``.bench_out/ledger/``, keyed by a hash of the
program's and the benchmark's sources and the workload, checks that two runs
of one seed write the same structure files and the same per-layer counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def environment() -> dict:
    """Host facts that explain a noisy run; /proc is only read."""
    import numpy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "time": time.time(),
    }
    try:
        env["pressure_cpu"] = Path("/proc/pressure/cpu").read_text().split("\n")[:2]
    except OSError:
        env["pressure_cpu"] = None
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        env["steal_ticks"] = int(fields[8])
    except (OSError, IndexError, ValueError):
        env["steal_ticks"] = None
    return env


def code_hash(workload) -> str:
    """Hash of the program's and the benchmark's sources and the workload."""
    h = hashlib.sha256(repr(workload).encode())
    for path in sorted([*(SRC / "bandset").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_ledger(workload, seed: int, files: dict, counts: dict, checks) -> None:
    """Compare with what an earlier run of the same code, workload and seed wrote."""
    path = OUT / "ledger" / code_hash(workload) / f"{workload.name}-{seed}.json"
    old = {"files": {}, "counts": {}}
    if path.is_file():
        old = json.loads(path.read_text())
    for kind, new in (("files", files), ("counts", counts)):
        for key, value in new.items():
            if key in old[kind]:
                checks.op(old[kind][key] == value, f"{kind} for {key} differ from an earlier run")
            old[kind][key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(old, sort_keys=True))
    tmp.replace(path)


def freeze_inputs() -> None:
    """Move the inputs out of the collector's reach: a full collection would
    otherwise scan the benchmark's own key lists in the middle of a timed
    build, which the program run on its own never pays for."""
    gc.collect()
    gc.freeze()


def run_untraced(bench, seconds: float) -> tuple[dict, dict]:
    import workloads as wl

    for _ in range(wl.SETUP_REPEATS):
        bench.setup()
    freeze_inputs()
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        bench.round(k)
        dt = time.perf_counter() - t0
        k += 1
        if k >= wl.MIN_ROUNDS and time.perf_counter() + dt > deadline:
            break
    samples = dict(bench.samples)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    detail = {name: wl.summary(name, v) for name, v in samples.items()}
    for name, v in bench.raw.items():
        detail[name]["unscaled_median"] = statistics.median(v)
    detail["rounds"] = k
    return {name: d["value"] for name, d in detail.items() if name != "rounds"}, detail


def probing_stages(tracer, probes):
    """Stage wrapper for a round: a span when tracing, then a probe of the
    host's speed once the stage (and its span) has ended."""

    @contextlib.contextmanager
    def stage(name):
        with tracer.span(name) if tracer is not None else contextlib.nullcontext():
            yield
        probes.checkpoint()

    return stage


def run_traced(bench, seconds: float, spans_out: list) -> tuple[dict, dict]:
    import workloads as wl
    from tracing import Tracer

    bench.checkpoints = False
    bench.setup()
    freeze_inputs()
    tracer = Tracer(keep=wl.TRACE_KEEP)
    per_round: list[dict] = []
    first_counts = None
    deadline = time.perf_counter() + seconds
    pairs = 0
    while True:
        t0 = time.perf_counter()
        gc.collect()
        plain_probes = wl.Probes()
        plain = bench.round(0, stage=probing_stages(None, plain_probes))
        gc.collect()
        tracer.reset()
        tracer.install(wl.TRACE_SPANS, wl.TRACE_COUNTERS)
        probes = wl.Probes()
        try:
            traced = bench.round(0, stage=probing_stages(tracer, probes))
        finally:
            tracer.uninstall()
        metrics, counts = wl.layer_metrics(tracer)
        spans_out.append(tracer.dump())
        same = plain.answers == traced.answers
        bench.checks.op(same, "traced run gave different answers")
        if first_counts is None:
            first_counts = counts
        bench.checks.op(counts == first_counts, "per-layer counts changed between rounds")
        # Times are scaled to the reference host speed, as the end-to-end ones are.
        scale = wl.PROBE_REF_NS / probes.mean()
        metrics = {k: v if k in counts else v * scale for k, v in metrics.items()}
        component_probes = wl.Probes()
        components = wl.lookup_components(traced.structure, bench.inputs.lookup_keys[: wl.COMPONENT_SAMPLE])
        component_probes.checkpoint()
        scale = wl.PROBE_REF_NS / component_probes.mean()
        metrics.update({k: v * scale for k, v in components.items()})
        metrics["trace.overhead_s"] = (
            sum(traced.walls.values()) * wl.PROBE_REF_NS / probes.mean()
            - sum(plain.walls.values()) * wl.PROBE_REF_NS / plain_probes.mean()
        )
        per_round.append(metrics)
        pairs += 1
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    bench.check_thread_independence()
    detail = {name: wl.summary(name, [m[name] for m in per_round]) for name in per_round[0]}
    detail["rounds"] = pairs
    bench.trace_counts = first_counts
    return {name: d["value"] for name, d in detail.items() if name != "rounds"}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the schema test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bandset" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no bandset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bandset
    import workloads as wl

    if Path(bandset.__file__).resolve().parent != SRC / "bandset":
        print(f"perfbench: imported bandset from {bandset.__file__}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = wl.smoke(workload)

    env_start = environment()
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    spans: list = []
    try:
        bench = wl.Bench(workload, args.seed, workdir)
        if args.trace:
            values, detail = run_traced(bench, args.seconds, spans)
            wanted = spec["per_layer"]
            counts = {str(wl.base_seed(args.seed, 0)): bench.trace_counts}
        else:
            values, detail = run_untraced(bench, args.seconds)
            wanted = spec["end_to_end"]
            counts = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run_name = f"{args.workload}{'-smoke' if args.smoke else ''}"
    check_ledger(workload, args.seed, bench.digests, counts, bench.checks)

    checks = bench.checks
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    extra = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "error_rate": checks.failed / checks.attempted,
        "failed_checks": checks.messages,
        "detail": detail,
        "env_start": env_start,
        "env_end": environment(),
    }
    stamp = f"{run_name}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(extra, indent=1, sort_keys=True))
    if spans:
        (OUT / "traces").mkdir(exist_ok=True)
        (OUT / "traces" / f"{stamp}.json").write_text(json.dumps(spans))
    print(json.dumps(extra, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
