"""Tests of the benchmark itself, on tiny inputs (``--smoke``):

    python3 -m pytest perfbench

Every metric that BENCHMARK.json names comes out with its unit, every check
passes, per-layer counts repeat exactly for one seed, the tracer's self times
add up, and a tree without the program's sources fails without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_counts_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        proc = run_bench("cli-e3-r4-t2", 1, seed=5)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] not in ("s", "ns")})
    assert len(counts[0]) == 9 and counts[0] == counts[1]
    assert counts[0]["retrieval_flat.attempts_per_chunk"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("build-e5-r1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_times_add_up_and_missing_names_are_skipped():
    mod = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.002)
        return x

    def inner(x):
        return [mod.leaf(i) for i in range(x)]

    def outer(x):
        time.sleep(0.003)
        return mod.inner(x)

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    tracer = Tracer()
    tracer.install(
        [(mod, "outer", "t.outer"), (mod, "inner", "t.inner"), (mod, "gone", "t.gone")],
        [(mod, "leaf", "t.leaf")],
    )
    try:
        assert mod.outer(3) == [0, 1, 2]
    finally:
        tracer.uninstall()
    assert mod.outer is outer and not hasattr(mod, "gone")
    totals = tracer.totals()
    assert totals["t.leaf"]["calls"] == 3 and "t.gone" not in totals
    root = next(s for s in tracer.spans if s.name == "t.outer")
    assert tracer.subtree_self_ns(root) == root.dur
    assert totals["t.outer"]["self_ns"] >= 3_000_000
    assert totals["t.leaf"]["ns"] >= 6_000_000
