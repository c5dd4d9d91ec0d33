import io
import json
import struct

import pytest

from bandset.cli import main
from bandset.retrieval_chunked import deserialize, overhead, query_chunked


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tsv(path, rows):
    path.write_text("".join(f"{k}\t{v}\n" for k, v in rows))


def test_build_and_query_roundtrip(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    out = tmp_path / "ds.bin"
    write_tsv(inp, [("apple", "1"), ("banana", "0"), ("cherry", "1")])
    code, stdout, _ = run(["build", str(inp), str(out), "--seed", "7"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["m"] == 3

    ds = deserialize(out.read_bytes())
    assert query_chunked(ds, b"apple") == 1
    assert query_chunked(ds, b"banana") == 0
    assert query_chunked(ds, b"cherry") == 1
    assert report["overhead"] == overhead(ds)

    monkeypatch.setattr("sys.stdin", io.StringIO("apple\nbanana\ncherry\n"))
    code, stdout, _ = run(["query", str(out)], capsys)
    assert code == 0
    assert stdout.splitlines() == ["1", "0", "1"]


def test_build_does_not_query_its_keys(tmp_path, capsys, monkeypatch):
    def no_queries(ds, key):
        raise AssertionError("build must not query")

    monkeypatch.setattr("bandset.cli.query_chunked", no_queries)
    inp = tmp_path / "in.tsv"
    out = tmp_path / "ds.bin"
    rows = [(f"k{i}", format(i % 2, "x")) for i in range(300)]
    write_tsv(inp, rows)
    code, stdout, _ = run(["build", str(inp), str(out), "--seed", "4"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["m"] == 300 and "query_ns_per_key" not in report
    ds = deserialize(out.read_bytes())
    assert all(query_chunked(ds, k.encode()) == int(v, 16) for k, v in rows)


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_build_seed_outside_64_bits_exits_2(seed, tmp_path, capsys):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1")])
    code, _, stderr = run(["build", str(inp), str(tmp_path / "o"), "--seed", seed], capsys)
    assert code == 2
    assert "base_seed" in stderr


def test_build_malformed_hex_exits_2_with_line(tmp_path, capsys):
    inp = tmp_path / "bad.tsv"
    inp.write_text("good\t1\nbad\tzz\n")
    out = tmp_path / "ds.bin"
    code, _, stderr = run(["build", str(inp), str(out)], capsys)
    assert code == 2
    assert "line 2" in stderr


def test_build_missing_tab_exits_2(tmp_path, capsys):
    inp = tmp_path / "bad.tsv"
    inp.write_text("no-separator-here\n")
    code, _, stderr = run(["build", str(inp), str(tmp_path / "o")], capsys)
    assert code == 2
    assert "line 1" in stderr


def test_build_duplicate_key_exits_2(tmp_path, capsys):
    inp = tmp_path / "dup.tsv"
    write_tsv(inp, [("same", "1"), ("same", "0")])
    code, _, stderr = run(["build", str(inp), str(tmp_path / "o")], capsys)
    assert code == 2
    assert "duplicate" in stderr.lower()


def test_build_deterministic_output(tmp_path, capsys):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(f"k{i}", format(i % 2, "x")) for i in range(500)])
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    assert run(["build", str(inp), str(out1), "--seed", "3"], capsys)[0] == 0
    assert run(["build", str(inp), str(out2), "--seed", "3"], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_binary_key_mode(tmp_path, capsys):
    records = b""
    pairs = [(b"\x00binary\xffkey", 1), (b"plain", 0)]
    for key, value in pairs:
        records += struct.pack("<I", len(key)) + key + struct.pack("<Q", value)
    inp = tmp_path / "in.bin"
    inp.write_bytes(records)
    out = tmp_path / "ds.bin"
    code, _, _ = run(["build", str(inp), str(out), "--binary-keys", "--seed", "5"], capsys)
    assert code == 0
    ds = deserialize(out.read_bytes())
    for key, value in pairs:
        assert query_chunked(ds, key) == value


def test_query_unknown_keys_and_empty_stdin(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("x", "1")])
    out = tmp_path / "ds.bin"
    run(["build", str(inp), str(out)], capsys)

    monkeypatch.setattr("sys.stdin", io.StringIO("never-inserted\n"))
    code, stdout, _ = run(["query", str(out)], capsys)
    assert code == 0 and stdout.strip() in ("0", "1")

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, stdout, _ = run(["query", str(out)], capsys)
    assert code == 0 and stdout == ""


def test_query_bad_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a structure at all")
    code, _, stderr = run(["query", str(bad)], capsys)
    assert code == 3


def test_bench_report_consistency(capsys):
    code, stdout, _ = run(
        ["bench", "--m", "3000", "--chunk-size", "1000", "--seed", "17"], capsys
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["m"] == 3000
    # directory + per-chunk padding dominate at this tiny scale
    assert 0 < report["overhead"] < 0.3
    assert report["construct_ns_per_key"] > 0
    assert report["query_ns_per_key"] > 0
    assert sum(report["retries_histogram"].values()) == 3  # chunks


@pytest.mark.parametrize("eps,target", [(0.07, 0.088), (0.03, 0.043)])
def test_bench_overhead_at_reference_points(eps, target, capsys):
    code, stdout, _ = run(
        ["bench", "--m", "100000", "--eps", str(eps), "--chunk-size", "10000",
         "--seed", "8"],
        capsys,
    )
    assert code == 0
    report = json.loads(stdout)
    assert abs(report["overhead"] - target) <= 0.007


def test_build_retries_exhausted_exits_1(tmp_path, capsys):
    # one-bit blocks collide almost surely, so every retry fails
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(f"k{i}", "1") for i in range(60)])
    code, _, stderr = run(
        ["build", str(inp), str(tmp_path / "o"), "--block-len", "1",
         "--retries", "2", "--eps", "0.02"],
        capsys,
    )
    assert code == 1
    assert "retries" in stderr.lower()


def test_simulate_queue_deterministic(capsys):
    argv = ["simulate", "queue", "--rho", "0.9", "--steps", "20000", "--seed", "1"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "rho,steps,seed,statistic,value"
    stats = {row.split(",")[3]: row.split(",")[4] for row in lines[1:]}
    assert float(stats["slack_chain_violations"]) == 0
    assert abs(float(stats["time_avg_z"]) - 4.95) / 4.95 < 0.2


def test_simulate_coupling_positions_match(capsys):
    code, out, _ = run(
        ["simulate", "coupling", "--m", "300", "--trials", "25", "--seed", "2"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    idx = header.index("pos_eq_piv")
    bound_idx = header.index("addition_bound_holds")
    rows = [line.split(",") for line in lines[1:]]
    successes = [row for row in rows if row[2] == "1"]
    assert len(successes) >= 20
    assert all(row[idx] == "true" for row in successes)
    assert all(row[bound_idx] == "true" for row in successes)


def test_simulate_sweep_mean_height_decreasing(capsys):
    code, out, _ = run(
        ["simulate", "sweep", "--n", "4000", "--eps-list", "0.05,0.1,0.2",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    idx = lines[0].split(",").index("mean_height")
    means = [float(line.split(",")[idx]) for line in lines[1:]]
    assert means == sorted(means, reverse=True)
    assert means[0] > means[1] > means[2]


def test_simulate_cfrh_smoke(capsys):
    code, out, _ = run(
        ["simulate", "cfrh", "--n", "2000", "--eps-prime", "0.1", "--seed", "4"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "n,epsilon_prime,L,seed,statistic,value"


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(f"k{i}", "1") for i in range(100)])
    out1, out2, out3 = (tmp_path / n for n in ("a.bin", "b.bin", "c.bin"))
    monkeypatch.setenv("BANDSET_SEED", "9999")
    run(["build", str(inp), str(out1)], capsys)
    monkeypatch.delenv("BANDSET_SEED")
    run(["build", str(inp), str(out2), "--seed", "9999"], capsys)
    run(["build", str(inp), str(out3), "--seed", "1"], capsys)
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
