import argparse
import functools
import hashlib
import io
import itertools
import json
import os
import random
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandset
from bandset import cli
from bandset.analysis_sim import make_rng
from bandset.cli import main
from bandset.retrieval_chunked import (
    ChunkedParams,
    PythonLookup,
    _bind,
    _query_words,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    serialize,
)
from bandset.row_gen import MASK64, PackedPairs

from conftest import make_pairs, python_branch


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


def test_empty_build_report_is_strict_json(tmp_path, capsys):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    inp = tmp_path / "empty.tsv"
    inp.write_text("")
    code, stdout, _ = run(["build", str(inp), str(tmp_path / "o")], capsys)
    assert code == 0
    report = json.loads(stdout, parse_constant=reject)
    assert report["m"] == 0
    assert report["overhead"] is None
    assert report["construct_ns_per_key"] is None


@pytest.mark.parametrize("seed",["-1", str(1 << 64)])
def test_build_seed_outside_64_bits_exits_2(seed, tmp_path, capsys):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1")])
    code, _, stderr = run(["build", str(inp), str(tmp_path / "o"), "--seed", seed], capsys)
    assert code == 2
    assert "base_seed" in stderr


def test_build_chunk_size_outside_64_bits_exits_2_before_reading(tmp_path, capsys, monkeypatch):
    def no_pairs(*args):
        raise AssertionError("build must not read its input")

    monkeypatch.setattr("bandset.cli.read_tsv_pairs", no_pairs)
    out = tmp_path / "o"
    out.write_bytes(b"kept")
    code, stdout, stderr = run(["build", str(tmp_path / "in.tsv"), str(out),
                                "--chunk-size", str(1 << 64)], capsys)
    assert code == 2
    assert stdout == "" and "C must fit in 64 bits" in stderr
    assert out.read_bytes() == b"kept"


def test_build_that_cannot_serialize_leaves_the_output_alone(tmp_path, capsys, monkeypatch):
    def refuse(ds):
        raise ValueError("cannot serialize")

    monkeypatch.setattr("bandset.cli.serialize", refuse)
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1")])
    out = tmp_path / "o"
    out.write_bytes(b"kept")
    code, _, stderr = run(["build", str(inp), str(out)], capsys)
    assert code == 2
    assert "cannot serialize" in stderr
    assert out.read_bytes() == b"kept"


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


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_1_exit_2_naming_it(threads, tmp_path, capsys):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1")])
    out = tmp_path / "o"
    for argv in (["build", str(inp), str(out)], ["bench", "--m", "10"]):
        code, stdout, stderr = run([*argv, "--threads", threads], capsys)
        assert code == 2
        assert stdout == "" and "threads" in stderr
    assert not out.exists()


def test_bad_threads_fail_before_the_input_is_read(tmp_path, capsys, monkeypatch):
    def no_pairs(*args):
        raise AssertionError("bench must not synthesise pairs")

    monkeypatch.setattr("bandset.cli.synthetic_pairs", no_pairs)
    inp = tmp_path / "bad.tsv"
    inp.write_text("good\t1\nbad\tzz\n")
    for argv in (["build", str(inp), str(tmp_path / "o")], ["bench", "--m", "10"]):
        code, _, stderr = run([*argv, "--threads", "0"], capsys)
        assert code == 2
        assert "threads" in stderr and "malformed" not in stderr


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


# Values as int(_, 16) takes them that the native reader leaves to the
# Python loop, values it rejects, and plain ones.
ODD_HEX = [b" ff", b"0xff", b"f_f", b"+f", b"-0", b"0" + b"f" * 16, b"0" * 17 + b"f",
           b"1" + b"0" * 16, b"ff ", b"-1", b"zz", b"", b"1\t2", b"\xff"]
PLAIN_HEX = [b"0", b"1", b"f", b"F", b"aB", b"f" * 16, b"F" * 16, b"1" + b"0" * 15]


def _hex_value(v: int, upper: bool, zeros: int) -> bytes:
    return b"0" * zeros + format(v, "X" if upper else "x").encode()


_tsv_lines = st.lists(st.one_of(
    st.tuples(
        st.lists(st.sampled_from([b"", b"k", b"K9", b"\r", b"a\rb", b"\xff\x80", b"\xc3\xa9",
                                  b" "]), max_size=3).map(b"".join),
        st.sampled_from([b"\t", b"\t", b"\t", b""]),
        st.one_of(st.sampled_from(ODD_HEX + PLAIN_HEX),
                  st.builds(_hex_value, st.tuples(st.integers(0, 2**66), st.integers(0, 66))
                            .map(lambda vs: vs[0] >> vs[1]), st.booleans(), st.integers(0, 2))),
        st.sampled_from([b"\n", b"\r\n", b"\r\r\n", b"\r", b""]),
    ).map(b"".join),
    st.sampled_from([b"\n", b"\r\n", b"\r\r\n"]),  # blank lines
), max_size=8).map(b"".join)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=_tsv_lines, r=st.sampled_from([1, 4, 63, 64]))
def test_native_tsv_reader_matches_the_python_loop(data, r, native, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "reader.tsv"
    path.write_bytes(data)

    def read():
        try:
            return list(cli.read_tsv_pairs(str(path), r))
        except cli.InputError as exc:
            return f"InputError: {exc}"

    got = read()
    with python_branch():
        assert read() == got


def test_plain_tsv_lines_read_as_packed_pairs(native, tmp_path):
    # empty keys, keys holding \r and bytes >= 0x80, blank lines, \r\n and
    # \r\r\n endings, 16 digits, both cases and no final newline
    data = (b"\ta\n\r\n" + b"k\rey\t" + b"F" * 16 + b"\r\n\n\xff\x80\t0\r\r\n"
            + b"x\taB\n\r\r\n" + b"last\t" + b"f" * 16)
    path = tmp_path / "in.tsv"
    path.write_bytes(data)
    packed = cli.read_tsv_pairs(str(path), 64)
    assert isinstance(packed, PackedPairs)
    want = [(b"", 10), (b"k\rey", MASK64), (b"\xff\x80", 0), (b"x", 0xAB), (b"last", MASK64)]
    assert list(packed) == want
    assert [packed[i] for i in range(len(packed))] == want
    with python_branch():
        assert cli.read_tsv_pairs(str(path), 64) == want
    for hexval in ODD_HEX:
        assert native.read_tsv(b"k\t1\nkey\t" + hexval + b"\n", 64) is None, hexval
    assert native.read_tsv(b"k\t1\nkey\t10\n", 4) is None  # 16 >= 2^4
    assert native.read_tsv(b"k\t1\n", 65) is None


def _build_input(tmp_path, pairs, binary_keys: bool):
    inp = tmp_path / ("in.bin" if binary_keys else "in.tsv")
    if binary_keys:
        inp.write_bytes(binary_records([k for k, _ in pairs], [v for _, v in pairs]))
    else:
        inp.write_bytes(b"".join(k + b"\t" + f"{v:x}".encode() + b"\n" for k, v in pairs))
    return inp


BUILD_ARGS = ["--eps", "0.05", "--value-bits", "4", "--chunk-size", "1000", "--seed", "9"]
BUILD_PARAMS = ChunkedParams(epsilon=0.05, r=4, C=1_000, base_seed=9)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("binary_keys", [False, True])
def test_build_writes_the_library_bytes(binary_keys, threads, backend, tmp_path, capsys):
    # a pair repeated with its value is dropped; keys with \r, bytes >= 0x80
    # and the empty key
    pairs = make_pairs(3_000, r=4, tag="cli") + [(b"", 3), (b"a\rb", 5), (b"\xff\xfe", 9)]
    inp = _build_input(tmp_path, pairs + [pairs[5]], binary_keys)
    out = tmp_path / "ds.bin"
    code, stdout, _ = run(["build", str(inp), str(out), *BUILD_ARGS, "--threads", str(threads)]
                          + ["--binary-keys"] * binary_keys, capsys)
    assert code == 0
    assert json.loads(stdout)["m"] == len(pairs)
    assert out.read_bytes() == serialize(construct_chunked(pairs, BUILD_PARAMS))


@pytest.mark.parametrize("binary_keys", [False, True])
def test_build_conflicting_repeat_exits_2_naming_the_key(binary_keys, backend, tmp_path, capsys):
    pairs = make_pairs(3_000, r=4, tag="cli")
    inp = _build_input(tmp_path, pairs + [(pairs[5][0], pairs[5][1] ^ 1)], binary_keys)
    out = tmp_path / "ds.bin"
    code, stdout, stderr = run(["build", str(inp), str(out), *BUILD_ARGS]
                               + ["--binary-keys"] * binary_keys, capsys)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert stderr == f"error: duplicate key with conflicting values: {pairs[5][0]!r}\n"


@pytest.mark.parametrize("binary_keys", [False, True])
def test_build_digest_collision_exits_1_naming_the_chunk(binary_keys, backend, hash_spy, tmp_path,
                                                         capsys):
    # two keys forced onto the all-ones digest, which lies in the last chunk
    pairs = make_pairs(3_000, r=4, tag="cli")
    hash_spy.collide = {pairs[10][0], pairs[20][0]}
    inp = _build_input(tmp_path, pairs, binary_keys)
    out = tmp_path / "ds.bin"
    code, stdout, stderr = run(["build", str(inp), str(out), *BUILD_ARGS]
                               + ["--binary-keys"] * binary_keys, capsys)
    assert code == 1
    assert stdout == "" and not out.exists()
    assert stderr == ("error: two keys share one digest in chunk 2; "
                      "build with another base seed\n")
    assert hash_spy.digests == len(pairs)


def test_build_reads_its_input_once_and_builds_once(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def counting(name):
        real = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)

    counting("read_tsv_pairs")
    counting("construct_chunked")
    inp = _build_input(tmp_path, make_pairs(500, r=4), False)
    code, _, _ = run(["build", str(inp), str(tmp_path / "ds.bin"), *BUILD_ARGS], capsys)
    assert code == 0
    assert calls == {"read_tsv_pairs": 1, "construct_chunked": 1}


def test_build_binary_input_errors_name_the_record(tmp_path, capsys):
    good = binary_records([b"a", b"b"], [1, 2])
    wide = binary_records([b"c"], [16])
    out = tmp_path / "ds.bin"
    for data, message in [
        (good + wide, "record 3: value does not fit in 4 bits"),
        (good + struct.pack("<I", 9) + b"short", "record 3: truncated record"),
        (good + b"\x01\x00", "record 3: truncated length prefix"),
        # every record is read before any value is checked
        (wide + good + b"\x01", "record 4: truncated length prefix"),
    ]:
        inp = tmp_path / "in.bin"
        inp.write_bytes(data)
        code, stdout, stderr = run(["build", str(inp), str(out), "--binary-keys",
                                    "--value-bits", "4"], capsys)
        assert code == 2
        assert stdout == "" and stderr == f"error: {message}\n"
    assert not out.exists()
    inp.write_bytes(good)
    packed = cli.read_binary_pairs(str(inp), 4)
    assert isinstance(packed, PackedPairs)
    assert list(packed) == [(b"a", 1), (b"b", 2)]
    code, _, stderr = run(["build", str(inp), str(out), "--binary-keys", "--value-bits", "65"],
                          capsys)
    assert code == 2 and stderr == "error: binary key mode supports r <= 64\n"


def test_empty_bench_report_is_strict_json(capsys):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    code, stdout, _ = run(["bench", "--m", "0"], capsys)
    assert code == 0
    report = json.loads(stdout, parse_constant=reject)
    assert report["m"] == 0
    assert report["overhead"] is None
    assert report["construct_ns_per_key"] is None
    assert report["query_ns_per_key"] is None


def binary_records(keys, values=None):
    """u32-length-prefixed keys, each followed by a u64 value when given."""
    out = b""
    for i, key in enumerate(keys):
        out += struct.pack("<I", len(key)) + key
        if values is not None:
            out += struct.pack("<Q", values[i])
    return out


def test_query_binary_keys_answers_keys_with_newlines(tmp_path, capsys, monkeypatch):
    keys = [b"line\nbreak", b"\r\n", b"", b"tab\tand\x00nul", b"plain"]
    values = [5, 10, 15, 0, 7]
    inp = tmp_path / "in.bin"
    inp.write_bytes(binary_records(keys, values))
    out = tmp_path / "ds.bin"
    code, _, _ = run(
        ["build", str(inp), str(out), "--binary-keys", "--value-bits", "4", "--seed", "6"], capsys
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(binary_records(keys))))
    code, stdout, _ = run(["query", str(out), "--binary-keys"], capsys)
    assert code == 0
    assert stdout.splitlines() == [format(v, "x") for v in values]


def test_query_binary_keys_truncated_record_exits_2(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1"), ("b", "0")])
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out)], capsys)[0] == 0
    whole = binary_records([b"a", b"b"])
    for tail, what in [(struct.pack("<I", 9) + b"short", "truncated record"),
                       (b"\x01\x00", "truncated length prefix")]:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(whole + tail)))
        code, stdout, stderr = run(["query", str(out), "--binary-keys"], capsys)
        assert code == 2
        assert f"record 3: {what}" in stderr
        assert stdout == ""


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


@pytest.mark.parametrize("binary_keys", [False, True])
@pytest.mark.parametrize("count", [0, 1, 5, 6, 7, 13])
def test_query_answers_in_blocks_with_unchanged_output(count, binary_keys, backend, tmp_path,
                                                       capsys, monkeypatch):
    # blocks of 3 keys: an empty input, a part block, block edges and a
    # block plus one; the text input's last line has no newline; on the
    # lookup of either backend
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(f"k{i}", format(i % 16, "x")) for i in range(20)])
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out), "--value-bits", "4", "--seed", "3"], capsys)[0] == 0
    ds = deserialize(out.read_bytes())
    keys = [f"k{i}".encode() for i in range(count - 2)] + [b"stranger", b"k19"][:count]
    want = "".join(f"{query_chunked(ds, key):x}\n" for key in keys)
    monkeypatch.setattr("bandset.cli.QUERY_BLOCK", 3)
    if binary_keys:
        stdin = io.TextIOWrapper(io.BytesIO(binary_records(keys)))
    else:
        stdin = io.StringIO("\n".join(key.decode() for key in keys))
    monkeypatch.setattr("sys.stdin", stdin)
    code, stdout, _ = run(["query", str(out)] + ["--binary-keys"] * binary_keys, capsys)
    assert code == 0
    assert stdout == want


# Keys over the alphabet of the line tests, so that generated lines often
# are keys: every string of up to three of its pieces that no \r ends.
_LINE_PIECES = ["a", "é", "😀", "\r"]
_LINE_KEYS = [""] + [
    "".join(p) for n in (1, 2, 3) for p in itertools.product(_LINE_PIECES, repeat=n)
    if p[-1] != "\r"
]


@functools.cache
def _line_key_args(L: int, r: int) -> tuple:
    """The lookup arguments of a structure of ``_LINE_KEYS`` with L-bit
    blocks and r value bits, in 8-key chunks."""
    rng = random.Random(L * 100 + r)
    pairs = [(key.encode(), rng.getrandbits(r)) for key in _LINE_KEYS]
    ds = construct_chunked(pairs, ChunkedParams(epsilon=0.2, L=L, r=r, C=8, base_seed=L + r,
                                                force_leading_one=L == 65))
    p = ds.params
    return p.base_seed, p.L, p.r, p.force_leading_one, ds.directory.packed, ds.planes


@pytest.fixture(scope="module", params=["python", "native"])
def bind(request):
    """What makes a lookup of ``bind``'s words: ``PythonLookup``, then the
    native ``bind`` (skipped where the native module did not load)."""
    if request.param == "python":
        return PythonLookup
    return request.getfixturevalue("native").bind


def _answers(lookup, data, bounds) -> list[int]:
    return np.frombuffer(lookup.query_block(data, bounds), np.uint64).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(["a", "é", "😀", "\r", "\n", "\r\n", "\r\r\n", "",
                                        "\n\n"]), max_size=16),
       final_newline=st.booleans(), L=st.sampled_from([64, 65, 128]),
       r=st.sampled_from([1, 4, 64]))
def test_block_query_answers_the_keys_of_the_lines(pieces, final_newline, L, r, bind):
    # every block size up to a few lines' length, so that blocks end inside
    # lines, between a \r and its \n and inside a run of \r, and the
    # default: the block queries of the text's blocks and query_many give,
    # in order, _query_words' answers for the keys of iterating its lines,
    # present and absent (at r = 64 no wrong key goes unseen)
    text = "".join(pieces) + "\n" * final_newline
    args = _line_key_args(L, r)
    keys = [line.rstrip("\n").rstrip("\r").encode() for line in io.StringIO(text)]
    want = [_query_words(*args, key) for key in keys]
    lookup = bind(*args)
    assert lookup.query_many(keys) == want
    for block in [*range(1, 9), cli.QUERY_BLOCK]:
        with mock.patch.object(cli, "QUERY_BLOCK", block):
            blocks = list(cli._blocks(io.StringIO(text), False))
        assert all(bounds is None for _, bounds in blocks)
        assert [v for data, _ in blocks for v in _answers(lookup, data, None)] == want, block


@pytest.mark.parametrize("r", [1, 4, 64])
@pytest.mark.parametrize("L", [64, 65, 128])
def test_block_query_answers_the_keys_of_binary_records(L, r, bind):
    # keys holding \n, \r and NUL, present and absent, in blocks of 1 to 8
    # records and the default, and through query_many
    args = _line_key_args(L, r)
    rng = random.Random(L + r)
    keys = [key.encode() for key in _LINE_KEYS] + [b"\n", b"a\nb", b"\x00", b"\r\n", b"absent"]
    rng.shuffle(keys)
    data = binary_records(keys)
    want = [_query_words(*args, key) for key in keys]
    lookup = bind(*args)
    assert lookup.query_many(keys) == want
    for block in [*range(1, 9), cli.QUERY_BLOCK]:
        with mock.patch.object(cli, "QUERY_BLOCK", block):
            got = [v for data_, bounds in cli._blocks(io.BytesIO(data), True)
                   for v in _answers(lookup, data_, bounds)]
        assert got == want, block
    assert _answers(lookup, b"", None) == []
    assert _answers(lookup, data, np.empty((0, 2), np.int64)) == []


def _error(call) -> tuple[type, str]:
    with pytest.raises((ValueError, IndexError)) as exc:
        call()
    return type(exc.value), str(exc.value)


def _raises(func, *args) -> bool:
    try:
        func(*args)
    except (ValueError, IndexError):
        return True
    return False


@pytest.mark.parametrize("edit", ["short chunk", "short planes"])
def test_block_query_raises_the_errors_of_query(edit, bind):
    # a directory entry that gives a chunk fewer than L bits, and planes
    # that each lose their last word: for the first key that reaches the
    # damage, the block query in both modes, a call of the lookup, its
    # query_many and the Python lookup raise the same exception with the
    # same text
    pairs = make_pairs(3_000, r=2, tag="parity")
    ds = construct_chunked(pairs, ChunkedParams(epsilon=0.05, r=2, C=1_000, base_seed=4))
    p = ds.params
    directory, planes = ds.directory.packed, ds.planes
    if edit == "short chunk":
        directory = directory[:8] + directory[:6] + bytes(2) + directory[16:]
    else:
        size = len(planes) // 2
        planes = planes[: size - 8] + planes[size:-8]
    args = p.base_seed, p.L, p.r, p.force_leading_one, directory, planes
    lookup = bind(*args)
    keys = [key for key, _ in pairs]
    bad = next(i for i, key in enumerate(keys) if _raises(lookup, key))
    want = _error(lambda: lookup(keys[bad]))
    assert want[0] is (ValueError if edit == "short chunk" else IndexError)
    data = b"\n".join(keys[: bad + 1])
    lengths = np.array([len(key) for key in keys[: bad + 1]])
    starts = np.cumsum(lengths + 1) - lengths - 1
    bounds = np.stack([starts, starts + lengths], axis=1)
    assert _error(lambda: lookup.query_many(keys[: bad + 1])) == want
    assert _error(lambda: lookup.query_block(data, None)) == want
    assert _error(lambda: lookup.query_block(data, bounds)) == want
    assert _error(lambda: _query_words(*args, keys[bad])) == want
    assert _answers(lookup, data, bounds[:-1]) == lookup.query_many(keys[:bad])


@pytest.mark.parametrize("bounds", [[(0, 4)], [(-1, 0)], [(2, 1)], [(0, 1), (3, 5)]])
def test_block_query_checks_every_bound(bounds, native):
    # bounds outside the data raise digest_packed's ValueError, naming the key
    data = b"abc"
    args = _line_key_args(64, 4)
    bounds = np.array(bounds, np.int64)
    lookup = native.bind(*args)
    want = _error(lambda: native.digest_packed(data, bounds, 0))
    assert want[0] is ValueError and "lies outside the data" in want[1]
    assert _error(lambda: lookup.query_block(data, bounds)) == want
    torn = bounds.tobytes()[:-1]
    assert (_error(lambda: lookup.query_block(data, torn))
            == _error(lambda: native.digest_packed(data, torn, 0)))


_records = st.tuples(
    st.lists(st.sampled_from([b"", b"k", b"\n", b"\x00\xff", b"x" * 20]), max_size=6),
    st.lists(st.integers(0, MASK64), min_size=6, max_size=6),
    st.integers(0, 12),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(records=_records, value_bytes=st.sampled_from([0, 8]))
def test_native_record_scan_matches_the_python_loop(records, value_bytes, native):
    # whole records, and the same cut short by up to 12 bytes: the same
    # bounds and values, or the same InputError naming the record
    keys, values, cut = records
    data = binary_records(keys, values[: len(keys)] if value_bytes else None)
    data = data[: max(0, len(data) - cut)]

    def scan():
        try:
            bounds, vals = cli._binary_records(data, value_bytes)
        except cli.InputError as exc:
            return f"InputError: {exc}"
        return bounds.shape, bounds.tolist(), vals.tolist()

    scan_records, scanned = native.scan_records, []

    def spied_scan(*args):
        done = scan_records(*args)
        scanned.append(done is not None)
        return done

    with mock.patch.object(native, "scan_records", spied_scan):
        got = scan()
    with python_branch():
        assert scan() == got
    assert scanned == [not isinstance(got, str)]  # the Python loop reads only bad records
    if cut == 0:
        assert got[0] == (len(keys), 2)
        assert [data[a:b] for a, b in got[1]] == keys
        assert got[2] == (values[: len(keys)] if value_bytes else [0] * len(keys))


@pytest.mark.parametrize("r", [1, 3, 4, 5, 8, 63, 64, 65, 100])
def test_hex_lines_match_the_per_value_format(r):
    # the answers in each form query_block gives them: up to r = 64 a
    # buffer of native uint64 (the native lookup's bytearray, the Python
    # lookup's bytes), above that a list of ints
    width = cli._hex_width(r)
    rng = random.Random(r)
    values = [0, (1 << r) - 1] + [rng.getrandbits(r) for _ in range(200)]
    want = "".join(f"{v:0{width}x}\n" for v in values)
    if r <= 64:
        packed = struct.pack(f"{len(values)}Q", *values)
        forms, empty = [bytearray(packed), packed], [bytearray(), b""]
    else:
        forms, empty = [values], [[]]
    for got, none in zip(forms, empty):
        assert cli._hex_lines(got, width) == want
        assert cli._hex_lines(none, width) == ""


def test_query_of_72_bit_values_matches_the_per_key_format(tmp_path, capsys, monkeypatch):
    # r > 64: the Python lookup and _hex_lines' object path
    rng = random.Random(72)
    rows = [(f"wide{i}", format(rng.getrandbits(72), "x")) for i in range(300)]
    inp = tmp_path / "in.tsv"
    write_tsv(inp, rows)
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out), "--value-bits", "72", "--seed", "4"], capsys)[0] == 0
    ds = deserialize(out.read_bytes())
    keys = [k for k, _ in rows] + ["stranger"]
    want = "".join(f"{query_chunked(ds, k.encode()):018x}\n" for k in keys)
    assert want.startswith(f"{int(rows[0][1], 16):018x}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(keys) + "\n"))
    code, stdout, _ = run(["query", str(out)], capsys)
    assert code == 0
    assert stdout == want


def test_query_of_real_stdin_with_lf_and_crlf_lines(tmp_path, capsys):
    # a real sys.stdin, in a child process: more than one block, lines split
    # between blocks, an empty line, a non-ASCII key and no final newline
    keys = [f"key-{i:05d}-é-{i % 7 * 5 * 'x'}" for i in range(4000)] + [""] + ["last"]
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(k, format(i % 16, "x")) for i, k in enumerate(keys) if k])
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out), "--value-bits", "4", "--seed", "8"], capsys)[0] == 0
    assert sum(len(k) + 1 for k in keys) > cli.QUERY_BLOCK
    expected = io.StringIO()
    assert cli.cmd_query(str(out), io.StringIO("\n".join(keys)), expected) == 0
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(bandset.__file__).parent.parent)}
    for newline in ["\n", "\r\n"]:
        child = subprocess.run(
            [sys.executable, "-m", "bandset.cli", "query", str(out)],
            input=newline.join(keys).encode(), capture_output=True, env=env, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == expected.getvalue().encode(), newline


@pytest.mark.parametrize("binary_keys", [False, True])
def test_query_makes_one_lookup_call_per_block(binary_keys, backend, tmp_path, capsys,
                                               monkeypatch):
    # the lookup of either backend answers each block of _blocks with one
    # query_block call, and nothing calls the library once per key
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(f"k{i}", "1") for i in range(50)])
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out), "--seed", "2"], capsys)[0] == 0
    keys = [f"k{i}".encode() for i in range(200)]
    calls = []

    class Counted:
        """A structure's lookup, with each call it takes recorded."""

        def __init__(self, lookup):
            self.lookup = lookup
            calls.append(type(lookup))

        def __call__(self, key):
            calls.append("lookup")
            return self.lookup(key)

        def query_many(self, keys):
            calls.append("query_many")
            return self.lookup.query_many(keys)

        def query_block(self, data, bounds):
            answers = self.lookup.query_block(data, bounds)
            calls.append(("query_block", len(np.frombuffer(answers, np.uint64))))
            return answers

    def per_key(ds, key):
        raise AssertionError("query answers keys in blocks")

    monkeypatch.setattr("bandset.cli._bind", lambda ds: Counted(_bind(ds)))
    monkeypatch.setattr("bandset.cli.query_chunked", per_key)
    monkeypatch.setattr("bandset.cli.QUERY_BLOCK", 16)
    if binary_keys:
        data = binary_records(keys)
        blocks = [len(bounds) for _, bounds in cli._blocks(io.BytesIO(data), True)]
        stdin = io.TextIOWrapper(io.BytesIO(data))
    else:
        text = "\n".join(key.decode() for key in keys)
        blocks = [len(block.splitlines()) for block, _ in cli._blocks(io.StringIO(text), False)]
        stdin = io.StringIO(text)
    monkeypatch.setattr("sys.stdin", stdin)
    code, stdout, _ = run(["query", str(out)] + ["--binary-keys"] * binary_keys, capsys)
    assert code == 0
    assert len(stdout.splitlines()) == sum(blocks) == len(keys)
    assert len(blocks) >= 10
    lookup_type = PythonLookup if backend == "python" else bandset.retrieval_flat._kernel().Lookup
    assert calls == [lookup_type] + [("query_block", n) for n in blocks]


@pytest.mark.parametrize("binary_keys", [False, True])
def test_query_of_130_bit_blocks_answers_through_the_python_lookup(binary_keys, native, tmp_path,
                                                                   capsys, monkeypatch):
    # L = 130 is past the native lookup's 128, so with the native module
    # loaded bandset query still answers through PythonLookup.query_block
    rng = random.Random(130)
    keys = [f"long-{i}".encode() for i in range(300)]
    values = [rng.getrandbits(8) for _ in keys]
    inp = tmp_path / "in"
    if binary_keys:
        inp.write_bytes(binary_records(keys, values))
    else:
        write_tsv(inp, [(key.decode(), format(v, "x")) for key, v in zip(keys, values)])
    out = tmp_path / "ds.bin"
    flags = ["--binary-keys"] * binary_keys
    build = ["build", str(inp), str(out), "--block-len", "130", "--value-bits", "8", "--seed", "5"]
    assert run(build + flags, capsys)[0] == 0
    ds = deserialize(out.read_bytes())
    queries = [b""] + keys + [b"stranger"]
    want = "".join(f"{query_chunked(ds, key):02x}\n" for key in queries)
    assert type(ds._lookup) is PythonLookup
    assert want.split()[1:6] == [format(v, "02x") for v in values[:5]]
    blocks = []
    query_block = PythonLookup.query_block

    def spied(lookup, data, bounds):
        blocks.append(data)
        return query_block(lookup, data, bounds)

    monkeypatch.setattr(PythonLookup, "query_block", spied)
    if binary_keys:
        stdin = io.TextIOWrapper(io.BytesIO(binary_records(queries)))
    else:
        stdin = io.StringIO("\n".join(key.decode() for key in queries))
    monkeypatch.setattr("sys.stdin", stdin)
    code, stdout, _ = run(["query", str(out)] + flags, capsys)
    assert code == 0
    assert stdout == want
    assert len(blocks) == 1


def test_query_unencodable_line_exits_2(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1")])
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out)], capsys)[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n\udcff\n"))
    code, stdout, stderr = run(["query", str(out)], capsys)
    assert code == 2
    assert "error:" in stderr and stdout == ""


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


def test_simulate_coupling_golden_digest(capsys):
    """The same seed draws the same systems, ties on start in draw order,
    and reports the same additions and heights; a deliberate change to
    the draw or the coupling updates the digest."""
    code, out, _ = run(
        ["simulate", "coupling", "--m", "300", "--trials", "25", "--seed", "2"], capsys
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "65c2dfb0e737337453673fd88d53cdd4a47aee07d319240637d47bd704da310c"


def test_simulate_coupling_draws_every_block_bit_above_64():
    # a fair-coin block of L = 128 bits: almost every row has a set bit
    # among columns 64 to 127, and none above the block
    m = 2_000
    _, starts, patterns = cli._random_band_system(m, 0.1, 128, make_rng(2, stream=3))
    assert len(starts) == len(patterns) == m
    assert sum(bits >> 64 != 0 for bits in patterns) > 0.99 * m
    assert all(bits >> 128 == 0 for bits in patterns)


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


def test_malformed_env_seed_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1")])
    monkeypatch.setenv("BANDSET_SEED", "abc")
    code, _, stderr = run(["build", str(inp), str(tmp_path / "o")], capsys)
    assert code == 2
    assert "BANDSET_SEED" in stderr
    assert not (tmp_path / "o").exists()


def test_query_ignores_malformed_env_seed(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    out = tmp_path / "ds.bin"
    write_tsv(inp, [("apple", "1"), ("banana", "0")])
    assert run(["build", str(inp), str(out), "--seed", "6"], capsys)[0] == 0
    monkeypatch.setenv("BANDSET_SEED", "abc")
    monkeypatch.setattr("sys.stdin", io.StringIO("apple\nbanana\n"))
    code, stdout, _ = run(["query", str(out)], capsys)
    assert code == 0
    assert stdout.splitlines() == ["1", "0"]


@pytest.mark.parametrize("kind,flags", [
    ("coupling", ["--eps", "1"]),
    ("coupling", ["--eps", "0"]),
    ("coupling", ["--eps", "-0.5"]),
    ("coupling", ["--block-len", "0"]),
    ("cfrh", ["--block-len", "-3"]),
    ("cfrh", ["--n", "0", "--block-len", "1"]),
    ("cfrh", ["--n", "-5"]),
    ("sweep", ["--n", "0", "--block-len", "1"]),
    ("sweep", ["--n", "-5"]),
    ("cfrh", ["--eps-prime", "-0.5"]),
    ("cfrh", ["--eps-prime", "0"]),
    ("cfrh", ["--eps-prime", "1"]),
    ("cfrh", ["--eps-prime", "1.5"]),
    ("cfrh", ["--eps-prime", "nan"]),
    ("queue", ["--steps", "0"]),
    ("queue", ["--steps", "-5"]),
    ("queue", ["--rho", "0"]),
    ("queue", ["--rho", "1"]),
    ("queue", ["--rho", "nan"]),
    ("coupling", ["--m", "-3"]),
    ("coupling", ["--m", "0"]),
    ("coupling", ["--trials", "-1"]),
    ("coupling", ["--trials", "0"]),
])
def test_simulate_rejects_bad_slack_and_block_len(kind, flags, capsys):
    code, stdout, stderr = run(["simulate", kind, "--m", "50", "--trials", "1", *flags], capsys)
    assert code == 2
    assert stdout == ""
    assert flags[0] in stderr


@pytest.mark.parametrize("eps_list", ["-0.5,0.1", "1", "0.1,0", "0.1,nan"])
def test_simulate_sweep_rejects_bad_eps_list(eps_list, capsys):
    code, stdout, stderr = run(["simulate", "sweep", "--n", "100", f"--eps-list={eps_list}"],
                               capsys)
    assert code == 2
    assert stdout == ""
    assert "--eps-list" in stderr


# ---------------------------------------------------------------------------
# one parser per process: `main` reuses it, and no parse leaks into the next


def test_sweep_without_eps_list_after_one_with_it_prints_the_default_rows(capsys):
    args = ["simulate", "sweep", "--n", "200", "--seed", "3"]
    code, out, _ = run([*args, "--eps-list", "0.3,0.4"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.3", "0.4"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.05", "0.1", "0.2"]
    parser = cli.build_parser()
    assert parser.parse_args(args).eps_list == (0.05, 0.1, 0.2)
    assert parser.parse_args([*args, "--eps-list", "0.3"]).eps_list == (0.3,)


def test_build_without_force_leading_one_after_one_with_it_writes_a_fresh_file(tmp_path, capsys):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(f"k{i}", "1") for i in range(200)])
    forced, reused, fresh = (tmp_path / n for n in ("forced.bin", "reused.bin", "fresh.bin"))
    build = ["build", str(inp)]
    assert run([*build, str(forced), "--seed", "5", "--force-leading-one"], capsys)[0] == 0
    assert run([*build, str(reused), "--seed", "5"], capsys)[0] == 0
    cli.build_parser.cache_clear()
    assert run([*build, str(fresh), "--seed", "5"], capsys)[0] == 0
    assert reused.read_bytes() == fresh.read_bytes() != forced.read_bytes()


def test_each_call_reads_bandset_seed_afresh(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [("a", "1"), ("b", "0")])
    seeds = []
    for seed in ("11", "22"):
        monkeypatch.setenv("BANDSET_SEED", seed)
        code, stdout, _ = run(["build", str(inp), str(tmp_path / f"{seed}.bin")], capsys)
        assert code == 0
        seeds.append(json.loads(stdout)["params"]["base_seed"])
    assert seeds == [11, 22]


def test_text_query_after_a_binary_one_answers_the_text_keys(tmp_path, capsys, monkeypatch):
    keys, values = [b"apple", b"banana", b"cherry"], [3, 9, 12]
    inp = tmp_path / "in.tsv"
    write_tsv(inp, [(k.decode(), format(v, "x")) for k, v in zip(keys, values)])
    out = tmp_path / "ds.bin"
    assert run(["build", str(inp), str(out), "--value-bits", "4", "--seed", "2"], capsys)[0] == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(binary_records(keys))))
    code, stdout, _ = run(["query", str(out), "--binary-keys"], capsys)
    assert code == 0
    assert stdout.splitlines() == ["3", "9", "c"]
    monkeypatch.setattr("sys.stdin", io.StringIO("cherry\napple\n"))
    code, stdout, _ = run(["query", str(out)], capsys)
    assert code == 0
    assert stdout.splitlines() == ["c", "3"]


def test_main_builds_the_argparse_tree_once(capsys, monkeypatch):
    init = argparse.ArgumentParser.__init__
    made = []

    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    per_call = []
    for argv in (["bench", "--m", "0"], ["simulate", "cfrh", "--n", "100"], ["bench", "--m", "0"]):
        before = len(made)
        assert run(argv, capsys)[0] == 0
        per_call.append(len(made) - before)
    assert per_call == [5, 0, 0]  # the top parser and its four subcommands


def _help_of_a_fresh_parser(command):
    """``format_help()`` of ``command``'s parser (the top one for None) in
    a parser built just now."""
    parser = cli.build_parser.__wrapped__()
    if command is None:
        return parser.format_help()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[command].format_help()


def test_help_follows_the_terminal_width_at_each_call(capsys, monkeypatch):
    helps = {}
    for columns in ("40", "140"):
        monkeypatch.setenv("COLUMNS", columns)
        for command in (None, "build"):
            argv = ["--help"] if command is None else [command, "--help"]
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 0
            helps[columns, command] = capsys.readouterr().out
            assert helps[columns, command] == _help_of_a_fresh_parser(command)
    for command in (None, "build"):
        narrow, wide = helps["40", command].splitlines(), helps["140", command].splitlines()
        assert len(narrow) > len(wide)
        assert max(map(len, narrow)) < max(map(len, wide))
