"""Seeded inputs for the benchmark: keys, values, lookup sequences and the TSV.

Everything here is a function of the workload seed alone and uses only the
standard library's ``random.Random`` (seeded from a string, so the stream is
stable across Python versions). Nothing is taken from ``bandset`` itself, so
a change to the program cannot change what it is measured on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KEY_BYTES = 80


def stream(seed: int, name: str) -> random.Random:
    """An independent generator for one named use of the workload seed."""
    return random.Random(f"bandset-perfbench/{seed}/{name}")


def url_keys(seed: int, first: int, count: int) -> list[bytes]:
    """``count`` distinct 80-byte URL-shaped keys with indices [first, first+count).

    The index is spelled into every key, so keys with different indices can
    never collide; stored keys and never-inserted keys use disjoint ranges.
    """
    rnd = stream(seed, f"keys/{first}")
    bits = rnd.getrandbits
    keys = []
    for idx in range(first, first + count):
        host = bits(16)
        path = bits(64)
        tail = bits(88)
        url = f"https://www.h{host:04x}.example.org/c/{idx:08x}/{path:016x}/{tail:022x}"
        keys.append(url.encode("ascii")[:KEY_BYTES])
    return keys


def values(seed: int, count: int, r: int) -> list[int]:
    bits = stream(seed, "values").getrandbits
    return [bits(r) for _ in range(count)]


@dataclass(slots=True)
class Inputs:
    """One workload's inputs; ``lookup_expected`` holds None for absent keys."""

    pairs: list[tuple[bytes, int]]
    lookup_keys: list[bytes]
    lookup_expected: list[int | None]
    cli_tsv: bytes
    cli_query_text: str
    cli_expected_out: str


def make_inputs(
    seed: int, m: int, r: int, lookups: str, cli_m: int, n_lookups: int = 0
) -> Inputs:
    """Keys, values, the lookup sequence and the CLI files for one workload.

    ``lookups`` is ``"stored"`` (stored keys once each, shuffled: all of them,
    or the first ``n_lookups``) or ``"mixed"`` (``n_lookups`` lookups, half
    stored keys drawn uniformly with replacement and half keys that were never
    inserted, interleaved at random).
    The CLI files cover the first ``cli_m`` pairs; the query streams those keys
    in shuffled order.
    """
    keys = url_keys(seed, 0, m)
    vals = values(seed, m, r)
    pairs = list(zip(keys, vals))

    order = stream(seed, "order")
    if lookups == "stored":
        idx = list(range(m))
        order.shuffle(idx)
        idx = idx[: n_lookups or m]
        lookup_keys = [keys[i] for i in idx]
        lookup_expected: list[int | None] = [vals[i] for i in idx]
    elif lookups == "mixed":
        half = n_lookups // 2
        hits = [order.randrange(m) for _ in range(half)]
        absent = url_keys(seed, m, n_lookups - half)
        seq: list[tuple[bytes, int | None]] = [(keys[i], vals[i]) for i in hits]
        seq += [(k, None) for k in absent]
        order.shuffle(seq)
        lookup_keys = [k for k, _ in seq]
        lookup_expected = [v for _, v in seq]
    else:
        raise ValueError(f"unknown lookup mix {lookups!r}")

    width = (r + 3) // 4
    cli_pairs = pairs[:cli_m]
    tsv = b"".join(k + b"\t" + f"{v:x}".encode() + b"\n" for k, v in cli_pairs)
    qidx = list(range(cli_m))
    stream(seed, "cli-order").shuffle(qidx)
    query_text = "".join(cli_pairs[i][0].decode("ascii") + "\n" for i in qidx)
    expected_out = "".join(f"{cli_pairs[i][1]:0{width}x}\n" for i in qidx)
    return Inputs(pairs, lookup_keys, lookup_expected, tsv, query_text, expected_out)
