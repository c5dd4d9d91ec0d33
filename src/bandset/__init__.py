"""Retrieval data structures backed by random band linear systems over GF(2).

Core pipeline: hash each key to an L-bit pattern at a random start column,
solve the resulting near-band system with a sorted forward elimination, and
answer queries with one windowed dot product against the solution table.
Chunking splits the key set with a first-level hash so chunks build
independently and queries stay within one short memory window.
"""

from .analysis_sim import (
    CFRHTrace,
    KeyCellCoins,
    PoissonisedInput,
    QueueTrace,
    RandomCoins,
    TranscriptCoins,
    TranscriptExhausted,
    coupled_poissonised_runs,
    coupled_replay,
    draw_poissonised_input,
    fit_tail_rate,
    heights_from_pivots,
    make_rng,
    mdone_mean,
    poissonised_cfrh,
    run_cfrh,
    sample_poisson,
    simulate_x,
    simulate_z,
    tail_estimate,
)
from .band_solver import (
    BandRow,
    BandSystem,
    EliminationOutcome,
    back_substitute,
    eliminate,
    solve,
    sort_rows,
    verify,
)
from .bitkit import BitVec, Block, dot_window, xor_window
from .retrieval_chunked import (
    ChunkDirectory,
    ChunkedParams,
    ChunkedRetrieval,
    FormatError,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    serialize,
)
from .retrieval_flat import ConstructError, DuplicateKey, RetriesExhausted
from .row_gen import chunk_for_key, row_for_key

__version__ = "0.1.0"

__all__ = [
    "BandRow",
    "BandSystem",
    "BitVec",
    "Block",
    "CFRHTrace",
    "ChunkDirectory",
    "ChunkedParams",
    "ChunkedRetrieval",
    "ConstructError",
    "DuplicateKey",
    "EliminationOutcome",
    "FormatError",
    "KeyCellCoins",
    "PoissonisedInput",
    "QueueTrace",
    "RandomCoins",
    "RetriesExhausted",
    "TranscriptCoins",
    "TranscriptExhausted",
    "back_substitute",
    "chunk_for_key",
    "construct_chunked",
    "coupled_poissonised_runs",
    "coupled_replay",
    "deserialize",
    "dot_window",
    "draw_poissonised_input",
    "eliminate",
    "fit_tail_rate",
    "heights_from_pivots",
    "make_rng",
    "mdone_mean",
    "overhead",
    "poissonised_cfrh",
    "query_chunked",
    "row_for_key",
    "run_cfrh",
    "sample_poisson",
    "serialize",
    "simulate_x",
    "simulate_z",
    "solve",
    "sort_rows",
    "tail_estimate",
    "verify",
    "xor_window",
]
