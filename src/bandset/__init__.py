"""Retrieval data structures backed by random band linear systems over GF(2).

Core pipeline: hash each key to an L-bit pattern at a random start column,
solve the resulting near-band system by pivot insertion (equivalent to the
paper's sorted forward elimination), and answer queries with one windowed
dot product against the solution table.
Chunking splits the key set with a first-level hash so chunks build
independently and queries stay within one short memory window.

The package root is the retrieval API: build, query, save and load. The
lower layers (``row_gen``, ``band_solver``, ``bitkit``) and the model
checks (``analysis_sim``) are imported from their modules.
"""

from .retrieval_chunked import (
    ChunkDirectory,
    ChunkedParams,
    ChunkedRetrieval,
    FormatError,
    construct_chunked,
    deserialize,
    overhead,
    query_chunked,
    query_many,
    serialize,
)
from .retrieval_chunked import __all__ as _retrieval_names
from .retrieval_flat import ConstructError, DuplicateKey, RetriesExhausted

__version__ = "0.1.0"

__all__ = [*_retrieval_names, "ConstructError", "DuplicateKey", "RetriesExhausted"]
