import os
import subprocess
import sys
from pathlib import Path

import bandset

RETRIEVAL_API = {
    "ChunkedParams",
    "ChunkDirectory",
    "ChunkedRetrieval",
    "FormatError",
    "construct_chunked",
    "query_chunked",
    "serialize",
    "deserialize",
    "overhead",
    "ConstructError",
    "DuplicateKey",
    "RetriesExhausted",
}


def test_all_names_unique_and_resolvable():
    names = bandset.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(bandset, name)]
    assert missing == []


def test_root_is_the_retrieval_api():
    assert sorted(bandset.__all__) == sorted(RETRIEVAL_API)


def test_import_loads_neither_numpy_nor_the_model_layer():
    probe = (
        "import sys, bandset; "
        "print(sorted(m for m in ('numpy', 'bandset.analysis_sim') if m in sys.modules))"
    )
    # the child imports the same package as this process
    env = {**os.environ, "PYTHONPATH": str(Path(bandset.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
