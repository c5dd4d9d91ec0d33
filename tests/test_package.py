import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import bandset
from bandset import retrieval_flat
from bandset.retrieval_chunked import HEADER_BYTES, VERSION

from conftest import HAVE_CC

RETRIEVAL_API = {
    "ChunkedParams",
    "ChunkDirectory",
    "ChunkedRetrieval",
    "FormatError",
    "construct_chunked",
    "query_chunked",
    "query_many",
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


def test_readme_file_format_names_the_current_version_and_header_size():
    # a format change that leaves the documented format behind fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## File format\n", 1)[1].split("\n## ", 1)[0]
    assert f"Header ({HEADER_BYTES} bytes)" in section
    assert re.search(rf"^\| version +\| u16 +\| {VERSION} +\|$", section, re.MULTILINE)


def test_readme_names_of_bandset_code_resolve():
    # every backticked dotted name in README.md that starts at a bandset
    # module (``row_gen.digest_pairs``, ``bandset.bitkit``): the module
    # imports and getattr reaches the rest, so code that is renamed or
    # deleted under the README's text fails here
    package = Path(bandset.__file__).parent
    modules = {path.stem for path in [*package.glob("*.py"), *package.glob("*.c")]}
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    pattern = rf"`((?:{'|'.join(['bandset', *sorted(modules)])})(?:\.\w+)+)`"
    names = sorted(set(re.findall(pattern, readme)))
    assert len(names) >= 10, names
    unresolved = []
    for name in names:
        module, *attrs = name.removeprefix("bandset.").split(".")
        if module == "_band" and retrieval_flat._kernel() is None:
            continue  # the native module, which only a compiler makes
        obj = importlib.import_module(f"bandset.{module}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def _loaded_by(code: str, names: tuple[str, ...]) -> list[str]:
    """The modules among ``names`` that a fresh interpreter has loaded after
    running ``code``."""
    probe = (
        f"import json, sys\n{code}\n"
        f"print(json.dumps(sorted(m for m in {names!r} if m in sys.modules)))"
    )
    # the child imports the same package as this process
    env = {**os.environ, "PYTHONPATH": str(Path(bandset.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    return json.loads(out.stdout)


def test_import_loads_neither_numpy_nor_the_model_layer():
    names = ("numpy", "ctypes", "bandset._band", "bandset.analysis_sim", "bandset.band_solver")
    assert _loaded_by("import bandset", names) == []


def test_build_does_not_load_the_reference_solver():
    # band_solver is the paper-faithful reference; builds solve by insertion
    build = (
        "import bandset\n"
        "pairs = [(b'key%d' % i, i & 3) for i in range(3000)]\n"
        "params = bandset.ChunkedParams(epsilon=0.05, r=2, C=1000)\n"
        "ds = bandset.construct_chunked(pairs, params)\n"
        "assert all(bandset.query_chunked(ds, k) == v for k, v in pairs)"
    )
    names = ("numpy", "bandset.band_solver")
    assert _loaded_by(build, names) == ["numpy"]


def test_build_runs_natively_without_ctypes():
    # numpy imports ctypes if it can; blocked, numpy does without it, and
    # the build and its queries must still run on the native module
    build = (
        "sys.modules['ctypes'] = None\n"
        "import bandset\n"
        "pairs = [(b'key%d' % i, i & 3) for i in range(3000)]\n"
        "ds = bandset.construct_chunked(pairs, bandset.ChunkedParams(epsilon=0.05, r=2, C=1000))\n"
        "assert bandset.query_many(ds, [k for k, _ in pairs]) == [v for _, v in pairs]\n"
        "assert (bandset.retrieval_flat._kernel() is not None) == " + repr(HAVE_CC)
    )
    assert _loaded_by(build, ("bandset._band",)) == (["bandset._band"] if HAVE_CC else [])


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler (cc) on PATH or no CPython headers")
def test_native_module_compiles_without_warnings(tmp_path):
    # the loader's flags plus -Wall -Werror: a helper left unused fails here
    flags = (*retrieval_flat._CFLAGS, "-I" + sysconfig.get_path("include"), "-Wall", "-Werror")
    retrieval_flat._compile(shutil.which("cc"), flags, retrieval_flat._KERNEL_SOURCE,
                            str(tmp_path / "band.so"))
