"""One band system per chunk: the per-chunk builder of the retrieval
structure, plus the construction errors. Input checks and repeated keys
are handled before it, by ``row_gen.digest_pairs`` and
``construct_chunked``.

Construction calls ``solve`` on a chunk's digest words once per retry
until one solves. ``solve`` derives each key's row from them with the
query's formula and solves the system by pivot insertion straight into
the chunk's slice of the structure's bit-planes. A structure with C >= m
has one chunk and so solves one system over the whole key set. The
paper's sorted elimination lives on in ``band_solver`` as the reference
that the model checks and the differential tests use; the build does not
load it.

This module also loads the native backend, the CPython extension module
``_band.c``: the pivot-insertion kernel that ``solve`` runs, the one
pass over a build's pairs with the key hash that
``row_gen.digest_pairs`` runs (over a list of pairs, or over the keys of
one buffer where they lie), ``order_rows``, which puts a build's rows in
chunk order for ``construct_chunked``, the TSV and binary record scans
that ``cli.read_tsv_pairs`` and ``cli._binary_records`` run, and
``bind``, which makes a structure's lookup: a ``Lookup`` object that
``query_chunked`` calls once per key, whose ``query_many`` method
``query_many`` runs, and whose ``query_block`` method ``bandset query``
runs on each block of its input (``retrieval_chunked.block_lookup``).
``_kernel()`` is the one switch for all of them; a build asks it on
every solve and pass (and ``bandset`` at each read of its input), but a
structure asks it once, at its first query, and keeps that backend for
its life, the block query included. Its first call, whichever of them
makes it, compiles ``_band.c`` with ``cc`` and the CPython headers into
``$XDG_CACHE_HOME/bandset`` (default ``~/.cache/bandset``) unless it is
cached there, and imports it. Without a compiler or the headers, or when
the cache directory is not private to the user, one RuntimeWarning says
why and everything runs in pure Python, which writes the same bytes and
gives the same answers.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .row_gen import row_for_words

if TYPE_CHECKING:
    from .retrieval_chunked import ChunkedParams


class ConstructError(Exception):
    """Construction could not produce a valid structure."""


class DuplicateKey(ConstructError):
    def __init__(self, key: bytes):
        super().__init__(f"duplicate key with conflicting values: {key!r}")
        self.key = key


class RetriesExhausted(ConstructError):
    def __init__(self, retries: int, chunk: int):
        super().__init__(f"construction failed after {retries} retries in chunk {chunk}")
        self.retries = retries
        self.chunk = chunk


def positions_for(m: int, epsilon: float) -> int:
    """Start-position count: ceil(m / (1 - eps)), floored at 1 so the empty
    structure still has a valid L-bit table."""
    if m == 0:
        return 1
    return math.ceil(m / (1.0 - epsilon))


# Trailing zeros of a byte; 8 for the zero byte.
_CTZ8 = [8] + [(i & -i).bit_length() - 1 for i in range(1, 256)]

_KERNEL_SOURCE = Path(__file__).with_name("_band.c")
_KERNEL_MODULE = "bandset._band"
_CFLAGS = ("-O2", "-shared", "-fPIC")
_kernel_lock = threading.Lock()
_kernel_loaded: list = []  # [module or None] once the first use tried to load it
_planes_lock = threading.Lock()  # the Python branch's writes into plane words


def _kernel():
    """The native module, or None when it cannot be built or loaded. The
    first call loads it (compiling it first if the cache lacks it) or
    issues one RuntimeWarning naming why not; later calls return the same
    answer."""
    if not _kernel_loaded:
        with _kernel_lock:
            if not _kernel_loaded:
                try:
                    kernel = _load_kernel()
                # RuntimeError: no home directory; ImportError: a cached
                # file that does not load
                except (OSError, RuntimeError, ImportError) as exc:
                    warnings.warn(f"bandset: native module unavailable, running in Python: {exc}",
                                  RuntimeWarning, stacklevel=2)
                    kernel = None
                _kernel_loaded.append(kernel)
    return _kernel_loaded[0]


def _load_kernel():
    """Import ``band-<hash><EXT_SUFFIX>`` from ``$XDG_CACHE_HOME/bandset``
    (default ``~/.cache/bandset``) as ``bandset._band``, compiling
    ``_band.c`` with ``cc`` first when it is missing. The hash covers the
    source, the flags (the CPython include directory among them), the
    machine and the interpreter's extension suffix."""
    import hashlib
    import importlib.machinery
    import importlib.util
    import platform
    import shutil
    import sys
    import sysconfig
    import tempfile

    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    flags = (*_CFLAGS, "-I" + sysconfig.get_path("include"))
    source = _KERNEL_SOURCE.read_bytes()
    tag = hashlib.sha256(
        source + " ".join(flags).encode() + platform.machine().encode() + suffix.encode()
    ).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "bandset"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = cache.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"cache directory {cache} is not private to this user")
    lib = cache / f"band-{tag}{suffix}"
    if not lib.exists():
        cc = shutil.which("cc")
        if cc is None:
            raise OSError("no C compiler (cc) on PATH")
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=cache)
        os.close(fd)
        try:
            _compile(cc, flags, _KERNEL_SOURCE, tmp)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    loader = importlib.machinery.ExtensionFileLoader(_KERNEL_MODULE, str(lib))
    spec = importlib.util.spec_from_file_location(_KERNEL_MODULE, lib, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[_KERNEL_MODULE] = module
    return module


def _compile(cc: str, flags: tuple[str, ...], source: Path, out: str) -> None:
    """Compile the extension module into ``out``; OSError when the
    compiler cannot run or fails."""
    import subprocess

    done = subprocess.run([cc, *flags, "-o", out, str(source)], capture_output=True, text=True)
    if done.returncode:
        raise OSError(f"{cc} exited {done.returncode}: {done.stderr.strip()}")


def solve(n: int, L: int, lead: bool, retry: int, s, lo, rhs, planes, r: int,
          offset: int) -> bool:
    """Solve a band system into ``planes``; False when its rows are
    dependent.

    Row i is ``row_for_words(s[i], lo[i], retry, n, L, lead)``, derived
    here from the key's start word and low digest word (uint64 arrays, see
    ``row_gen``), with right-hand side ``rhs[i]`` (bit t belongs to plane
    t; uint64, or object ints for more than 64 planes). Rows are inserted
    on the fly: each walks to its lowest 1, and if a pivot row already
    sits in that column it XORs that row and its right-hand side in and
    walks on. A row that reaches 0 is dependent. The Python branch below
    inserts one row at a time, in the order given. The native kernel
    walks two rows at once, one of rows [0, m/2) and one of [m/2, m), a
    table probe of each in turn, so that one walk's probe overlaps the
    other's, and keeps its pivots in one table of slots, each a row and
    its right-hand side: 16 bytes per column for L <= 64, whose rows fit
    one 64-bit word, and 24 for two-word rows up to L = 128.
    Back-substitution then fills the planes from the highest pivot down:
    the native kernel all r in one pass over the columns, with one sliding
    window per plane, and the Python branch below one plane at a time,
    sliding one L-bit window; both write the same bits.

    ``planes`` is one writable buffer in the file's form: r runs of nwords
    little-endian 64-bit words, plane t from word t * nwords on, with bit
    j of a plane in bit j % 64 of its word j // 64. Column c of plane t is
    bit ``offset + c - 1`` of plane t. A row starts in [1, n], so none
    reaches past column n + L - 1: when there are rows, every plane must
    hold ``offset + n + L - 1`` bits, and those from ``offset`` on must be
    zero on entry. Solution bits are ORed in, so every bit outside the
    columns stays as it was, also in the words at the ends of the slice,
    which a neighbouring slice may share and fill at the same time from
    another thread. Nothing is written unless every row was inserted.
    Raises ValueError when ``s``, ``lo`` and ``rhs`` differ in length, n <
    1, offset < 0, ``planes`` is not r >= 1 runs of whole words or is too
    short, and MemoryError when the pivot table cannot be allocated.

    The native module's ``solve`` (``_band.c``) runs when it loaded,
    L <= 128, r <= 64 and ``rhs`` is uint64; otherwise the pure-Python
    branch below does. Both derive the rows with the same formula as the
    query, insert them the same way and write the same bits. The native
    call takes the arrays and the planes through the buffer protocol
    (the planes 8-byte aligned, as a numpy array is, else ValueError) and
    releases the GIL while it solves, so threads overlap their solves.

    Row order cannot change the result. The pivot columns of any echelon
    basis are the columns where some vector of the row space has its
    lowest 1, a property of the row space alone; the paper's sorted
    elimination (``band_solver``) reaches the same set. A full-rank system
    has exactly one solution that is 0 off those columns. So every order
    gives the same planes, and the same verdict: some row reaches 0 iff
    the rank is below the row count. The native kernel's interleaving is
    such an order too: each probe completes before the other walk's next
    one, so the stored rows are always an echelon basis of the rows
    inserted so far, and a stored row at pivot p has bits only in
    [p, p + L), whichever walk stored it.
    """
    m = len(s)
    if len(lo) != m or len(rhs) != m:
        raise ValueError("need one lo word and one rhs per start word")
    size = memoryview(planes).nbytes
    if r < 1 or size % (8 * r):
        raise ValueError("planes are not r runs of whole 64-bit words")
    nwords = size // (8 * r)
    if n < 1 or offset < 0 or (m and 64 * nwords < offset + n + L - 1):
        raise ValueError("planes too short for the rows' columns")

    kernel = _kernel()
    if (kernel is not None and L <= 128 and n < 1 << 62 and r <= 64
            and rhs.dtype == "uint64"):
        return kernel.solve(n, L, lead, retry, s, lo, rhs, planes, r, offset)

    width = n + L - 1
    pivot_rows = [0] * (width + 1)  # by column; bit 0 of a row is its pivot
    pivot_rhs = [0] * (width + 1)
    ctz = _CTZ8
    for s_word, lo_word, b in zip(s.tolist(), lo.tolist(), rhs.tolist()):
        col, c = row_for_words(s_word, lo_word, retry, n, L, lead)
        while True:
            # walk to the lowest 1, at most 8 columns per step
            t = ctz[c & 255]
            col += t
            c >>= t
            if c & 1:
                p = pivot_rows[col]
                if not p:
                    pivot_rows[col] = c
                    pivot_rhs[col] = b
                    break
                c ^= p
                b ^= pivot_rhs[col]
            elif not c:
                return False

    pivots = [c for c in range(width, 0, -1) if pivot_rows[c]]
    if not pivots:
        return True
    # each plane's words from the one of column 1 to the one of the top
    # pivot, collected here, then ORed into the buffer in one step
    first = offset >> 6
    base = offset - 1 - 64 * first  # column c is bit base + c of the words
    words = [[0] * (((base + pivots[0]) >> 6) + 1) for _ in range(r)]
    mask = (1 << L) - 1
    for t, z in enumerate(words):
        window = 0  # bit j is column c + j
        prev = width
        for c in pivots:
            window = (window << (prev - c)) & mask
            prev = c
            if ((window & pivot_rows[c]).bit_count() ^ (pivot_rhs[c] >> t)) & 1:
                window |= 1
                p = base + c
                z[p >> 6] |= 1 << (p & 63)
    import numpy as np

    with _planes_lock:  # a neighbouring chunk may share the end words
        view = np.frombuffer(planes, "<u8").reshape(r, nwords)
        view[:, first : first + len(words[0])] |= np.array(words, "<u8")
    return True


def construct_flat(
    s, lo, values, params: ChunkedParams, planes, offset: int, end: int, chunk: int,
) -> int:
    """Solve chunk ``chunk`` into bits ``offset`` to ``end`` of ``planes``:
    retry seeds until its band system solves, and return the winning retry.

    ``s``, ``lo`` and ``values`` are the chunk's start words, low digest
    words (uint64 arrays, see ``row_gen``) and values (an array), one entry
    per key, with no digest twice (``construct_chunked`` rejects two keys
    with one digest before any chunk is solved: they get one row at every
    retry). Each retry is one ``solve`` call on them, with the chunk's n
    taken from its bits as the query takes it, end - offset - (L - 1).
    ``planes`` is the structure's buffer of params.r plane runs of packed
    words (see ``solve``); the chunk's bits must be zero on entry. Raises
    RetriesExhausted naming the chunk when every retry produced a
    dependent system.
    """
    n = end - offset - (params.L - 1)
    for retry in range(params.max_retries):
        if solve(n, params.L, params.force_leading_one, retry, s, lo, values, planes, params.r,
                 offset):
            return retry
    raise RetriesExhausted(params.max_retries, chunk)
