"""Session set-up shared by every test directory (``tests`` and
``perfbench``)."""

import shutil
import tempfile

import pytest


def pytest_configure(config):
    """Builds compile and load the C kernel from a cache private to the test
    run, not the user's. It is set here, before collection, because
    collecting ``tests/test_retrieval_chunked.py`` already builds a
    structure, and at the root, so that ``pytest perfbench`` run on its own
    (whose runs compile the kernel in a child process) gets it too."""
    cache = tempfile.mkdtemp(prefix="bandset-cache-")
    mp = pytest.MonkeyPatch()
    mp.setenv("XDG_CACHE_HOME", cache)
    config.add_cleanup(lambda: shutil.rmtree(cache, ignore_errors=True))
    config.add_cleanup(mp.undo)
