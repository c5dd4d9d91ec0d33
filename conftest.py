"""Session set-up shared by every test directory (``tests`` and
``perfbench``)."""

import faulthandler
import os
import shutil
import tempfile

import pytest

_STDERR = pytest.StashKey[int]()  # a copy of the terminal's stderr descriptor


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
    # taken here, where output capture is suspended
    config.stash[_STDERR] = os.dup(2)
    config.add_cleanup(lambda: os.close(config.stash[_STDERR]))


@pytest.fixture(autouse=True)
def hang_guard(request):
    """A test that runs 300 s, far past the slowest one's few seconds,
    dumps every thread's traceback and ends the run, so that a native loop
    that never ends fails the suite instead of stalling it. The traceback
    goes to the terminal's stderr, which output capture does not hide."""
    faulthandler.dump_traceback_later(300, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
