"""Suite-wide guard: a test that runs far past the slowest test is stuck,
not slow.

The slowest test takes about 8 s, so a test still running after
``TEST_TIME_LIMIT_S`` has hung (a broken elimination kernel, say).  The
guard dumps every thread's stack to stderr and exits the process, so the
run fails with the place it hung instead of running on for minutes.
"""

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 300

# pytest captures a test's output at the file-descriptor level, so the
# dump goes to a copy of stderr taken while capture is off.
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=item.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
