"""A per-phase time limit, so that a hung test fails under its own id.

Each setup, call and teardown of a test gets ``LIMIT_S`` seconds, well above
the slowest test (a few seconds).  When the limit fires, the phase raises
:class:`TimeoutError` with the test id in its message, and the run goes on
with the next test.  The limit uses ``SIGALRM``, so it applies only where
that signal exists, and only while Python code runs: a signal handler runs
between bytecodes, not inside one long C call.  A test that gives a
subprocess its own timeout keeps it; one below ``LIMIT_S`` fires first.
"""

import signal

import pytest

LIMIT_S = 60


def _limited(item):
    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past the {LIMIT_S} s per-test limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


if hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(item):
        yield from _limited(item)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        yield from _limited(item)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(item):
        yield from _limited(item)
