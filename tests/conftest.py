"""A wall-clock limit on every test, so a search whose node count blows up
fails in minutes instead of running to its 10 M node budget.

The slowest test takes under 10 s; 120 s leaves room for a slow machine.
The limit is a SIGALRM whose handler raises in the running test, so it
applies where the platform has SIGALRM and the test runs in the main thread.
"""

from __future__ import annotations

import signal

import pytest

WALL_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past the {WALL_LIMIT_S} s wall limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WALL_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
