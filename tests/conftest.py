"""Fixtures shared by the test modules."""

import os
import signal

import pytest


@pytest.fixture
def time_bound():
    """Fail the test after 60 s instead of hanging the run (a sweep pool
    that never ends its workers would otherwise block in waitpid).
    Forked workers inherit the handler but not the alarm."""

    def expire(signum, frame):
        raise TimeoutError("test ran over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def leaves_no_child_or_descriptor():
    """Fail a test that leaves a child process, or a descriptor such as a
    sweep pool's queue or spill file, open behind it."""
    fds = "/proc/self/fd"
    before = set(os.listdir(fds)) if os.path.isdir(fds) else set()
    yield
    left = set(os.listdir(fds)) - before if os.path.isdir(fds) else set()
    assert not left, f"descriptors left open: {sorted(left)}"
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # 0 for a child still running
    except ChildProcessError:  # no child at all
        pid = None
    assert pid is None, "a child process is left behind"
