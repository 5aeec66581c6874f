"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def time_bound():
    """Fail the test after 60 s instead of hanging the run (a sweep pool
    that never ends its workers would otherwise block in select or waitpid).
    Forked workers inherit the handler but not the alarm."""

    def expire(signum, frame):
        raise TimeoutError("test ran over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
