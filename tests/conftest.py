"""A time limit on every test, from the standard library alone.

Where the platform has SIGALRM, an alarm fails a test that runs past
``TEST_TIME_LIMIT_S``, so a regression that loops forever fails that one
test and the rest of the suite still runs.  Elsewhere no limit is set.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes a few seconds


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
