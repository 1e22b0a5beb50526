"""Fixtures that every test in `tests/` runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with a thread running that was not running when
    it started, such as a trace's noise worker that was never shut down."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads still running after the test: {left}"
