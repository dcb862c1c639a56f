"""Fixtures every test in this directory runs under."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test no child process may be left, running or unreaped:
    the benchmark refuses a run that leaves a process running."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process (waitpid: pid {pid}, status {status})")
