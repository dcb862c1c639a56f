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


@pytest.fixture
def forks(monkeypatch):
    """The fork calls of the test, counted in the parent."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes os.sched_getaffinity report n usable CPUs."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                         raising=False)


@pytest.fixture
def same_fds():
    """The test leaves as many file descriptors open as it found."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    before = len(os.listdir("/proc/self/fd"))
    yield
    assert len(os.listdir("/proc/self/fd")) == before
