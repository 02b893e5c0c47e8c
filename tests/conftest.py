"""Fixtures for the tests of forked children and of the command line:
``forks``, ``run_cli`` (``thetawave.cli.main`` in this process) and
``python`` (this interpreter in a subprocess, with ``src`` on its path)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetawave.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


class ForkHarness:
    """``os.fork`` patched to append each child's pid to ``pids``."""

    def __init__(self, monkeypatch):
        self.pids, self._left, self._monkeypatch = [], math.inf, monkeypatch
        fork = os.fork

        def recorded_fork():
            if self._left == 0:
                raise BlockingIOError("Resource temporarily unavailable")
            self._left -= 1
            pid = fork()
            if pid:
                self.pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded_fork)

    def cpus(self, n):
        """Report n usable CPUs through ``os.sched_getaffinity``."""
        self._monkeypatch.setattr(os, "sched_getaffinity",
                                  lambda pid: set(range(n)), raising=False)

    def fail_from(self, k):
        """The k-th fork from now on and every later one fail, as a fork
        fails when no process is left."""
        self._left = k - 1

    @staticmethod
    def assert_all_reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    return ForkHarness(monkeypatch)


@pytest.fixture
def run_cli(capfd):
    """run_cli(argv): (exit code, stdout, stderr) of ``main(argv)``, read at
    the file descriptors, so that a forked child's traceback is in stderr."""
    return lambda argv: (main(argv), *capfd.readouterr())


class Python:
    """``python *args`` in a subprocess, with ``src`` as its PYTHONPATH and
    ``env`` added.  ``buffered`` drops PYTHONUNBUFFERED: stdout is then
    block-buffered in a pipe, as it is for a user."""

    @staticmethod
    def _env(buffered, **env):
        env = {**os.environ, **env, "PYTHONPATH": SRC}
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        return env

    def run(self, *args, buffered=False, timeout=120, **env):
        """Run to its exit, the output captured as text."""
        return subprocess.run([sys.executable, *args],
                              env=self._env(buffered, **env),
                              capture_output=True, text=True, timeout=timeout)

    def popen(self, *args, buffered=False):
        """Started, with stdout and stderr as binary pipes."""
        return subprocess.Popen([sys.executable, *args],
                                env=self._env(buffered),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.fixture
def python():
    return Python()
