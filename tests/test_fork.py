"""Tests of ``_fork.in_order``: tasks computed in order, on forked children
and in the parent."""

import functools
import os

import pytest

from thetawave import _fork

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


def whose(i):
    return f"{i} {os.getpid()}".encode()


def tasks(n):
    """n tasks; task i computes b"i pid", pid the process that ran it."""
    return [(f"computing task {i}", functools.partial(whose, i))
            for i in range(n)]


@pytest.mark.parametrize("w", [1, 2, 3])
def test_results_in_order(forks, w):
    results = [data.split() for data in _fork.in_order(tasks(7), w)]
    assert [int(i) for i, _ in results] == list(range(7))
    # task i ran in the parent for i % w == 0, else in child i % w
    assert len(forks.pids) == w - 1
    pids = [os.getpid()] + forks.pids
    assert [int(pid) for _, pid in results] == [pids[i % w]
                                                 for i in range(7)]
    forks.assert_all_reaped()


def test_child_that_raises_ends_early(capfd, forks):
    def failing():
        raise ValueError("the task fails")

    results = _fork.in_order(tasks(1) + [("computing task 1", failing)], 2)
    assert next(results) == whose(0)
    with pytest.raises(OSError) as exc:
        next(results)
    assert str(exc.value) == "the process computing task 1 ended early"
    # the child's traceback, as an uncaught exception prints it
    err = capfd.readouterr().err.splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-1] == "ValueError: the task fails"
    assert len(forks.pids) == 1
    forks.assert_all_reaped()


def test_failing_fork_computes_in_parent(forks):
    forks.fail_from(2)
    assert list(_fork.in_order(tasks(7), 3)) == [whose(i) for i in range(7)]
    # the first child was forked, then killed and reaped
    assert len(forks.pids) == 1
    forks.assert_all_reaped()


@pytest.mark.parametrize("way_out", ["raise", "close"])
def test_no_child_left(forks, way_out):
    def first():
        if way_out == "raise":
            raise ArithmeticError("the parent fails")
        return b"first"

    # each child's 1 MiB fills its pipe and blocks the child in its write
    rest = [(f"computing task {i}", lambda: bytes(2**20)) for i in range(6)]
    results = _fork.in_order([("computing task 0", first)] + rest, 3)
    if way_out == "raise":
        with pytest.raises(ArithmeticError, match="the parent fails"):
            next(results)
    else:
        assert next(results) == b"first"
        results.close()
    assert len(forks.pids) == 2
    forks.assert_all_reaped()


class TestProcesses:
    """``processes(limit)``: one per usable CPU, within [1, limit]."""

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _fork.processes(8) == 1

    @pytest.mark.parametrize("count, want", [(3, 3), (16, 8), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, want):
        # as on macOS: no sched_getaffinity, and os.cpu_count() may be None
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _fork.processes(8) == want
