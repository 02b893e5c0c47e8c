"""Forked children that write blocks of bytes into a pipe, shared by
``grid``'s text (``cli._in_order``) and ``verify``'s split-step.  A child
makes no BLAS call and ends with ``os._exit``: it never returns into its
caller or flushes the stdout or ``--out`` buffer it inherited.  The parent
kills and reaps every child on its way out."""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import warnings


def processes(limit):
    """One process per usable CPU, at least one and at most ``limit``; one
    without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity, as on macOS
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, limit))


def fork(blocks, pipes, pids):
    """Fork a child that writes each bytes of ``blocks()``, length-prefixed,
    into a new pipe; its read end joins ``pipes`` and the child ``pids``.
    An OSError when no pipe or process is left."""
    r, w = os.pipe()
    pipes.append(open(r, "rb"))
    with open(w, "wb") as out, warnings.catch_warnings():
        # Python 3.12+ warns of a fork beside BLAS threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
        if pid == 0:
            _child(blocks, out, pipes)
    pids.append(pid)


def read(pipe, task):
    """The next block from ``pipe``; an OSError naming the child's ``task``
    when it ended before writing the block whole."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 8 or len(data) < size:
        raise OSError(f"the process {task} ended early")
    return data


def reap(pipes, pids):
    """Kill and reap the children, then close their pipes; both lists are
    emptied.  Killed first, a child never sees its pipe closed."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pipe in pipes:
        pipe.close()
    for pid in pids:
        os.waitpid(pid, 0)
    del pipes[:], pids[:]


@contextlib.contextmanager
def forked(compute, task):
    """Inside the block, a function that returns the bytes of ``compute()``:
    read from a child forked on entry when ``processes(2)`` is 2, else (and
    when the fork fails) computed in process when called.  The child is
    reaped however the block is left."""
    pipes, pids = [], []
    try:
        if processes(2) == 2:
            try:
                fork(lambda: [compute()], pipes, pids)
            except OSError:  # no process or pipe left
                reap(pipes, pids)
        yield (lambda: read(pipes[0], task)) if pids else compute
    finally:
        reap(pipes, pids)


def _child(blocks, out, pipes):
    """A forked child: writes the blocks to ``out`` and exits."""
    code = 1
    try:
        # only the parent keeps a read end, so a child's write fails at
        # once when the parent stops reading
        for pipe in pipes:
            pipe.close()
        for data in blocks():
            out.write(len(data).to_bytes(8, "little") + data)
        out.flush()
        code = 0
    except Exception:
        # the cause, as an uncaught exception prints it, on the stderr the
        # child shares with the parent
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        # no flush of inherited stdout or --out buffers, no atexit code, no
        # return into the caller
        os._exit(code)
