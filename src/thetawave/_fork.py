"""Tasks run in order on forked children, shared by ``grid``'s text
(``cli._in_order``) and ``verify``'s split-step (``verify_ledger``).  A
child makes no BLAS call, writes its tasks' bytes into a pipe and ends
with ``os._exit``: it never returns into its caller or flushes the stdout
or ``--out`` buffer it inherited.  The parent kills and reaps every child
on its way out."""

from __future__ import annotations

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


def in_order(tasks, w):
    """compute() of each (what, compute) of ``tasks``, in order.  Forked
    child j of w processes computes the tasks with i % w == j and writes
    their bytes into its own pipe; the parent computes the tasks with
    i % w == 0 and reads the rest in turn: the pipe buffers are the only
    queue.  A short read is an OSError naming the task's ``what``; a child
    that raised has printed its traceback.  Every child is reaped on the
    way out, also when the generator is closed early; if a fork fails, the
    parent computes every task."""
    pipes, pids = [], []
    try:
        try:
            for j in range(1, w):
                _fork([compute for _, compute in tasks[j::w]], pipes, pids)
        except OSError:  # no process or pipe left for another child
            _reap(pipes, pids)
            w = 1
        for i, (what, compute) in enumerate(tasks):
            yield compute() if i % w == 0 else _read(pipes[i % w - 1], what)
    finally:
        _reap(pipes, pids)


def _fork(computes, pipes, pids):
    """Fork a child that writes the bytes of each of ``computes``,
    length-prefixed, into a new pipe; its read end joins ``pipes`` and the
    child ``pids``.  An OSError when no pipe or process is left."""
    r, w = os.pipe()
    pipes.append(open(r, "rb"))
    with open(w, "wb") as out, warnings.catch_warnings():
        # Python 3.12+ warns of a fork beside BLAS threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
        if pid == 0:
            _child(computes, out, pipes)
    pids.append(pid)


def _read(pipe, what):
    """The next block from ``pipe``; an OSError naming ``what`` when the
    child ended before writing the block whole."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 8 or len(data) < size:
        raise OSError(f"the process {what} ended early")
    return data


def _reap(pipes, pids):
    """Kill and reap the children, then close their pipes; both lists are
    emptied.  Killed first, a child never sees its pipe closed."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pipe in pipes:
        pipe.close()
    for pid in pids:
        os.waitpid(pid, 0)
    del pipes[:], pids[:]


def _child(computes, out, pipes):
    """A forked child: writes the computed blocks to ``out`` and exits."""
    code = 1
    try:
        # only the parent keeps a read end, so a child's write fails at
        # once when the parent stops reading
        for pipe in pipes:
            pipe.close()
        for compute in computes:
            data = compute()
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
