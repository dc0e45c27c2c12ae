"""The direct passes of a variance report on two CPUs: half of the pass plan in one forked worker.

`stats._variance` imports this module only when its pass plan costs more
than `stats._SPLIT_WORK` (passes times events), and hands that plan to
`split_rows`.  The worker is made with `os.fork()` once the event table
is built, so it shares the table without copying or rebuilding it (a
spawned worker would import and sieve again).  It runs every other pass
of the plan through the serial loop (`stats._folded`) and row fill
(`stats._fill`), writes the rows of its moduli (count, contribution,
outside mass) and the t_q it folded with q <= `stats._HELD_BOUND` as raw
numpy bytes through a pipe, and leaves by `os._exit`: it runs no atexit
handler and flushes none of the parent's buffered output.  The class
sums are exact, so every row and every t_q is bit for bit what the
serial loop makes, whichever process made it.

Threads would not pay: a pass holds the GIL (40 passes at x = 1e7 took
0.118 s on two threads against 0.102 s in turn).

The parent reaps the worker on every path, and kills it first when its
own half raises.  A worker that exits non-zero or writes a short payload
costs time, not bytes: the parent then runs that half itself.  Without
two CPUs in the affinity mask, without `os.fork`, with a second thread
in the process (forking it may deadlock the child, and Python 3.12
warns), or when the pipe or the fork fails, every pass stays in the
process.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

from . import stats
from .fields import FieldSpec
from .sieve import NormEventTable
from .stats import _HELD_BOUND, _hold


def _threads() -> int:
    """Threads of this process: on Linux every native thread, as Python 3.12 counts them before it warns on fork."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def can_fork() -> bool:
    """Whether a worker may run beside this process: fork exists, two CPUs are allowed and one thread runs."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2 and _threads() == 1


def _moduli(plan) -> list[int]:
    return [q for _, moduli in plan for q in moduli]


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _worker(field: FieldSpec, x: int, ev: NormEventTable, plan, rows, read_fd: int, write_fd: int) -> None:
    """Fill this process's copy of `rows` from `plan`, write the payload and exit; never returns."""
    code = 1
    try:
        os.close(read_fd)
        stats._fill(field, x, stats._folded(ev, plan), rows)
        moduli = _moduli(plan)
        index = np.array(moduli, dtype=np.intp) - 1
        pieces = [column[index].tobytes() for column in rows]
        pieces += [ev.held[q].tobytes() for q in moduli if q <= _HELD_BOUND]
        payload = memoryview(b"".join(pieces))
        while payload:
            payload = payload[os.write(write_fd, payload) :]
        code = 0
    finally:
        os._exit(code)


def _fork(field: FieldSpec, x: int, ev: NormEventTable, plan, rows) -> tuple[int, int] | None:
    """(pid, read end of its pipe) of a worker running `_worker` on `plan`; None where none may run or the pipe or fork fails."""
    if not can_fork():
        return None
    fds = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        _worker(field, x, ev, plan, rows, read_fd, write_fd)
    os.close(write_fd)
    return pid, read_fd


def split_rows(field: FieldSpec, x: int, ev: NormEventTable, plan, rows) -> None:
    """Write the rows of the moduli of `plan` into (counts, contributions, outside), the odd passes in a forked worker.

    The worker holds the t_q it folds with q <= _HELD_BOUND, and the parent
    holds them from its payload, as the serial loop would.  Where no
    worker is made, the whole plan runs in the process.
    """
    theirs = plan[1::2]
    worker = _fork(field, x, ev, theirs, rows)
    if worker is None:
        stats._fill(field, x, stats._folded(ev, plan), rows)
        return
    pid, read_fd = worker
    try:
        stats._fill(field, x, stats._folded(ev, plan[0::2]), rows)
        payload = _read_all(read_fd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        status = os.waitpid(pid, 0)[1]
    moduli = _moduli(theirs)
    held = [q for q in moduli if q <= _HELD_BOUND]
    if status != 0 or len(payload) != 8 * (len(rows) * len(moduli) + sum(held)):
        stats._fill(field, x, stats._folded(ev, theirs), rows)
        return
    index = np.array(moduli, dtype=np.intp) - 1
    offset = 0
    for column in rows:
        column[index] = np.frombuffer(payload, column.dtype, index.size, offset)
        offset += 8 * index.size
    for q in held:
        _hold(ev, q, np.frombuffer(payload, np.float64, q, offset).copy())
        offset += 8 * q
