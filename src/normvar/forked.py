"""The direct passes of a variance report on two CPUs: half of the pass plan in one forked worker.

`stats._variance` imports this module only when its passes could cost
more than `stats._SPLIT_WORK` (passes times events), and `split_rows`
splits when the plan's passes do.  The worker is made with `os.fork()`
once the event table is built, so it shares the table without copying
or rebuilding it (a spawned worker would import and sieve again).  It
runs every other pass of the plan with the serial loop's `pass_tables`,
`fold` and `_direct_row`, writes the rows of its moduli (count,
contribution, outside mass) and the t_q it folded with
q <= `stats._HELD_BOUND` as raw numpy bytes through a pipe, and leaves
by `os._exit`: it runs no atexit handler and flushes none of the
parent's buffered output.  The class sums are exact, so every row and
every t_q is bit for bit what the serial loop makes, whichever process
made it.  The pass loop is repeated here, not shared with
`stats._per_q_weights`: every `checks` run compiles `stats`, and a
larger `stats` raised the peak RSS of `checks --x 1e6 --Q 300` by
0.1-0.2 MiB.

Threads would not pay: a pass holds the GIL (40 passes at x = 1e7 took
0.118 s on two threads against 0.102 s in turn).

The parent reaps the worker on every path, and kills it first when its
own half raises.  A worker that exits non-zero or writes a short payload
costs time, not bytes: the parent then runs that half itself.  Without
two CPUs in the affinity mask, without `os.fork`, or with a second
thread in the process (forking it may deadlock the child, and Python
3.12 warns), every pass stays in the process.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Iterator

import numpy as np

from . import stats
from .fields import FieldSpec
from .sieve import NormEventTable, norm_events
from .stats import _HELD_BOUND, _direct_row, _hold, _pass_budget, _pass_plan, _per_q_weights, fold, pass_tables


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
    return cpus >= 2 and threading.active_count() == 1 and _threads() == 1


def _folded(ev: NormEventTable, plan) -> Iterator[tuple[int, np.ndarray]]:
    """(q, read-only t_q) for the moduli of each pass of `plan` in turn, holding those with q <= _HELD_BOUND."""
    for L, moduli in plan:
        tables = pass_tables(ev.n, ev.columns, L)
        for q in moduli:
            yield q, _hold(ev, q, fold(tables, q))


def _fill(field: FieldSpec, x: int, weights, rows) -> None:
    """Write the row of each (q, t_q) of `weights` into row q - 1 of (counts, contributions, outside)."""
    counts, contributions, outside = rows
    for q, t in weights:
        counts[q - 1], contributions[q - 1], outside[q - 1] = _direct_row(field, x, q, t)


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
        _fill(field, x, _folded(ev, plan), rows)
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


def split_rows(field: FieldSpec, x: int, Q: int, rows) -> None:
    """Write the rows of every q <= Q into (counts, contributions, outside), the odd passes in a forked worker.

    The t_q with q <= _HELD_BOUND are held by the event table, the
    worker's too, as the serial loop holds them.  Where the event table
    holds every t_q already, or the passes cost no more than
    `stats._SPLIT_WORK`, or `can_fork()` is false, the serial loop runs.
    """
    ev = norm_events(field, x)
    plan = None if all(q in ev.held for q in range(1, Q + 1)) else _pass_plan(Q, _pass_budget(len(ev)))
    if plan is None or len(plan) * len(ev) <= stats._SPLIT_WORK or not can_fork():
        _fill(field, x, _per_q_weights(field, x, Q) if plan is None else _folded(ev, plan), rows)
        return
    ours, theirs = plan[0::2], plan[1::2]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        _fill(field, x, _folded(ev, plan), rows)
        return
    if pid == 0:
        _worker(field, x, ev, theirs, rows, read_fd, write_fd)
    os.close(write_fd)
    try:
        _fill(field, x, _folded(ev, ours), rows)
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
        _fill(field, x, _folded(ev, theirs), rows)
        return
    index = np.array(moduli, dtype=np.intp) - 1
    offset = 0
    for column in rows:
        column[index] = np.frombuffer(payload, column.dtype, index.size, offset)
        offset += 8 * index.size
    for q in held:
        _hold(ev, q, np.frombuffer(payload, np.float64, q, offset).copy())
        offset += 8 * q
