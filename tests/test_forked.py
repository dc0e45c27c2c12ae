"""The variance passes split with one forked worker (`normvar.forked`) give the serial loop's bytes."""

import os
import signal
import threading

import numpy as np
import pytest

import normvar as nv
from normvar import forked, sieve, stats
from normvar.cli import main
from normvar.stats import class_weights
from conftest import ORACLE_LABELS

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

#: x = 2e4 and Q = 120 lie above the route's floor 70, but the route costs
#: more than the passes there, so every row and every held t_q is on them
X, Q = 20_000, stats._HELD_BOUND


@pytest.fixture
def forks(monkeypatch):
    """Split the passes of every variance run on two allowed CPUs; the pids of the workers made."""
    monkeypatch.setattr(stats, "_SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield made
    # every worker was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report(capsys, tmp_path, label: str, fmt: str, name: str):
    """(exit code, stdout, stderr, report bytes) of a variance run over a fresh event table."""
    sieve._event_table.cache_clear()
    out = tmp_path / name
    code = main(["variance", "--field", label, "--x", str(X), "--Q", str(Q), "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes()


def _serial(capsys, tmp_path, label: str, fmt: str):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_SPLIT_WORK", 10**18)
        return _report(capsys, tmp_path, label, fmt, "serial")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_split_reports_are_the_serial_bytes(label, fmt, forks, capsys, tmp_path):
    serial = _serial(capsys, tmp_path, label, fmt)
    assert forks == []
    split = _report(capsys, tmp_path, label, fmt, "split")
    assert len(forks) == 1
    assert split == serial


def test_split_holds_the_serial_t_q(field, forks):
    sieve._event_table.cache_clear()
    ev = nv.norm_events(field, X)
    report = nv.variance(field, X, Q)
    assert len(forks) == 1
    assert sorted(ev.held) == list(range(1, stats._HELD_BOUND + 1))
    for q, t in ev.held.items():
        assert not t.flags.writeable
        assert np.array_equal(t, class_weights(ev.n, ev.columns, q)), q
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_SPLIT_WORK", 10**18)
        sieve._event_table.cache_clear()
        serial = nv.variance(field, X, Q)
    assert np.array_equal(report.per_q, serial.per_q)
    assert np.array_equal(report.admissible, serial.admissible)
    assert (report.total, report.outside_mass, report.dyadic) == (serial.total, serial.outside_mass, serial.dyadic)


def _in_worker(parent: int, action):
    """A `_fill` that runs `action` first in the worker, and only there."""
    real_fill = forked._fill

    def fill(*args):
        if os.getpid() != parent:
            action()
        real_fill(*args)

    return fill


def _raise():
    raise RuntimeError("worker fails")


@pytest.mark.parametrize("failure", ["raises", "killed", "short"])
def test_a_failed_worker_costs_no_bytes(failure, forks, monkeypatch, capsys, tmp_path):
    serial = _serial(capsys, tmp_path, "quad:-1", "json")
    if failure == "short":
        read_all = forked._read_all
        monkeypatch.setattr(forked, "_read_all", lambda fd: read_all(fd)[:-8])
    else:
        action = _raise if failure == "raises" else lambda: os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(forked, "_fill", _in_worker(os.getpid(), action))
    assert _report(capsys, tmp_path, "quad:-1", "json", "split") == serial
    assert len(forks) == 1


def test_the_worker_is_reaped_when_the_parent_raises(forks, monkeypatch):
    real_fill, parent = forked._fill, os.getpid()

    def fill(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt  # while the worker runs its half
        real_fill(*args)

    monkeypatch.setattr(forked, "_fill", fill)
    sieve._event_table.cache_clear()
    with pytest.raises(KeyboardInterrupt):
        nv.variance(nv.rational_field(), X, Q)
    assert len(forks) == 1


@pytest.mark.parametrize("setting", ["thread", "one cpu", "no fork", "few passes"])
def test_serial_where_a_worker_may_not_run(setting, forks, monkeypatch, capsys, tmp_path):
    # a fork with a second thread may deadlock the child, and Python 3.12
    # warns on it: with filterwarnings = error that warning would fail here
    serial = _serial(capsys, tmp_path, "Q", "json")
    done, thread = threading.Event(), None
    if setting == "thread":
        thread = threading.Thread(target=done.wait)
        thread.start()
    elif setting == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif setting == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        # the targets in (Q/2, Q] pass the gate in `stats`, but the plan's
        # fewer passes do not pass the one in `forked`
        events = len(nv.norm_events(nv.rational_field(), X))
        monkeypatch.setattr(stats, "_SPLIT_WORK", len(stats._pass_plan(Q, stats._pass_budget(events))) * events)
    try:
        assert forked.can_fork() == (setting == "few passes")
        assert _report(capsys, tmp_path, "Q", "json", "split") == serial
    finally:
        if thread is not None:
            done.set()
            thread.join()
    assert forks == []


def test_split_only_above_the_break_even():
    # the bench workloads: deepx's passes split; wideq's below the route's
    # floor and the checks' variance rows (q <= 50) do not load `forked`,
    # as their targets in (Q/2, Q] bound their passes
    for events, direct, splits in ((665_134, 1000, True), (39_392, 500, False), (78_734, 50, False)):
        plan = stats._pass_plan(direct, stats._pass_budget(events))
        assert (len(plan) * events > stats._SPLIT_WORK) == splits
        assert ((direct - direct // 2) * events > stats._SPLIT_WORK) == splits
