"""The variance passes split with one forked worker (`normvar.forked`) give the serial loop's bytes."""

import errno
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
#: x = 1e5 and Q = 3000 route every q above the floor 158, so the worker
#: fills rows of q <= 158 in columns of length Q
ROUTED_X, ROUTED_Q = 100_000, 3000


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


def _report(capsys, tmp_path, label: str, fmt: str, name: str, x: int = X, bound: int = Q):
    """(exit code, stdout, stderr, report bytes) of a variance run over a fresh event table."""
    sieve._event_table.cache_clear()
    out = tmp_path / name
    argv = ["variance", "--field", label, "--x", str(x), "--Q", str(bound), "--format", fmt, "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes()


def _serial(capsys, tmp_path, label: str, fmt: str, x: int = X, bound: int = Q):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_SPLIT_WORK", 10**18)
        return _report(capsys, tmp_path, label, fmt, "serial", x, bound)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_split_reports_are_the_serial_bytes(label, fmt, forks, capsys, tmp_path):
    serial = _serial(capsys, tmp_path, label, fmt)
    assert forks == []
    split = _report(capsys, tmp_path, label, fmt, "split")
    assert len(forks) == 1
    assert split == serial


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_routed_split_reports_the_serial_bytes(fmt, forks, capsys, tmp_path):
    serial = _serial(capsys, tmp_path, "Q", fmt, ROUTED_X, ROUTED_Q)
    assert forks == []
    split = _report(capsys, tmp_path, "Q", fmt, "split", ROUTED_X, ROUTED_Q)
    assert len(forks) == 1
    assert split == serial
    assert "PASS route-agreement: " in split[2]


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


def test_no_worker_where_every_pass_is_held(field, forks):
    # as in a `checks` run: the large sieve folds q <= 120 first, so the
    # variance rows (q <= 50) make no pass, and no worker is forked for them
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_SPLIT_WORK", 10**18)
        sieve._event_table.cache_clear()
        serial = nv.variance(field, X, 50)
        sieve._event_table.cache_clear()
        stats.large_sieve_check(field, X, Q)
    assert sorted(nv.norm_events(field, X).held) == list(range(1, Q + 1))
    report = nv.variance(field, X, 50)
    assert forks == []
    assert np.array_equal(report.per_q, serial.per_q)
    assert np.array_equal(report.admissible, serial.admissible)
    assert (report.total, report.outside_mass, report.dyadic) == (serial.total, serial.outside_mass, serial.dyadic)


def _in_worker(parent: int, action):
    """A `stats._fill` that runs `action` first in the worker, and only there."""
    real_fill = stats._fill

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
        monkeypatch.setattr(stats, "_fill", _in_worker(os.getpid(), action))
    assert _report(capsys, tmp_path, "quad:-1", "json", "split") == serial
    assert len(forks) == 1


def test_the_worker_is_reaped_when_the_parent_raises(forks, monkeypatch):
    real_fill, parent = stats._fill, os.getpid()

    def fill(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt  # while the worker runs its half
        real_fill(*args)

    monkeypatch.setattr(stats, "_fill", fill)
    sieve._event_table.cache_clear()
    with pytest.raises(KeyboardInterrupt):
        nv.variance(nv.rational_field(), X, Q)
    assert len(forks) == 1


def _no_pipe():
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.parametrize("setting", ["thread", "one cpu", "no fork", "no pipe", "few passes"])
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
    elif setting == "no pipe":
        # out of file descriptors: the split falls back as from a failed fork
        monkeypatch.setattr(os, "pipe", _no_pipe)
    else:
        # passes times events at the gate, not above it
        events = len(nv.norm_events(nv.rational_field(), X))
        monkeypatch.setattr(stats, "_SPLIT_WORK", len(stats._pass_plan(Q, stats._pass_budget(events))) * events)
    try:
        assert forked.can_fork() == (setting in ("no pipe", "few passes"))
        assert _report(capsys, tmp_path, "Q", "json", "split") == serial
    finally:
        if thread is not None:
            done.set()
            thread.join()
    assert forks == []


def test_split_only_above_the_break_even():
    # the bench workloads: deepx's passes split; wideq's below the route's
    # floor and the checks' variance rows (q <= 50) do not load `forked`
    for events, direct, splits in ((665_134, 1000, True), (39_392, 500, False), (78_734, 50, False)):
        plan = stats._pass_plan(direct, stats._pass_budget(events))
        assert (len(plan) * events > stats._SPLIT_WORK) == splits
