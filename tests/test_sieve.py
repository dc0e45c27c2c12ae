import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normvar as nv
from normvar import sieve
from normvar.arith import factorize, int_kth_root
from normvar.fields import residue_degrees
from conftest import ORACLE_LABELS
from naive_oracle import naive_events, naive_primes

LOG2, LOG3, LOG5, LOG7 = math.log(2), math.log(3), math.log(5), math.log(7)


def test_primes_small_against_trial_division():
    assert nv.primes_up_to(1).size == 0
    assert nv.primes_up_to(2).tolist() == [2]
    assert nv.primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert nv.primes_up_to(2000).tolist() == list(naive_primes(2000))


def test_prime_counts():
    assert nv.primes_up_to(10**4).size == 1229
    assert nv.primes_up_to(10**6).size == 78498


@pytest.mark.parametrize("segment", [64, 1000, 4096, 1 << 20])
def test_primes_independent_of_segment_size(segment, monkeypatch):
    # the window is a private constant; the primes must not depend on it
    monkeypatch.setattr(sieve, "_WINDOW", segment)
    assert nv.primes_up_to(30_000).tolist() == list(naive_primes(30_000))


def test_primes_across_window_boundaries():
    # the windows start above sqrt(x): two full 2^20 windows and a partial third
    x = 3 * 2**20 + 17
    assert np.array_equal(nv.primes_up_to(x), sieve._simple_sieve(x))


def test_primes_rejects_above_ceiling():
    with pytest.raises(ValueError):
        nv.primes_up_to(nv.MAX_SIEVE_LIMIT + 1)


def test_ceiling_is_the_memory_budget():
    # the events up to x number fewer than 1.26 x / log x; the ceiling is
    # the largest multiple of 1e7 whose events fit the budget at their peak
    def peak_bytes(x):
        return 1.26 * x / math.log(x) * sieve.PEAK_BYTES_PER_EVENT

    assert peak_bytes(nv.MAX_SIEVE_LIMIT) <= sieve.EVENT_MEMORY_BUDGET
    assert peak_bytes(nv.MAX_SIEVE_LIMIT + 10**7) > sieve.EVENT_MEMORY_BUDGET


def _rows(field, x):
    return list(zip(*(c.tolist() for c in nv.event_columns(field, x))))


def test_events_rational_x10():
    ev = _rows(nv.rational_field(), 10)
    assert [row[:4] for row in ev] == [
        (2, 2, 1, 1),
        (3, 3, 1, 1),
        (4, 2, 2, 1),
        (5, 5, 1, 1),
        (7, 7, 1, 1),
        (8, 2, 3, 1),
        (9, 3, 2, 1),
    ]
    assert all(lam == pytest.approx(math.log(p), abs=0) for _, p, _, _, lam in ev)


def test_events_gaussian_x10():
    # ramified 2 contributes at every power with lam = log 2; inert 3 only
    # at even powers with lam = 2 log 3; split 5 with multiplicity 2
    ev = _rows(nv.parse_field("quad:-1"), 10)
    assert ev == [
        (2, 2, 1, 1, pytest.approx(LOG2, rel=1e-15)),
        (4, 2, 2, 1, pytest.approx(LOG2, rel=1e-15)),
        (5, 5, 1, 2, pytest.approx(LOG5, rel=1e-15)),
        (8, 2, 3, 1, pytest.approx(LOG2, rel=1e-15)),
        (9, 3, 2, 1, pytest.approx(2 * LOG3, rel=1e-15)),
    ]


def test_events_cyclo5_x20():
    ev = _rows(nv.parse_field("cyclo:5"), 20)
    assert ev == [
        (5, 5, 1, 1, pytest.approx(LOG5, rel=1e-15)),
        (11, 11, 1, 4, pytest.approx(math.log(11), rel=1e-15)),
        (16, 2, 4, 1, pytest.approx(4 * LOG2, rel=1e-15)),
    ]


def test_events_match_naive_oracle(oracle_field):
    field = oracle_field
    ours = _rows(field, 2000)
    ref = naive_events(field.variant, field.parameter, 2000)
    assert len(ours) == len(ref)
    for mine, theirs in zip(ours, ref):
        assert mine[:4] == theirs[:4]
        assert mine[4] == pytest.approx(theirs[4], rel=1e-13)


def _assert_table_matches_columns(field, x):
    # the cached table and the five columns come from the same blocks
    table, cols = nv.norm_events(field, x), nv.event_columns(field, x)
    assert table.n.dtype == np.uint32 and cols.n.dtype == np.int64
    assert np.array_equal(table.n, cols.n)
    w = cols.dk * cols.lam
    assert np.array_equal(table.weights(), w)
    columns = sieve.weight_slices(w)
    slices = sieve.lanes(columns)
    assert len(table.slices) == len(slices)
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(table.slices, slices))
    assert len(table.columns) == len(columns)
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(table.columns, columns))


def test_table_matches_columns(oracle_field):
    _assert_table_matches_columns(oracle_field, 2000)


def test_table_matches_columns_at_large_x():
    field, x = nv.rational_field(), 10**6
    _assert_table_matches_columns(field, x)
    # 78,498 events: S2 is summed over ten blocks of squares
    w = nv.norm_events(field, x).weights()
    assert len(w) > sieve._SQUARE_BLOCK
    assert nv.event_moment_sums(field, x) == (math.fsum(w.tolist()), math.fsum((w * w).tolist()))


def test_event_table_sorted_and_immutable(field):
    table = nv.norm_events(field, 500)
    # not np.diff: it wraps around on unsigned n
    assert np.all(table.n[1:] > table.n[:-1])
    with pytest.raises(ValueError):
        table.n[0] = 1
    assert table.slices
    for piece in (*table.columns, *table.slices):
        with pytest.raises(ValueError):
            piece[0] = 1.0
    # the exchange check rebuilds the weights of a few rows only
    rows = np.array([0, 3, 5, len(table) - 1])
    assert np.array_equal(table.weights(rows), table.weights()[rows])


def _parts_by_degree(field, x):
    # the build the ascending stream replaced, kept as the reference for
    # the table's bits: every prime up to x (here by one dense sieve),
    # grouped by residue degree, then the ramified p, in unsorted blocks
    primes = sieve._simple_sieve(x)
    f_of_p = residue_degrees(field)[primes % field.conductor]
    groups = [(primes[f_of_p == f], f, field.degree // f) for f in np.unique(f_of_p).tolist() if f]
    for p in factorize(field.conductor):
        if p <= x:
            s = nv.split_type(field, p)
            groups.append((np.array([p], dtype=np.int64), s.f, s.g))
    for group, f, g in groups:
        for k in range(f, int(math.log2(x)) + 1, f):
            sel = group[group <= int_kth_root(x, k)]
            if sel.size:
                lam = f * np.log(sel.astype(np.float64))
                yield (sel**k if k > 1 else sel), g * lam


def _reference_table(field, x):
    parts = list(_parts_by_degree(field, x))
    n = np.concatenate([np.empty(0, dtype=np.uint32), *(n.astype(np.uint32) for n, _ in parts)])
    order = np.argsort(n, kind="stable")
    w = np.concatenate([np.empty(0), *(w for _, w in parts)])[order]
    columns = sieve.weight_slices(w)
    s1 = math.fsum(piece.sum() for piece in sieve.lanes(columns))
    return n[order], columns, (s1, math.fsum(np.square(w).tolist()))


def _assert_table_is_the_reference(label, x):
    field = nv.parse_field(label)
    table = sieve._event_table.__wrapped__(field, x)
    n, columns, moments = _reference_table(field, x)
    assert table.n.dtype == np.uint32 and np.array_equal(table.n, n), (label, x)
    assert len(table.columns) == len(columns), (label, x)
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(table.columns, columns)), (label, x)
    assert table.moments == moments, (label, x)


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_table_is_bit_identical_to_the_sorted_build(label):
    for x in (2, 3, 4, 10, 50, 2000):
        _assert_table_is_the_reference(label, x)


@pytest.mark.parametrize("segment", [64, 1000])
def test_table_is_independent_of_the_window(segment, monkeypatch):
    monkeypatch.setattr(sieve, "_WINDOW", segment)
    for label in ORACLE_LABELS:
        _assert_table_is_the_reference(label, 30_000)


@pytest.mark.parametrize("label", ["Q", "quad:-1", "cyclo:12"])
def test_table_across_window_boundaries(label):
    # two full 2^20 windows and a partial third above sqrt(x)
    _assert_table_is_the_reference(label, 3 * 2**20 + 17)


@pytest.mark.parametrize("label, x", [("quad:13", 50), ("cyclo:20", 10), ("cyclo:1009", 10**5)])
def test_table_with_a_ramified_prime_above_the_root(label, x):
    # 13 > isqrt(50), 5 > isqrt(10) and 1009 > isqrt(1e5) are rows merged
    # into the sieved primes, not taken from them
    assert max(factorize(nv.parse_field(label).conductor)) > math.isqrt(x)
    _assert_table_is_the_reference(label, x)


_PEAKS = """
import os

def child(build):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        import normvar as nv
        events = len(nv.norm_events(nv.rational_field(), 10**7)) if build else 0
        os.write(write, str(events).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        events = int(pipe.read())
    return events, os.wait4(pid, 0)[2].ru_maxrss

events, built = child(True)
print(events, built, child(False)[1])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB and os.fork")
def test_event_build_peaks_near_its_table():
    # both children fork from a new interpreter, not from this process: a
    # forked child's peak starts at its parent's.  The table holds 20 bytes
    # per event; the sorted build peaked at about 52 bytes per event
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAKS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    events, built, bare = map(int, proc.stdout.split())
    assert events == 665_134
    assert (built - bare) * 1024 <= 40 * events


def test_events_rejects_tiny_x(field):
    with pytest.raises(ValueError):
        nv.norm_events(field, 1)
    with pytest.raises(ValueError):
        nv.event_columns(field, 1)


def test_moment_sums_rational_x10():
    s1, s2 = nv.event_moment_sums(nv.rational_field(), 10)
    assert s1 == pytest.approx(3 * LOG2 + 2 * LOG3 + LOG5 + LOG7, rel=1e-15)
    assert s2 == pytest.approx(
        3 * LOG2**2 + 2 * LOG3**2 + LOG5**2 + LOG7**2, rel=1e-15
    )


def test_moment_sums_gaussian_x10():
    s1, s2 = nv.event_moment_sums(nv.parse_field("quad:-1"), 10)
    assert s1 == pytest.approx(3 * LOG2 + 2 * LOG5 + 2 * LOG3, rel=1e-15)
    assert s2 == pytest.approx(3 * LOG2**2 + (2 * LOG5) ** 2 + (2 * LOG3) ** 2, rel=1e-15)


def test_moment_sums_are_fsums_of_the_weights(oracle_field):
    cols = nv.event_columns(oracle_field, 2000)
    w = cols.dk * cols.lam
    s1, s2 = nv.event_moment_sums(oracle_field, 2000)
    assert s1 == math.fsum(w.tolist())
    assert s2 == math.fsum((w * w).tolist())


def test_second_moment_is_rounded_once_across_blocks(monkeypatch):
    # each block's squares sum to the tie 1 + 2^-53, which alone rounds to 1;
    # all three blocks sum to 3 + 3 * 2^-53, which rounds up to 3 + 2^-51
    w = np.array([1.0, 2.0**-27, 2.0**-27] * 3)
    monkeypatch.setattr(sieve, "_SQUARE_BLOCK", 3)
    blocks = (w[lo : lo + 3] for lo in range(0, 9, 3))
    monkeypatch.setattr(sieve, "_event_stream", lambda field, x: (np.arange(9, dtype=np.uint32), blocks))
    table = sieve._event_table.__wrapped__(nv.rational_field(), 10)
    assert table.moments == (math.fsum(w.tolist()), 3 + 2.0**-51)


def test_slice_exactness_is_asserted(monkeypatch):
    w = nv.norm_events(nv.rational_field(), 10**4).weights()
    quantum = sieve._quantum
    # a quantum 4 times too fine lets a slice's sum reach 2^53 quanta
    monkeypatch.setattr(sieve, "_quantum", lambda bound: quantum(bound) / 4)
    with pytest.raises(AssertionError, match="slice sums would round"):
        sieve.weight_slices(w)


def test_first_moment_tracks_x(field):
    # total event weight is asymptotically x; at 10^5 it is within 2%
    s1, _ = nv.event_moment_sums(field, 10**5)
    assert 0.98 <= s1 / 10**5 <= 1.02


def test_event_multiplicity_equals_split_count(field):
    cols = nv.event_columns(field, 10_000)
    g_of = {int(p): nv.split_type(field, int(p)).g for p in np.unique(cols.p)}
    for n, p, k, dk in zip(cols.n.tolist(), cols.p.tolist(), cols.k.tolist(), cols.dk.tolist()):
        s = nv.split_type(field, p)
        assert k % s.f == 0
        assert dk == g_of[p]
        assert dk * dk == g_of[p] * dk
