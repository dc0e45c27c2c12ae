"""Prime enumeration and the stream of prime-power norm events.

A norm event for a base field K records one value n = p^k <= x that is
the absolute norm of a power of a prime ideal of K.  For unramified p
with splitting data (e, f, g), powers of the g primes above p all have
norms p^(f*j), so an event exists exactly when f divides k; it carries
multiplicity dk = g (the number of ideal powers of that norm) and log
weight lam = f * log p (the norm's "von Mangoldt" size, log of the norm
of the underlying prime ideal).  Ramified primes, the divisors of the
conductor, contribute through their own (e, f, g) the same way.

For unramified p, f depends only on p modulo the conductor, so it is
read from one table (`fields.residue_degrees`) and events are generated
per residue degree with numpy; building the table at x = 10^6 takes
milliseconds.

`_event_parts` is the one generator of events, in unsorted blocks.  The
statistics read only n, the class sums of the weights w = dk * lam and
the moments S1 = sum w and S2 = sum w^2, so `norm_events` is the one
cache of event data: its table holds n as uint32, the weights split
into slices whose sums are exact in any order (`weight_slices`, two
float64 slices for every table measured, held as the two lanes of one
complex128 column: 20 bytes per event), (S1, S2), and the class sums
of the small moduli that `stats` folds out of them (`held`).  `event_columns` derives all five columns (n, p, k,
dk, lam) from that table, with no second build: a row is a prime n = p
with k = 1 and dk = degree unless it is one of the O(sqrt x) powers p^k,
k >= 2, or a ramified p, which one `_prime_power_rows` search finds.
`event_column_blocks` derives them a block at a time, for the
`dump-events` CSV.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .arith import factorize, int_kth_root
from .fields import FieldSpec, residue_degrees, split_type

#: memory a run may spend on the events up to x, at its peak
EVENT_MEMORY_BUDGET = 4 << 30
#: peak bytes per event of a variance run, rounded up: `variance --x 1e8
#: --Q 1` for Q peaked at 340 MiB for the 5.76e6 events (62 bytes each,
#: with the interpreter) while n was int64, and at 273.6 MiB (50 bytes)
#: with n as uint32 (from a launcher's `wait4`; building the table alone
#: peaked at 273.1 MiB).  With the slices peeled in place into complex
#: columns it peaked at 272.9 MiB (273.0 MiB for the float64 slices in
#: the same session).  The first event block sets that peak, holding
#: 242.8 MiB of arrays (`tracemalloc`): the primes (122.8 MiB once sieved),
#: their residue degrees (162.6 MiB), the primes of one degree, their lam
#: and w = dk * lam, and their norms as uint32.  The sort holds 220.9 MiB,
#: and the table left holds 20 bytes per event
PEAK_BYTES_PER_EVENT = 64
# The events up to x are at most the prime powers up to x, fewer than
# 1.26 x / log x for x > 2477 (pi(x) < 1.25506 x / log x by Rosser and
# Schoenfeld; the powers with k >= 2 add O(sqrt x)).  So the budget holds
# while 1.26 * x / log(x) * 64 <= 2^32, that is x / log(x) <= 5.33e7:
# true at x = 1.1e9 (5.28e7, 3.97 GiB), false at 1.11e9 (5.33e7, 4.003 GiB).
MAX_SIEVE_LIMIT = 1_100_000_000
#: sieve window length; the primes do not depend on it
_WINDOW = 1 << 20


def _simple_sieve(limit: int) -> np.ndarray:
    """Primes <= limit by a dense Eratosthenes pass; limit is small."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x, ascending, as an int64 array.

    Sieves in windows of 2^20 using base primes up to sqrt(x), so memory
    stays O(2^20 + sqrt(x)) besides the result.

    Args:
        x: inclusive upper bound, at most MAX_SIEVE_LIMIT; values below 2
            give an empty array.

    Returns:
        numpy int64 array of primes in ascending order.
    """
    if x > MAX_SIEVE_LIMIT:
        raise ValueError(f"x = {x} exceeds the supported ceiling {MAX_SIEVE_LIMIT}")
    if x < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(x)
    base = _simple_sieve(root)
    chunks = [base]
    base_list = base.tolist()
    lo = root + 1
    while lo <= x:
        hi = min(lo + _WINDOW, x + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base_list:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) + lo)
        lo = hi
    return np.concatenate(chunks)


class NormEventTable:
    """The norm events of one field up to x, as the statistics read them.

    `n` (uint32, as every n <= MAX_SIEVE_LIMIT < 2^32) holds the norms in
    ascending order.  `columns` holds the matching weights w = dk * lam
    split by `weight_slices`, two slices to a complex128 column, and
    `slices` views them lane by lane (`lanes`): each slice sums exactly
    in any order, and the slices add up to w, so adding them from the
    smallest rebuilds w bit for bit (`weights`).  `moments` is (S1, S2),
    the correctly rounded sums of w and w^2.  `held` maps a modulus q to
    the class weights t_q of these events, once `stats` has folded them;
    it holds the q <= `stats._HELD_BOUND` and starts empty.  Every array
    is read-only.
    """

    __slots__ = ("n", "columns", "slices", "moments", "held")

    def __init__(self, n: np.ndarray, columns: tuple[np.ndarray, ...], moments: tuple[float, float]):
        self.n = n
        self.columns = columns
        self.moments = moments
        self.held: dict[int, np.ndarray] = {}
        for column in (n, *columns):
            column.setflags(write=False)
        self.slices = lanes(columns)

    def __len__(self) -> int:
        return self.n.size

    def weights(self, rows=slice(None)) -> np.ndarray:
        """The weights w[rows], rebuilt by adding the slices from the smallest."""
        w = np.zeros(self.n[rows].shape)
        for piece in self.slices[::-1]:
            w += piece[rows]
        return w


class EventColumns(NamedTuple):
    """Every column of the norm events up to x, sorted by n (the `dump-events` CSV)."""

    n: np.ndarray
    p: np.ndarray
    k: np.ndarray
    dk: np.ndarray
    lam: np.ndarray


def _event_arrays(x: int, primes: np.ndarray, f: int, g: int) -> Iterator[tuple]:
    """Blocks (n, w) for ascending `primes` and every k = f*j <= log_p(x): n = p^k, w = g * f * log p."""
    j = 1
    while True:
        k = f * j
        bound = int_kth_root(x, k)
        if bound < 2:
            break
        sel = primes[: np.searchsorted(primes, bound, side="right")]
        if sel.size:
            lam = f * np.log(sel.astype(np.float64))
            yield (sel**k if k > 1 else sel), g * lam
        j += 1


def _event_parts(field: FieldSpec, x: int) -> Iterator[tuple]:
    """Event blocks (n, w) per residue degree, unsorted: the one event generator."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    primes = primes_up_to(x)
    # f is 0 exactly at the ramified primes, the divisors of the conductor
    f_of_p = residue_degrees(field)[primes % field.conductor]
    for f in np.unique(f_of_p).tolist():
        if f:
            yield from _event_arrays(x, primes[f_of_p == f], f, field.degree // f)
    for p in factorize(field.conductor):
        if p <= x:
            s = split_type(field, p)
            yield from _event_arrays(x, np.array([p], dtype=np.int64), s.f, s.g)


#: a sum of multiples of a power of two u is exact while it stays below 2^53 u
_EXACT_UNITS = 2.0**53
#: weights squared and summed at a time for S2, and peeled at a time into
#: an imaginary lane
_SQUARE_BLOCK = 1 << 13


def _quantum(bound: float) -> float:
    """The power of two u with bound < 2^52 u <= 2 * bound."""
    return math.ldexp(1.0, math.frexp(bound)[1] - 52)


def _slice_quantum(bound: float, count: int) -> float:
    """The quantum u of the next slice of `count` entries whose residual sums to at most `bound`."""
    u = _quantum(bound)
    # |entry| <= |residual entry| + u / 2, so every partial sum stays below this
    assert bound + count * u / 2 < _EXACT_UNITS * u, "slice sums would round"
    return u


def lanes(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The weight slices held in complex128 `columns`: each column's real, then imaginary lane, as views.

    The last slice a peel makes is never all zero, so a last imaginary
    lane of zeros holds no slice: it is how an odd count of slices ends.
    """
    views = [lane for column in columns for lane in (column.real, column.imag)]
    if views and not views[-1].any():
        views.pop()
    return tuple(views)


def weight_slices(w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split w into float64 slices at fixed binary quanta, two to a complex128 column; they add up to w exactly.

    Slice i holds the residual left by the slices before it, rounded to a
    multiple of a power of two u_i (the pre-rounding of Demmel and Nguyen,
    "Fast reproducible floating-point summation", ARITH 2013).  u_1 comes
    from #events * max |w|, an upper bound on sum |w|, and each next u
    from #events * (previous u) / 2, which bounds the residual's sum, so
    every sum of entries of one slice, in any order, is a multiple of its
    u below 2^53 u in magnitude and therefore exact.  Slices are peeled
    until the residual is exactly 0; each residual is exact, so adding
    the slices from the smallest rebuilds w.  Two sufficed for every
    event table measured: six fields at x = 1e6 and 1e7, and Q at x = 1e8.

    Slice 2j is column j's real lane and slice 2j + 1 its imaginary lane
    (`lanes` reads them back), so one complex scatter adds two slices.
    The slices are peeled in place: the residual lives in the imaginary
    lane, the real lane's slice is peeled from it, and what the imaginary
    lane's own slice leaves, if anything, starts the next column's
    imaginary lane.  A third slice thus starts a second column, whose
    imaginary lane stays zero unless a fourth follows.
    """
    count = w.size
    bound = count * max(float(w.max(initial=0.0)), -float(w.min(initial=0.0)))
    columns = []
    column = None
    if w.any():
        column = np.empty(count, dtype=np.complex128)
        column.imag = w
    while column is not None:
        columns.append(column)
        residual, piece = column.imag, column.real
        u = _slice_quantum(bound, count)
        np.divide(residual, u, out=piece)
        np.round(piece, out=piece)
        piece *= u
        residual -= piece
        bound = count * u / 2
        if not residual.any():
            break
        u = _slice_quantum(bound, count)
        column = None
        # a block at a time, so that only what this slice leaves takes a column
        for lo in range(0, count, _SQUARE_BLOCK):
            block = residual[lo : lo + _SQUARE_BLOCK]
            piece = np.round(block / u) * u
            block -= piece
            if block.any():
                if column is None:
                    column = np.zeros(count, dtype=np.complex128)
                column.imag[lo : lo + _SQUARE_BLOCK] = block
            block[...] = piece
        bound = count * u / 2
    return tuple(columns)


def _sorted_events(field: FieldSpec, x: int) -> tuple[np.ndarray, np.ndarray]:
    """n (uint32) and w = dk * lam of every event up to x, sorted by n."""
    n_blocks, w_blocks = [np.empty(0, dtype=np.uint32)], [np.empty(0)]
    for n, w in _event_parts(field, x):
        n_blocks.append(n.astype(np.uint32))
        w_blocks.append(w)
    # _event_parts has checked x <= MAX_SIEVE_LIMIT, so every n <= x fits
    assert x <= MAX_SIEVE_LIMIT < 2**32
    n = np.concatenate(n_blocks)
    order = np.argsort(n, kind="stable")
    # the unsorted n goes before w is sorted: held through it, the sort of
    # x = 1e8 held 242.9 MiB of arrays, as much as the first event block
    n = n[order]
    return n, np.concatenate(w_blocks)[order]


@lru_cache(maxsize=16)
def _event_table(field: FieldSpec, x: int) -> NormEventTable:
    # the unsorted columns are released with _sorted_events' frame before
    # slicing: the unsorted blocks, held through it, raised the peak of
    # x = 1e7 by 5 MiB
    n, w = _sorted_events(field, x)
    # fsum is exact, so summing the squares a block at a time gives the
    # same S2 as at once; summed 2^13 at a time before the slices are
    # peeled, so its floats are gone before the columns are allocated
    blocks = range(0, w.size, _SQUARE_BLOCK)
    squares = (np.square(w[lo : lo + _SQUARE_BLOCK]).tolist() for lo in blocks)
    s2 = math.fsum(itertools.chain.from_iterable(squares))
    columns = weight_slices(w)
    # each slice's sum is exact, so S1 is fsum(w)
    s1 = math.fsum(piece.sum() for piece in lanes(columns))
    return NormEventTable(n, columns, (s1, s2))


def norm_events(field: FieldSpec, x: int) -> NormEventTable:
    """Cached table of the norms n = p^k <= x, the slices of their weights dk * lam and (S1, S2).

    This is the one cache of event data per (field, x).

    Args:
        field: base field descriptor.
        x: inclusive norm bound, x >= 2.

    Returns:
        NormEventTable sorted by n.
    """
    return _event_table(field, int(x))


def _prime_power_rows(n: np.ndarray, primes: list[int], x: int) -> tuple[np.ndarray, ...]:
    """(index into `primes`, k, row into the sorted, distinct norms n) of each p^k <= x in n.

    Ascending in (p, k).
    """
    tags, exponents, powers = [], [], []
    for i, p in enumerate(primes):
        power, k = p, 1
        while power <= x:
            tags.append(i)
            exponents.append(k)
            powers.append(power)
            power *= p
            k += 1
    tag, k = np.array(tags, dtype=np.intp), np.array(exponents, dtype=np.int64)
    # in n's dtype, so searchsorted does not convert n
    power = np.array(powers, dtype=n.dtype)
    rows = np.searchsorted(n, power)
    found = rows < n.size
    found[found] = n[rows[found]] == power[found]
    return tag[found], k[found], rows[found]


def _odd_rows(field: FieldSpec, n: np.ndarray, x: int) -> tuple[np.ndarray, EventColumns]:
    """The rows of the sorted norms n at a p^k with k >= 2 or at a ramified p, and their columns.

    Every other row is an event n = p at an unramified p, whose residue
    degree f divides k = 1: so f = 1, dk = degree and lam = log n.
    """
    ramified = [p for p in factorize(field.conductor) if p <= x]
    primes = sorted(set(primes_up_to(math.isqrt(x)).tolist()).union(ramified))
    tag, k, rows = _prime_power_rows(n, primes, x)
    order = np.argsort(rows)
    rows, k, p = rows[order], k[order], np.array(primes, dtype=np.int64)[tag[order]]
    # f is 0 exactly at the ramified primes, whose (f, g) split_type gives
    f = residue_degrees(field)[p % field.conductor]
    g = field.degree // np.maximum(f, 1)
    for i in np.flatnonzero(f == 0).tolist():
        s = split_type(field, int(p[i]))
        f[i], g[i] = s.f, s.g
    # lam = f * log p, the expression of _event_arrays, so the bits agree
    lam = f * np.log(p.astype(np.float64))
    return rows, EventColumns(n[rows].astype(np.int64), p, k, g, lam)


def _columns(degree: int, n: np.ndarray, lo: int, odd: tuple) -> EventColumns:
    """The five columns of the table rows lo, lo + 1, ... whose norms are n."""
    rows, values = odd
    at = slice(*np.searchsorted(rows, (lo, lo + n.size)).tolist())
    n = n.astype(np.int64)
    lam = np.log(n.astype(np.float64))
    block = EventColumns(n, n.copy(), np.ones_like(n), np.full_like(n, degree), lam)
    for column, odd_values in zip(block[1:], values[1:]):
        column[rows[at] - lo] = odd_values[at]
    return block


def event_columns(field: FieldSpec, x: int) -> EventColumns:
    """All five event columns (n, p, k, dk, lam) up to x, sorted by n, read from the cached table."""
    table = norm_events(field, x)
    return _columns(field.degree, table.n, 0, _odd_rows(field, table.n, int(x)))


def event_column_blocks(field: FieldSpec, x: int, size: int) -> Iterator[EventColumns]:
    """The rows of `event_columns` in blocks of `size`, each derived only when it is read.

    The cached table is built, or a bad x refused, before the first block.
    """
    table = norm_events(field, x)
    odd = _odd_rows(field, table.n, int(x))
    starts = range(0, len(table), size)
    return (_columns(field.degree, table.n[lo : lo + size], lo, odd) for lo in starts)


def event_moment_sums(field: FieldSpec, x: int) -> tuple[float, float]:
    """First and second moments of event weights: sums of dk*lam and (dk*lam)^2.

    The first moment is the total prime-power norm mass up to x and is
    asymptotic to x; the second moment is the right-hand-side weight of
    the large-sieve bound.  Both are read from the cached event table.
    """
    return _event_table(field, int(x)).moments
