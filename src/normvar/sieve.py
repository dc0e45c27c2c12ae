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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import factorize, int_kth_root
from .fields import FieldSpec, residue_degrees, split_type

MAX_SIEVE_LIMIT = 1 << 40
DEFAULT_SEGMENT_SIZE = 1 << 20


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


def primes_up_to(x: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes <= x, ascending, as an int64 array.

    Sieves in windows of `segment_size` using base primes up to sqrt(x),
    so memory stays O(segment_size + sqrt(x)) for any x up to the
    supported ceiling of 2^40.

    Args:
        x: inclusive upper bound; values below 2 give an empty array.
        segment_size: window length; the result does not depend on it.

    Returns:
        numpy int64 array of primes in ascending order.
    """
    if x > MAX_SIEVE_LIMIT:
        raise ValueError(f"x = {x} exceeds the sieve ceiling 2^40")
    if segment_size < 1:
        raise ValueError(f"segment_size must be positive, got {segment_size}")
    if x < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(x)
    base = _simple_sieve(root)
    chunks = [base]
    base_list = base.tolist()
    lo = root + 1
    while lo <= x:
        hi = min(lo + segment_size, x + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base_list:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) + lo)
        lo = hi
    return np.concatenate(chunks)


@dataclass(frozen=True)
class NormEvent:
    """One prime-power norm value n = p^k with multiplicity and log weight."""

    n: int
    p: int
    k: int
    dk: int
    lam: float

    @property
    def weight(self) -> float:
        return self.dk * self.lam


class NormEventTable:
    """All norm events for one field up to x, as parallel arrays sorted by n.

    Attributes n, p, k, dk are int64 arrays and lam is float64; rows are
    in ascending n.  `weight` is the elementwise product dk * lam.
    """

    __slots__ = ("field", "x", "n", "p", "k", "dk", "lam", "_weight")

    def __init__(self, field: FieldSpec, x: int, n, p, k, dk, lam):
        self.field = field
        self.x = x
        self.n = n
        self.p = p
        self.k = k
        self.dk = dk
        self.lam = lam
        self._weight = None
        for arr in (n, p, k, dk, lam):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.n.size

    def __iter__(self) -> Iterator[NormEvent]:
        for i in range(self.n.size):
            yield NormEvent(
                int(self.n[i]), int(self.p[i]), int(self.k[i]), int(self.dk[i]), float(self.lam[i])
            )

    @property
    def weight(self) -> np.ndarray:
        if self._weight is None:
            w = self.dk * self.lam
            w.setflags(write=False)
            self._weight = w
        return self._weight


def _event_arrays(x: int, primes: np.ndarray, f: int, g: int, parts: list) -> None:
    """Append event rows for every p in ascending `primes` and every k = f*j <= log_p(x)."""
    j = 1
    while True:
        k = f * j
        bound = int_kth_root(x, k)
        if bound < 2:
            break
        sel = primes[: np.searchsorted(primes, bound, side="right")]
        if sel.size:
            n = sel**k if k > 1 else sel
            lam = f * np.log(sel.astype(np.float64))
            ks = np.full(sel.size, k, dtype=np.int64)
            gs = np.full(sel.size, g, dtype=np.int64)
            parts.append((n, sel, ks, gs, lam))
        j += 1


def _event_parts(field: FieldSpec, x: int) -> list:
    """Event columns per residue degree; the temporaries die before sorting."""
    primes = primes_up_to(x)
    # f is 0 exactly at the ramified primes, the divisors of the conductor
    f_of_p = residue_degrees(field)[primes % field.conductor]
    parts: list = []
    for f in np.unique(f_of_p).tolist():
        if f:
            _event_arrays(x, primes[f_of_p == f], f, field.degree // f, parts)
    for p in factorize(field.conductor):
        if p <= x:
            s = split_type(field, p)
            _event_arrays(x, np.array([p], dtype=np.int64), s.f, s.g, parts)
    return parts


@lru_cache(maxsize=16)
def _event_table(field: FieldSpec, x: int) -> NormEventTable:
    parts = _event_parts(field, x)
    if parts:
        n = np.concatenate([a[0] for a in parts])
        order = np.argsort(n, kind="stable")
        cols = [np.concatenate([a[i] for a in parts])[order] for i in range(5)]
    else:
        cols = [np.empty(0, dtype=np.int64)] * 4 + [np.empty(0, dtype=np.float64)]
    return NormEventTable(field, x, *cols)


def norm_events(field: FieldSpec, x: int) -> NormEventTable:
    """Table of all norm events n = p^k <= x for the field.

    Args:
        field: base field descriptor.
        x: inclusive norm bound, x >= 2.

    Returns:
        NormEventTable sorted by n.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    return _event_table(field, int(x))


@lru_cache(maxsize=16)
def event_moment_sums(field: FieldSpec, x: int) -> tuple[float, float]:
    """First and second moments of event weights: sums of dk*lam and (dk*lam)^2.

    The first moment is the total prime-power norm mass up to x and is
    asymptotic to x; the second moment is the right-hand-side weight of
    the large-sieve bound.
    """
    # iterate the array itself: a list of every weight would set the peak RSS
    w = norm_events(field, x).weight
    return math.fsum(w), math.fsum(v * v for v in w)
