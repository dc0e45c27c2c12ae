"""Residue-class statistics over the norm-event stream.

The per-residue weight table modulo q accumulates dk * lam over events
with n = a (mod q).  Every class sum is exact and then rounded once: the
cached event table (`sieve.norm_events`) holds the weights as slices at
fixed binary quanta (`sieve.weight_slices`), each slice's class sums are
exact in any order (`slice_tables`), and `fold` adds the slices.
Because exact sums do not depend on their grouping, the table modulo q
folds out of the table modulo any multiple L of q bit for bit.  So the
tables of every q <= Q come from few passes over the events
(`_per_q_weights`): each q folds out of a pass whose modulus L is a
common multiple of several targets q * (Q // q) in (Q/2, Q], with L
within max(Q, min(#events // 16, 2^15)).  The variance loop and the
large sieve both read them.  A command plans those passes once
(`shared_schedule`): its variance loop folds the t_q that the command's
checks read as well, and holds them for those checks.
`class_weights` is the direct route for one q, and `residue_buckets`
caches its read-only result, or the held t_q, for the checks.

The variance report needs only the sum of squares of t_q over the
admissible classes, not t_q itself, and for q > sqrt(x) it takes that
from the autocorrelation R(h) = sum of w_n * w_{n+h}: the squares of all
classes mod q sum to R(0) + 2 * sum over j >= 1 of R(jq).  One blocked
transform of the weights (`_autocorrelation_blocks`) gives every such q
at once, holding a few MiB of spectra whatever x (`_correlation_rows`);
the classes that are not admissible are taken off from the few events
they can hold.  `_direct_bound` routes the q > isqrt(x) there when it
costs less than their passes.  On admissible classes the expected size is
x / (number of admissible classes); the variance report sums the squared
deviations over all q <= Q in ascending q and compares against the
classical envelope x * Q * log x and the heuristic envelope
x * Q * (log x)^4.

Identity checks pair two independent code paths over the same events:

  * orthogonality: squared deviations vs. the averaged squared centered
    character sums;
  * large sieve: weighted primitive character sums vs. (x + Q^2) times
    the second weight moment;
  * character exchange: a character sum minus its primitive part's sum
    vs. the explicit correction over events at primes dividing the
    modulus but not the conductor.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .arith import divisors, euler_phi, factorize
from .characters import (
    DirichletCharacter,
    character_matrix,
    character_values,
    conductor_table,
    primitive_part,
)
from .fields import FieldSpec, kernel_image
from .galois import norm_class_group, residue_masks
from .sieve import NormEventTable, event_moment_sums, norm_events, primes_up_to

#: relative agreement demanded of dual-route identities
REL_TOL = 1e-9


def rel_gap(a, b, floor: float = 1.0) -> float:
    """Disagreement |a - b| scaled by max(|a|, |b|, floor).

    The floor keeps rounding noise around an exact zero from registering
    as a huge relative error, matching the orthogonality-gap convention
    of dividing by max(value, 1).
    """
    return abs(a - b) / max(abs(a), abs(b), floor)


#: events whose remainders `slice_tables` holds at a time
_BLOCK = 1 << 16


def slice_tables(n: np.ndarray, slices: tuple[np.ndarray, ...], modulus: int) -> np.ndarray:
    """Exact class sums modulo `modulus` of each weight slice (one row each), in one pass over n >= 0.

    The remainders of one block of 2^16 events at a time are taken in n's
    dtype (uint32 for the event table) as n - (n // modulus) * modulus,
    because numpy's floor division by a scalar beats its remainder, and
    are written into an intp buffer that `bincount` reads without a cast.
    """
    tables = np.zeros((len(slices), modulus))
    if not slices:
        return tables
    d = n.dtype.type(modulus)
    quotient = np.empty(min(n.size, _BLOCK), dtype=n.dtype)
    residues = np.empty(quotient.size, dtype=np.intp)
    for lo in range(0, n.size, _BLOCK):
        block = n[lo : lo + _BLOCK]
        k = np.floor_divide(block, d, out=quotient[: block.size])
        k *= d
        r = np.subtract(block, k, out=residues[: block.size])
        for table, piece in zip(tables, slices):
            table += np.bincount(r, weights=piece[lo : lo + _BLOCK], minlength=modulus)
    return tables


def fold(tables: np.ndarray, q: int) -> np.ndarray:
    """Class weights t[a], a = 0..q-1, from the slice tables modulo a multiple L of q.

    Each slice's table is folded by summing the rows of its (L / q, q)
    reshape, which adds exact sums into exact sums, so the result does
    not depend on L.  The slices are then added from the smallest: with
    two slices that is one rounding of the exact class sum, so t[a] is
    the correctly rounded sum of its weights.
    """
    t = np.zeros(q)
    for row in tables.reshape(len(tables), tables.shape[1] // q, q).sum(axis=1)[::-1]:
        t += row
    return t


def class_weights(n: np.ndarray, slices: tuple[np.ndarray, ...], q: int) -> np.ndarray:
    """Class weights t[a] = sum of w over n = a (mod q), a = 0..q-1, for n >= 0.

    `slices` is `sieve.weight_slices(w)`.  Every class sum is exact
    before the slices are combined, so t is independent of the order of
    the events and, with at most two slices, equals a per-class
    `math.fsum` of w.
    """
    return fold(slice_tables(n, slices, q), q)


@lru_cache(maxsize=512)
def residue_buckets(field: FieldSpec, x: int, q: int) -> np.ndarray:
    """Cached, read-only class weights t[a] of the events up to x, a = 0..q-1.

    Inside `shared_schedule` the t_q that the variance loop held is taken,
    without a pass of its own.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    schedule = _scheduled(field, x)
    t = schedule.held.get(q) if schedule is not None else None
    if t is None:
        ev = norm_events(field, x)
        t = class_weights(ev.n, ev.slices, q)
    t.setflags(write=False)
    return t


def character_sum(field: FieldSpec, x: int, chi: DirichletCharacter) -> complex:
    """Sum of chi(n) * dk * lam over all events, via the bucket table."""
    t = residue_buckets(field, x, chi.q)
    return complex(np.dot(chi.value_table(), t))


@dataclass(frozen=True)
class OrthogonalityResult:
    q: int
    x: int
    lhs: float
    rhs: float
    gap: float


def orthogonality_check(field: FieldSpec, x: int, q: int) -> OrthogonalityResult:
    """Squared class deviations vs. averaged squared centered character sums.

    Both sides compute the same quantity by Parseval on (Z/qZ)^*; the gap
    is |lhs - rhs| / max(lhs, 1).
    """
    t = residue_buckets(field, x, q)
    rec = norm_class_group(field, q)
    mean = x / rec.order
    lhs = math.fsum((float(t[a]) - mean) ** 2 for a in rec.members)
    psi = (character_matrix(q) @ t).astype(np.complex128)
    for i in rec.annihilator:
        psi[i] -= x
    rhs = math.fsum((v.real * v.real + v.imag * v.imag) for v in psi.tolist())
    rhs /= len(psi)
    return OrthogonalityResult(q, x, lhs, rhs, abs(lhs - rhs) / max(lhs, 1.0))


# slots: a report holds one per q, and at Q = 1e4 a __dict__ each would
# add about 1 MiB to the peak RSS
@dataclass(frozen=True, slots=True)
class PerQContribution:
    q: int
    admissible: int
    contribution: float


@dataclass(frozen=True)
class DyadicBlock:
    u_lo: float
    u_hi: float
    contribution: float


@dataclass(frozen=True)
class VarianceReport:
    """Variance of class deviations over 1 <= q <= Q with envelope ratios."""

    field: FieldSpec
    x: int
    Q: int
    M: int
    total: float
    envelope_classical: float
    envelope_grh: float
    ratio_bdh: float
    ratio_grh: float
    outside_mass: float
    range_condition_satisfied: bool
    small_q_cutoff: float
    per_q: tuple[PerQContribution, ...]
    dyadic: tuple[DyadicBlock, ...]


#: largest exponent M a variance report accepts.  The report reads
#: (log x)^(M+1) (`small_q_cutoff`) and (log x)^-M (the range condition),
#: and for 2 <= x <= MAX_SIEVE_LIMIT = 1.1e9, log x lies in [0.693, 20.82].
#: (log x)^(M+1) <= 20.82^(M+1) = e^(3.0357 (M+1)) stays below the largest
#: double, e^709.78, while M + 1 <= 233; (log x)^-M <= 0.693^-M = e^(0.3665 M)
#: while M <= 1936.  Both are finite for every M <= 232.
MAX_M = 232


def small_q_cutoff(x: int, M: int) -> float:
    """Boundary (log x)^(M+1) separating the small-q block of the profile."""
    return math.log(x) ** (M + 1)


def _dyadic_blocks(
    per_q: tuple[PerQContribution, ...], Q: int, cutoff: float
) -> tuple[DyadicBlock, ...]:
    def block_sum(lo: float, hi: float) -> float:
        # the rows are q = 1..Q in order, so lo < q <= hi is one slice of them
        return math.fsum(r.contribution for r in per_q[math.floor(lo) : math.floor(hi)])

    if cutoff >= Q:
        return (DyadicBlock(0.0, float(Q), block_sum(0.0, float(Q))),)
    blocks = []
    hi = float(Q)
    while hi / 2 > cutoff:
        blocks.append(DyadicBlock(hi / 2, hi, block_sum(hi / 2, hi)))
        hi /= 2
    if hi > cutoff:
        blocks.append(DyadicBlock(cutoff, hi, block_sum(cutoff, hi)))
    blocks.append(DyadicBlock(0.0, cutoff, block_sum(0.0, cutoff)))
    return tuple(blocks)


def _pass_plan(Q: int, budget: int) -> list[tuple[int, list[int]]]:
    """Passes (L, moduli) that cover q = 1..Q, each q once, with q | L <= max(Q, budget).

    Every q folds out of a multiple in (Q/2, Q], q * (Q // q), so those
    targets are what the passes must cover.  Greedily, the largest
    uncovered target starts a pass L, and the other uncovered targets,
    in descending order, join it whenever lcm(L, target) stays within
    the budget B.  L only grows from the starting target t, so a target c
    that can join has lcm(t, c) <= B, that is c = g * k with g = gcd(t, c)
    and k <= B // t: only those candidates are scanned.  Each target t
    with 2t > B is its own pass, and its divisors are not listed.
    """
    B = max(Q, budget)
    lo = Q // 2
    owner = list(range(Q + 1))  # the pass modulus L covering each target
    covered = bytearray(Q + 1)
    for t in range(Q, lo, -1):
        if covered[t]:
            continue
        covered[t] = 1
        # k >= 2 for every c other than t, so none fits when B < 2t
        factors = divisors(t) if 2 * t <= B else ()
        candidates = {g * k for g in factors for k in range(lo // g + 1, min(B // t, Q // g) + 1)}
        L, members = t, [t]
        for c in sorted(candidates, reverse=True):
            merged = math.lcm(L, c)
            if not covered[c] and merged <= B:
                L = merged
                members.append(c)
                covered[c] = 1
        for c in members:
            owner[c] = L
    passes: dict[int, list[int]] = {}
    for q in range(1, Q + 1):
        passes.setdefault(owner[q * (Q // q)], []).append(q)
    return sorted(passes.items())


def _pass_budget(events: int) -> int:
    """Largest pass modulus, beside Q itself, over a table of `events` events.

    A pass costs one scatter of every event per slice, whatever its
    modulus, so its tables must stay small next to that.  A table of L
    entries is cleared and added once per block of _BLOCK events
    (`slice_tables`), and each q of the pass folds all L entries.  So L
    stays within #events // 16, one entry per 16 events, and within
    _BLOCK // 2, one entry per two events of a block, whatever the number
    of events.
    """
    return min(events // 16, _BLOCK // 2)


def _pass_count(Q: int, budget: int) -> int:
    """len(_pass_plan(Q, budget)); from Q = budget on no passes merge, one per target in (Q/2, Q]."""
    return Q - Q // 2 if Q >= budget else len(_pass_plan(Q, budget))


def _per_q_weights(field: FieldSpec, x: int, Q: int) -> Iterator[tuple[int, np.ndarray]]:
    """(q, class weights t_q) for every q <= Q, from as few passes over the events as fit.

    The passes take moduli up to max(Q, `_pass_budget(#events)`).
    """
    ev = norm_events(field, x)
    for L, moduli in _pass_plan(Q, _pass_budget(ev.n.size)):
        tables = slice_tables(ev.n, ev.slices, L)
        for q in moduli:
            yield q, fold(tables, q)


class _Schedule:
    """The moduli whose class weights the checks of one command read, and their t_q once folded."""

    def __init__(self, field: FieldSpec, x: int, moduli: Iterable[int]):
        self.field, self.x = field, x
        self.moduli = frozenset(moduli)
        self.held: dict[int, np.ndarray] = {}


#: the schedule of the command running now, if it opened `shared_schedule`
_schedule: _Schedule | None = None


def _scheduled(field: FieldSpec, x: int) -> _Schedule | None:
    """The open schedule if its checks read the events of (field, x)."""
    if _schedule is not None and _schedule.field == field and _schedule.x == x:
        return _schedule
    return None


@contextmanager
def shared_schedule(field: FieldSpec, x: int, moduli: Iterable[int]) -> Iterator[None]:
    """One schedule of passes over the events of (field, x) for the command in the block.

    A `variance` over (field, x) in the block plans its passes over every
    q up to its direct bound and up to the largest of `moduli`, and holds
    the t_q of `moduli` as it folds them.  `residue_buckets` hands those
    out, so `orthogonality_check` and `character_sum` make no pass of
    their own, and `large_sieve_check(field, x, Q)` reads them when every
    q <= Q is held.  Exact class sums make every t_q the same from any
    pass, so no result changes.  Without a variance run, and outside the
    block, each check makes its own passes.

    The checks' character sums are taken after the loop, not as each t_q
    is folded: a matrix product between two passes wakes the BLAS
    threads, which then spin beside the passes after it (about 1 s more
    CPU at x = 1e7, Q = 1000 on 2 cores).
    """
    global _schedule
    outer, _schedule = _schedule, _Schedule(field, x, moduli)
    try:
        yield
    finally:
        _schedule = outer


#: chunk length of the blocked autocorrelation: each chunk of the dense
#: weights is transformed at 2 * _CHUNK points
_CHUNK = 1 << 13
#: lags of the autocorrelation summed at a time, in chunks (`_lag_spectra`)
_BAND = 16
#: lags of R that `_lag_sums` adds into the sums at a time
_SPAN = 1 << 16


def _chunking(x: int) -> tuple[int, int]:
    """(L, chunks): the chunk length and the number of chunks of length L that cover 0..x."""
    L = min(_CHUNK, 1 << x.bit_length())
    return L, x // L + 1


def _direct_bound(x: int, Q: int, events: int, slices: int) -> int:
    """Largest q that the direct passes serve; every q above it, up to Q, takes the correlation route.

    The routing rule: the moduli q > K = isqrt(x) take the correlation
    route (`_correlation_rows`) when it costs less than the direct work it
    replaces, else every q <= Q stays on the direct passes.  Below sqrt(x),
    t_q is large next to its deviation, and the route's squares cancel too
    much.  Costs are counted in transform steps, points times log2 of the
    transform length (1.0 ns each at 2^14 points on the 2-vCPU machine
    where the weights below were measured):
      * the route: about chunks^2 / _BAND + 2 * chunks transforms of 2L
        points (`_lag_spectra`), and as much again for their products and
        sums, whatever Q;
      * the direct passes it replaces: those `_pass_plan` makes for q <= Q
        beyond those it makes for q <= K, each a scatter of every event per
        slice at 5 steps (4.7-6.0 ns measured), and per q in (K, Q] its masks,
        fold and deviations at 30,000 steps plus 6 per slice-table entry
        it folds (33 us at Q = 250, 158 us at Q = 10^4).
    The route's fixed work, a few milliseconds for the primes p <= Q and
    the pairs of prime powers, is left out: it matters only where both
    routes take milliseconds.
    """
    K = math.isqrt(x)
    if Q <= K:
        return Q
    L, chunks = _chunking(x)
    transforms, points = chunks * chunks // _BAND + 2 * chunks, 2 * L
    correlation = 2 * transforms * points * (points.bit_length() - 1)
    budget = _pass_budget(events)
    passes = _pass_count(Q, budget) - _pass_count(K, budget)
    direct = 5 * passes * events * slices + (Q - K) * (30_000 + 6 * slices * Q)
    return K if correlation < direct else Q


def _lag_spectra(spectrum, chunks: int) -> Iterator[np.ndarray]:
    """P_k = sum over c of conj(F_c) * F_{c+k}, for k = 0..chunks-1, with F_c = spectrum(c).

    Holding every F_c would take 16 bytes per n <= x.  A band of lags
    [k0, k0 + _BAND) needs only F_c and the window F_{c+k0}, ...,
    F_{c+k0+_BAND-1}, which slides by one spectrum per c: about
    chunks^2 / _BAND + chunks transforms, and 2 * _BAND + 2 spectra held.
    """
    for k0 in range(0, chunks, _BAND):
        width = min(_BAND, chunks - k0)
        window = deque(spectrum(c) for c in range(k0, k0 + width))
        sums = [np.zeros_like(window[0]) for _ in range(width)]
        conj, product = np.empty_like(window[0]), np.empty_like(window[0])
        for c in range(chunks - k0):
            np.conj(window[0] if k0 == 0 else spectrum(c), out=conj)
            for total, F in zip(sums, window):
                total += np.multiply(conj, F, out=product)
            window.popleft()
            if c + k0 + width < chunks:
                window.append(spectrum(c + k0 + width))
        while sums:  # released as they go, before the next band is built
            yield sums.pop(0)


def _autocorrelation_blocks(ev: NormEventTable, x: int) -> Iterator[tuple[int, np.ndarray]]:
    """(h0, R[h0 : h0 + L]) for h0 = 0, L, 2L, ..., with R(h) = sum over n of w_n * w_{n+h}.

    The weights are cut into dense chunks of length L (n is unique, so
    chunk[n - cL] = w_n), each transformed at 2L points (F_c).  The lags in
    [kL, (k+1)L) pair chunk c with the window of chunks c+k and c+k+1,
    whose spectrum at 2L points is F_{c+k} + (-1)^f F_{c+k+1}; so that block
    of R is the inverse transform of P_k + (-1)^f P_{k+1} (`_lag_spectra`).
    Neither R nor the dense weights are ever held at full length.
    """
    L, chunks = _chunking(x)
    edges = np.searchsorted(ev.n, (np.arange(chunks + 1) * L).astype(ev.n.dtype))

    chunk = np.zeros(2 * L)

    def spectrum(c: int) -> np.ndarray:
        lo, hi = edges[c], edges[c + 1]
        chunk[:L] = 0.0
        chunk[ev.n[lo:hi] - c * L] = ev.weights(slice(lo, hi))
        return np.fft.rfft(chunk)

    spectra = _lag_spectra(spectrum, chunks)
    current = next(spectra)
    for k in range(chunks):
        following = next(spectra, None)
        if following is not None:  # add (-1)^f P_{k+1}
            current[::2] += following[::2]
            current[1::2] -= following[1::2]
        yield k * L, np.fft.irfft(current)[:L]
        current = following


def _lag_sums(ev: NormEventTable, x: int, K: int, Q: int) -> np.ndarray:
    """S[q - K - 1] = sum over j >= 1 of R(jq), for K < q <= Q, K >= isqrt(x).

    The blocks of R are gathered into spans of _SPAN lags, and each span is
    added as it fills: for each j, the q with jq in the span form one
    range, read with stride j.  About x^2 / (K * _SPAN) ranges in all.
    """
    S = np.zeros(Q - K)
    span = np.empty(max(_SPAN, _chunking(x)[0]))

    def add(h0: int, r: np.ndarray) -> None:
        top = min(h0 + r.size, x) - 1  # no two norms <= x lie x or more apart
        for j in range(max(1, -(-h0 // Q)), top // (K + 1) + 1):
            lo, hi = max(K + 1, -(-h0 // j)), min(Q, top // j)
            if lo <= hi:
                S[lo - K - 1 : hi - K] += r[j * lo - h0 : j * hi - h0 + 1 : j]

    start = filled = 0
    for h0, block in _autocorrelation_blocks(ev, x):
        if filled + block.size > span.size:
            add(start, span[:filled])
            start, filled = h0, 0
        span[filled : filled + block.size] = block
        filled += block.size
    add(start, span[:filled])
    return S


def _divisors_between(D: int, K: int, Q: int) -> np.ndarray:
    """The divisors q of D with K < q <= Q, for D <= (K + 1)^2: q = D / s with s < K + 1."""
    s = np.arange(1, D // (K + 1) + 1)
    q = D // s[D % s == 0]
    return q[q <= Q]


def _prime_power_rows(n: np.ndarray, primes: list[int], x: int) -> tuple[np.ndarray, np.ndarray]:
    """(index into `primes`, row into the sorted, distinct norms n) of each power p^k <= x in n, ascending in (p, k)."""
    tags, powers = [], []
    for i, p in enumerate(primes):
        power = p
        while power <= x:
            tags.append(i)
            powers.append(power)
            power *= p
    tag = np.array(tags, dtype=np.intp)
    # in n's dtype, so searchsorted does not convert n
    power = np.array(powers, dtype=n.dtype)
    rows = np.searchsorted(n, power)
    found = rows < n.size
    found[found] = n[rows[found]] == power[found]
    return tag[found], rows[found]


def _prime_power_classes(ev: NormEventTable, x: int, K: int, Q: int):
    """phi(q), and the mass and squared class mass of the classes that are no units mod q, for K < q <= Q.

    Those classes hold only the powers p^k of the primes p | q, so the
    masses and squares of each p's powers are added to every multiple of p
    at once, with the factor 1 - 1/p of phi(q): a slice per prime up to
    sqrt(Q), and for the larger primes, which have fewer multiples, one
    gather per multiplier j.  Two powers of p share a class mod q exactly
    when q divides their difference, so their cross terms go to its
    divisors in (K, Q] that p divides.
    """
    phi = np.arange(K + 1, Q + 1)
    mass, squares = np.zeros(Q - K), np.zeros(Q - K)
    primes = primes_up_to(Q)
    tag, rows = _prime_power_rows(ev.n, primes.tolist(), x)
    w = ev.weights(rows)
    p_mass = np.bincount(tag, weights=w, minlength=primes.size)
    p_squares = np.bincount(tag, weights=w * w, minlength=primes.size)

    def strike(at, p, m, s) -> None:
        phi[at] -= phi[at] // p
        mass[at] += m
        squares[at] += s

    root = math.isqrt(Q)
    small = int(np.searchsorted(primes, root, side="right"))
    for i, p in enumerate(primes[:small].tolist()):
        strike(slice((K // p + 1) * p - K - 1, None, p), p, p_mass[i], p_squares[i])
    for j in range(1, Q // (root + 1) + 1):
        lo = max(small, int(np.searchsorted(primes, K // j, side="right")))
        hi = int(np.searchsorted(primes, Q // j, side="right"))
        p = primes[lo:hi]
        strike(j * p - K - 1, p, p_mass[lo:hi], p_squares[lo:hi])

    n, w = ev.n[rows].astype(np.int64).tolist(), w.tolist()
    counts = np.bincount(tag, minlength=primes.size)
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts >= 2).tolist():
        p, block = int(primes[i]), range(ends[i] - counts[i], ends[i])
        for a in block:
            for b in range(a + 1, block.stop):
                q = _divisors_between(n[b] - n[a], K, Q)
                squares[q[q % p == 0] - K - 1] += 2 * w[a] * w[b]
    return phi, mass, squares


def _outside_classes(field: FieldSpec, ev: NormEventTable, K: int, Q: int, g: np.ndarray):
    """Mass and squared class mass of the unit classes mod q outside the admissible ones, for K < q <= Q.

    Such a class a has a mod g outside the image of H mod g, g = gcd(m, q)
    (given per q), so it holds only events with n mod m outside H: that
    small set is measured, never assumed empty.  Two of its events share a
    class mod q exactly when q divides their difference.
    """
    m = field.conductor
    qs = np.arange(K + 1, Q + 1)
    mass, squares = np.zeros(Q - K), np.zeros(Q - K)
    divs = divisors(m)
    stray = []  # (n, w, the g | m where n mod g is a unit outside the image)
    odd = np.flatnonzero(~kernel_image(field, m)[ev.n % m])
    for n, w in zip(ev.n[odd].tolist(), ev.weights(odd).tolist()):
        off = [d for d in divs if math.gcd(n, d) == 1 and not kernel_image(field, d)[n % d]]
        if off:
            stray.append((n, w, off))
    for a, (n_a, w_a, off) in enumerate(stray):
        hit = np.isin(g, off) & (np.gcd(qs, n_a) == 1)
        mass[hit] += w_a
        squares[hit] += w_a * w_a
        for n_b, w_b, _ in stray[a + 1 :]:
            q = _divisors_between(abs(n_b - n_a), K, Q)
            squares[q[hit[q - K - 1]] - K - 1] += 2 * w_a * w_b
    return mass, squares


def _correlation_rows(field: FieldSpec, x: int, K: int, Q: int):
    """(admissible counts, contributions, outside masses) of every q in (K, Q], K >= isqrt(x).

    With S[q] = sum over j >= 1 of R(jq) (`_lag_sums`), the squares of
    all classes mod q sum to R(0) + 2 S[q] = S2 + 2 S[q], and their masses
    to S1.  Taking off the classes that are no units
    (`_prime_power_classes`) and the units outside the admissible ones
    (`_outside_classes`) leaves member_sum and member_sq, and the
    contribution is member_sq - 2 * mean * member_sum + count * mean^2,
    mean = x / count.  The admissible count is phi(q) / phi(g) *
    #(image of H mod g), g = gcd(m, q): no mask per q.
    """
    ev = norm_events(field, x)
    S1, S2 = ev.moments
    m = field.conductor
    g = np.gcd(np.arange(K + 1, Q + 1), m)
    divs = divisors(m)
    at = np.searchsorted(divs, g)
    phi_g = np.array([euler_phi(d) for d in divs])[at]
    image_g = np.array([np.count_nonzero(kernel_image(field, d)) for d in divs])[at]
    phi, non_unit, non_unit_sq = _prime_power_classes(ev, x, K, Q)
    outside, outside_sq = _outside_classes(field, ev, K, Q, g)
    count = phi // phi_g * image_g
    member_sum = S1 - non_unit - outside
    member_sq = S2 + 2 * _lag_sums(ev, x, K, Q) - non_unit_sq - outside_sq
    mean = x / count
    return count, member_sq - 2 * mean * member_sum + count * mean * mean, outside


def variance(field: FieldSpec, x: int, Q: int, M: int = 1) -> VarianceReport:
    """Variance of residue-class weights around x / (class count).

    The class weights of every q up to a bound D fold out of a few passes
    over the events (`_per_q_weights`), each of whose moduli covers
    several multiples q * (D // q) in (D/2, D].  D is Q, or isqrt(x) when
    the moduli above it cost less on the correlation route
    (`_direct_bound`), which takes them all at once from one blocked
    autocorrelation of the weights (`_correlation_rows`); its rows are
    not bit-identical to the direct ones, but within about 1e-11
    relative.  The per-q rows are summed with `math.fsum` in ascending q.

    Args:
        field: base field descriptor.
        x: event bound, x >= 2.
        Q: modulus bound, 1 <= Q <= x.
        M: exponent selecting the small-q cutoff (log x)^(M+1),
            0 <= M <= MAX_M.

    Returns:
        VarianceReport with per-q and dyadic decompositions.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not 1 <= Q <= x:
        raise ValueError(f"Q must satisfy 1 <= Q <= x, got Q={Q}, x={x}")
    if not 0 <= M <= MAX_M:
        msg = f"M must satisfy 0 <= M <= {MAX_M}, where (log x)^(M+1) stays finite, got {M}"
        raise ValueError(msg)
    ev = norm_events(field, x)
    return _variance(field, x, Q, M, _direct_bound(x, Q, len(ev), len(ev.slices)))


def _variance(field: FieldSpec, x: int, Q: int, M: int, direct: int) -> VarianceReport:
    """The variance report with q <= `direct` on the direct passes and the larger q on the correlation route.

    Inside `shared_schedule` the passes also cover the moduli its checks
    read, and their t_q are held for them.
    """
    counts = np.zeros(Q + 1, dtype=np.int64)
    contributions = np.zeros(Q + 1)
    outside = np.zeros(Q + 1)
    schedule = _scheduled(field, x)
    bound = direct if schedule is None else max(direct, max(schedule.moduli, default=0))
    for q, t in _per_q_weights(field, x, bound):
        if schedule is not None and q in schedule.moduli:
            schedule.held[q] = t
        if q > direct:
            continue
        member, coprime = residue_masks(field, q)
        counts[q] = count = np.count_nonzero(member)
        dev = t[member] - x / count
        contributions[q] = dev @ dev
        outside[q] = t[coprime & ~member].sum()
    if direct < Q:
        counts[direct + 1 :], contributions[direct + 1 :], outside[direct + 1 :] = _correlation_rows(
            field, x, direct, Q
        )

    total = math.fsum(contributions.tolist())
    outside_mass = math.fsum(outside.tolist())
    per_q = tuple(map(PerQContribution, range(1, Q + 1), counts[1:].tolist(), contributions[1:].tolist()))
    log_x = math.log(x)
    envelope_classical = x * Q * log_x
    envelope_grh = envelope_classical * log_x**3
    cutoff = small_q_cutoff(x, M)
    return VarianceReport(
        field=field,
        x=x,
        Q=Q,
        M=M,
        total=total,
        envelope_classical=envelope_classical,
        envelope_grh=envelope_grh,
        ratio_bdh=total / envelope_classical,
        ratio_grh=total / envelope_grh,
        outside_mass=outside_mass,
        range_condition_satisfied=x * log_x**-M <= Q <= x,
        small_q_cutoff=cutoff,
        per_q=per_q,
        dyadic=_dyadic_blocks(per_q, Q, cutoff),
    )


@dataclass(frozen=True)
class LargeSieveResult:
    x: int
    Q: int
    lhs: float
    rhs: float
    holds: bool


def large_sieve_check(field: FieldSpec, x: int, Q: int) -> LargeSieveResult:
    """Weighted primitive character sums against (x + Q^2) * second moment.

    lhs = sum over q <= Q of (q / phi(q)) * sum over primitive chi mod q
    of |character_sum|^2; holds when lhs <= rhs * (1 + 1e-9).  The class
    weights come from the passes of `_per_q_weights`, or inside
    `shared_schedule` from those of the variance loop, the primitive rows
    of `character_values(q)` from `conductor_table(q)`, and `math.fsum`
    of the terms does not depend on their order.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    _, second_moment = event_moment_sums(field, x)
    schedule = _scheduled(field, x)
    if schedule is not None and all(q in schedule.held for q in range(1, Q + 1)):
        weights = ((q, t) for q, t in schedule.held.items() if q <= Q)
    else:
        weights = _per_q_weights(field, x, Q)
    terms = []
    for q, t in weights:
        prim = conductor_table(q) == q
        if not prim.any():
            continue
        psi = (character_values(q) @ t)[prim]
        square = math.fsum((psi.real * psi.real + psi.imag * psi.imag).tolist())
        terms.append(q / euler_phi(q) * square)
    lhs = math.fsum(terms)
    rhs = (x + Q * Q) * second_moment
    return LargeSieveResult(x, Q, lhs, rhs, lhs <= rhs * (1 + REL_TOL))


@dataclass(frozen=True)
class ExchangeDiff:
    """Difference between a character sum and its primitive part's sum.

    `direct` subtracts the two bucket-route sums; `explicit` accumulates
    the correction -chi*(n) * dk * lam over events at primes dividing the
    modulus but not the conductor.  `gap` is their rel_gap with max(S1, 1)
    as floor, S1 the first weight moment: each bucket-route sum adds terms
    whose absolute values total S1, so its rounding error scales with S1,
    not with the size of the difference; the 1 keeps a field with no
    events up to x (S1 = 0) from dividing by zero.  `bound_ok` reports
    the size bound |direct| <= 2 * degree * log(q * x)^2.
    """

    q: int
    conductor: int
    direct: complex
    explicit: complex
    gap: float
    bound_ok: bool


def primitive_exchange_diff(field: FieldSpec, x: int, chi: DirichletCharacter) -> ExchangeDiff:
    """Dual-route evaluation of the imprimitivity correction for chi; 0 if chi is primitive."""
    star = primitive_part(chi)
    direct = character_sum(field, x, chi) - character_sum(field, x, star)
    ev = norm_events(field, x)
    culprits = [p for p in factorize(chi.q) if chi.conductor % p != 0]
    rows = np.sort(_prime_power_rows(ev.n, culprits, x)[1])
    explicit = 0j
    if rows.size:
        vals = star.value_table()[ev.n[rows] % chi.conductor]
        explicit = -complex(np.dot(vals, ev.weights(rows)))
    bound = 2.0 * field.degree * math.log(chi.q * x) ** 2
    return ExchangeDiff(
        q=chi.q,
        conductor=chi.conductor,
        direct=direct,
        explicit=explicit,
        gap=rel_gap(direct, explicit, max(event_moment_sums(field, x)[0], 1.0)),
        bound_ok=abs(direct) <= bound,
    )
