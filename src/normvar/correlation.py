"""The correlation route: the variance rows of every q above a floor K at once.

The variance report needs only the sum of squares of t_q over the
admissible classes, and for q > K = `stats.route_floor(x)` (isqrt(x) // 2
up to x = 1e7, isqrt(x) above) this module takes it from the
autocorrelation R(h) = sum of w_n * w_{n+h}: the squares of all classes
mod q sum to R(0) + 2 * sum over j >= 1 of R(jq) (`_lag_sums`).  R is
built one unit class mod M = lcm(m, 2) at a time (`_class_split`):
outside the powers of 2 and of the ramified primes every norm lies in a
unit class b mod M with b mod m in H, so the weights of each such class
form a sequence of length x / M, and each ordered pair of classes gives
R at the lags of one residue mod M from one blocked cross-correlation
(`_autocorrelation_blocks`), holding a few MiB of spectra whatever x; the
few other events add their pairs in place (`_sparse_lags`).  The classes
that are not admissible are taken off from the few events they can hold
(`_correlation_rows`).  `_direct_bound` routes the q > K here when that
costs less than their passes over the events (`stats._folded`).

The floor is measured.  Over every q > isqrt(x) // 2 on Q, quad:-1,
quad:5, cyclo:5 and cyclo:12 the worst relative gap of a routed row to
the direct one read 1.6e-11 at x = 1e6 (q = 504) and 6.0e-11 at x = 1e7
(q = 1610), 16x inside 1e-9; over every oracle field it read 1.5e-12
at x = 1e4 and 4.3e-12 at 1e5.  The least floor with a 10x margin grew
about as x^0.9 (168 at 1e6, 1290 at 1e7), so above the measured x the
floor stays at isqrt(x).  Each routed report recomputes up to 17 rows
by direct passes, most of them just above the floor, where the worst
gaps sit (`_route_agreement`).

`stats.variance` imports this module only when Q > K, so a run whose
moduli all stay at or below the floor does not compile it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from .arith import divisors, euler_phi
from .fields import FieldSpec, kernel_image
from .sieve import NormEventTable, _prime_power_rows, norm_events, primes_up_to
from .stats import _direct_row, _pass_budget, _pass_count, class_weights, rel_gap, route_floor

#: chunk length of the blocked correlations: each chunk of one unit
#: class's weights is transformed at 2 * _CHUNK points
_CHUNK = 1 << 13
#: lags of a correlation summed at a time, in chunks (`_lag_spectra`)
_BAND = 16
#: entries of one correlation that `_lag_sums` adds at a time.  An add loops
#: over about h / K values of j at lag h, whatever its length: adding each
#: _CHUNK block directly took 1.3-1.6x as long at x = 1e6, Q = 1e4
_SPAN = 1 << 16
#: lags of the sparse pairs that `_lag_sums` adds at a time: the ranges an
#: add loops over fall with the number of spans, and the pairs are added
#: in place, so a wide span costs its 2 MiB and no list of pairs
_SPARSE_SPAN = 1 << 18


def _chunking(x: int) -> tuple[int, int]:
    """(L, chunks): the chunk length and the number of chunks of length L that cover 0..x."""
    L = min(_CHUNK, 1 << x.bit_length())
    return L, x // L + 1


def _class_split(field: FieldSpec, ev: NormEventTable) -> tuple[int, np.ndarray, np.ndarray]:
    """(M, dense, sparse) for the correlation route, M = lcm(m, 2).

    `dense` masks the units b mod M whose b mod m lies in H and that
    hold events: the norm p^f of a prime over an odd p that does not
    ramify is such a b.  `sparse` lists the rows of the other events (the
    powers of 2 and of the ramified primes, and any stray), which are
    measured, never assumed absent.
    """
    m = field.conductor
    M = math.lcm(m, 2)
    b = np.arange(M)
    residues = ev.n % ev.n.dtype.type(M)
    held = np.zeros(M, dtype=bool)
    held[residues] = True
    dense = held & (np.gcd(b, M) == 1) & kernel_image(field, m)[b % m]
    return M, dense, np.flatnonzero(~dense[residues])


def _direct_bound(field: FieldSpec, ev: NormEventTable, x: int, Q: int) -> int:
    """Largest q that the direct passes serve; every q above it, up to Q, takes the correlation route.

    `ev` is the event table of field up to x.  The costs read its events,
    its complex weight columns (one for every table measured) and (M,
    dense classes, sparse events) of `_class_split`.  The routing rule:
    the moduli q > K = `route_floor(x)` take the correlation route
    (`_correlation_rows`) when it costs less than the direct work it
    replaces, else every q <= Q stays on the direct passes.  Below the
    floor, t_q is large next to its deviation, and the route's squares
    cancel too much.  Costs are counted in steps of about 1 ns on the
    2-vCPU machine where the weights below were measured:
      * the route (`_lag_sums`): per ordered pair of dense classes, about
        chunks^2 / _BAND + 2 * chunks transforms of 2L points over the
        x / M entries of a class, each at 1.5 steps per point and log2 of
        the length for the transform and its products, plus 40,000 for its
        chunk and calls (one of 2^14 points took 250-470 us at x = 1e6 to
        1e7, one of 2^11 points 91 us); per sparse event, its pairs with
        every event at 8 steps each (7.6-12.5 ns, added in place); and the
        ranges that `_lag_sums` adds, at 3,000 steps each (2.7-4.1 us): the
        i-th of s spans reaches the lag i x / s, so it adds up to
        i x / (s K) ranges, x (s + 1) / (2K) for the s spans of a pair's
        x / M entries or of the sparse lags;
      * the direct passes it replaces: those `_pass_plan` makes for q <= Q
        beyond those it makes for q <= K, each one scatter of every event per
        complex column, both slices at once, at 5 steps (2.6-5.5 ns
        measured at x = 1e6 and 1e7, where one scatter per slice took
        2.9-5.2 ns per slice in the same runs), and per q in (K, Q] its
        masks, fold and deviations at 30,000 steps plus 12 per column entry
        it folds (33 us at Q = 250, 158 us at Q = 10^4, with two slices;
        a complex fold costs about what two float folds did).
    At x = 1e7 both sides took about 0.7x their modelled steps in ns, so
    their ratio holds: the direct passes for q in (1581, Q] took 6.1 s, 9.0 s
    and 26.7 s of CPU on field Q at Q = 8,000, 10,000 and 20,000, the
    route 7.6 s, 7.2 s and 7.9 s, and the rule routes from Q of about
    9,100 (quad:-1 from about 5,900, where it measured between 5,000 and
    8,000).  The route's fixed work, a few milliseconds for the primes
    p <= Q and the pairs of prime powers, is left out: it matters only
    where both routes take milliseconds.
    """
    K = route_floor(x)
    if Q <= K:
        return Q
    M, dense, sparse = _class_split(field, ev)
    classes, sparse, events, columns = np.count_nonzero(dense), sparse.size, len(ev), len(ev.columns)
    L, chunks = _chunking(x // M)
    pairs, points = classes * classes, 2 * L
    transforms = pairs * (chunks * chunks // _BAND + 2 * chunks)
    spans = pairs * ((x // M) // max(_SPAN, L) + 2) + (x // _SPARSE_SPAN + 2 if sparse else 0)
    ranges = x * spans // (2 * K)
    correlation = (
        transforms * (3 * points * (points.bit_length() - 1) // 2 + 40_000)
        + 8 * sparse * events
        + 3_000 * ranges
    )
    budget = _pass_budget(events)
    passes = _pass_count(Q, budget) - _pass_count(K, budget)
    direct = 5 * passes * events * columns + (Q - K) * (30_000 + 12 * columns * Q)
    return K if correlation < direct else Q


def _lag_spectra(first, second, chunks: int) -> Iterator[np.ndarray]:
    """P_k = sum over c of conj(E_c) * F_{c+k}, for k = 0..chunks-1, with E_c = first(c) and F_c = second(c).

    Holding every F_c would take 16 bytes per entry.  A band of lags
    [k0, k0 + _BAND) needs only E_c and the window F_{c+k0}, ...,
    F_{c+k0+_BAND-1}, which slides by one spectrum per c: about
    chunks^2 / _BAND + 2 * chunks transforms, and 2 * _BAND + 2 spectra
    held.  For first is second the band k0 = 0 reads E_c off the window.
    """
    for k0 in range(0, chunks, _BAND):
        width = min(_BAND, chunks - k0)
        window = deque(second(c) for c in range(k0, k0 + width))
        sums = [np.zeros_like(window[0]) for _ in range(width)]
        conj, product = np.empty_like(window[0]), np.empty_like(window[0])
        for c in range(chunks - k0):
            np.conj(window[0] if k0 == 0 and first is second else first(c), out=conj)
            for total, F in zip(sums, window):
                total += np.multiply(conj, F, out=product)
            window.popleft()
            if c + k0 + width < chunks:
                window.append(second(c + k0 + width))
        while sums:  # released as they go, before the next band is built
            yield sums.pop(0)


def _autocorrelation_blocks(
    ev: NormEventTable, x: int, M: int, classes: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(d, s0, C[s0 : s0 + L]) for each ordered pair (b, b') of `classes` in turn, and s0 = 0, L, 2L, ...

    D_b[k] is the weight at n = Mk + b (0 where no event is), and
    C(s) = sum over k of D_b[k] * D_b'[k + s] is the part of R(h) at
    h = Ms + d, d = b' - b, that pairs an event n = b with an event
    n + h = b' (mod M).  D_b is cut into chunks of length L, straight from
    the sorted table: chunk c holds the events in [M cL + b, M (c+1) L + b)
    with n = b (mod M), and is transformed at 2L points.  The shifts in
    [kL, (k+1)L) pair chunk c of D_b with the window of chunks c+k and
    c+k+1 of D_b', whose spectrum at 2L points is F_{c+k} + (-1)^f F_{c+k+1};
    so that block of C is the inverse transform of P_k + (-1)^f P_{k+1}
    (`_lag_spectra`).  Neither C nor any D_b is ever held at full length.
    """
    L, chunks = _chunking(x // M)
    chunk = np.zeros(2 * L)
    top = np.arange(chunks + 1) * (M * L)

    def spectra(b: int):
        # needles in n's dtype: int64 needles would convert all of n per call
        edges = np.searchsorted(ev.n, np.minimum(top + b, x + 1).astype(ev.n.dtype))

        def spectrum(c: int) -> np.ndarray:
            lo, hi = edges[c], edges[c + 1]
            n = ev.n[lo:hi]
            keep = n % n.dtype.type(M) == b
            chunk[:L] = 0.0
            chunk[(n[keep] - (M * c * L + b)) // M] = ev.weights(slice(lo, hi))[keep]
            return np.fft.rfft(chunk)

        return spectrum

    for b in classes.tolist():
        first = spectra(b)
        for b2 in classes.tolist():
            spectra_k = _lag_spectra(first, first if b2 == b else spectra(b2), chunks)
            current = next(spectra_k)
            for k in range(chunks):
                following = next(spectra_k, None)
                if following is not None:  # add (-1)^f P_{k+1}
                    current[::2] += following[::2]
                    current[1::2] -= following[1::2]
                yield b2 - b, k * L, np.fft.irfft(current)[:L]
                current = following


def _sparse_lags(
    ev: NormEventTable, x: int, M: int, dense: np.ndarray, rows: np.ndarray, h0: int, out: np.ndarray
) -> np.ndarray:
    """out[i] = the part of R(h0 + i), h0 + i >= 1, from the pairs of events of which one or both are sparse.

    Each sparse event e at `rows` takes its pairs (e, n) with n > e,
    whatever n, and its pairs (n, e) with n < e and n dense: so a pair
    of two sparse events is counted once, from its smaller one, and a
    pair of dense events not at all.  The partners of each e are one
    range of the sorted table, found with `searchsorted`, and their
    products are added into `out` in place with `np.add.at`, event by
    event: the order of the adds, and so every sum, is that of one
    `bincount` over all the pairs, without holding them.
    """
    n, H = ev.n, out.size
    e = n[rows].astype(np.int64)
    w_e = ev.weights(rows).tolist()
    first = max(h0, 1)
    dtype = n.dtype

    def find(needles):
        return np.searchsorted(n, np.clip(needles, 0, x + 1).astype(dtype)).tolist()

    above_lo, above_hi = find(e + first), find(e + h0 + H)
    below_lo, below_hi = find(e - h0 - H + 1), find(e - first + 1)
    out[:] = 0.0
    for i, (e_i, w_i) in enumerate(zip(e.tolist(), w_e)):
        if above_lo[i] < above_hi[i]:
            seg = slice(above_lo[i], above_hi[i])
            np.add.at(out, n[seg] - dtype.type(e_i + h0), w_i * ev.weights(seg))
        if below_lo[i] < below_hi[i]:
            seg = slice(below_lo[i], below_hi[i])
            partner = n[seg]
            keep = dense[partner % dtype.type(M)]
            np.add.at(out, dtype.type(e_i - h0) - partner[keep], w_i * ev.weights(seg)[keep])
    return out


def _lag_sums(field: FieldSpec, ev: NormEventTable, x: int, K: int, Q: int) -> np.ndarray:
    """S[q - K - 1] = sum over j >= 1 of R(jq), for K < q <= Q, any K >= 1.

    R(h) = sum over n of w_n * w_{n+h} splits by the unit classes mod
    M = lcm(m, 2) (`_class_split`): for each ordered pair (b, b') of dense
    classes, the correlation C of their weights gives R's part at the lags
    h = Ms + b' - b (`_autocorrelation_blocks`), and the pairs with a sparse
    event give the rest (`_sparse_lags`).  S is linear in R, so each part is
    added on its own, and one pair's band of spectra is held at a time.
    A pair's blocks are gathered into spans of _SPAN entries (at least one
    block, M * L lags), and each span is added as it fills: for each j,
    the q with jq in the span and jq = d (mod M) form one range with
    stride M / gcd(j, M), read from the span with stride j / gcd(j, M).
    The sparse part is added _SPARSE_SPAN lags at a time, into one span
    allocated after the last pair's spectra are released.  An add loops
    over about h / K values of j at lag h, so a lower K costs more ranges.
    """
    M, dense, sparse = _class_split(field, ev)
    S = np.zeros(Q - K)
    span = np.empty(max(_SPAN, _chunking(x // M)[0]))

    def add(period: int, d: int, s0: int, r: np.ndarray) -> None:
        """Add r[i], R's part at the lag period * (s0 + i) + d, into S."""
        h_lo = period * s0 + d
        h_hi = min(period * (s0 + r.size - 1) + d, x - 1)  # no two norms <= x lie x apart
        for j in range(max(1, -(-h_lo // Q)), h_hi // (K + 1) + 1):
            g = math.gcd(j, period)
            if d % g:
                continue
            P = period // g  # jq = d (mod period) holds on one class q = q0 (mod P)
            q0 = d // g * pow(j // g, -1, P) % P
            lo, hi = max(K + 1, -(-h_lo // j)), min(Q, h_hi // j)
            lo += (q0 - lo) % P
            if lo <= hi:
                i0 = (j * lo - d) // period - s0
                S[lo - K - 1 : hi - K : P] += r[i0 : i0 + (hi - lo) // P * (j // g) + 1 : j // g]

    pair = start = filled = 0
    for d, s0, block in _autocorrelation_blocks(ev, x, M, np.flatnonzero(dense)):
        if filled and (s0 == 0 or filled + block.size > span.size):
            add(M, pair, start, span[:filled])
            filled = 0
        if not filled:
            pair, start = d, s0
        span[filled : filled + block.size] = block
        filled += block.size
    if filled:
        add(M, pair, start, span[:filled])
    del span
    if sparse.size:
        # allocated here, once the last pair's spectra are gone
        lags = np.empty(_SPARSE_SPAN)
        for h0 in range(0, x, lags.size):
            add(1, 0, h0, _sparse_lags(ev, x, M, dense, sparse, h0, lags))
    return S


def _divisors_between(D: int, K: int, Q: int) -> np.ndarray:
    """The divisors q of D >= 1 with K < q <= Q: q = D / s with s <= D / (K + 1), about D / K trial divisors."""
    s = np.arange(1, D // (K + 1) + 1)
    q = D // s[D % s == 0]
    return q[q <= Q]


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
    tag, _, rows = _prime_power_rows(ev.n, primes.tolist(), x)
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
    """(admissible counts, contributions, outside masses) of every q in (K, Q], any K >= 1.

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
    # first, so that the transforms' spectra are not held beside the
    # per-q arrays below (about 0.7 MiB off the peak at x = 1e6, Q = 1e4)
    lag_sums = _lag_sums(field, ev, x, K, Q)
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
    member_sq = S2 + 2 * lag_sums - non_unit_sq - outside_sq
    mean = x / count
    return count, member_sq - 2 * mean * member_sum + count * mean * mean, outside


class RouteAgreement(NamedTuple):
    """Routed rows recomputed by direct passes: the q compared, the worst gap and its q.

    A cross-route check over one event table, not an independent oracle:
    both routes read the same events.
    """

    moduli: tuple[int, ...]
    gap: float
    q: int


#: routed q just above the floor that `_agreement_moduli` adds, and the
#: top of their window (K, _NEAR_TOP * K]: the worst routed rows sit there
_NEAR_FLOOR = 12
_NEAR_TOP = 1.2


def _agreement_moduli(K: int, Q: int, counts: np.ndarray) -> tuple[int, ...]:
    """The routed q that a report recomputes by direct passes, ascending.

    K + 1, Q and three q between, geometrically spaced, and the
    _NEAR_FLOOR q in (K, 1.2 K] with the fewest admissible classes
    (`counts[q - 1]`; the smaller q first on a tie).  The route's relative
    error is largest just above the floor, at the q whose few classes
    hold the largest means and so cancel the most.  Over every q on Q,
    quad:-1, quad:5, cyclo:5 and cyclo:12, the worst routed row in
    (K, 1.2 K] was among the 8 with the fewest classes at x = 1e5 and
    1e6, and among the 12 at x = 1e7 on all but cyclo:12, where it was
    the 13th (these 12 read 2.8e-11 against its 3.8e-11).
    """
    ratio = Q / (K + 1)
    top = min(Q, math.floor(_NEAR_TOP * K))
    fewest = np.argsort(counts[K:top], kind="stable")[:_NEAR_FLOOR] + K + 1
    spaced = {round((K + 1) * ratio ** (i / 4)) for i in (1, 2, 3)}
    return tuple(sorted({K + 1, Q} | spaced | set(fewest.tolist())))


def _route_agreement(
    field: FieldSpec, x: int, K: int, Q: int, counts: np.ndarray, contributions: np.ndarray
) -> RouteAgreement:
    """The worst gap between routed contributions of q in (K, Q] and one direct pass each, at `_agreement_moduli`."""
    ev = norm_events(field, x)
    moduli = _agreement_moduli(K, Q, counts)
    gaps = [
        rel_gap(contributions[q - 1], _direct_row(field, x, q, class_weights(ev.n, ev.columns, q))[1])
        for q in moduli
    ]
    worst = max(range(len(moduli)), key=gaps.__getitem__)  # the first q with the largest gap
    return RouteAgreement(moduli, gaps[worst], moduli[worst])
