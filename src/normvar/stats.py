"""Residue-class statistics over the norm-event stream.

The per-residue weight table modulo q accumulates dk * lam over events
with n = a (mod q).  Every class sum is exact and then rounded once: the
cached event table (`sieve.norm_events`) holds the weights as slices at
fixed binary quanta (`sieve.weight_slices`), two to a complex column;
each pass scatters every column once (`pass_tables`), so each slice's
class sums are exact in any order, and `fold` adds the slices.
Because exact sums do not depend on their grouping, the table modulo q
folds out of the table modulo any multiple L of q bit for bit.  So the
tables of every q <= Q come from few passes over the events
(`_per_q_weights`): each q folds out of a pass whose modulus L is a
common multiple of several targets q * (Q // q) in (Q/2, Q], with L
within max(Q, min(#events // 16, 2^15)).  The variance loop and the
large sieve both read them.  Above `_SPLIT_WORK` passes times events,
the variance loop runs every other pass in one forked worker
(`normvar.forked`, imported only then; threads would not pay, as a pass
holds the GIL); exact sums make its rows and t_q the serial loop's.
Routing charges the serial passes, whatever the number of CPUs.  The
event table holds every t_q with q <= _HELD_BOUND that any pass folds
(`NormEventTable.held`), which covers every modulus the orthogonality,
char-exchange and `variance` large-sieve checks read: so a command's
checks read the t_q its first passes folded.  `class_weights` is the
direct route for one q, and `residue_buckets` hands out the held t_q,
or makes that direct pass.

The variance report needs only the sum of squares of t_q over the
admissible classes, not t_q itself, and for q > route_floor(x) it can
take that from the autocorrelation of the weights instead (`correlation`,
imported only by a run that may route there).  On admissible classes
the expected size is x / (number of admissible classes); the variance
report sums the squared deviations over all q <= Q in ascending q and
compares against the classical envelope x * Q * log x and the heuristic
envelope x * Q * (log x)^4.

Identity checks pair two independent code paths over the same events:

  * orthogonality: squared deviations vs. the averaged squared centered
    character sums;
  * large sieve: weighted primitive character sums, taken from the class
    weights by Parseval over the divisors of q, vs. (x + Q^2) times the
    second weight moment;
  * character exchange: a character sum minus its primitive part's sum
    vs. the explicit correction over events at primes dividing the
    modulus but not the conductor.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .arith import divisors, euler_phi, factorize
from .characters import DirichletCharacter, character_matrix, primitive_part, unit_mask
from .fields import FieldSpec
from .galois import norm_class_group, residue_masks
from .sieve import NormEventTable, _prime_power_rows, event_moment_sums, norm_events

if TYPE_CHECKING:
    from .correlation import RouteAgreement

#: relative agreement demanded of dual-route identities
REL_TOL = 1e-9


def rel_gap(a, b, floor: float = 1.0) -> float:
    """Disagreement |a - b| scaled by max(|a|, |b|, floor).

    The floor keeps rounding noise around an exact zero from registering
    as a huge relative error, matching the orthogonality-gap convention
    of dividing by max(value, 1).
    """
    return abs(a - b) / max(abs(a), abs(b), floor)


#: events whose remainders `pass_tables` holds at a time
_BLOCK = 1 << 16


def pass_tables(n: np.ndarray, columns: tuple[np.ndarray, ...], modulus: int) -> np.ndarray:
    """Exact class sums modulo `modulus` of each complex weight column (one row each), in one pass over n >= 0.

    `columns` is `sieve.weight_slices(w)`: each lane of a row is one
    slice's class sums, exact in any order.  The remainders of one block
    of 2^16 events at a time are taken in n's dtype (uint32 for the event
    table) as n - (n // modulus) * modulus, because numpy's floor
    division by a scalar beats its remainder, and are written into an
    intp buffer; `np.add.at` then adds each column's block into its row,
    both lanes in one scatter.
    """
    tables = np.zeros((len(columns), modulus), dtype=np.complex128)
    if not columns:
        return tables
    d = n.dtype.type(modulus)
    quotient = np.empty(min(n.size, _BLOCK), dtype=n.dtype)
    residues = np.empty(quotient.size, dtype=np.intp)
    for lo in range(0, n.size, _BLOCK):
        block = n[lo : lo + _BLOCK]
        k = np.floor_divide(block, d, out=quotient[: block.size])
        k *= d
        r = np.subtract(block, k, out=residues[: block.size])
        for table, column in zip(tables, columns):
            np.add.at(table, r, column[lo : lo + _BLOCK])
    return tables


def fold(tables: np.ndarray, q: int) -> np.ndarray:
    """Class weights t[a], a = 0..q-1, from the pass tables modulo a multiple L of q.

    Each table is folded by summing the rows of its (L / q, q) reshape,
    lane by lane, which adds exact sums into exact sums, so the result
    does not depend on L.  The slices are then added from the smallest,
    in the order of `sieve.lanes`, each row's imaginary lane before its
    real one (a last imaginary lane of zeros adds nothing; skipping it as
    `lanes` does cost a fold 10-30% more): with two slices that is one
    rounding of the exact class sum, so t[a] is the correctly rounded sum
    of its weights.
    """
    t = np.zeros(q)
    for row in tables.reshape(len(tables), tables.shape[1] // q, q).sum(axis=1)[::-1]:
        t += row.imag
        t += row.real
    return t


def class_weights(n: np.ndarray, columns: tuple[np.ndarray, ...], q: int) -> np.ndarray:
    """Class weights t[a] = sum of w over n = a (mod q), a = 0..q-1, for n >= 0.

    `columns` is `sieve.weight_slices(w)`.  Every class sum is exact
    before the slices are combined, so t is independent of the order of
    the events and, with at most two slices, equals a per-class
    `math.fsum` of w.
    """
    return fold(pass_tables(n, columns, q), q)


#: largest modulus whose t_q the event table holds: orthogonality reads
#: q <= 120, char-exchange q <= 30 and the `variance` large sieve q <= 100
_HELD_BOUND = 120


def _hold(ev: NormEventTable, q: int, t: np.ndarray) -> np.ndarray:
    """t_q made read-only and, for q <= _HELD_BOUND, held by the event table.

    A t_q held already is kept and returned, so an array once handed out
    stays the same object.
    """
    t.setflags(write=False)
    return ev.held.setdefault(q, t) if q <= _HELD_BOUND else t


def residue_buckets(field: FieldSpec, x: int, q: int) -> np.ndarray:
    """Read-only class weights t[a] of the events up to x, a = 0..q-1.

    Held for q <= _HELD_BOUND: a t_q that a pass over the event table has
    folded is taken without a pass of its own.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    ev = norm_events(field, x)
    t = ev.held.get(q)
    if t is None:
        t = _hold(ev, q, class_weights(ev.n, ev.columns, q))
    return t


def character_sum(field: FieldSpec, x: int, chi: DirichletCharacter) -> complex:
    """Sum of chi(n) * dk * lam over all events, via the bucket table."""
    t = residue_buckets(field, x, chi.q)
    return complex(np.dot(chi.value_table(), t))


class OrthogonalityResult(NamedTuple):
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


class DyadicBlock(NamedTuple):
    u_lo: float
    u_hi: float
    contribution: float


class VarianceReport(NamedTuple):
    """Variance of class deviations over 1 <= q <= Q with envelope ratios.

    The rows are read-only columns: `per_q[q - 1]` is q's contribution
    (float64) and `admissible[q - 1]` its class count (int64).  As a
    tuple holding arrays, a report is neither `==`-comparable (the
    arrays make it ambiguous) nor hashable, so compare reports column by
    column.
    `route_agreement` is None when every q took the direct passes.
    """

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
    per_q: np.ndarray
    admissible: np.ndarray
    dyadic: tuple[DyadicBlock, ...]
    route_agreement: RouteAgreement | None = None


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


def _fsum(column: np.ndarray) -> float:
    """math.fsum of a float64 column, read _BLOCK entries at a time; exact, so the blocks do not show."""
    blocks = (column[lo : lo + _BLOCK].tolist() for lo in range(0, column.size, _BLOCK))
    return math.fsum(itertools.chain.from_iterable(blocks))


def _dyadic_blocks(per_q: np.ndarray, cutoff: float) -> tuple[DyadicBlock, ...]:
    """Blocks (lo, hi] from Q down, halved while lo > cutoff, then (cutoff, hi] and (0, cutoff]."""
    edges = [float(per_q.size)]
    while edges[-1] / 2 > cutoff:
        edges.append(edges[-1] / 2)
    if cutoff < edges[0]:
        edges.append(cutoff)
    edges.append(0.0)
    # per_q[q - 1] is q's contribution, so lo < q <= hi is one slice of it
    sums = (_fsum(per_q[math.floor(lo) : math.floor(hi)]) for hi, lo in itertools.pairwise(edges))
    return tuple(map(DyadicBlock, edges[1:], edges, sums))


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

    A pass costs one scatter of every event per complex column, whatever
    its modulus, so its tables must stay small next to that: each q of
    the pass folds all L entries.  So L stays within #events // 16, one
    entry per 16 events, and within _BLOCK // 2, whatever the number of
    events.  That cap was measured when each block's class sums came in a
    table of their own, added to the pass's: a cost the scatter into one
    table (`pass_tables`) no longer has.  With it, caps of 2^14 to 2^16
    took within 15% of each other at `--field Q --x 1e7` and Q = 1000 or
    3000, so the cap stays.
    """
    return min(events // 16, _BLOCK // 2)


def _pass_count(Q: int, budget: int) -> int:
    """len(_pass_plan(Q, budget)); from Q = budget on no passes merge, one per target in (Q/2, Q]."""
    return Q - Q // 2 if Q >= budget else len(_pass_plan(Q, budget))


def _per_q_weights(field: FieldSpec, x: int, Q: int) -> Iterator[tuple[int, np.ndarray]]:
    """(q, read-only class weights t_q) for every q <= Q, from as few passes over the events as fit.

    Where the event table holds every q <= Q, its t_q are yielded without
    a pass.  Otherwise the passes take moduli up to max(Q,
    `_pass_budget(#events)`), and the t_q they fold with q <= _HELD_BOUND
    are held.  Exact class sums make every t_q the same from any pass.
    """
    ev = norm_events(field, x)
    if all(q in ev.held for q in range(1, Q + 1)):
        yield from ((q, ev.held[q]) for q in range(1, Q + 1))
        return
    for L, moduli in _pass_plan(Q, _pass_budget(ev.n.size)):
        tables = pass_tables(ev.n, ev.columns, L)
        for q in moduli:
            yield q, _hold(ev, q, fold(tables, q))


#: largest x at which every routed row was compared with the direct one
ROUTE_FLOOR_MEASURED_X = 10**7


def route_floor(x: int) -> int:
    """Least K whose q > K may take the correlation route: isqrt(x) // 2 (at least 1) up to x = 1e7, isqrt(x) above.

    The measured gaps behind it are in the `correlation` docstring.
    """
    K = math.isqrt(x)
    return max(K // 2, 1) if x <= ROUTE_FLOOR_MEASURED_X else K


def variance(field: FieldSpec, x: int, Q: int, M: int = 1) -> VarianceReport:
    """Variance of residue-class weights around x / (class count).

    The class weights of every q up to a bound D fold out of a few passes
    over the events (`_per_q_weights`), each of whose moduli covers
    several multiples q * (D // q) in (D/2, D].  D is Q, or route_floor(x)
    when the moduli above it cost less on the correlation route
    (`correlation._direct_bound`), which takes them all at once
    (`correlation._correlation_rows`); its rows are not bit-identical to
    the direct ones, but within about 6e-11 relative, and the report
    checks up to 17 of them (`correlation._route_agreement`).  The per-q
    rows are summed exactly, with `math.fsum`.

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
    direct = Q
    if Q > route_floor(x):
        # imported only here: a run whose q all stay at or below the floor
        # does not compile the route (about 0.6 MiB of RSS)
        from .correlation import _class_split, _direct_bound

        modulus, dense, sparse = _class_split(field, ev)
        split = (modulus, np.count_nonzero(dense), sparse.size)
        direct = _direct_bound(x, Q, len(ev), len(ev.columns), split)
    return _variance(field, x, Q, M, direct)


def _direct_row(field: FieldSpec, x: int, q: int, t: np.ndarray) -> tuple[int, float, float]:
    """(admissible count, contribution, outside mass) of q from its class weights t_q."""
    member, coprime = residue_masks(field, q)
    count = np.count_nonzero(member)
    dev = t[member] - x / count
    return count, dev @ dev, t[coprime & ~member].sum()


#: passes x events above which `_variance` runs half of its passes in a
#: forked worker where the process may use two CPUs: in process, split
#: against serial lost 14 of 15 pairs at 10.0M and 11.3M, won 15 of 15
#: at 15.3M and 15.7M; deepx is 167.6M, wideq's passes 6.7M
_SPLIT_WORK = 16_000_000


def _variance(field: FieldSpec, x: int, Q: int, M: int, direct: int) -> VarianceReport:
    """The variance report with q <= `direct` on the direct passes and the larger q on the correlation route."""
    counts = np.zeros(Q, dtype=np.int64)
    contributions = np.zeros(Q)
    outside = np.zeros(Q)
    # the direct - direct // 2 targets in (direct/2, direct] bound the passes
    if (direct - direct // 2) * len(norm_events(field, x)) > _SPLIT_WORK:
        from .forked import split_rows

        split_rows(field, x, direct, (counts, contributions, outside))
    else:
        for q, t in _per_q_weights(field, x, direct):
            counts[q - 1], contributions[q - 1], outside[q - 1] = _direct_row(field, x, q, t)
    agreement = None
    if direct < Q:
        from .correlation import _correlation_rows, _route_agreement

        counts[direct:], contributions[direct:], outside[direct:] = _correlation_rows(field, x, direct, Q)
        agreement = _route_agreement(field, x, direct, Q, counts, contributions)
    counts.setflags(write=False)
    contributions.setflags(write=False)
    total = _fsum(contributions)
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
        outside_mass=_fsum(outside),
        range_condition_satisfied=x * log_x**-M <= Q <= x,
        small_q_cutoff=cutoff,
        per_q=contributions,
        admissible=counts,
        dyadic=_dyadic_blocks(contributions, cutoff),
        route_agreement=agreement,
    )


class LargeSieveResult(NamedTuple):
    x: int
    Q: int
    lhs: float
    rhs: float
    holds: bool


def _primitive_square(q: int, t: np.ndarray) -> float:
    """Sum of |sum_a chi(a) t[a]|^2 over the primitive chi mod q, exact for this t, rounded once.

    For d | q, Parseval gives phi(d) * sum of u_d^2 over the chi whose
    conductor divides d, u_d the unit classes of t folded mod d; Moebius
    inversion keeps conductor q.  It cancels the large sums of characters
    trivial on the norm classes (in floats up to 4e-9 of a term was lost),
    so the dyadic t[a] are summed as integers scaled by 2^s: Python ints
    in an object array, folded mod d by one reshape and column sum.
    """
    units = np.where(unit_mask(q), t, 0.0)
    s = 53 - int(np.frexp(units)[1].min())
    n = np.array([int(v) for v in np.ldexp(units, s).tolist()], dtype=object)
    total, primes = 0, list(factorize(q))
    # Moebius inversion needs only d = q / e for squarefree e, mu(e) = (-1)^k
    for k in range(len(primes) + 1):
        for e in itertools.combinations(primes, k):
            d = q // math.prod(e)
            u = n.reshape(q // d, d).sum(axis=0)
            total += (-1) ** k * euler_phi(d) * u.dot(u)
    return total / (1 << 2 * s)


def large_sieve_check(field: FieldSpec, x: int, Q: int) -> LargeSieveResult:
    """Weighted primitive character sums against (x + Q^2) * second moment.

    lhs = sum over q <= Q of (q / phi(q)) * sum over primitive chi mod q
    of |character_sum|^2; holds when lhs <= rhs * (1 + 1e-9).  Each q's
    term comes from its class weights alone (`_primitive_square`), as
    `_per_q_weights` yields them; q = 2 (mod 4) has no primitive
    character, and `math.fsum` of the terms does not depend on their order.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    _, second_moment = event_moment_sums(field, x)
    terms = [
        q / euler_phi(q) * _primitive_square(q, t)
        for q, t in _per_q_weights(field, x, Q)
        if q % 4 != 2
    ]
    lhs = math.fsum(terms)
    rhs = (x + Q * Q) * second_moment
    return LargeSieveResult(x, Q, lhs, rhs, lhs <= rhs * (1 + REL_TOL))


class ExchangeDiff(NamedTuple):
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
    rows = np.sort(_prime_power_rows(ev.n, culprits, x)[2])
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
