"""Residue-class statistics over the norm-event stream.

The per-residue weight table modulo q accumulates dk * lam over events
with n = a (mod q).  `class_weights` is the one route to it: the variance
loop calls it once per q, and `residue_buckets` caches its read-only
result for the checks below.  On admissible classes its expected size is
x / (number of admissible classes); the variance report sums the squared
deviations over all q <= Q and compares against the classical envelope
x * Q * log x and the heuristic envelope x * Q * (log x)^4.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import euler_phi, factorize
from .characters import (
    DirichletCharacter,
    character_matrix,
    enumerate_characters,
    primitive_part,
)
from .fields import FieldSpec
from .galois import norm_class_group, residue_masks
from .sieve import event_moment_sums, norm_events

#: relative agreement demanded of dual-route identities
REL_TOL = 1e-9


def rel_gap(a, b, floor: float = 1.0) -> float:
    """Disagreement |a - b| scaled by max(|a|, |b|, floor).

    The floor keeps rounding noise around an exact zero from registering
    as a huge relative error, matching the orthogonality-gap convention
    of dividing by max(value, 1).
    """
    return abs(a - b) / max(abs(a), abs(b), floor)


#: events whose remainders `class_weights` holds at a time
_BLOCK = 1 << 16


def class_weights(n: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    """Class weights t[a] = sum of w over n = a (mod q), a = 0..q-1, for n >= 0.

    The remainders are held for one block of 2^16 events at a time:
    `bincount` adds the first block and `np.add.at` each later one.  Both
    add each class's weights one at a time, in event order, starting
    from 0.0, so t equals `np.bincount(n % q, weights=w, minlength=q)`
    bit for bit.  n mod q is taken as n - (n // q) * q in place, because
    numpy's floor division by a scalar beats its remainder.
    """
    buffer = np.empty(min(n.size, _BLOCK), dtype=n.dtype)

    def remainders(lo: int) -> np.ndarray:
        block = n[lo : lo + _BLOCK]
        r = np.floor_divide(block, q, out=buffer[: block.size])
        r *= q
        return np.subtract(block, r, out=r)

    t = np.bincount(remainders(0), weights=w[:_BLOCK], minlength=q)
    for lo in range(_BLOCK, n.size, _BLOCK):
        np.add.at(t, remainders(lo), w[lo : lo + _BLOCK])
    return t


@lru_cache(maxsize=512)
def residue_buckets(field: FieldSpec, x: int, q: int) -> np.ndarray:
    """Cached, read-only class weights t[a] of the events up to x, a = 0..q-1."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    ev = norm_events(field, x)
    t = class_weights(ev.n, ev.weight, q)
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


@dataclass(frozen=True)
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


def small_q_cutoff(x: int, M: int) -> float:
    """Boundary (log x)^(M+1) separating the small-q block of the profile."""
    return math.log(x) ** (M + 1)


def _dyadic_blocks(
    per_q: tuple[PerQContribution, ...], Q: int, cutoff: float
) -> tuple[DyadicBlock, ...]:
    def block_sum(lo: float, hi: float) -> float:
        return math.fsum(r.contribution for r in per_q if lo < r.q <= hi)

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


def variance(field: FieldSpec, x: int, Q: int, M: int = 1, threads: int = 1) -> VarianceReport:
    """Variance of residue-class weights around x / (class count).

    Args:
        field: base field descriptor.
        x: event bound, x >= 2.
        Q: modulus bound, 1 <= Q <= x.
        M: exponent selecting the small-q cutoff (log x)^(M+1).
        threads: worker threads for the per-q loop; the result is
            identical for any value because the reduction happens in
            ascending q after all workers finish.

    Returns:
        VarianceReport with per-q and dyadic decompositions.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not 1 <= Q <= x:
        raise ValueError(f"Q must satisfy 1 <= Q <= x, got Q={Q}, x={x}")
    ev = norm_events(field, x)
    n, w = ev.n, ev.weight

    def run_block(q_range) -> list[tuple[int, int, float, float]]:
        rows = []
        for q in q_range:
            t = class_weights(n, w, q)
            member, coprime = residue_masks(field, q)
            count = int(np.count_nonzero(member))
            dev = t[member] - x / count
            contribution = float(dev @ dev)
            outside = float(t[coprime & ~member].sum())
            rows.append((q, count, contribution, outside))
        return rows

    spans = [range(lo, min(lo + 256, Q + 1)) for lo in range(1, Q + 1, 256)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_block, spans))
    else:
        blocks = [run_block(span) for span in spans]
    rows = [row for block in blocks for row in block]

    total = math.fsum(r[2] for r in rows)
    outside_mass = math.fsum(r[3] for r in rows)
    per_q = tuple(PerQContribution(q, count, c) for q, count, c, _ in rows)
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
    of |character_sum|^2; holds when lhs <= rhs * (1 + 1e-9).
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    _, second_moment = event_moment_sums(field, x)
    terms = []
    for q in range(1, Q + 1):
        chars = enumerate_characters(q)
        prim = [i for i, c in enumerate(chars) if c.primitive]
        if not prim:
            continue
        psi = character_matrix(q) @ residue_buckets(field, x, q)
        square = math.fsum(psi[i].real ** 2 + psi[i].imag ** 2 for i in prim)
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
    already_primitive: bool


def _prime_power_rows(n: np.ndarray, primes: list[int], x: int) -> np.ndarray:
    """Ascending indices into the sorted, distinct norms n of the powers c^k <= x of `primes`."""
    powers = []
    for c in primes:
        power = c
        while power <= x:
            powers.append(power)
            power *= c
    powers = np.sort(np.array(powers, dtype=np.int64))
    rows = np.searchsorted(n, powers)
    found = rows < n.size
    rows, powers = rows[found], powers[found]
    return rows[n[rows] == powers]


def primitive_exchange_diff(field: FieldSpec, x: int, chi: DirichletCharacter) -> ExchangeDiff:
    """Dual-route evaluation of the imprimitivity correction for chi."""
    if chi.primitive:
        return ExchangeDiff(chi.q, chi.conductor, 0j, 0j, 0.0, True, True)
    star = primitive_part(chi)
    direct = character_sum(field, x, chi) - character_sum(field, x, star)
    ev = norm_events(field, x)
    culprits = [p for p in factorize(chi.q) if chi.conductor % p != 0]
    rows = _prime_power_rows(ev.n, culprits, x)
    explicit = 0j
    if rows.size:
        vals = star.value_table()[ev.n[rows] % chi.conductor]
        explicit = -complex(np.dot(vals, ev.weight[rows]))
    bound = 2.0 * field.degree * math.log(chi.q * x) ** 2
    return ExchangeDiff(
        q=chi.q,
        conductor=chi.conductor,
        direct=direct,
        explicit=explicit,
        gap=rel_gap(direct, explicit, max(event_moment_sums(field, x)[0], 1.0)),
        bound_ok=abs(direct) <= bound,
        already_primitive=False,
    )
