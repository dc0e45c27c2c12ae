"""Independent naive reference implementations for cross-checking.

Everything here is deliberately written the slow, obvious way and shares
no code path with the package: trial-division primality, splitting read
off polynomial roots or order loops, per-class sums without bucketing.
"""

from __future__ import annotations

import math
from functools import lru_cache


def moebius(n: int) -> int:
    """Moebius function of n >= 1, by trial division."""
    mu, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return mu


@lru_cache(maxsize=8)
def naive_primes(x: int) -> tuple[int, ...]:
    out = []
    for n in range(2, x + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def naive_split(variant: str, param, p: int) -> tuple[int, int, int]:
    """(e, f, g) for prime p, from first principles per family."""
    if variant == "rational":
        return (1, 1, 1)
    if variant == "quadratic":
        d = param
        disc = d if d % 4 == 1 else 4 * d
        if disc % p == 0:
            return (2, 1, 1)
        if p == 2:
            # disc odd here, so d = 1 (mod 4); 2 splits iff the minimal
            # polynomial t^2 - t + (1 - d)/4 has a root mod 2
            return (1, 1, 2) if ((1 - d) // 4) % 2 == 0 else (1, 2, 1)
        roots = sum(1 for t in range(p) if (t * t - d) % p == 0)
        return (1, 1, 2) if roots == 2 else (1, 2, 1)
    m = param
    a = 0
    mm = m
    while mm % p == 0:
        a += 1
        mm //= p
    e = p**a - p ** (a - 1) if a else 1
    f = 1
    if mm > 1:
        acc = p % mm
        while acc != 1:
            acc = acc * p % mm
            f += 1
    phi_mm = sum(1 for r in range(1, mm + 1) if math.gcd(r, mm) == 1)
    return (e, f, phi_mm // f)


def naive_events(variant: str, param, x: int) -> list[tuple[int, int, int, int, float]]:
    """All (n, p, k, dk, lam) with n = p^k <= x, sorted by n."""
    out = []
    for p in naive_primes(x):
        _, f, g = naive_split(variant, param, p)
        k = 1
        n = p
        while n <= x:
            if k % f == 0:
                out.append((n, p, k, g, f * math.log(p)))
            k += 1
            n *= p
    return sorted(out)


def naive_closure(variant: str, param, q: int, prime_bound: int) -> list[int]:
    """Subgroup of (Z/qZ)^* generated by observed p^f, by full closure."""
    if q == 1:
        return [0]
    # only the prime support of the discriminant matters below, and for
    # cyclotomic fields that support is exactly the primes dividing m
    if variant == "rational":
        disc = 1
    elif variant == "quadratic":
        disc = param if param % 4 == 1 else 4 * param
    else:
        disc = param
    gens = set()
    for p in naive_primes(prime_bound):
        if q % p == 0 or disc % p == 0:
            continue
        _, f, _ = naive_split(variant, param, p)
        gens.add(pow(p, f, q))
    group = {1}
    while True:
        grown = group | {a * b % q for a in group for b in gens}
        if grown == group:
            return sorted(group)
        group = grown


def naive_variance(variant: str, param, x: int, Q: int, prime_bound: int = 10_000):
    """(V, outside_mass) via per-(q, a) sums straight over the event list."""
    events = naive_events(variant, param, x)
    total_terms = []
    outside_terms = []
    for q in range(1, Q + 1):
        members = naive_closure(variant, param, q, prime_bound)
        mean = x / len(members)
        member_set = set(members)
        for a in members:
            psi = math.fsum(dk * lam for n, _, _, dk, lam in events if n % q == a)
            total_terms.append((psi - mean) ** 2)
        for a in range(q):
            if math.gcd(a, q) == 1 and a not in member_set:
                outside_terms.append(
                    math.fsum(dk * lam for n, _, _, dk, lam in events if n % q == a)
                )
    return math.fsum(total_terms), math.fsum(outside_terms)
