"""Elementary number-theoretic helpers on plain Python ints.

Hot loops live in `sieve` and `stats` and vectorize with numpy; everything
here is called on small arguments (moduli, field parameters, exponents).
"""

from __future__ import annotations

import math
from functools import lru_cache


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # remaining factors are coprime to 6; step through the 6k +/- 1 wheel
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    phi = 1
    for p, a in factorize(n).items():
        phi *= (p - 1) * p ** (a - 1)
    return phi


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides |n|; 0 is not squarefree."""
    n = abs(n)
    if n == 0:
        return False
    return all(a == 1 for a in factorize(n).values())


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, a in factorize(n).items():
        out = [d * p**e for d in out for e in range(a + 1)]
    return sorted(out)


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)^*; requires gcd(a, n) == 1."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    if n == 1:
        return 1
    for d in divisors(euler_phi(n)):
        if pow(a, d, n) == 1:
            return d
    raise AssertionError("unreachable: order divides euler_phi(n)")


@lru_cache(maxsize=256)
def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q for q an odd prime power."""
    fac = factorize(q)
    if len(fac) != 1 or 2 in fac:
        raise ValueError(f"{q} is not an odd prime power")
    phi = euler_phi(q)
    targets = [phi // r for r in factorize(phi)]
    g = 2
    while True:
        if math.gcd(g, q) == 1 and all(pow(g, t, q) != 1 for t in targets):
            return g
        g += 1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), extended to all integer pairs."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a | 2) by a mod 8
        tab = (0, 1, 0, -1, 0, -1, 0, 1)
        while n % 2 == 0:
            n //= 2
            result *= tab[a % 8]
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def int_kth_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) computed exactly for x >= 0, k >= 1."""
    if x < 0 or k < 1:
        raise ValueError(f"int_kth_root needs x >= 0, k >= 1, got {x}, {k}")
    if k == 1 or x < 2:
        return x
    r = int(round(x ** (1.0 / k)))
    while r > 0 and r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
