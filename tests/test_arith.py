import math

import pytest

from normvar.arith import (
    divisors,
    euler_phi,
    factorize,
    int_kth_root,
    is_squarefree,
    kronecker,
    multiplicative_order,
    primitive_root,
    valuation,
)
from naive_oracle import moebius


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(9973) == {9973: 1}
    assert factorize(2**6 * 3 * 49) == {2: 6, 3: 1, 7: 2}


def test_factorize_reconstructs():
    for n in range(1, 500):
        prod = 1
        for p, a in factorize(n).items():
            prod *= p**a
        assert prod == n


def test_euler_phi_matches_count():
    for n in range(1, 200):
        direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert euler_phi(n) == direct


def test_moebius_dirichlet_identity():
    # sum of mu(d) over divisors d of n is 1 only at n = 1
    for n in range(1, 200):
        total = sum(moebius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_is_squarefree():
    assert is_squarefree(-1) and is_squarefree(2) and is_squarefree(-15)
    assert not is_squarefree(0)
    assert not is_squarefree(4)
    assert not is_squarefree(-12)


def test_multiplicative_order_brute():
    for n in (2, 3, 8, 15, 36, 97):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            k, acc = 1, a % n
            while acc != 1:
                acc = acc * a % n
                k += 1
            assert multiplicative_order(a, n) == k
    assert multiplicative_order(5, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


def test_primitive_root_has_full_order():
    for q in (3, 5, 7, 9, 27, 25, 121, 343):
        g = primitive_root(q)
        assert multiplicative_order(g, q) == euler_phi(q)
        # smallest: nothing below g generates
        for h in range(2, g):
            if math.gcd(h, q) == 1:
                assert multiplicative_order(h, q) < euler_phi(q)
    with pytest.raises(ValueError):
        primitive_root(8)


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if any(t * t % p == a for t in range(1, p)) else -1


def test_kronecker_odd_primes_match_legendre():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 31):
            assert kronecker(a, p) == _legendre(a, p), (a, p)


def test_kronecker_multiplicative():
    # top multiplicativity (zero factors excluded at negative n, where the
    # (0 | -1) = 1 convention breaks the product rule)
    for a in range(-20, 21):
        for b in range(-10, 11):
            for n in range(-15, 16):
                if n < 0 and a * b == 0:
                    continue
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n), (a, b, n)
    for a in range(-20, 21):
        for n in range(1, 16):
            for m in range(1, 16):
                assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def test_kronecker_special_values():
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1 and kronecker(2, 0) == 0
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 3) == -1
    assert kronecker(5, 2) == -1
    assert kronecker(-3, 2) == -1
    assert kronecker(12, 2) == 0
    assert kronecker(17, 2) == 1


def test_int_kth_root_exact():
    for x in list(range(0, 200)) + [10**6, 10**12, 2**40]:
        for k in range(1, 7):
            r = int_kth_root(x, k)
            assert r**k <= x < (r + 1) ** k


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(5, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
