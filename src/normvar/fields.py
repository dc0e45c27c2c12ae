"""Abelian base fields and rational-prime splitting data.

Three field families are supported: the rationals, quadratic fields
Q(sqrt(d)) for squarefree d, and cyclotomic fields Q(zeta_m).  Each is
abelian, so it is the fixed field inside Q(zeta_m) of a subgroup H of
(Z/mZ)^*, where m is its conductor:

  * rationals: m = 1 and H = {0};
  * quad:d with discriminant D: m = |D| and H = {r : kronecker(D, r) = 1};
  * cyclo:m: H = {1}.

This module is the only one that knows the families; everything else
reads a field through its conductor, its degree and `kernel_image`.
For a prime p, let m' be m with its p-part removed and H' the image of
H modulo m'.  Then p splits into g primes of residue degree f = order
of p in (Z/m'Z)^*/H' and ramification index
e = degree / [(Z/m'Z)^* : H'], with e * f * g equal to the degree.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .arith import divisors, euler_phi, factorize, is_squarefree, valuation

RATIONAL = "rational"
QUADRATIC = "quadratic"
CYCLOTOMIC = "cyclotomic"

_FIELD_RE = re.compile(r"^(Q|quad:(-?\d+)|cyclo:(\d+))$")

# A field's setup grows with its conductor m before any event is made:
# `kernel_image` takes the Kronecker symbols of all m residues for quad
# (one vectorised pass, 0.5 s at m = 999,996 where a Python call per
# residue took 1.5 s) and `residue_degrees` holds arrays of size m, while
# the discriminant of cyclo:m, m^phi(m) over prime powers, grows
# quadratically.  `variance --x 1000 --Q 5` measured, from a small
# launcher process:
#   conductor ~1e4: 0.3-0.4 s, 33 MiB;  ~1e5: 0.5-0.7 s, 35 MiB;
#   ~1e6: 1.1 s and 79 MiB (quad:249999; 1.7-2.1 s with the per-residue
#   symbols), 7.5 s (cyclo, 5.9 s of it the discriminant), 80 MiB;
#   ~1e7: 32 s and 507 MiB (quad, per-residue symbols); cyclo did not
#   parse within 90 s.
# So fields up to 1e6 set up within 10 s and 100 MiB, and anything above
# is refused before computing; the cyclotomic discriminant, not quad,
# sets that ceiling.  A parsed field builds it only when it is read
# (`FieldSpec.discriminant`): cyclo:999983 runs `--format csv` in 1.1 s,
# while a JSON report reads it, 4.1 s to refuse one whose discriminant
# has too many digits to print.  _pow_mod needs m^2 < 2^63 (m < 3.04e9).
MAX_CONDUCTOR = 1_000_000


class FieldSpec(NamedTuple):
    """Immutable descriptor of one supported base field.

    Attributes:
        variant: one of "rational", "quadratic", "cyclotomic".
        parameter: squarefree d for quadratic, canonical m for cyclotomic,
            None for the rationals.
        degree: field degree over Q.
        conductor: smallest m with the field inside Q(zeta_m).

    The discriminant is not held: it is read from `discriminant`, which
    builds the cyclotomic one on first read, so parsing a field, hashing
    it and every cache keyed by it stay cheap for any conductor.
    """

    variant: str
    parameter: Optional[int]
    degree: int
    conductor: int

    @property
    def discriminant(self) -> int:
        """Field discriminant: 1 for Q, d or 4d (the sign of d times the conductor) for quad:d, and for cyclo:m `_cyclotomic_discriminant(m)`, built on first read and cached."""
        if self.variant == QUADRATIC:
            return self.conductor if self.parameter > 0 else -self.conductor
        if self.variant == CYCLOTOMIC:
            return _cyclotomic_discriminant(self.parameter)
        return 1

    def label(self) -> str:
        """Canonical parseable name: Q, quad:<d>, or cyclo:<m>."""
        if self.variant == RATIONAL:
            return "Q"
        if self.variant == QUADRATIC:
            return f"quad:{self.parameter}"
        return f"cyclo:{self.parameter}"

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "parameter": self.parameter,
            "degree": self.degree,
            "discriminant": self.discriminant,
            "conductor": self.conductor,
        }


class SplitData(NamedTuple):
    """Ramification index e, residue degree f, split count g for one prime."""

    e: int
    f: int
    g: int


def rational_field() -> FieldSpec:
    return FieldSpec(RATIONAL, None, 1, 1)


def quadratic_field(d: int) -> FieldSpec:
    """Q(sqrt(d)) for squarefree d not in {0, 1}."""
    if d in (0, 1):
        raise ValueError(f"quadratic parameter must not be 0 or 1, got {d}")
    disc = d if d % 4 == 1 else 4 * d
    if abs(disc) > MAX_CONDUCTOR:
        raise ValueError(
            f"conductor {abs(disc)} of quad:{d} exceeds the supported ceiling {MAX_CONDUCTOR}"
        )
    if not is_squarefree(d):
        raise ValueError(f"quadratic parameter must be squarefree, got {d}")
    return FieldSpec(QUADRATIC, d, 2, abs(disc))


def cyclotomic_field(m: int) -> FieldSpec:
    """Q(zeta_m) with m canonicalized: m = 2m' for odd m' names Q(zeta_m').

    Degenerate m in {1, 2} gives the rationals.
    """
    if m < 1:
        raise ValueError(f"cyclotomic parameter must be >= 1, got {m}")
    if m % 4 == 2:
        m //= 2
    if m <= 2:
        return rational_field()
    if m > MAX_CONDUCTOR:
        raise ValueError(
            f"conductor {m} of cyclo:{m} exceeds the supported ceiling {MAX_CONDUCTOR}"
        )
    return FieldSpec(CYCLOTOMIC, m, euler_phi(m), m)


@lru_cache(maxsize=16)
def _cyclotomic_discriminant(m: int) -> int:
    """Discriminant of Q(zeta_m) for canonical m > 2: a number of about phi(m) log2(m) bits."""
    deg = euler_phi(m)
    # |disc| = m^deg / prod_{p | m} p^(deg / (p-1)); sign is (-1)^(deg/2)
    disc = m**deg
    for p in factorize(m):
        disc //= p ** (deg // (p - 1))
    sign = -1 if (deg // 2) % 2 == 1 else 1
    return sign * disc


def parse_field(text: str) -> FieldSpec:
    """Parse a field name: `Q`, `quad:<d>`, or `cyclo:<m>`."""
    match = _FIELD_RE.match(text)
    if match is None:
        raise ValueError(f"malformed field name: {text!r}")
    if match.group(1) == "Q":
        return rational_field()
    if match.group(2) is not None:
        return quadratic_field(int(match.group(2)))
    return cyclotomic_field(int(match.group(3)))


@lru_cache(maxsize=1024)
def kernel_image(field: FieldSpec, g: int) -> np.ndarray:
    """Read-only mask over 0..g-1 of the image of H modulo g, for g | conductor.

    With g equal to the conductor this is H itself.
    """
    m = field.conductor
    if g != m:
        image = np.zeros(g, dtype=bool)
        image[np.flatnonzero(kernel_image(field, m)) % g] = True
    elif field.variant == QUADRATIC:
        image = _kronecker_row(field.discriminant, m) == 1
    else:  # the rationals (m = 1) and cyclo:m both have H = {1 mod m}
        image = np.arange(m) == 1 % m
    image.setflags(write=False)
    return image


def _kronecker_row(a: int, m: int) -> np.ndarray:
    """Kronecker symbols (a | r) for r = 0..m-1, equal to `arith.kronecker(a, r)` for each r.

    The binary Jacobi algorithm runs on 2^16 residues r at a time: the
    factors of 2 leave r first, then each round strips the factors of 2
    from the numerators, applies reciprocity and reduces, and sets the
    entries whose numerator reached 0.
    """
    out = np.zeros(m, dtype=np.int8)
    if m:
        out[0] = a in (1, -1)
    for lo in range(1, m, 1 << 16):
        where = np.arange(lo, min(lo + (1 << 16), m))
        n = where.copy()
        # (a | 2) by a mod 8, once per factor 2 of r
        twos = np.log2(n & -n).astype(np.int64)
        n >>= twos
        sign = np.power((0, 1, 0, -1, 0, -1, 0, 1)[a % 8], twos)
        num = a % n
        while n.size:
            done = num == 0
            out[where[done]] = np.where(n[done] == 1, sign[done], 0)
            live = ~done
            where, n, num, sign = where[live], n[live], num[live], sign[live]
            twos = np.log2(num & -num).astype(np.int64)
            num >>= twos
            # (2 | n) = -1 for n = 3, 5 (mod 8), and reciprocity flips when both are 3 (mod 4)
            sign[(twos & 1 == 1) & ((n & 7 == 3) | (n & 7 == 5))] *= -1
            num, n = n, num
            sign[(num & 3 == 3) & (n & 3 == 3)] *= -1
            num %= n
    return out


def _pow_mod(base: np.ndarray, e, m: int) -> np.ndarray:
    """Elementwise base**e mod m for residues below m; e >= 0 is a scalar or an array of base's shape.

    Square and multiply over the bits of e; exact while m*m fits in int64
    (m < 3.04e9).
    """
    e = np.asarray(e, dtype=np.int64)
    out = np.where(e & 1, base, 1 % m)
    while (e := e >> 1).any():
        base = base * base % m
        out = np.where(e & 1, out * base % m, out)
    return out


@lru_cache(maxsize=16)
def residue_degrees(field: FieldSpec) -> np.ndarray:
    """Residue degree f of every unramified prime, indexed by p mod conductor.

    f is the least divisor d of the degree with p^d in H; entries at
    residues that are not units stay 0.
    """
    m = field.conductor
    kernel = kernel_image(field, m)
    res = np.arange(m, dtype=np.int64)
    f = np.zeros(m, dtype=np.int64)
    for d in divisors(field.degree):
        f[(f == 0) & kernel[_pow_mod(res, d, m)]] = d
    f.setflags(write=False)
    return f


def split_type(field: FieldSpec, p: int) -> SplitData:
    """Splitting data (e, f, g) of the rational prime p in the field."""
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    m_prime = field.conductor // p ** valuation(field.conductor, p)
    image = kernel_image(field, m_prime)
    index = euler_phi(m_prime) // int(np.count_nonzero(image))
    e = field.degree // index
    f = next(d for d in divisors(index) if image[pow(p, d, m_prime)])
    return SplitData(e, f, field.degree // (e * f))
