"""Admissible norm-residue classes modulo q and their character annihilator.

For an abelian base field, the residues modulo q that occur as norms of
prime-ideal powers coprime to q form a subgroup of (Z/qZ)^*.  With m the
field's conductor, H its kernel in (Z/mZ)^* and g = gcd(m, q), that
subgroup is the set of units modulo q whose residue modulo g lies in the
image of H modulo g (`fields.kernel_image`).  Its conductor inside
Q(zeta_q) is the least d | g such that every unit a = 1 (mod d) lies in
that image.  `residue_masks` builds both masks without a gcd or a
remainder per residue: the units by striking out the multiples of each
prime factor of q, the admissible classes by repeating the image modulo
g, which divides q, q / g times.  The annihilator, the characters
trivial on every admissible class, are the rows of
`characters.phase_matrix` that vanish on every member.

Next to the closed form there is an empirical construction, the
multiplicative closure of actually observed norm residues p^f mod q over
primes up to a bound; the two must agree once the bound is large enough,
and tests treat the empirical group as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import divisors, euler_phi, factorize
from .characters import phase_matrix
from .fields import FieldSpec, kernel_image, residue_degrees
from .sieve import primes_up_to


@dataclass(frozen=True)
class NormClassGroup:
    """Subgroup of residues modulo q realized by prime-power norms.

    Attributes:
        q: the modulus.
        members: sorted admissible residues ({0} for q = 1).
        order: number of admissible classes.
        subfield_conductor: conductor of the field's trace inside the
            q-th cyclotomic layer (1 when the group is everything).
        annihilator: indices into enumerate_characters(q) of the
            characters trivial on every member.
    """

    q: int
    members: tuple[int, ...]
    order: int
    subfield_conductor: int
    annihilator: tuple[int, ...]


def residue_masks(field: FieldSpec, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over 0..q-1: (admissible classes, units).

    The units are 0..q-1 with every multiple of each prime factor of q
    struck out, so no gcd is taken per residue.  Because g = gcd(m, q)
    divides q, the admissible classes are the units where the image of
    the kernel modulo g, repeated q / g times, is set.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    coprime = np.ones(q, dtype=bool)
    for p in factorize(q):
        coprime[::p] = False
    g = math.gcd(field.conductor, q)
    if _image_conductor(field, g) == 1:
        return coprime, coprime
    return coprime & np.tile(kernel_image(field, g), q // g), coprime


def subfield_conductor(field: FieldSpec, q: int) -> int:
    """Conductor of the subfield the classes cut out inside Q(zeta_q)."""
    return _image_conductor(field, math.gcd(field.conductor, q))


@lru_cache(maxsize=1024)
def _image_conductor(field: FieldSpec, g: int) -> int:
    image = kernel_image(field, g)
    units = np.flatnonzero(np.gcd(np.arange(g), g) == 1)
    return next(d for d in divisors(g) if image[units[units % d == 1 % d]].all())


@lru_cache(maxsize=1024)
def norm_class_group(field: FieldSpec, q: int) -> NormClassGroup:
    """Closed-form admissible class group with its character annihilator."""
    member, _ = residue_masks(field, q)
    members = np.flatnonzero(member)
    perp = np.flatnonzero(~phase_matrix(q)[:, members].any(axis=1))
    return NormClassGroup(
        q=q,
        members=tuple(int(a) for a in members),
        order=int(members.size),
        subfield_conductor=subfield_conductor(field, q),
        annihilator=tuple(int(i) for i in perp),
    )


@lru_cache(maxsize=8)
def _norm_generator_data(field: FieldSpec, prime_bound: int) -> tuple[list[int], list[int]]:
    """Unramified primes p <= prime_bound and their residue degrees."""
    primes = primes_up_to(prime_bound)
    primes = primes[field.conductor % primes != 0]
    return primes.tolist(), residue_degrees(field)[primes % field.conductor].tolist()


def norm_class_closure(field: FieldSpec, q: int, prime_bound: int = 10_000) -> tuple[int, ...]:
    """Empirical admissible classes: closure of observed norm residues.

    Multiplies out the subgroup generated by p^f mod q over primes
    p <= prime_bound with p coprime to both q and the field conductor.
    Converges to the closed form for a modest bound; if it still looks
    like a proper subset the bound was too small.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if q == 1:
        return (0,)
    subgroup = {1}
    for p, f in zip(*_norm_generator_data(field, prime_bound)):
        if q % p == 0:
            continue
        gen = pow(p, f, q)
        if gen in subgroup:
            continue
        # abelian subgroup extension: adjoin the cosets of <gen>
        reps = []
        cur = gen
        while cur not in subgroup:
            reps.append(cur)
            cur = cur * gen % q
        subgroup |= {s * r % q for s in subgroup for r in reps}
    return tuple(sorted(subgroup))


def class_table_rows(field: FieldSpec, moduli) -> list[dict]:
    """Per-modulus admissible-class summary used by the gq report.

    Returns one dict per q with keys q, phi, phi_K, aq_conductor, members.
    """
    rows = []
    for q in moduli:
        member, _ = residue_masks(field, q)
        members = [int(a) for a in np.flatnonzero(member)]
        rows.append(
            {
                "q": q,
                "phi": euler_phi(q),
                "phi_K": len(members),
                "aq_conductor": subfield_conductor(field, q),
                "members": members,
            }
        )
    return rows
