"""Admissible norm-residue classes modulo q and their character annihilator.

For an abelian base field, the residues modulo q that occur as norms of
prime-ideal powers coprime to q form a subgroup of (Z/qZ)^*.  With m the
field's conductor, H its kernel in (Z/mZ)^* and g = gcd(m, q), that
subgroup is the set of units modulo q whose residue modulo g lies in the
image of H modulo g (`fields.kernel_image`).  Its conductor inside
Q(zeta_q) is the least d | g such that every unit a = 1 (mod d) lies in
that image.  `residue_masks` builds both masks without a gcd or a
remainder per residue: the units by striking out the multiples of each
prime factor of q (`characters.unit_mask`), the admissible classes by
repeating the image modulo g, which divides q, q / g times.  The
annihilator, the characters trivial on every admissible class, are the
characters whose phases (`characters.phase_columns`) vanish on a few
members that generate the group.

Next to the closed form there is an empirical construction, the
multiplicative closure of actually observed norm residues p^f mod q over
primes up to a bound; the two must agree once the bound is large enough,
and tests treat the empirical group as ground truth.  Both close groups
over Python ints in sets, with no numpy call per coset; the closure takes
every p^f mod q in one numpy pass and closes over the distinct values.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .arith import divisors, euler_phi
from .characters import phase_columns, unit_mask
from .fields import FieldSpec, _pow_mod, kernel_image, residue_degrees
from .sieve import primes_up_to


class NormClassGroup(NamedTuple):
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

    The units come from `characters.unit_mask`, with no gcd per residue.
    Because g = gcd(m, q) divides q, the admissible classes are the units
    where the image of the kernel modulo g, repeated q / g times, is set.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    coprime = unit_mask(q)
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
    units = np.flatnonzero(unit_mask(g))
    return next(d for d in divisors(g) if image[units[units % d == 1 % d]].all())


def _generators(q: int, members: list[int]) -> list[int]:
    """Members that generate the group they form, picked greedily in ascending order.

    A member joins when the closure of those before it misses it; the
    closure, a set, then grows by the cosets a^j * H of the subgroup H
    it held, until a^j falls in H.
    """
    closure = {1 % q}
    generators = []
    for a in members:
        if a in closure:
            continue
        generators.append(a)
        subgroup, power = list(closure), a
        while power not in closure:
            closure.update(h * power % q for h in subgroup)
            power = power * a % q
    return generators


@lru_cache(maxsize=1024)
def norm_class_group(field: FieldSpec, q: int) -> NormClassGroup:
    """Closed-form admissible class group with its character annihilator.

    The annihilator is read at generators of the members alone
    (`_generators`): a character trivial on them is trivial on the group
    they generate.  If the members were not a group, that group would be
    larger than `order`, and order * |annihilator| would miss phi(q).
    No unit group modulo q is built: the generators' discrete logs come
    from tables kept per prime power of q, combined by CRT.
    """
    member, _ = residue_masks(field, q)
    members = np.flatnonzero(member).tolist()
    phases = phase_columns(q, np.array(_generators(q, members), dtype=np.intp))
    return NormClassGroup(
        q=q,
        members=tuple(members),
        order=len(members),
        subfield_conductor=subfield_conductor(field, q),
        annihilator=tuple(np.flatnonzero(~phases.any(axis=1)).tolist()),
    )


@lru_cache(maxsize=8)
def _norm_generator_data(field: FieldSpec, prime_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Unramified primes p <= prime_bound and their residue degrees, read-only int64."""
    primes = primes_up_to(prime_bound)
    primes = primes[field.conductor % primes != 0]
    degrees = residue_degrees(field)[primes % field.conductor]
    primes.setflags(write=False)
    degrees.setflags(write=False)
    return primes, degrees


def norm_class_closure(field: FieldSpec, q: int, prime_bound: int = 10_000) -> tuple[int, ...]:
    """Empirical admissible classes: closure of observed norm residues.

    Multiplies out the subgroup generated by the distinct p^f mod q over
    the primes p <= prime_bound prime to the field conductor, taken in one
    int64 pass (`fields._pow_mod`, so q*q must stay below 2^63; the marks
    of the distinct residues take q bytes); the p dividing q, whose
    residues are the non-units, are skipped.  Converges to the closed form
    for a modest bound; if it still looks like a proper subset the bound
    was too small.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if q * q >= 1 << 63:
        raise ValueError(f"modulus must have q*q < 2^63, got {q}")
    if q == 1:
        return (0,)
    primes, degrees = _norm_generator_data(field, prime_bound)
    seen = np.zeros(q, dtype=bool)
    seen[_pow_mod(primes % q, degrees, q)] = True
    subgroup = {1}
    for gen in np.flatnonzero(seen).tolist():
        if gen in subgroup or math.gcd(gen, q) > 1:
            continue
        # abelian subgroup extension: adjoin the cosets of <gen>
        reps, cur = [], gen
        while cur not in subgroup:
            reps.append(cur)
            cur = cur * gen % q
        subgroup |= {s * r % q for s in subgroup for r in reps}
    return tuple(sorted(subgroup))


def class_table_rows(field: FieldSpec, moduli) -> Iterator[dict]:
    """Per-modulus rows of the gq report: q, phi, phi_K, aq_conductor, members.

    A generator, one q at a time (it returned a list before rows streamed).
    """
    for q in moduli:
        members = np.flatnonzero(residue_masks(field, q)[0]).tolist()
        conductor = subfield_conductor(field, q)
        yield dict(q=q, phi=euler_phi(q), phi_K=len(members), aq_conductor=conductor, members=members)
