"""Admissible norm-residue classes modulo q and their character annihilator.

For an abelian base field, the residues modulo q that occur as norms of
prime-ideal powers coprime to q form a subgroup of (Z/qZ)^*.  With m the
field's conductor, H its kernel in (Z/mZ)^* and g = gcd(m, q), that
subgroup is the set of units modulo q whose residue modulo g lies in the
image of H modulo g (`fields.kernel_image`).  Its conductor inside
Q(zeta_q) is the least d | g such that every unit a = 1 (mod d) lies in
that image.

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

from .arith import divisors, euler_phi
from .characters import DirichletCharacter, enumerate_characters, unit_group, _phase_coeffs
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
    """Boolean masks over 0..q-1: (admissible classes, units)."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    res = np.arange(q, dtype=np.int64)
    coprime = np.gcd(res, q) == 1
    g = math.gcd(field.conductor, q)
    if _image_conductor(field, g) == 1:
        return coprime, coprime
    return coprime & kernel_image(field, g)[res % g], coprime


def admissible_count(field: FieldSpec, q: int) -> int:
    """Number of admissible classes modulo q (called phi_K in reports)."""
    member, _ = residue_masks(field, q)
    return int(np.count_nonzero(member))


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
    chars = enumerate_characters(q)
    group = unit_group(q)
    if group.components:
        coeffs = np.stack([_phase_coeffs(group, c.exponents) for c in chars])
        nums = (group.dlog[members] @ coeffs.T) % group.exponent
        perp = np.flatnonzero(~nums.any(axis=0))
    else:
        perp = np.arange(len(chars))
    return NormClassGroup(
        q=q,
        members=tuple(int(a) for a in members),
        order=int(members.size),
        subfield_conductor=subfield_conductor(field, q),
        annihilator=tuple(int(i) for i in perp),
    )


def annihilator_indices(field: FieldSpec, q: int) -> tuple[int, ...]:
    """Indices of characters modulo q trivial on every admissible class."""
    return norm_class_group(field, q).annihilator


def annihilates(field: FieldSpec, chi: DirichletCharacter) -> bool:
    """True iff chi is trivial on every admissible class modulo chi.q."""
    rec = norm_class_group(field, chi.q)
    return all(chi.rotation(a) == 0 for a in rec.members)


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
