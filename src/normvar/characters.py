"""The unit group (Z/qZ)^* and its Dirichlet characters.

By CRT the group is a product of cyclic factors, listed prime power by
prime power: an odd p^a gives one factor <g> of order phi(p^a), g a
primitive root, and 2^a gives <-1> of order 2 and <5> of order 2^(a-2),
of which 2 keeps neither and 4 keeps <-1> alone.  A character is stored
as its tuple of exponents against the factor generators, so its value
at n is the exact rational rotation

    sum_i exponents[i] * dlog_i(n) / order_i  (mod 1),

kept as an integer numerator over the group exponent (`_phase`) until
complex values are actually needed.  Numeric values have one route,
`phase_columns`: the integer numerators of those rotations for every
character modulo q at the given residues.
`phase_matrix` takes them at every residue, `character_matrix` maps
that to complex values, a character's `value_table` is its row there,
and `galois` reads the annihilator off the columns of a few generators
of the admissible classes.  The
conductor follows one rule: a factor of (Z/p^a)^* on which the character
has order r > 1 asks for p^(base + v_p(r)), where base is 2 for <5> and
1 for every other factor, and the conductor is the lcm of these prime
powers.  The primitive part is solved for from the phase numerators at
lifts of the smaller group's generators.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .arith import euler_phi, factorize, primitive_root, valuation

if TYPE_CHECKING:
    from fractions import Fraction


class _Component(NamedTuple):
    """One cyclic factor of (Z/p^a)^*, inside (Z/qZ)^*."""

    prime: int
    generator: int  # lifted modulo q: = local generator mod p^a, = 1 elsewhere
    order: int
    base: int  # 2 for <5> in (Z/2^a)^*, 1 otherwise: see `_ask`


def unit_mask(q: int) -> np.ndarray:
    """Boolean mask over 0..q-1 of the units modulo q, q >= 1.

    Every multiple of each prime factor of q is struck out, so no gcd is
    taken per residue.
    """
    mask = np.ones(q, dtype=bool)
    for p in factorize(q):
        mask[::p] = False
    return mask


def _geometric(g: int, n: int, pp: int) -> list[int]:
    """[1, g, ..., g^(n - 1)] modulo pp."""
    out = [1]
    for _ in range(n - 1):
        out.append(out[-1] * g % pp)
    return out


def _powers(g: int, order: int, pp: int) -> np.ndarray:
    """g^0, ..., g^(order - 1) modulo pp: giant steps g^(i*s) times baby steps g^j, s^2 >= order."""
    s = math.isqrt(order - 1) + 1
    # int64 products below pp^2: exact for pp < 3e9, far above any q whose residues fit in memory
    table = np.multiply.outer(_geometric(pow(g, s, pp), -(-order // s), pp), _geometric(g, s, pp))
    return (table % pp).ravel()[:order]


def _local_factors(p: int, a: int) -> list[tuple[int, int, int]]:
    """The cyclic factors (generator, order, base) of (Z/p^a)^*, a >= 1."""
    pp = p**a
    if p == 2:
        return [(pp - 1, 2, 1), (5, pp // 4, 2)][: a - 1]
    return [(primitive_root(pp), euler_phi(pp), 1)]


@lru_cache(maxsize=256)  # the checks read q <= 300: about 80 prime powers
def _local_logs(p: int, a: int) -> np.ndarray:
    """Discrete logs of every residue modulo p^a against `_local_factors(p, a)`; shape (p^a, factors), read-only.

    0 at non-units.  The unit g_1^e_1 * g_2^e_2 * ... sits at index
    (e_1, e_2, ...) of the outer product of the factors' powers.
    """
    pp, local = p**a, _local_factors(p, a)
    logs = np.zeros((pp, len(local)), dtype=np.int64)
    if local:  # (Z/2)^* is trivial
        powers = (_powers(g, order, pp) for g, order, _ in local)
        elems = reduce(lambda u, v: np.multiply.outer(u, v) % pp, powers)
        logs[elems.ravel()] = np.stack(np.unravel_index(np.arange(elems.size), elems.shape), axis=1)
    logs.setflags(write=False)
    return logs


def _residue_logs(q: int, residues: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """(orders, logs): the orders of the cyclic factors of (Z/qZ)^* and the discrete logs of `residues` against them.

    Each prime power p^a of q gives its factors' columns from its cached
    table (`_local_logs`) at residues mod p^a: by CRT those are the logs
    against the lifted generators.  One row per residue, 0 at non-units.
    """
    orders, columns = [], []
    for p, a in factorize(q).items():
        orders.extend(order for _, order, _ in _local_factors(p, a))
        columns.append(_local_logs(p, a)[residues % p**a])
    if not columns:
        return (), np.zeros((len(residues), 0), dtype=np.int64)
    return tuple(orders), np.concatenate(columns, axis=1)


class UnitGroup:
    """Cyclic decomposition of (Z/qZ)^*; discrete logs come from `_residue_logs`.

    Equal, hashed and printed by q, which determines everything else.
    """

    __slots__ = ("q", "components", "exponent", "coprime")

    def __init__(self, q: int):
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        self.q = q
        self.coprime = unit_mask(q)
        self.components = tuple(
            _Component(p, self._lift(g, p**a), order, base)
            for p, a in factorize(q).items()
            for g, order, base in _local_factors(p, a)
        )
        self.exponent = math.lcm(*(c.order for c in self.components))

    def __eq__(self, other) -> bool:
        return self.q == other.q if isinstance(other, UnitGroup) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.q)

    def __repr__(self) -> str:
        return f"UnitGroup({self.q})"

    def _lift(self, g: int, pp: int) -> int:
        """CRT lift: congruent to g mod pp and to 1 mod q/pp."""
        other = self.q // pp
        t = (g - 1) * pow(other, -1, pp) % pp
        return (1 + other * t) % self.q

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(c.order for c in self.components)

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(c.generator for c in self.components)

    def exponents_of(self, n: int) -> Optional[tuple[int, ...]]:
        """Discrete log vector of n against the generators, or None."""
        r = n % self.q
        if not self.coprime[r]:
            return None
        return tuple(_residue_logs(self.q, np.array([r]))[1][0].tolist())


@lru_cache(maxsize=1024)
def unit_group(q: int) -> UnitGroup:
    return UnitGroup(q)


class DirichletCharacter(NamedTuple):
    """A character modulo q given by exponents against the unit-group generators."""

    q: int
    exponents: tuple[int, ...]
    conductor: int
    primitive: bool
    group: UnitGroup

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def _phase(self, n: int) -> Optional[int]:
        """k with value exp(2 pi i k / group.exponent) at n, 0 <= k < group.exponent, or None when gcd(n, q) > 1."""
        exps = self.group.exponents_of(n)
        if exps is None:
            return None
        big = self.group.exponent
        return sum(e * a * (big // o) for e, a, o in zip(self.exponents, exps, self.group.orders)) % big

    def rotation(self, n: int) -> Optional[Fraction]:
        """Exact phase of the value at n as a Fraction in [0, 1), or None.

        None encodes value 0, i.e. gcd(n, q) > 1.  `fractions` is imported
        on the first call: no command reads a rotation.
        """
        from fractions import Fraction

        phase = self._phase(n)
        return None if phase is None else Fraction(phase, self.group.exponent)

    def value(self, n: int) -> complex:
        """Complex value at n; 0 when gcd(n, q) > 1."""
        phase = self._phase(n)
        if phase is None:
            return 0j
        theta = 2.0 * math.pi * (phase / self.group.exponent)
        return complex(math.cos(theta), math.sin(theta))

    def value_table(self) -> np.ndarray:
        """Read-only complex values at 0..q-1: this character's row of `character_matrix`."""
        return character_matrix(self.q)[np.ravel_multi_index(self.exponents, self.group.orders)]


@lru_cache(maxsize=64)
def _roots_of_unity(big: int) -> np.ndarray:
    w = np.exp(2j * np.pi * np.arange(big) / big)
    w.setflags(write=False)
    return w


def _ask(c: _Component, e: int) -> int:
    """The prime power that exponent e on the cyclic factor c asks of the conductor.

    A character of order r > 1 on c asks for p^(base + v_p(r)), order 1 for 1.
    """
    r = c.order // math.gcd(c.order, e)
    return c.prime ** (c.base + valuation(r, c.prime)) if r > 1 else 1


def _conductor(group: UnitGroup, exponents: tuple[int, ...]) -> int:
    """Smallest modulus inducing the character: the lcm of what its factors ask."""
    return math.lcm(*map(_ask, group.components, exponents))


def character(q: int, exponents: tuple[int, ...]) -> DirichletCharacter:
    """Build the character modulo q with the given exponent vector."""
    group = unit_group(q)
    if len(exponents) != len(group.components):
        raise ValueError(
            f"expected {len(group.components)} exponents for modulus {q}, got {len(exponents)}"
        )
    exps = tuple(e % c.order for e, c in zip(exponents, group.components))
    cond = _conductor(group, exps)
    return DirichletCharacter(q, exps, cond, cond == q, group)


def conductor_table(q: int) -> np.ndarray:
    """Conductor of every character modulo q, in enumerate_characters(q) order; not cached.

    The lcm of what each factor asks of the conductor, broadcast one
    factor at a time with its exponent varying fastest: the order of
    itertools.product.
    """
    table = np.ones(1, dtype=np.int64)
    for c in unit_group(q).components:
        asks = np.array([_ask(c, e) for e in range(c.order)], dtype=np.int64)
        table = np.lcm.outer(table, asks).ravel()
    return table


@lru_cache(maxsize=512)
def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters modulo q; index 0 is the trivial character."""
    group = unit_group(q)
    exponents = itertools.product(*(range(c.order) for c in group.components))
    return tuple(
        DirichletCharacter(q, exps, cond, cond == q, group)
        for exps, cond in zip(exponents, conductor_table(q).tolist())
    )


def phase_columns(q: int, residues: np.ndarray) -> np.ndarray:
    """Integer phases of every character modulo q at the given residues; shape (phi(q), len(residues)).

    Row i belongs to enumerate_characters(q)[i] and holds k with value
    exp(2 pi i k / exponent) at each unit; entries at non-units are
    meaningless.  The discrete logs come from the cached prime-power
    tables (`_residue_logs`), so no unit group modulo q is built.
    """
    orders, dlog = _residue_logs(q, residues)
    big = math.lcm(*orders)
    phases = np.zeros((1, len(dlog)), dtype=np.int64)
    # one factor at a time, its exponent varying fastest: the row order
    # of itertools.product in enumerate_characters
    for order, column in zip(orders, dlog.T):
        steps = np.arange(order, dtype=np.int64)[:, None] * (column * (big // order))
        phases = ((phases[:, None, :] + steps) % big).reshape(len(phases) * order, len(dlog))
    return phases


def phase_matrix(q: int) -> np.ndarray:
    """Integer phases of every character modulo q at every residue (`phase_columns`); not cached.

    Shape (phi(q), q).
    """
    return phase_columns(q, np.arange(q))


# a few entries: the checks read the matrices of small moduli again and
# again (every exchange character and its primitive part); orthogonality
# (q <= 120) and char-exchange (q <= 30) are the only readers
@lru_cache(maxsize=8)
def character_matrix(q: int) -> np.ndarray:
    """Row i = values of enumerate_characters(q)[i] at 0..q-1; shape (phi(q), q); read-only."""
    group = unit_group(q)
    mat = _roots_of_unity(group.exponent)[phase_matrix(q)]
    mat[:, ~group.coprime] = 0
    mat.setflags(write=False)
    return mat


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi; chi itself when already primitive.

    The exponents of the primitive part are recovered from chi's integer
    phases at lifts of the conductor-level generators chosen coprime to q,
    where the two characters agree.
    """
    if chi.primitive:
        return chi
    cond, big = chi.conductor, chi.group.exponent
    exps = []
    for comp in unit_group(cond).components:
        n = comp.generator
        while math.gcd(n, chi.q) != 1:
            n += cond
        # the value at n is exp(2 pi i phase / big) = exp(2 pi i e / order)
        e, rest = divmod(chi._phase(n) * comp.order, big)
        if rest:
            raise AssertionError(f"conductor computation inconsistent for {chi}")
        exps.append(e)
    reduced = character(cond, tuple(exps))
    if reduced.conductor != cond:
        raise AssertionError(f"primitive part of {chi} failed to be primitive")
    return reduced
