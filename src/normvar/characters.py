"""The unit group (Z/qZ)^* and its Dirichlet characters.

The group is decomposed into cyclic components by CRT: one cyclic factor
per odd prime power in q, and for the 2-part either nothing (2), one
factor of order 2 generated by 3 (4), or the pair <-1> x <5> (2^a, a >= 3).
A character is stored as its tuple of exponents against the component
generators, so its value at n is the exact rational rotation

    sum_i exponents[i] * dlog_i(n) / order_i  (mod 1),

kept as a Fraction until complex values are actually needed.  Numeric
values have one route, `phase_matrix`: the integer numerators of those
rotations for every character modulo q at every residue.
`character_matrix` maps it to complex values, a character's `value_table`
is its row there, and `galois` reads the annihilator off it.  Conductors
come from a per-component closed form, and the primitive part is solved
for by evaluating rotations at lifts of the smaller group's generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .arith import euler_phi, factorize, primitive_root, valuation

_ODD = "odd"
_FOUR = "four"
_SIGN = "sign"  # <-1> factor of (Z/2^a)^*, a >= 3
_POW = "pow"  # <5> factor of (Z/2^a)^*, a >= 3


@dataclass(frozen=True)
class _Component:
    kind: str
    prime: int
    prime_power: int
    generator: int  # lifted modulo q: = local generator mod p^a, = 1 elsewhere
    order: int


class UnitGroup:
    """Cyclic decomposition of (Z/qZ)^* with per-residue discrete logs."""

    __slots__ = ("q", "components", "exponent", "dlog", "coprime")

    def __init__(self, q: int):
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        self.q = q
        res = np.arange(q, dtype=np.int64)
        self.coprime = np.gcd(res, q) == 1
        comps: list[_Component] = []
        cols: list[np.ndarray] = []
        for p, a in factorize(q).items():
            pp = p**a
            if p == 2:
                if a == 1:
                    continue
                if a == 2:
                    comps.append(_Component(_FOUR, 2, 4, self._lift(3, pp), 2))
                    cols.append(self._dlog_cyclic(3, 2, pp, res))
                    continue
                sign_col, pow_col = self._dlog_two_part(pp, res)
                comps.append(_Component(_SIGN, 2, pp, self._lift(pp - 1, pp), 2))
                # order of 5 modulo 2^a is 2^(a-2)
                comps.append(_Component(_POW, 2, pp, self._lift(5, pp), pp // 4))
                cols.append(sign_col)
                cols.append(pow_col)
            else:
                g = primitive_root(pp)
                comps.append(_Component(_ODD, p, pp, self._lift(g, pp), euler_phi(pp)))
                cols.append(self._dlog_cyclic(g, euler_phi(pp), pp, res))
        self.components = tuple(comps)
        self.exponent = math.lcm(*(c.order for c in comps)) if comps else 1
        dlog = np.stack(cols, axis=1) if cols else np.zeros((q, 0), dtype=np.int64)
        dlog.setflags(write=False)
        self.dlog = dlog

    def _lift(self, g: int, pp: int) -> int:
        """CRT lift: congruent to g mod pp and to 1 mod q/pp."""
        other = self.q // pp
        t = (g - 1) * pow(other, -1, pp) % pp
        return (1 + other * t) % self.q

    @staticmethod
    def _dlog_cyclic(g: int, order: int, pp: int, res: np.ndarray) -> np.ndarray:
        local = np.zeros(pp, dtype=np.int64)
        v = 1
        for t in range(order):
            local[v] = t
            v = v * g % pp
        return local[res % pp]

    @staticmethod
    def _dlog_two_part(pp: int, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sign_local = np.zeros(pp, dtype=np.int64)
        pow_local = np.zeros(pp, dtype=np.int64)
        v = 1
        for t in range(pp // 4):
            sign_local[v] = 0
            pow_local[v] = t
            sign_local[pp - v] = 1
            pow_local[pp - v] = t
            v = v * 5 % pp
        return sign_local[res % pp], pow_local[res % pp]

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
        return tuple(int(v) for v in self.dlog[r])


@lru_cache(maxsize=1024)
def unit_group(q: int) -> UnitGroup:
    return UnitGroup(q)


@dataclass(frozen=True)
class DirichletCharacter:
    """A character modulo q given by exponents against the unit-group generators."""

    q: int
    exponents: tuple[int, ...]
    conductor: int
    primitive: bool
    group: UnitGroup = dc_field(compare=False, repr=False)

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def rotation(self, n: int) -> Optional[Fraction]:
        """Exact phase of the value at n as a Fraction in [0, 1), or None.

        None encodes value 0, i.e. gcd(n, q) > 1.
        """
        exps = self.group.exponents_of(n)
        if exps is None:
            return None
        big = self.group.exponent
        num = sum(
            e * a * (big // o) for e, a, o in zip(self.exponents, exps, self.group.orders)
        )
        return Fraction(num % big, big)

    def value(self, n: int) -> complex:
        """Complex value at n; 0 when gcd(n, q) > 1."""
        rot = self.rotation(n)
        if rot is None:
            return 0j
        theta = 2.0 * math.pi * (rot.numerator / rot.denominator)
        return complex(math.cos(theta), math.sin(theta))

    def value_table(self) -> np.ndarray:
        """Read-only complex values at 0..q-1: this character's row of `character_matrix`."""
        return character_matrix(self.q)[np.ravel_multi_index(self.exponents, self.group.orders)]


@lru_cache(maxsize=64)
def _roots_of_unity(big: int) -> np.ndarray:
    w = np.exp(2j * np.pi * np.arange(big) / big)
    w.setflags(write=False)
    return w


def _conductor(group: UnitGroup, exponents: tuple[int, ...]) -> int:
    """Smallest modulus inducing the character with these exponents."""
    cond = 1
    comps = group.components
    i = 0
    while i < len(comps):
        c = comps[i]
        if c.kind == _ODD:
            e = exponents[i] % c.order
            r = c.order // math.gcd(c.order, e)
            if r > 1:
                cond *= c.prime ** (1 + valuation(r, c.prime))
            i += 1
        elif c.kind == _FOUR:
            if exponents[i] % 2:
                cond *= 4
            i += 1
        else:  # sign and pow components of one 2-power, adjacent
            e0 = exponents[i] % 2
            c1 = comps[i + 1]
            e1 = exponents[i + 1] % c1.order
            if e1 == 0:
                cond *= 4 if e0 else 1
            else:
                cond *= 4 * (c1.order // math.gcd(c1.order, e1))
            i += 2
    return cond


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


@lru_cache(maxsize=512)
def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters modulo q; index 0 is the trivial character."""
    group = unit_group(q)
    out = []
    for exps in itertools.product(*(range(c.order) for c in group.components)):
        cond = _conductor(group, exps)
        out.append(DirichletCharacter(q, exps, cond, cond == q, group))
    return tuple(out)


def phase_matrix(q: int) -> np.ndarray:
    """Integer phases of every character modulo q at every residue; not cached.

    Row i belongs to enumerate_characters(q)[i] and holds k with value
    exp(2 pi i k / exponent) at each unit; entries at non-units are
    meaningless.  Shape (phi(q), q).
    """
    group = unit_group(q)
    big = group.exponent
    phases = np.zeros((1, q), dtype=np.int64)
    # one component at a time, its exponent varying fastest: the row order
    # of itertools.product in enumerate_characters
    for comp, dlog in zip(group.components, group.dlog.T):
        steps = np.arange(comp.order, dtype=np.int64)[:, None] * (dlog * (big // comp.order))
        phases = ((phases[:, None, :] + steps) % big).reshape(-1, q)
    return phases


@lru_cache(maxsize=128)
def character_matrix(q: int) -> np.ndarray:
    """Row i = values of enumerate_characters(q)[i] at 0..q-1; shape (phi(q), q)."""
    group = unit_group(q)
    mat = _roots_of_unity(group.exponent)[phase_matrix(q)]
    mat[:, ~group.coprime] = 0
    mat.setflags(write=False)
    return mat


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi; chi itself when already primitive.

    The exponents of the primitive part are recovered by evaluating chi at
    lifts of the conductor-level generators chosen coprime to q, where the
    two characters agree.
    """
    if chi.primitive:
        return chi
    cond = chi.conductor
    small = unit_group(cond)
    exps = []
    for comp in small.components:
        n = comp.generator
        while math.gcd(n, chi.q) != 1:
            n += cond
        rot = chi.rotation(n)
        scaled = rot * comp.order
        if scaled.denominator != 1:
            raise AssertionError(f"conductor computation inconsistent for {chi}")
        exps.append(int(scaled) % comp.order)
    reduced = character(cond, tuple(exps))
    if reduced.conductor != cond:
        raise AssertionError(f"primitive part of {chi} failed to be primitive")
    return reduced
