import math
from fractions import Fraction

import numpy as np
import pytest

import normvar as nv
from normvar.arith import divisors, euler_phi, moebius
from normvar.characters import conductor_table, unit_mask


def test_unit_group_structure():
    assert nv.unit_group(1).orders == ()
    assert nv.unit_group(2).orders == ()
    assert nv.unit_group(4).orders == (2,)
    assert nv.unit_group(4).generators == (3,)
    assert nv.unit_group(5).generators == (2,) and nv.unit_group(5).orders == (4,)
    assert nv.unit_group(8).orders == (2, 2)
    assert nv.unit_group(16).orders == (2, 4)
    assert nv.unit_group(16).generators == (15, 5)
    assert nv.unit_group(32).orders == (2, 8)
    assert nv.unit_group(12).generators == (7, 5)
    assert nv.unit_group(12).orders == (2, 2)


def test_unit_mask_matches_gcd():
    for q in list(range(1, 80)) + [210, 360, 1024, 30030]:
        assert unit_mask(q).tolist() == [math.gcd(a, q) == 1 for a in range(q)], q


def test_unit_group_generators_generate():
    for q in range(1, 80):
        g = nv.unit_group(q)
        units = {a for a in range(q) if math.gcd(a, q) == 1}
        generated = {1 % q}
        for gen, order in zip(g.generators, g.orders):
            generated = {s * pow(gen, e, q) % q for s in generated for e in range(order)}
        assert generated == units, q
        # orders multiply to phi(q)
        total = 1
        for o in g.orders:
            total *= o
        assert total == euler_phi(q)


def test_exponents_roundtrip():
    for q in (7, 11, 12, 16, 45, 64, 1009, 2 * 3**5):
        g = nv.unit_group(q)
        for a in range(q):
            exps = g.exponents_of(a)
            if math.gcd(a, q) != 1:
                assert exps is None
                continue
            assert all(0 <= e < o for e, o in zip(exps, g.orders)), (q, a)
            rebuilt = 1
            for gen, e in zip(g.generators, exps):
                rebuilt = rebuilt * pow(gen, e, q) % q
            assert rebuilt == a % q


def test_enumerate_characters_count_and_trivial_first():
    for q in range(1, 60):
        chars = nv.enumerate_characters(q)
        assert len(chars) == euler_phi(q)
        assert chars[0].is_trivial()
        assert chars[0].conductor == 1


def test_character_values_multiplicative():
    for q in (5, 8, 12, 16, 21, 36):
        for chi in nv.enumerate_characters(q):
            for m in range(q):
                for n in range(q):
                    rm, rn, rmn = chi.rotation(m), chi.rotation(n), chi.rotation(m * n)
                    if rm is None or rn is None:
                        assert rmn is None
                    else:
                        assert rmn == (rm + rn) % 1


def test_character_value_is_zero_off_units():
    chi = nv.enumerate_characters(12)[1]
    for n in (0, 2, 3, 4, 6, 8, 9, 10):
        assert chi.value(n) == 0j
        assert chi.rotation(n) is None


def test_value_table_matches_pointwise_values():
    for q in (1, 2, 9, 16, 30):
        for chi in nv.enumerate_characters(q):
            table = chi.value_table()
            for n in range(q):
                assert table[n] == pytest.approx(chi.value(n), abs=1e-14)


def test_character_matrix_rows_align():
    for q in (6, 8, 15):
        mat = nv.character_matrix(q)
        chars = nv.enumerate_characters(q)
        assert mat.shape == (len(chars), q)
        for i, chi in enumerate(chars):
            assert np.array_equal(mat[i], chi.value_table())


def test_row_orthogonality():
    # sum over residues of chi(a) conj(psi(a)) is phi(q) [chi == psi]
    for q in (5, 12, 16):
        mat = nv.character_matrix(q)
        gram = mat @ mat.conj().T
        assert np.allclose(gram, euler_phi(q) * np.eye(mat.shape[0]), atol=1e-10)


def _brute_conductor(chi) -> int:
    # smallest divisor d of q such that chi is constant on units with
    # equal residue mod d
    q = chi.q
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    rot = {a: chi.rotation(a) for a in units}
    for d in divisors(q):
        if all(rot[a] == rot[b] for a in units for b in units if (a - b) % d == 0):
            return d
    return q


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 32, 36, 40, 45, 48, 64, 96, 120])
def test_conductor_matches_brute_force(q):
    for chi in nv.enumerate_characters(q):
        assert chi.conductor == _brute_conductor(chi), (q, chi.exponents)


def test_conductor_examples():
    assert sorted(c.conductor for c in nv.enumerate_characters(8)) == [1, 4, 8, 8]
    assert [c.conductor for c in nv.enumerate_characters(5)] == [1, 5, 5, 5]
    # the mod-12 character fixing {1, 7} and negating {5, 11} drops to mod 3
    for chi in nv.enumerate_characters(12):
        if chi.rotation(7) == 0 and chi.rotation(5) == Fraction(1, 2):
            if chi.rotation(11) == Fraction(1, 2) and not chi.is_trivial():
                assert chi.conductor == 3
                break
    else:
        raise AssertionError("expected mod-12 character not found")


def test_primitive_counts_by_moebius():
    for q in range(1, 301):
        count = sum(1 for c in nv.enumerate_characters(q) if c.primitive)
        expected = sum(moebius(q // d) * euler_phi(d) for d in divisors(q))
        assert count == expected, q


def test_conductor_table_matches_enumerated_and_built_characters():
    # enumerate_characters reads each character's conductor and primitivity off it
    for q in range(1, 301):
        chars = nv.enumerate_characters(q)
        table = conductor_table(q)
        assert table.shape == (len(chars),)
        assert ((table == q).tolist()) == [c.primitive for c in chars], q
        # `character` takes the lcm per character, not broadcast per factor
        assert table.tolist() == [nv.character(q, c.exponents).conductor for c in chars], q


def test_primitive_part_agrees_on_coprime_residues():
    for q in (4, 8, 9, 12, 18, 24, 36, 45, 60):
        for chi in nv.enumerate_characters(q):
            star = nv.primitive_part(chi)
            assert star.primitive
            assert star.q == chi.conductor
            for n in range(1, 3 * q):
                if math.gcd(n, q) == 1:
                    assert chi.rotation(n) == star.rotation(n), (q, chi.exponents, n)


def test_primitive_part_is_fixed_point():
    for q in (1, 5, 7, 16):
        for chi in nv.enumerate_characters(q):
            if chi.primitive:
                assert nv.primitive_part(chi) is chi


def test_trivial_character_drops_to_modulus_one():
    chi0 = nv.enumerate_characters(12)[0]
    star = nv.primitive_part(chi0)
    assert star.q == 1 and star.conductor == 1 and star.primitive


def test_character_factory_validates():
    with pytest.raises(ValueError):
        nv.character(12, (1,))
    chi = nv.character(12, (1, 3))
    assert chi.exponents == (1, 1)


def _primitive_part_by_fractions(chi):
    """The primitive part as solved before the integer phases: Fraction rotations at lifted generators."""
    if chi.primitive:
        return chi
    cond = chi.conductor
    exps = []
    for comp in nv.unit_group(cond).components:
        n = comp.generator
        while math.gcd(n, chi.q) != 1:
            n += cond
        scaled = chi.rotation(n) * comp.order
        assert scaled.denominator == 1
        exps.append(int(scaled) % comp.order)
    return nv.character(cond, tuple(exps))


def test_primitive_part_matches_the_fraction_solve():
    for q in range(1, 61):
        for chi in nv.enumerate_characters(q):
            assert nv.primitive_part(chi) == _primitive_part_by_fractions(chi), (q, chi.exponents)


def test_characters_of_separate_unit_groups_are_equal_values():
    group_a, group_b = nv.UnitGroup(24), nv.UnitGroup(24)
    assert group_a is not group_b
    assert group_a == group_b and hash(group_a) == hash(group_b) and repr(group_a) == repr(group_b)
    assert group_a != nv.UnitGroup(12)
    for chi in nv.enumerate_characters(24):
        twin = nv.DirichletCharacter(chi.q, chi.exponents, chi.conductor, chi.primitive, nv.UnitGroup(24))
        assert twin.group is not chi.group
        assert twin == chi and hash(twin) == hash(chi) and repr(twin) == repr(chi)


def test_value_and_rotation_agree():
    # `value` reads the integer phase, `rotation` the same phase as a Fraction
    for q in (5, 12, 16, 45):
        for chi in nv.enumerate_characters(q):
            for n in range(q):
                rot = chi.rotation(n)
                expected = 0j if rot is None else complex(math.cos(2 * math.pi * rot), math.sin(2 * math.pi * rot))
                assert chi.value(n) == expected, (q, chi.exponents, n)
