import math
from functools import lru_cache

import numpy as np
import pytest

import normvar as nv
from normvar import galois
from normvar.arith import euler_phi
from normvar.characters import phase_matrix
from normvar.fields import kernel_image
from naive_oracle import naive_closure


def test_known_class_groups():
    K = nv.parse_field("quad:-1")
    rec = nv.norm_class_group(K, 12)
    assert rec.members == (1, 5)
    assert rec.order == 2
    assert rec.subfield_conductor == 4
    assert nv.norm_class_group(nv.parse_field("cyclo:5"), 10).members == (1,)
    assert nv.norm_class_group(nv.parse_field("quad:5"), 7).members == (1, 2, 3, 4, 5, 6)


def test_degenerate_moduli(field):
    assert nv.norm_class_group(field, 1).members == (0,)
    assert nv.norm_class_group(field, 1).order == 1
    assert nv.norm_class_group(field, 2).members == (1,)
    assert nv.norm_class_group(field, 2).subfield_conductor == 1


def test_members_form_a_group(field):
    for q in range(1, 60):
        members = nv.norm_class_group(field, q).members
        ms = set(members)
        assert 1 % q in ms
        for a in members:
            for b in members:
                assert a * b % q in ms, (field.label(), q, a, b)


def test_closed_form_matches_package_closure(field):
    for q in range(1, 101):
        closed = nv.norm_class_group(field, q).members
        empirical = nv.norm_class_closure(field, q, 10_000)
        assert closed == empirical, (field.label(), q)


def test_closed_form_matches_naive_closure(oracle_field):
    field = oracle_field
    for q in range(1, 40):
        closed = nv.norm_class_group(field, q).members
        ref = naive_closure(field.variant, field.parameter, q, 3000)
        assert list(closed) == ref, (field.label(), q)


@pytest.mark.parametrize("bound", [2, 3, 30, 100, 3000])
def test_closure_matches_naive_closure_at_starved_bounds(oracle_field, bound):
    # at B = 2 the one prime 2 divides every even q or is ramified, so an
    # even q has no generator and its closure is {1}
    field = oracle_field
    for q in range(1, 61):
        ref = naive_closure(field.variant, field.parameter, q, bound)
        assert list(nv.norm_class_closure(field, q, bound)) == ref, (field.label(), q)
    assert nv.norm_class_closure(field, 1, bound) == (0,)
    if bound == 2:
        assert all(nv.norm_class_closure(field, q, 2) == (1,) for q in range(2, 61, 2))


def test_closure_powers_run_past_degree_two():
    # cyclo:7 has residue degrees up to 6, whose three bits the square and multiply reads
    _, degrees = galois._norm_generator_data(nv.parse_field("cyclo:7"), 3000)
    assert degrees.max() == 6 and degrees.dtype == np.int64
    assert not degrees.flags.writeable


def test_closure_refuses_a_modulus_whose_square_overflows_int64():
    K = nv.parse_field("quad:-1")
    with pytest.raises(ValueError, match="q\\*q < 2\\^63"):
        nv.norm_class_closure(K, 3_037_000_500)


def test_closure_with_tiny_bound_is_proper_subset():
    K = nv.parse_field("quad:-1")
    small = set(nv.norm_class_closure(K, 8, 2))
    assert small < set(nv.norm_class_group(K, 8).members)


def test_index_identity(field):
    # class count times annihilator size recovers phi(q) exactly
    for q in range(1, 121):
        rec = nv.norm_class_group(field, q)
        assert rec.order * len(rec.annihilator) == euler_phi(q), (field.label(), q)


def test_annihilator_is_exactly_the_trivial_on_members_set(field):
    for q in (1, 2, 8, 12, 15, 24, 40):
        rec = nv.norm_class_group(field, q)
        chars = nv.enumerate_characters(q)
        for i, chi in enumerate(chars):
            trivial_on_members = all(chi.rotation(a) == 0 for a in rec.members)
            assert (i in rec.annihilator) == trivial_on_members


@pytest.mark.parametrize(
    "label", ["Q", "quad:-1", "quad:5", "quad:-3", "cyclo:5", "cyclo:7", "cyclo:12", "cyclo:16"]
)
def test_annihilator_from_generators_matches_full_phase_matrix(label):
    # the oracle reads every character's phase at every member
    field = nv.parse_field(label)
    for q in range(1, 301):
        rec = nv.norm_class_group(field, q)
        members = np.array(rec.members)
        full = np.flatnonzero(~phase_matrix(q)[:, members].any(axis=1))
        assert rec.annihilator == tuple(full.tolist()), q


def test_admissible_count_agrees_with_record(field):
    for q in range(1, 80):
        member, _ = nv.residue_masks(field, q)
        assert np.count_nonzero(member) == nv.norm_class_group(field, q).order


@lru_cache(maxsize=None)
def _units(q: int) -> np.ndarray:
    return np.array([math.gcd(a, q) == 1 for a in range(q)])


def test_residue_masks_are_consistent(oracle_field):
    # q = 1, prime powers and multiples of every conductor up to 20, where
    # the repeated image mod gcd(m, q) must line up with the residues
    field = oracle_field
    for q in range(1, 1501):
        member, coprime = nv.residue_masks(field, q)
        assert member.shape == (q,) and coprime.shape == (q,)
        units = _units(q)
        assert np.array_equal(coprime, units), (field.label(), q)
        g = math.gcd(field.conductor, q)
        image = kernel_image(field, g)[np.arange(q) % g]
        assert np.array_equal(member, units & image), (field.label(), q)


def test_subfield_conductor_examples():
    K = nv.parse_field("quad:-1")
    assert nv.subfield_conductor(K, 12) == 4
    assert nv.subfield_conductor(K, 6) == 1  # 4 does not divide 6
    assert nv.subfield_conductor(nv.rational_field(), 30) == 1
    C5 = nv.parse_field("cyclo:5")
    assert nv.subfield_conductor(C5, 10) == 5
    assert nv.subfield_conductor(C5, 7) == 1
    C12 = nv.parse_field("cyclo:12")
    # gcd(12, 30) = 6 = 2 mod 4 canonicalizes to 3
    assert nv.subfield_conductor(C12, 30) == 3


def test_quadratic_below_conductor_sees_everything():
    # until q is a multiple of the conductor, norms cover all units
    K = nv.parse_field("quad:-5")  # conductor 20
    for q in (3, 7, 9, 11, 13):
        rec = nv.norm_class_group(K, q)
        assert rec.order == euler_phi(q)
        assert rec.subfield_conductor == 1


def test_cyclotomic_canonical_gcd_matches_closure():
    # gcd(m, q) = 2 mod 4 must be halved, else the closed form overshoots
    C12 = nv.parse_field("cyclo:12")
    for q in (6, 18, 30):
        closed = nv.norm_class_group(C12, q).members
        assert closed == nv.norm_class_closure(C12, q, 10_000), q
