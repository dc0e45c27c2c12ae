import math
from functools import lru_cache

import numpy as np
import pytest

import normvar as nv
from normvar.arith import euler_phi
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
