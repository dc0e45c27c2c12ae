import math

import numpy as np
import pytest

import normvar as nv
from normvar import fields
from normvar.arith import kronecker
from normvar.fields import _pow_mod, kernel_image
from conftest import ORACLE_LABELS
from naive_oracle import naive_primes, naive_split


def test_parse_rational():
    K = nv.parse_field("Q")
    assert (K.variant, K.parameter, K.degree, K.discriminant, K.conductor) == (
        "rational",
        None,
        1,
        1,
        1,
    )
    assert K.label() == "Q"


@pytest.mark.parametrize(
    "label, disc, conductor",
    [
        ("quad:-1", -4, 4),
        ("quad:5", 5, 5),
        ("quad:-3", -3, 3),
        ("quad:2", 8, 8),
        ("quad:-5", -20, 20),
        ("quad:13", 13, 13),
    ],
)
def test_parse_quadratic(label, disc, conductor):
    K = nv.parse_field(label)
    assert K.degree == 2
    assert K.discriminant == disc
    assert K.conductor == conductor
    assert K.label() == label


@pytest.mark.parametrize(
    "label, m, degree, disc",
    [
        ("cyclo:3", 3, 2, -3),
        ("cyclo:4", 4, 2, -4),
        ("cyclo:5", 5, 4, 125),
        ("cyclo:7", 7, 6, -16807),
        ("cyclo:8", 8, 4, 256),
        ("cyclo:9", 9, 6, -19683),
        ("cyclo:12", 12, 4, 144),
    ],
)
def test_parse_cyclotomic(label, m, degree, disc):
    K = nv.parse_field(label)
    assert K.parameter == m and K.conductor == m
    assert K.degree == degree
    assert K.discriminant == disc


def test_cyclotomic_canonicalization():
    # m = 2 mod 4 names the same field as m/2; m <= 2 degenerates to Q
    assert nv.parse_field("cyclo:10") == nv.parse_field("cyclo:5")
    assert nv.parse_field("cyclo:6") == nv.parse_field("cyclo:3")
    assert nv.parse_field("cyclo:1") == nv.parse_field("Q")
    assert nv.parse_field("cyclo:2") == nv.parse_field("Q")


@pytest.mark.parametrize(
    "bad",
    ["", "q", " Q", "Q ", "quad:", "quad:0", "quad:1", "quad:4", "quad:-12", "quad:x",
     "cyclo:", "cyclo:0", "cyclo:-3", "cubic:2", "quad:5 "],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        nv.parse_field(bad)


def test_conductor_ceiling_applies_to_the_conductor():
    # 249999 and 250003 are squarefree and 3 mod 4: conductors 999996 and 1000012
    assert nv.parse_field("quad:249999").conductor == 999_996
    with pytest.raises(ValueError, match="conductor 1000012 of quad:250003"):
        nv.parse_field("quad:250003")
    # cyclo:2m names cyclo:m for odd m, so its conductor is m
    for label in ("cyclo:1000001", "cyclo:2000002", "cyclo:1000004"):
        with pytest.raises(ValueError, match="ceiling"):
            nv.parse_field(label)


def _kernel_by_definition(field):
    m = field.conductor
    if field.variant == "quadratic":
        return [kronecker(field.discriminant, r) == 1 for r in range(m)]
    return [r == 1 % m for r in range(m)]


def test_kernel_image_follows_the_definition(oracle_field):
    image = kernel_image(oracle_field, oracle_field.conductor)
    assert image.tolist() == _kernel_by_definition(oracle_field)


def test_kernel_image_at_the_conductor_ceiling():
    field = nv.parse_field("quad:249999")
    assert kernel_image(field, field.conductor).tolist() == _kernel_by_definition(field)


def test_parse_error_is_informative():
    # Syntactic garbage names the offending token, semantic misuse the reason.
    with pytest.raises(ValueError, match="bogus"):
        nv.parse_field("bogus")
    with pytest.raises(ValueError, match="squarefree"):
        nv.parse_field("quad:4")


@pytest.mark.parametrize(
    "label, p, efg",
    [
        ("Q", 7, (1, 1, 1)),
        ("quad:-1", 2, (2, 1, 1)),
        ("quad:-1", 5, (1, 1, 2)),
        ("quad:-1", 3, (1, 2, 1)),
        ("quad:5", 5, (2, 1, 1)),
        ("quad:5", 11, (1, 1, 2)),
        ("quad:5", 2, (1, 2, 1)),
        ("cyclo:5", 5, (4, 1, 1)),
        ("cyclo:5", 11, (1, 1, 4)),
        ("cyclo:5", 2, (1, 4, 1)),
        ("cyclo:5", 7, (1, 4, 1)),
        ("cyclo:5", 19, (1, 2, 2)),
        ("cyclo:12", 2, (2, 2, 1)),
        ("cyclo:12", 13, (1, 1, 4)),
    ],
)
def test_split_examples(label, p, efg):
    s = nv.split_type(nv.parse_field(label), p)
    assert (s.e, s.f, s.g) == efg


def test_split_matches_naive_oracle(oracle_field):
    field = oracle_field
    for p in naive_primes(200):
        s = nv.split_type(field, p)
        assert (s.e, s.f, s.g) == naive_split(field.variant, field.parameter, p), (
            field.label(),
            p,
        )


def test_split_efg_product_is_degree(field):
    for p in naive_primes(100):
        s = nv.split_type(field, p)
        assert s.e * s.f * s.g == field.degree


def test_quadratic_cyclotomic_coincidences():
    # Q(zeta_3) = Q(sqrt(-3)) and Q(zeta_4) = Q(sqrt(-1)): splitting agrees
    for cyc, quad in (("cyclo:3", "quad:-3"), ("cyclo:4", "quad:-1")):
        Kc, Kq = nv.parse_field(cyc), nv.parse_field(quad)
        for p in naive_primes(300):
            sc, sq = nv.split_type(Kc, p), nv.split_type(Kq, p)
            assert (sc.e, sc.f, sc.g) == (sq.e, sq.f, sq.g), (cyc, p)


@pytest.mark.parametrize("labels", [("cyclo:4", "quad:-1"), ("cyclo:3", "cyclo:6", "quad:-3")])
def test_isomorphic_fields_give_identical_outputs(labels):
    # one field under several names: events, class groups and V agree bit for bit
    first, *others = (nv.parse_field(label) for label in labels)
    events = nv.event_columns(first, 10_000)
    V = nv.variance(first, 10_000, 100).total
    for other in others:
        theirs = nv.event_columns(other, 10_000)
        for col in events._fields:
            assert getattr(theirs, col).tobytes() == getattr(events, col).tobytes(), (other, col)
        for q in range(1, 301):
            assert nv.norm_class_group(other, q).members == nv.norm_class_group(first, q).members
        assert nv.variance(other, 10_000, 100).total == V


def test_fieldspec_is_hashable_value_type():
    assert nv.parse_field("quad:5") == nv.quadratic_field(5)
    assert len({nv.parse_field("Q"), nv.rational_field()}) == 1


def test_pow_mod_takes_scalar_and_array_exponents():
    m = 3_000_000_019
    base = np.array([0, 1, 2, 12345, m - 1], dtype=np.int64)
    exps = np.array([0, 7, 62, 6, 5], dtype=np.int64)
    assert _pow_mod(base, exps, m).tolist() == [pow(b, e, m) for b, e in zip(base.tolist(), exps.tolist())]
    assert _pow_mod(base, 6, m).tolist() == [pow(b, 6, m) for b in base.tolist()]
    assert _pow_mod(np.zeros(5, dtype=np.int64), 0, 1).tolist() == [0] * 5


def test_cyclotomic_discriminant_is_built_on_first_read(monkeypatch):
    def refuse(m):
        raise AssertionError(f"discriminant of cyclo:{m} built")

    monkeypatch.setattr(fields, "_cyclotomic_discriminant", refuse)
    K = nv.parse_field("cyclo:999983")
    assert (K.degree, K.conductor) == (999_982, 999_983)
    assert K == nv.parse_field("cyclo:999983") and hash(K) == hash(nv.parse_field("cyclo:999983"))
    assert nv.norm_class_group(K, 12).order == 4  # a cache keyed by the field
    with pytest.raises(AssertionError, match="cyclo:999983 built"):
        K.discriminant


@pytest.mark.parametrize("label", [*ORACLE_LABELS, "quad:-249999", "cyclo:105", "cyclo:1009", "cyclo:2003"])
def test_discriminant_log10_is_the_built_discriminants(label):
    field = nv.parse_field(label)
    assert field.discriminant_log10() == pytest.approx(math.log10(abs(field.discriminant)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_two_parses_are_equal_and_hash_equal(label):
    first, second = nv.parse_field(label), nv.parse_field(label)
    assert first == second and hash(first) == hash(second)
    assert first.as_dict() == second.as_dict()
